//! Single-piece reverse-reachable set pools.

use crate::edge_prob::EdgeProb;
use oipa_graph::traverse::BfsScratch;
use oipa_graph::{DiGraph, EdgeId, NodeId};
use rand::distributions::{Distribution, Uniform};
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};
use rayon::prelude::*;

/// θ RR sets as their inverted node→samples index, the one structure
/// every coverage step walks.
///
/// `idx_offsets[v]..idx_offsets[v+1]` delimits, in `idx_samples`, the
/// ids of the sets that contain `v`, ascending. The sets themselves are
/// not kept: sampling writes them in runs of consecutive walks, which
/// are indexed and dropped. A set's members are the nodes whose postings
/// hold its id, so the index keeps everything a set is but the order its
/// walk visited them in.
#[derive(Debug, Clone, Default)]
pub struct RrStore {
    theta: usize,
    idx_offsets: Vec<u64>,
    idx_samples: Vec<u32>,
}

/// The forward RR sets of consecutive walks, in walk order, as sampling
/// writes them.
#[derive(Debug, Default)]
pub(crate) struct SetRun {
    /// `ends[k]` is one past set k's last node in `nodes`.
    ends: Vec<usize>,
    nodes: Vec<NodeId>,
}

impl SetRun {
    /// An empty run with room for `sets` sets.
    pub(crate) fn with_capacity(sets: usize) -> SetRun {
        SetRun {
            ends: Vec::with_capacity(sets),
            nodes: Vec::new(),
        }
    }

    /// Appends the next walk's set.
    pub(crate) fn push(&mut self, set: &[NodeId]) {
        self.nodes.extend_from_slice(set);
        self.ends.push(self.nodes.len());
    }

    /// Calls `f(set)` for each set, in walk order.
    fn for_each_set(&self, mut f: impl FnMut(&[NodeId])) {
        let mut start = 0;
        for &end in &self.ends {
            f(&self.nodes[start..end]);
            start = end;
        }
    }
}

impl RrStore {
    /// Number of RR sets θ.
    #[inline]
    pub fn len(&self) -> usize {
        self.theta
    }

    /// Whether the store holds no sets.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.theta == 0
    }

    /// Sample ids whose RR set contains `v`.
    #[inline]
    pub fn samples_containing(&self, v: NodeId) -> &[u32] {
        &self.idx_samples
            [self.idx_offsets[v as usize] as usize..self.idx_offsets[v as usize + 1] as usize]
    }

    /// Total nodes across all sets (Σ|R_i|), one posting each.
    #[inline]
    pub fn total_nodes(&self) -> usize {
        self.idx_samples.len()
    }

    /// Approximate resident heap size in bytes: the inverted index. Pool
    /// caches (e.g. the `PlannerService` arena) use this to enforce a
    /// byte budget.
    pub fn memory_bytes(&self) -> usize {
        self.idx_offsets.len() * std::mem::size_of::<u64>()
            + self.idx_samples.len() * std::mem::size_of::<u32>()
    }

    /// Indexes the sets of `runs`, taken in order as sets 0, 1, … over
    /// `n` nodes, and drops them: a count of each node's occurrences and
    /// a prefix sum give each node's postings range, then one pass over
    /// the sets in id order fills them, so every node's postings ascend.
    pub(crate) fn from_runs(runs: Vec<SetRun>, n: usize) -> RrStore {
        let mut counts = vec![0u64; n + 1];
        for run in &runs {
            for &v in &run.nodes {
                counts[v as usize + 1] += 1;
            }
        }
        for i in 1..counts.len() {
            counts[i] += counts[i - 1];
        }
        let mut idx_samples = vec![0u32; counts[n] as usize];
        let mut cursor = counts[..n].to_vec();
        let mut id = 0u32;
        for run in &runs {
            run.for_each_set(|set| {
                for &v in set {
                    idx_samples[cursor[v as usize] as usize] = id;
                    cursor[v as usize] += 1;
                }
                id = id.wrapping_add(1);
            });
        }
        RrStore {
            theta: runs.iter().map(|run| run.ends.len()).sum(),
            idx_offsets: counts,
            idx_samples,
        }
    }

    /// Raw inverted-index offsets (for serialization).
    pub(crate) fn raw_idx_offsets(&self) -> &[u64] {
        &self.idx_offsets
    }

    /// Raw inverted-index postings (for serialization).
    pub(crate) fn raw_idx_samples(&self) -> &[u32] {
        &self.idx_samples
    }

    /// Builds a store of `theta` sets from decoded index arrays whose
    /// shapes the decoder has checked.
    pub(crate) fn from_parts(
        theta: usize,
        idx_offsets: Vec<u64>,
        idx_samples: Vec<u32>,
    ) -> RrStore {
        RrStore {
            theta,
            idx_offsets,
            idx_samples,
        }
    }

    /// Returns a copy of this store with the sets named in `replacements`
    /// (sorted ascending by set id, each id at most once) replaced: the
    /// splice step of surgical pool repair.
    ///
    /// Set ids never move, so each node's new postings are its old ones
    /// minus the replaced ids, merged with the replaced ids whose new set
    /// holds it. Both lists ascend and are disjoint, so the merge ascends
    /// exactly as [`RrStore::from_runs`] over the new sets would lay it
    /// out, and a repaired pool matches a cold resample bit for bit. No
    /// old set is kept to say which nodes a replaced set held, so every
    /// node's postings pass the replaced-id filter. Borrowing rather than
    /// mutating lets a repair build the new store straight from the stale
    /// one, with no intermediate full-pool clone.
    pub(crate) fn spliced(&self, replacements: &[(u32, Vec<NodeId>)]) -> RrStore {
        debug_assert!(
            replacements.windows(2).all(|w| w[0].0 < w[1].0),
            "replacements must be sorted by set id without duplicates"
        );
        if replacements.is_empty() {
            return self.clone();
        }
        let mut replaced = vec![false; self.theta];
        // `(node, set id)` pairs of the new sets, sorted by node then id.
        let mut additions: Vec<(NodeId, u32)> = Vec::new();
        for (i, new_set) in replacements {
            replaced[*i as usize] = true;
            additions.extend(new_set.iter().map(|&v| (v, *i)));
        }
        additions.sort_unstable();

        let n = self.idx_offsets.len() - 1;
        let mut idx_offsets: Vec<u64> = Vec::with_capacity(n + 1);
        let mut idx_samples: Vec<u32> =
            Vec::with_capacity(self.idx_samples.len() + additions.len());
        idx_offsets.push(0u64);
        let mut add_cursor = 0usize;
        for v in 0..n {
            let adds_lo = add_cursor;
            while add_cursor < additions.len() && additions[add_cursor].0 as usize == v {
                add_cursor += 1;
            }
            let mut adds = additions[adds_lo..add_cursor]
                .iter()
                .map(|&(_, id)| id)
                .peekable();
            let (lo, hi) = (
                self.idx_offsets[v] as usize,
                self.idx_offsets[v + 1] as usize,
            );
            for &id in &self.idx_samples[lo..hi] {
                if replaced[id as usize] {
                    continue;
                }
                while let Some(add) = adds.next_if(|&add| add < id) {
                    idx_samples.push(add);
                }
                idx_samples.push(id);
            }
            idx_samples.extend(adds);
            idx_offsets.push(idx_samples.len() as u64);
        }
        RrStore {
            theta: self.theta,
            idx_offsets,
            idx_samples,
        }
    }
}

/// The live in-edges of one homogeneous influence graph: for each node
/// `v`, the in-edges of `v` whose probability is `> 0`, in
/// [`DiGraph::in_edges`] order, each as `(source, threshold)` with
/// `threshold = ceil(p · 2^24)` (saturating). Edges with `p ≤ 0` or a NaN
/// `p` are left out: they never drew and never crossed.
///
/// Usually a reverse CSR built once per piece per pool in O(n + m), so a
/// walk neither evaluates a probability nor visits an edge that can never
/// be live. When a pool's walks are too few to repay that build
/// ([`LiveInEdges::for_walks`]), each visited row is read from the
/// probability source instead; both forms yield the same pairs, so the
/// choice never changes a sampled set.
pub struct LiveInEdges<'a> {
    rows: Rows<'a>,
}

enum Rows<'a> {
    Built {
        offsets: Vec<u32>,
        edges: Vec<(NodeId, u32)>,
    },
    Probed {
        graph: &'a DiGraph,
        probs: &'a dyn EdgeProb,
    },
}

/// Pools with fewer than `n / BUILD_DIVISOR` walks read rows from the
/// probability source: they visit too few of the n rows to repay a
/// build over all of them (on 50k- and 1M-node graphs at ℓ = 4 the
/// build lost at θ = n/50 and n/10 and won from θ = 0.4·n up).
const BUILD_DIVISOR: usize = 4;

impl<'a> LiveInEdges<'a> {
    /// Collects the live in-edges of `graph` under `probs`.
    pub fn new<P: EdgeProb + ?Sized>(graph: &DiGraph, probs: &P) -> LiveInEdges<'a> {
        // Probabilities are read in edge-id order, the order their tables
        // are laid out in, then gathered per target.
        let thresholds: Vec<u32> = (0..graph.edge_count() as EdgeId)
            .map(|e| threshold(probs.prob(e)))
            .collect();
        let mut offsets = Vec::with_capacity(graph.node_count() + 1);
        let mut edges = Vec::new();
        offsets.push(0u32);
        for v in graph.nodes() {
            for e in graph.in_edges(v) {
                let t = thresholds[e.id as usize];
                if t > 0 {
                    edges.push((e.source, t));
                }
            }
            offsets.push(edges.len() as u32);
        }
        LiveInEdges {
            rows: Rows::Built { offsets, edges },
        }
    }

    /// The live in-edges for a pool of `walks` walks: built when the
    /// walks are at least a quarter of the node count, read row by row
    /// from `probs` otherwise.
    pub fn for_walks<P: EdgeProb>(graph: &'a DiGraph, probs: &'a P, walks: usize) -> Self {
        if walks.saturating_mul(BUILD_DIVISOR) >= graph.node_count() {
            LiveInEdges::new(graph, probs)
        } else {
            LiveInEdges {
                rows: Rows::Probed { graph, probs },
            }
        }
    }

    /// Calls `f(source, threshold)` for each live in-edge of `v`, in order.
    #[inline]
    fn for_each(&self, v: NodeId, mut f: impl FnMut(NodeId, u32)) {
        match &self.rows {
            Rows::Built { offsets, edges } => {
                let (lo, hi) = (offsets[v as usize], offsets[v as usize + 1]);
                for &(source, t) in &edges[lo as usize..hi as usize] {
                    f(source, t);
                }
            }
            Rows::Probed { graph, probs } => {
                for e in graph.in_edges(v) {
                    let t = threshold(probs.prob(e.id));
                    if t > 0 {
                        f(e.source, t);
                    }
                }
            }
        }
    }
}

/// The integer threshold of probability `p`: a 24-bit draw
/// `k = word >> 40` crosses an edge iff `k < threshold(p)`.
///
/// This is exactly the float test `k · 2^-24 < p`, which is what
/// `gen_range(0.0f32..1.0) < p` computes on the same word: `k` is an
/// integer, so `k · 2^-24 < p ⇔ k < p · 2^24 ⇔ k < ceil(p · 2^24)`, and
/// `p · 2^24` is exact in `f64`. The cast saturates: `p ≥ 1` gives a
/// threshold of at least `2^24` (always crosses), `p ≤ 0` and NaN give 0
/// (never).
#[inline]
fn threshold(p: f32) -> u32 {
    (f64::from(p) * f64::from(1u32 << 24)).ceil() as u32
}

/// Samples one RR set rooted at `root`: the set of nodes that reach `root`
/// in a live-edge sample of the influence graph, where each in-edge is live
/// independently with its piece probability.
///
/// The walk visits nodes breadth-first and, for each live in-edge of a
/// visited node whose source is not yet in the set, takes one word from
/// `rng` and crosses iff `(word >> 40) < threshold` (see [`LiveInEdges`]).
/// Edge for edge, that is the float test `gen_range(0.0f32..1.0) < p` on
/// the same word, made for exactly the edges with `p > 0`, so the draw
/// sequence, and every stored pool's bytes, are those of a per-edge
/// float walk over the full in-edge rows.
///
/// `scratch` provides O(1)-reset visit marking; `out` receives the set
/// (cleared first).
pub fn sample_rr_set<R: RngCore + ?Sized>(
    rng: &mut R,
    live: &LiveInEdges<'_>,
    root: NodeId,
    scratch: &mut BfsScratch,
    out: &mut Vec<NodeId>,
) {
    out.clear();
    scratch.begin();
    scratch.mark(root);
    out.push(root);
    let mut head = 0usize;
    while head < out.len() {
        let v = out[head];
        head += 1;
        live.for_each(v, |source, threshold| {
            if !scratch.is_marked(source) && ((rng.next_u64() >> 40) as u32) < threshold {
                scratch.mark(source);
                out.push(source);
            }
        });
    }
}

/// A pool of θ RR sets for one homogeneous influence graph, with roots.
#[derive(Debug, Clone)]
pub struct RrPool {
    n: u32,
    roots: Vec<NodeId>,
    store: RrStore,
}

impl RrPool {
    /// Generates θ RR sets, parallelized across all available threads (or
    /// the ambient rayon thread count, if one is installed). Output is
    /// bitwise deterministic per seed regardless of thread count: each
    /// fixed-size chunk of roots draws from its own seed-derived stream.
    pub fn generate<P: EdgeProb>(graph: &DiGraph, probs: &P, theta: usize, seed: u64) -> RrPool {
        assert!(graph.node_count() > 0, "cannot sample an empty graph");
        let mut rng = SmallRng::seed_from_u64(seed);
        let pick = Uniform::new(0, graph.node_count() as NodeId);
        let roots: Vec<NodeId> = (0..theta).map(|_| pick.sample(&mut rng)).collect();
        let live = LiveInEdges::for_walks(graph, probs, theta);
        let store = generate_store(graph, &live, &roots, seed ^ 0x9e37_79b9_7f4a_7c15);
        RrPool {
            n: graph.node_count() as u32,
            roots,
            store,
        }
    }

    /// Generates θ RR sets with exactly `threads` workers; output is
    /// bit-identical to [`RrPool::generate`] with the same seed.
    pub fn generate_parallel<P: EdgeProb>(
        graph: &DiGraph,
        probs: &P,
        theta: usize,
        seed: u64,
        threads: usize,
    ) -> RrPool {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads.max(1))
            .build()
            .expect("building sampler thread pool");
        pool.install(|| Self::generate(graph, probs, theta, seed))
    }

    /// Number of nodes of the underlying graph (the estimator's `n`).
    #[inline]
    pub fn node_count(&self) -> usize {
        self.n as usize
    }

    /// θ.
    #[inline]
    pub fn theta(&self) -> usize {
        self.store.len()
    }

    /// The sampled roots, aligned with set indices.
    #[inline]
    pub fn roots(&self) -> &[NodeId] {
        &self.roots
    }

    /// Storage access.
    #[inline]
    pub fn store(&self) -> &RrStore {
        &self.store
    }

    /// The classical IM estimate `σ̂(S) = n/θ · #{i : R_i ∩ S ≠ ∅}`.
    pub fn estimate_spread(&self, seeds: &[NodeId]) -> f64 {
        if self.theta() == 0 {
            return 0.0;
        }
        let mut covered = vec![false; self.theta()];
        for &s in seeds {
            for &i in self.store.samples_containing(s) {
                covered[i as usize] = true;
            }
        }
        let hit = covered.iter().filter(|&&c| c).count();
        self.n as f64 * hit as f64 / self.theta() as f64
    }
}

/// Fixed-size chunks for deterministic parallel generation. Each chunk gets
/// an independent RNG stream derived from (seed, chunk index).
const CHUNK: usize = 4096;

fn generate_store(graph: &DiGraph, live: &LiveInEdges<'_>, roots: &[NodeId], seed: u64) -> RrStore {
    // Chunk jobs are independent seed-derived streams; par_iter + collect
    // preserves chunk order, so the index is thread-count-invariant.
    let chunk_jobs: Vec<(usize, &[NodeId])> = roots.chunks(CHUNK).enumerate().collect();
    let runs: Vec<SetRun> = chunk_jobs
        .par_iter()
        .map(|&(ci, chunk_roots)| generate_chunk(graph, live, chunk_roots, seed, ci))
        .collect();
    RrStore::from_runs(runs, graph.node_count())
}

fn generate_chunk(
    graph: &DiGraph,
    live: &LiveInEdges<'_>,
    roots: &[NodeId],
    seed: u64,
    chunk_index: usize,
) -> SetRun {
    // Same bijective stream derivation as the MRR sampler: the mix of
    // the chunk index can never collapse two chunks (or every chunk, for
    // an adversarial seed) onto one stream.
    let stream = (chunk_index as u64)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(0x517c_c1b7);
    let mut rng = SmallRng::seed_from_u64(seed ^ stream);
    let mut scratch = BfsScratch::new(graph.node_count());
    let mut set_buf: Vec<NodeId> = Vec::new();
    let mut run = SetRun::with_capacity(roots.len());
    for &root in roots {
        sample_rr_set(&mut rng, live, root, &mut scratch, &mut set_buf);
        run.push(&set_buf);
    }
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::edge_prob::MaterializedProbs;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::Rng;

    /// The per-edge loop [`sample_rr_set`] replaced, kept as the
    /// reference it must match: one probability probe per unmarked
    /// in-edge, and one `gen_range(0.0f32..1.0)` draw for each with
    /// `p > 0`.
    fn reference_rr_set<R: Rng + ?Sized, P: EdgeProb + ?Sized>(
        rng: &mut R,
        graph: &DiGraph,
        probs: &P,
        root: NodeId,
        scratch: &mut BfsScratch,
        out: &mut Vec<NodeId>,
    ) {
        out.clear();
        scratch.begin();
        scratch.mark(root);
        out.push(root);
        let mut head = 0usize;
        while head < out.len() {
            let v = out[head];
            head += 1;
            for e in graph.in_edges(v) {
                if scratch.is_marked(e.source) {
                    continue;
                }
                let p = probs.prob(e.id);
                if p > 0.0 && rng.gen_range(0.0f32..1.0) < p {
                    scratch.mark(e.source);
                    out.push(e.source);
                }
            }
        }
    }

    /// A generator that returns one fixed word.
    struct Word(u64);

    impl RngCore for Word {
        fn next_u64(&mut self) -> u64 {
            self.0
        }
    }

    /// A walk crosses an edge of probability `p` on draw `k` iff the
    /// float draw `k · 2^-24 < p`, at the draws on either side of the
    /// threshold and at both ends of the 24-bit range, for the
    /// probabilities where rounding could slip.
    #[test]
    fn threshold_is_exactly_the_float_draw() {
        let g = DiGraph::from_edges(2, &[(0, 1)]).unwrap();
        let mut scratch = BfsScratch::new(2);
        let mut out = Vec::new();
        let step = 1.0f32 / (1u32 << 24) as f32;
        let below = |p: f32| f32::from_bits(p.to_bits() - 1);
        let above = |p: f32| f32::from_bits(p.to_bits() + 1);
        let ps = [
            0.0,
            f32::from_bits(1),
            below(step),
            step,
            above(step),
            0.5,
            below(1.0),
            1.0,
            1.5,
            f32::INFINITY,
            f32::NAN,
            -0.25,
        ];
        for p in ps {
            let t = threshold(p);
            for k in [0, t.saturating_sub(1), t, (1 << 24) - 1] {
                if k >= 1 << 24 {
                    continue;
                }
                let word = u64::from(k) << 40;
                let u: f32 = Word(word).gen_range(0.0f32..1.0);
                assert_eq!(u < p, k < t, "p = {p:e}, k = {k}, threshold {t}");
                let live = LiveInEdges::new(&g, &MaterializedProbs(vec![p]));
                sample_rr_set(&mut Word(word), &live, 1, &mut scratch, &mut out);
                assert_eq!(out.len() == 2, u < p, "walk at p = {p:e}, k = {k}");
            }
        }
        assert_eq!(threshold(0.0), 0);
        assert_eq!(threshold(-0.25), 0);
        assert_eq!(threshold(f32::NAN), 0);
        assert_eq!(threshold(f32::from_bits(1)), 1);
        assert_eq!(threshold(step), 1);
        assert_eq!(threshold(above(step)), 2);
        assert_eq!(threshold(below(1.0)), (1 << 24) - 1);
        assert_eq!(threshold(1.0), 1 << 24);
        assert_eq!(threshold(f32::INFINITY), u32::MAX);
    }

    /// Pools whose walks reach a quarter of the node count build the
    /// list; smaller ones read rows from the probabilities.
    #[test]
    fn for_walks_builds_from_a_quarter_of_the_nodes() {
        let g = DiGraph::from_edges(100, &[(0, 1)]).unwrap();
        let p = MaterializedProbs(vec![0.5]);
        let built = |walks| {
            matches!(
                LiveInEdges::for_walks(&g, &p, walks).rows,
                Rows::Built { .. }
            )
        };
        assert!(!built(0));
        assert!(!built(24));
        assert!(built(25));
        assert!(built(usize::MAX));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The live-edge walk, over a built list and over rows read from
        /// the probabilities, returns exactly the sets of the per-edge
        /// reference and consumes exactly its draws, on graphs with
        /// multi-edges and self-loops and probabilities that are zero,
        /// one, above one, negative or NaN.
        #[test]
        fn live_edge_walk_equals_per_edge_reference(
            edges in proptest::collection::vec(((0u32..12, 0u32..12), 0u8..8, 0.0f32..1.0), 0..70),
            seed in 0u64..u64::MAX,
        ) {
            let pairs: Vec<(NodeId, NodeId)> = edges.iter().map(|&(e, _, _)| e).collect();
            let g = DiGraph::from_edges(12, &pairs).unwrap();
            let probs = MaterializedProbs(
                edges
                    .iter()
                    .map(|&(_, kind, x)| match kind {
                        0 => 0.0,
                        1 => 1.0,
                        2 => 1.0 + x,
                        3 => -x,
                        4 => f32::NAN,
                        5 => x * 1e-6,
                        _ => x,
                    })
                    .collect(),
            );
            let built = LiveInEdges::new(&g, &probs);
            let probed = LiveInEdges::for_walks(&g, &probs, 0);
            for live in [&built, &probed] {
                let mut rng_new = SmallRng::seed_from_u64(seed);
                let mut rng_ref = SmallRng::seed_from_u64(seed);
                let mut scratch = BfsScratch::new(12);
                let (mut got, mut want) = (Vec::new(), Vec::new());
                for walk in 0..48u32 {
                    let root = walk % 12;
                    sample_rr_set(&mut rng_new, live, root, &mut scratch, &mut got);
                    reference_rr_set(&mut rng_ref, &g, &probs, root, &mut scratch, &mut want);
                    prop_assert_eq!(&got, &want, "walk {}", walk);
                    prop_assert_eq!(rng_new.next_u64(), rng_ref.next_u64(), "draws of walk {}", walk);
                }
            }
        }
    }

    fn line_graph() -> (DiGraph, MaterializedProbs) {
        // 0 -> 1 -> 2 with probability 1 everywhere.
        let g = DiGraph::from_edges(3, &[(0, 1), (1, 2)]).unwrap();
        let p = MaterializedProbs(vec![1.0; g.edge_count()]);
        (g, p)
    }

    #[test]
    fn rr_set_deterministic_edges() {
        let (g, p) = line_graph();
        let live = LiveInEdges::new(&g, &p);
        let mut rng = StdRng::seed_from_u64(0);
        let mut scratch = BfsScratch::new(3);
        let mut out = Vec::new();
        sample_rr_set(&mut rng, &live, 2, &mut scratch, &mut out);
        let mut sorted = out.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2]);
        sample_rr_set(&mut rng, &live, 0, &mut scratch, &mut out);
        assert_eq!(out, vec![0]);
    }

    #[test]
    fn zero_prob_edges_never_cross() {
        let g = DiGraph::from_edges(2, &[(0, 1)]).unwrap();
        let live = LiveInEdges::new(&g, &MaterializedProbs(vec![0.0]));
        let mut rng = StdRng::seed_from_u64(1);
        let mut scratch = BfsScratch::new(2);
        let mut out = Vec::new();
        for _ in 0..50 {
            sample_rr_set(&mut rng, &live, 1, &mut scratch, &mut out);
            assert_eq!(out, vec![1]);
        }
    }

    #[test]
    fn pool_estimates_deterministic_graph_exactly() {
        let (g, p) = line_graph();
        let pool = RrPool::generate(&g, &p, 3000, 7);
        // Seed {0} reaches everyone: spread 3. Estimator must be exact
        // because all probabilities are 0/1.
        assert!((pool.estimate_spread(&[0]) - 3.0).abs() < 1e-9);
        // Seed {2} reaches only itself: RR sets rooted at 2 are the only
        // ones containing 2 ⇒ estimate ≈ n · P(root = 2) ≈ 1.
        let est = pool.estimate_spread(&[2]);
        assert!((est - 1.0).abs() < 0.2, "estimate {est}");
        assert_eq!(pool.estimate_spread(&[]), 0.0);
    }

    /// Every posting list of two stores, compared node by node.
    fn assert_same_index(a: &RrStore, b: &RrStore, n: u32, label: &str) {
        assert_eq!(a.len(), b.len(), "{label}: θ");
        for v in 0..n {
            assert_eq!(
                a.samples_containing(v),
                b.samples_containing(v),
                "{label}: postings of node {v}"
            );
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = oipa_graph::generators::erdos_renyi_gnm(&mut rng, 120, 600);
        let p = MaterializedProbs(vec![0.2; g.edge_count()]);
        let a = RrPool::generate(&g, &p, 10_000, 42);
        let b = RrPool::generate_parallel(&g, &p, 10_000, 42, 4);
        assert_eq!(a.roots(), b.roots());
        assert_eq!(a.store().total_nodes(), b.store().total_nodes());
        assert_same_index(a.store(), b.store(), 120, "4 threads");
    }

    /// One seed ⇒ one pool, for any thread count, compared exhaustively
    /// (the roots and the full inverted index).
    #[test]
    fn thread_count_invariance_exhaustive() {
        let mut rng = StdRng::seed_from_u64(31);
        let g = oipa_graph::generators::erdos_renyi_gnm(&mut rng, 200, 1400);
        let p = MaterializedProbs(vec![0.15; g.edge_count()]);
        // Multiple chunks (CHUNK = 4096) so work really splits.
        let theta = 2 * CHUNK + 101;
        let reference = RrPool::generate_parallel(&g, &p, theta, 7, 1);
        for threads in [2, 5, 16] {
            let pool = RrPool::generate_parallel(&g, &p, theta, 7, threads);
            assert_eq!(reference.roots(), pool.roots(), "{threads} threads");
            assert_same_index(
                reference.store(),
                pool.store(),
                200,
                &format!("{threads} threads"),
            );
        }
    }

    /// The index holds exactly the sets the walks drew: replaying the
    /// pool's single chunk gives each set, and a node lists a set iff
    /// the set holds it.
    #[test]
    fn inverted_index_consistent() {
        let mut rng = StdRng::seed_from_u64(9);
        let g = oipa_graph::generators::erdos_renyi_gnm(&mut rng, 50, 300);
        let p = MaterializedProbs(vec![0.3; g.edge_count()]);
        let pool = RrPool::generate(&g, &p, 2000, 3);
        let live = LiveInEdges::for_walks(&g, &p, 2000);
        let run = generate_chunk(&g, &live, pool.roots(), 3 ^ 0x9e37_79b9_7f4a_7c15, 0);
        let mut sets = Vec::new();
        run.for_each_set(|set| sets.push(set.to_vec()));
        assert_eq!(sets.len(), pool.theta());
        for v in 0..50u32 {
            let via_index: std::collections::HashSet<u32> =
                pool.store().samples_containing(v).iter().copied().collect();
            for (i, set) in sets.iter().enumerate() {
                let member = set.contains(&v);
                assert_eq!(member, via_index.contains(&(i as u32)), "node {v} set {i}");
            }
        }
    }

    /// Indexing several runs numbers their sets on from one run to the
    /// next, and empty runs and sets take no ids and no postings.
    #[test]
    fn from_runs_numbers_sets_across_runs() {
        let run = |sets: &[&[NodeId]]| {
            let mut run = SetRun::with_capacity(sets.len());
            for set in sets {
                run.push(set);
            }
            run
        };
        let store = RrStore::from_runs(
            vec![
                run(&[&[2, 0], &[1]]),
                run(&[]),
                run(&[&[], &[0, 1, 2], &[2]]),
            ],
            4,
        );
        assert_eq!(store.len(), 5);
        assert_eq!(store.total_nodes(), 7);
        assert_eq!(store.samples_containing(0), &[0, 3]);
        assert_eq!(store.samples_containing(1), &[1, 3]);
        assert_eq!(store.samples_containing(2), &[0, 3, 4]);
        assert_eq!(store.samples_containing(3), &[] as &[u32]);
        assert_eq!(store.memory_bytes(), 5 * 8 + 7 * 4);
    }

    /// A splice equals indexing the new sets from scratch, whether it
    /// replaces no set, one set or every set, and whether a new set is
    /// empty or holds a node no old set held.
    #[test]
    fn spliced_equals_a_fresh_index() {
        let old: Vec<Vec<NodeId>> = vec![vec![0, 1], vec![1], vec![2, 1, 0], vec![], vec![1, 2]];
        let index = |sets: &[Vec<NodeId>]| {
            let mut run = SetRun::default();
            for set in sets {
                run.push(set);
            }
            RrStore::from_runs(vec![run], 4)
        };
        let store = index(&old);
        let cases: [&[(u32, Vec<NodeId>)]; 4] = [
            &[],
            &[(2, vec![3])],
            &[(0, vec![]), (3, vec![3, 0]), (4, vec![1])],
            &[
                (0, vec![3]),
                (1, vec![0, 3]),
                (2, vec![]),
                (3, vec![2]),
                (4, vec![1, 0]),
            ],
        ];
        for replacements in cases {
            let mut new = old.clone();
            for (i, set) in replacements {
                new[*i as usize] = set.clone();
            }
            let label = format!("{} replaced", replacements.len());
            assert_same_index(&store.spliced(replacements), &index(&new), 4, &label);
        }
    }

    #[test]
    fn estimator_close_to_truth_on_random_graph() {
        let mut rng = StdRng::seed_from_u64(11);
        let g = oipa_graph::generators::erdos_renyi_gnm(&mut rng, 80, 400);
        let probs = MaterializedProbs(vec![0.15; g.edge_count()]);
        let pool = RrPool::generate(&g, &probs, 60_000, 21);
        let seeds = vec![0u32, 1, 2];
        let est = pool.estimate_spread(&seeds);
        let truth = crate::simulate::simulate_spread(
            &mut StdRng::seed_from_u64(77),
            &g,
            &probs,
            &seeds,
            4000,
        );
        let rel = (est - truth).abs() / truth.max(1.0);
        assert!(rel < 0.08, "estimate {est} vs truth {truth} (rel {rel})");
    }

    #[test]
    fn roots_cover_all_nodes_eventually() {
        let (g, p) = line_graph();
        let pool = RrPool::generate(&g, &p, 500, 13);
        let distinct: std::collections::HashSet<_> = pool.roots().iter().collect();
        assert_eq!(distinct.len(), 3);
    }
}
