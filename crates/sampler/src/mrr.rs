//! Multi-reverse-reachable (MRR) set pools.
//!
//! One MRR sample is a multiset `R_i = {R_i^1, …, R_i^ℓ}`: for a single
//! uniformly drawn root `v_i`, one RR set per viral piece under that
//! piece's influence graph. Sharing the root across pieces is what makes
//! Eqn. (6) an unbiased estimator of the adoption utility (Lemma 2).

use crate::edge_prob::PieceProbs;
use crate::rr::{sample_rr_set, LiveInEdges, RrStore, SetRun, WalkScratch};
use oipa_graph::{DiGraph, NodeId};
use oipa_topics::{Campaign, EdgeTopicProbs};
use rand::distributions::{Distribution, Uniform};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use rayon::prelude::*;

/// θ MRR samples for an ℓ-piece campaign, kept as each piece's inverted
/// node → sample-ids index (see [`RrStore`]).
///
/// ```
/// use oipa_sampler::MrrPool;
///
/// let (graph, table, campaign) = oipa_sampler::testkit::fig1();
/// let pool = MrrPool::generate(&graph, &table, &campaign, 1_000, 42);
/// assert_eq!(pool.theta(), 1_000);
/// assert_eq!(pool.ell(), 2);
/// // Every sample's RR set for a piece contains its root.
/// assert!(pool.samples_containing(0, pool.roots()[0]).contains(&0));
/// ```
#[derive(Debug, Clone)]
pub struct MrrPool {
    n: u32,
    roots: Vec<NodeId>,
    stores: Vec<RrStore>,
}

/// Fixed chunk size; must match across sequential/parallel generation so
/// results are reproducible regardless of thread count.
const CHUNK: usize = 2048;

/// Dead walks per repair job. Per-walk streams make the result
/// independent of it.
const REPAIR_CHUNK: usize = 256;

/// The most pieces a pool may hold. Solvers count how many pieces reach
/// each sample in a `u8`, so pools are built ([`MrrPool::try_generate`])
/// and decoded ([`crate::binio`]) only up to this ℓ.
pub const MAX_PIECES: usize = u8::MAX as usize;

/// Why a pool could not be generated from the given inputs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PoolBuildError {
    /// The graph has no nodes to sample roots from.
    EmptyGraph,
    /// The probability table does not describe the graph's edges.
    TableMismatch(String),
    /// The campaign has no pieces.
    EmptyCampaign,
    /// The campaign has more than [`MAX_PIECES`] pieces.
    TooManyPieces(usize),
    /// Repair inputs do not match the pool being repaired.
    PoolMismatch(String),
}

impl std::fmt::Display for PoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolBuildError::EmptyGraph => write!(f, "cannot sample an empty graph"),
            PoolBuildError::TableMismatch(m) => {
                write!(f, "probability table does not match the graph: {m}")
            }
            PoolBuildError::EmptyCampaign => write!(f, "campaign has no pieces"),
            PoolBuildError::TooManyPieces(ell) => {
                write!(
                    f,
                    "campaign has {ell} pieces; a pool holds at most {MAX_PIECES}"
                )
            }
            PoolBuildError::PoolMismatch(m) => {
                write!(f, "repair inputs do not match the pool: {m}")
            }
        }
    }
}

/// What a [`MrrPool::repair`] call did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairOutcome {
    /// Total RR sets in the pool (θ · ℓ).
    pub sets_total: usize,
    /// Sets classified dead and resampled.
    pub sets_resampled: usize,
}

impl std::error::Error for PoolBuildError {}

impl MrrPool {
    /// Generates θ MRR samples, parallelized across all available threads
    /// (or the ambient rayon thread count, if one is installed).
    ///
    /// Panics on inconsistent inputs; use [`MrrPool::try_generate`] for a
    /// typed error instead.
    pub fn generate(
        graph: &DiGraph,
        table: &EdgeTopicProbs,
        campaign: &Campaign,
        theta: usize,
        seed: u64,
    ) -> MrrPool {
        Self::try_generate(graph, table, campaign, theta, seed).expect("valid sampling inputs")
    }

    /// Generates θ MRR samples, validating the inputs.
    ///
    /// Output is **bitwise deterministic per seed regardless of thread
    /// count**: each (piece, walk) pair derives an independent RNG stream
    /// from the base seed (see `walk_rng`), work is chunked only for
    /// parallel scheduling, and each piece's index numbers the sets of
    /// its chunks in chunk order. The walks of every (piece, chunk) job
    /// run in parallel; then the ℓ indexes are built as one parallel step
    /// over the pieces.
    /// Per-walk streams also make pools surgically repairable after a
    /// graph delta — see [`MrrPool::repair`].
    pub fn try_generate(
        graph: &DiGraph,
        table: &EdgeTopicProbs,
        campaign: &Campaign,
        theta: usize,
        seed: u64,
    ) -> Result<MrrPool, PoolBuildError> {
        if graph.node_count() == 0 {
            return Err(PoolBuildError::EmptyGraph);
        }
        if campaign.is_empty() {
            return Err(PoolBuildError::EmptyCampaign);
        }
        if campaign.len() > MAX_PIECES {
            return Err(PoolBuildError::TooManyPieces(campaign.len()));
        }
        table
            .check_against(graph)
            .map_err(|e| PoolBuildError::TableMismatch(e.to_string()))?;
        if let Some(piece) = campaign
            .pieces()
            .iter()
            .find(|p| p.topics.dim() != table.topic_count())
        {
            return Err(PoolBuildError::TableMismatch(format!(
                "piece {:?} has {}-dimensional topics but the table has {} topics",
                piece.name,
                piece.topics.dim(),
                table.topic_count()
            )));
        }
        let mut rng = SmallRng::seed_from_u64(seed);
        let pick = Uniform::new(0, graph.node_count() as NodeId);
        let roots: Vec<NodeId> = (0..theta).map(|_| pick.sample(&mut rng)).collect();

        // One live-edge list per piece, shared by all of its chunks.
        let probs: Vec<PieceProbs<'_>> = campaign
            .pieces()
            .iter()
            .map(|piece| PieceProbs::new(table, &piece.topics))
            .collect();
        let lives: Vec<LiveInEdges<'_>> = probs
            .iter()
            .map(|probs| LiveInEdges::for_walks(graph, probs, theta))
            .collect();
        // Job = (piece j, the walks of chunk ci).
        let ell = campaign.len();
        let chunk_count = roots.len().div_ceil(CHUNK).max(1);
        let jobs: Vec<(usize, std::ops::Range<usize>)> = (0..ell)
            .flat_map(|j| {
                (0..chunk_count).map(move |ci| (j, ci * CHUNK..((ci + 1) * CHUNK).min(theta)))
            })
            .collect();
        let runs: Vec<SetRun> = jobs
            .par_iter()
            .map(|(j, walks)| walk_run(&lives[*j], &roots, seed, *j, walks.clone()))
            .collect();
        let stores = index_pieces(ell, jobs.iter().map(|(j, _)| *j), runs, |_, runs| {
            RrStore::from_runs(runs, graph.node_count())
        });
        Ok(MrrPool {
            n: graph.node_count() as u32,
            roots,
            stores,
        })
    }

    /// Generates θ MRR samples with exactly `threads` workers. Produces
    /// output identical to [`MrrPool::generate`] for the same seed — the
    /// thread count only affects wall-clock time.
    pub fn generate_parallel(
        graph: &DiGraph,
        table: &EdgeTopicProbs,
        campaign: &Campaign,
        theta: usize,
        seed: u64,
        threads: usize,
    ) -> MrrPool {
        Self::try_generate_parallel(graph, table, campaign, theta, seed, threads)
            .expect("valid sampling inputs")
    }

    /// [`MrrPool::try_generate`] with exactly `threads` workers.
    pub fn try_generate_parallel(
        graph: &DiGraph,
        table: &EdgeTopicProbs,
        campaign: &Campaign,
        theta: usize,
        seed: u64,
        threads: usize,
    ) -> Result<MrrPool, PoolBuildError> {
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads.max(1))
            .build()
            .expect("building sampler thread pool");
        pool.install(|| Self::try_generate(graph, table, campaign, theta, seed))
    }

    /// Number of graph nodes `n` (the estimator scale factor numerator).
    #[inline]
    pub fn node_count(&self) -> usize {
        self.n as usize
    }

    /// Number of MRR samples θ.
    #[inline]
    pub fn theta(&self) -> usize {
        self.roots.len()
    }

    /// Number of pieces ℓ.
    #[inline]
    pub fn ell(&self) -> usize {
        self.stores.len()
    }

    /// The shared root sequence.
    #[inline]
    pub fn roots(&self) -> &[NodeId] {
        &self.roots
    }

    /// The estimator scale factor `n/θ`.
    #[inline]
    pub fn scale(&self) -> f64 {
        if self.theta() == 0 {
            0.0
        } else {
            self.n as f64 / self.theta() as f64
        }
    }

    /// Sample ids `i` with `v ∈ R_i^j` — the inverted index used by every
    /// marginal-gain evaluation in the solvers.
    #[inline]
    pub fn samples_containing(&self, piece: usize, v: NodeId) -> &[u32] {
        self.stores[piece].samples_containing(v)
    }

    /// Per-piece storage (for baselines that treat one piece's sets as a
    /// plain RR pool).
    #[inline]
    pub fn piece_store(&self, piece: usize) -> &RrStore {
        &self.stores[piece]
    }

    /// Reassembles a pool from deserialized parts (crate-internal; used by
    /// `binio`, which has checked that there is at least one piece and
    /// sized every piece's θ from the root count).
    pub(crate) fn from_parts(n: u32, roots: Vec<NodeId>, stores: Vec<RrStore>) -> MrrPool {
        debug_assert!(!stores.is_empty());
        debug_assert!(stores.iter().all(|s| s.len() == roots.len()));
        MrrPool { n, roots, stores }
    }

    /// A content fingerprint over the node count, roots and every piece's
    /// inverted index. Two pools fingerprint equal iff they are
    /// bitwise-identical, so caches keyed by fingerprint (the service's
    /// `@external:` arena keys, the persistent store) never alias two
    /// different externally loaded pools.
    pub fn fingerprint(&self) -> u64 {
        use std::hash::Hasher as _;
        let mut h = oipa_graph::hashing::FxHasher::default();
        h.write_u32(self.n);
        h.write_u64(self.roots.len() as u64);
        for &r in &self.roots {
            h.write_u32(r);
        }
        for store in &self.stores {
            h.write_u64(store.raw_idx_offsets().len() as u64);
            for &off in store.raw_idx_offsets() {
                h.write_u64(off);
            }
            for &i in store.raw_idx_samples() {
                h.write_u32(i);
            }
        }
        h.finish()
    }

    /// Walk ids (sorted ascending) whose RR set for `piece` contains any
    /// dirty target — the live/dead classification of surgical delta
    /// invalidation.
    ///
    /// This is exact, not conservative-in-both-directions: RR sampling
    /// only ever iterates `in_edges(v)` of *visited* nodes, and a delta
    /// only changes the in-edge rows of its dirty targets, so a walk's
    /// traversal (and draw sequence) changes iff its visited set — which
    /// is precisely its RR set — touches a dirty target. The pool's
    /// inverted index answers that membership query directly; it doubles
    /// as the per-walk provenance structure.
    pub fn dead_walks(&self, piece: usize, dirty_targets: &[NodeId]) -> Vec<u32> {
        let mut dead = vec![false; self.theta()];
        for &v in dirty_targets {
            if (v as usize) >= self.n as usize {
                continue;
            }
            for &i in self.stores[piece].samples_containing(v) {
                dead[i as usize] = true;
            }
        }
        dead.iter()
            .enumerate()
            .filter_map(|(i, &d)| d.then_some(i as u32))
            .collect()
    }

    /// Repairs the pool in place after a graph delta. Equivalent to
    /// replacing `self` with [`MrrPool::repaired`]'s result.
    pub fn repair(
        &mut self,
        graph: &DiGraph,
        table: &EdgeTopicProbs,
        campaign: &Campaign,
        dirty_targets: &[NodeId],
        seed: u64,
    ) -> Result<RepairOutcome, PoolBuildError> {
        let (pool, outcome) = self.repaired(graph, table, campaign, dirty_targets, seed)?;
        *self = pool;
        Ok(outcome)
    }

    /// Builds the post-delta pool from this (stale) one: resamples *only*
    /// the dead walks against the post-delta inputs and splices their new
    /// sets into copies of the per-piece indexes: each node's postings
    /// lose the dead ids and gain those of the new sets that hold it.
    ///
    /// It runs the two steps of [`MrrPool::try_generate`]: the dead walks
    /// of all pieces, as one parallel list of (piece, chunk) jobs that
    /// each write one run of sets, then one parallel step over the pieces
    /// that splices each piece's runs into its index. Borrowing `self`
    /// means a caller holding the stale pool behind an `Arc` pays no
    /// intermediate full-pool clone — clean pieces are copied once, dirty
    /// pieces are written once, straight into their repaired form.
    ///
    /// `seed` must be the seed the pool was originally generated with and
    /// `dirty_targets` the union of
    /// [`oipa_graph::DeltaApplication::dirty_targets`] over every delta
    /// applied since — under those conditions the repaired pool is
    /// **bitwise-identical** to `MrrPool::generate(graph, table,
    /// campaign, θ, seed)` on the post-delta inputs (property-tested),
    /// because roots are graph-independent (deltas never change the node
    /// count), live walks replay identical traversals, and dead walks are
    /// regenerated from their own per-walk streams.
    pub fn repaired(
        &self,
        graph: &DiGraph,
        table: &EdgeTopicProbs,
        campaign: &Campaign,
        dirty_targets: &[NodeId],
        seed: u64,
    ) -> Result<(MrrPool, RepairOutcome), PoolBuildError> {
        if graph.node_count() != self.n as usize {
            return Err(PoolBuildError::PoolMismatch(format!(
                "pool was sampled on {} nodes but the graph has {} (deltas are edge-only)",
                self.n,
                graph.node_count()
            )));
        }
        if campaign.len() != self.ell() {
            return Err(PoolBuildError::PoolMismatch(format!(
                "pool has {} pieces but the campaign has {}",
                self.ell(),
                campaign.len()
            )));
        }
        table
            .check_against(graph)
            .map_err(|e| PoolBuildError::TableMismatch(e.to_string()))?;
        if let Some(piece) = campaign
            .pieces()
            .iter()
            .find(|p| p.topics.dim() != table.topic_count())
        {
            return Err(PoolBuildError::TableMismatch(format!(
                "piece {:?} has {}-dimensional topics but the table has {} topics",
                piece.name,
                piece.topics.dim(),
                table.topic_count()
            )));
        }
        let ell = self.ell();
        let dead: Vec<Vec<u32>> = (0..ell)
            .map(|j| self.dead_walks(j, dirty_targets))
            .collect();
        let probs: Vec<PieceProbs<'_>> = campaign
            .pieces()
            .iter()
            .map(|piece| PieceProbs::new(table, &piece.topics))
            .collect();
        // A clean piece's list is never read: with no walks it is the
        // row-by-row form, which costs nothing to make.
        let lives: Vec<LiveInEdges<'_>> = probs
            .iter()
            .zip(&dead)
            .map(|(probs, dead)| LiveInEdges::for_walks(graph, probs, dead.len()))
            .collect();
        let jobs: Vec<(usize, &[u32])> = dead
            .iter()
            .enumerate()
            .flat_map(|(j, dead)| dead.chunks(REPAIR_CHUNK).map(move |walks| (j, walks)))
            .collect();
        let runs: Vec<SetRun> = jobs
            .par_iter()
            .map(|&(j, walks)| {
                let walks = walks.iter().map(|&i| i as usize);
                walk_run(&lives[j], &self.roots, seed, j, walks)
            })
            .collect();
        let stores = index_pieces(ell, jobs.iter().map(|&(j, _)| j), runs, |j, runs| {
            self.stores[j].spliced(&dead[j], runs)
        });
        let outcome = RepairOutcome {
            sets_total: self.theta() * ell,
            sets_resampled: dead.iter().map(Vec::len).sum(),
        };
        Ok((
            MrrPool {
                n: self.n,
                roots: self.roots.clone(),
                stores,
            },
            outcome,
        ))
    }

    /// Total memory-resident node entries across all pieces.
    pub fn total_nodes(&self) -> usize {
        self.stores.iter().map(|s| s.total_nodes()).sum()
    }

    /// Approximate resident heap size in bytes (roots plus every piece's
    /// inverted index). The `PlannerService` pool arena bounds its cache
    /// by this number.
    pub fn memory_bytes(&self) -> usize {
        self.roots.len() * std::mem::size_of::<NodeId>()
            + self.stores.iter().map(|s| s.memory_bytes()).sum::<usize>()
    }
}

/// The per-walk RNG for walk `walk` of piece `piece`.
///
/// Every (piece, walk) pair draws from an independent, reproducible
/// stream. Walk granularity — rather than the chunk granularity the pool
/// originally used — is what makes surgical repair possible: resampling
/// one dead walk replays exactly its own stream, so the repaired set is
/// bitwise-identical to what a cold resample of the post-delta graph
/// would produce for that walk, and every live walk's bytes are
/// untouched. The mix is bijective, so no two streams can collapse onto
/// one even for adversarial seeds.
#[inline]
fn walk_rng(seed: u64, piece: usize, walk: usize) -> SmallRng {
    let stream = ((piece as u64) << 40) | walk as u64;
    SmallRng::seed_from_u64(
        seed ^ stream
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(0x517c_c1b7),
    )
}

/// Walks `walks` of `piece`, each from its own stream and its root in
/// `roots`, over one scratch, and returns their sets as one run.
fn walk_run(
    live: &LiveInEdges<'_>,
    roots: &[NodeId],
    seed: u64,
    piece: usize,
    walks: impl ExactSizeIterator<Item = usize>,
) -> SetRun {
    let mut scratch = WalkScratch::new(live.node_count());
    let mut run = SetRun::with_capacity(walks.len());
    for i in walks {
        let mut rng = walk_rng(seed, piece, i);
        run.push(sample_rr_set(&mut rng, live, roots[i], &mut scratch));
    }
    run
}

/// The index step of generation and repair: `runs` are in job order and
/// `pieces` names each run's piece, so every piece gets its own runs in
/// order. `index` builds a piece's store from them, the pieces in
/// parallel; it consumes the runs, so a piece's runs are dropped as soon
/// as its index is built.
fn index_pieces(
    ell: usize,
    pieces: impl Iterator<Item = usize>,
    runs: Vec<SetRun>,
    index: impl Fn(usize, Vec<SetRun>) -> RrStore + Sync,
) -> Vec<RrStore> {
    let mut by_piece: Vec<(usize, Vec<SetRun>)> = (0..ell).map(|j| (j, Vec::new())).collect();
    for (j, run) in pieces.zip(runs) {
        by_piece[j].1.push(run);
    }
    by_piece
        .into_par_iter()
        .map(|(j, runs)| index(j, runs))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::fig1;

    #[test]
    fn campaigns_over_255_pieces_are_refused() {
        let (g, table, _) = fig1();
        let mut rng = SmallRng::seed_from_u64(1);
        let widest = Campaign::sample_one_hot(&mut rng, 2, MAX_PIECES);
        let pool = MrrPool::try_generate(&g, &table, &widest, 20, 1).unwrap();
        assert_eq!(pool.ell(), MAX_PIECES);
        let too_many = Campaign::sample_one_hot(&mut rng, 2, MAX_PIECES + 1);
        assert_eq!(
            MrrPool::try_generate(&g, &table, &too_many, 20, 1).unwrap_err(),
            PoolBuildError::TooManyPieces(256)
        );
    }

    #[test]
    fn fig1_reachability_matches_example1() {
        let (g, table, campaign) = fig1();
        // Forward closure sanity: under t1 (topic 0), a reaches {a,b,c,d}.
        let probs1 = table.materialize(&campaign.piece(0).topics);
        let live1: Vec<(u32, u32)> = g
            .edges()
            .filter(|e| probs1[e.id as usize] > 0.5)
            .map(|e| (e.source, e.target))
            .collect();
        let g1 = DiGraph::from_edges(5, &live1).unwrap();
        let mut reach = oipa_graph::traverse::forward_reachable(&g1, 0);
        reach.sort_unstable();
        assert_eq!(reach, vec![0, 1, 2, 3]);
        // Under t2, e reaches {b,c,d,e}.
        let probs2 = table.materialize(&campaign.piece(1).topics);
        let live2: Vec<(u32, u32)> = g
            .edges()
            .filter(|e| probs2[e.id as usize] > 0.5)
            .map(|e| (e.source, e.target))
            .collect();
        let g2 = DiGraph::from_edges(5, &live2).unwrap();
        let mut reach = oipa_graph::traverse::forward_reachable(&g2, 4);
        reach.sort_unstable();
        assert_eq!(reach, vec![1, 2, 3, 4]);
    }

    /// Every root and posting list of two pools, and their fingerprints.
    fn assert_same_pool(a: &MrrPool, b: &MrrPool, label: &str) {
        assert_eq!(a.roots(), b.roots(), "{label}: roots");
        assert_eq!(a.ell(), b.ell(), "{label}: ℓ");
        for j in 0..a.ell() {
            for v in 0..a.node_count() as NodeId {
                assert_eq!(
                    a.samples_containing(j, v),
                    b.samples_containing(j, v),
                    "{label}: postings of piece {j} node {v}"
                );
            }
        }
        assert_eq!(a.fingerprint(), b.fingerprint(), "{label}: fingerprint");
    }

    /// The RR sets a pool's walks drew, per piece, replayed from their
    /// per-walk streams.
    fn replayed_sets(
        graph: &DiGraph,
        table: &EdgeTopicProbs,
        campaign: &Campaign,
        pool: &MrrPool,
        seed: u64,
    ) -> Vec<Vec<Vec<NodeId>>> {
        let mut scratch = WalkScratch::new(graph.node_count());
        (0..pool.ell())
            .map(|j| {
                let probs = PieceProbs::new(table, &campaign.piece(j).topics);
                let live = LiveInEdges::new(graph, &probs);
                (0..pool.theta())
                    .map(|i| {
                        let mut rng = walk_rng(seed, j, i);
                        sample_rr_set(&mut rng, &live, pool.roots()[i], &mut scratch).to_vec()
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn mrr_pool_structure() {
        let (g, table, campaign) = fig1();
        let pool = MrrPool::generate(&g, &table, &campaign, 1000, 3);
        assert_eq!(pool.theta(), 1000);
        assert_eq!(pool.ell(), 2);
        assert_eq!(pool.node_count(), 5);
        assert!((pool.scale() - 5.0 / 1000.0).abs() < 1e-12);
        // Deterministic graph: every RR set for piece 0 rooted at c must be
        // exactly the backward closure {c, b, a}.
        for i in 0..pool.theta() {
            if pool.roots()[i] == 2 {
                for v in 0..5 {
                    let member = pool.samples_containing(0, v).contains(&(i as u32));
                    assert_eq!(member, v <= 2, "set {i} node {v}");
                }
            }
        }
    }

    #[test]
    fn parallel_equals_sequential() {
        let (g, table, campaign) = fig1();
        let a = MrrPool::generate(&g, &table, &campaign, 5000, 11);
        let b = MrrPool::generate_parallel(&g, &table, &campaign, 5000, 11, 3);
        assert_same_pool(&a, &b, "3 threads");
    }

    /// The acceptance bar for parallel sampling: one seed must produce a
    /// bitwise-identical pool — every root and every posting of every
    /// piece — whether generated with 1, 2, or many threads.
    #[test]
    fn thread_count_invariance_exhaustive() {
        let (g, table, campaign) = fig1();
        // θ chosen to exercise multiple chunks per piece (CHUNK = 2048).
        let theta = 3 * CHUNK + 17;
        let reference = MrrPool::generate_parallel(&g, &table, &campaign, theta, 99, 1);
        for threads in [2, 3, 8] {
            let pool = MrrPool::generate_parallel(&g, &table, &campaign, theta, 99, threads);
            assert_same_pool(&reference, &pool, &format!("{threads} threads"));
        }
    }

    /// The index holds exactly the sets the walks drew, across several
    /// chunks: a node lists a sample iff that sample's set holds it.
    #[test]
    fn inverted_index_matches_membership() {
        let (g, table, campaign) = fig1();
        let (theta, seed) = (2 * CHUNK + 300, 17);
        let pool = MrrPool::generate(&g, &table, &campaign, theta, seed);
        let sets = replayed_sets(&g, &table, &campaign, &pool, seed);
        for (j, piece_sets) in sets.iter().enumerate() {
            for v in 0..5u32 {
                let via: std::collections::HashSet<u32> =
                    pool.samples_containing(j, v).iter().copied().collect();
                for (i, set) in piece_sets.iter().enumerate() {
                    assert_eq!(set.contains(&v), via.contains(&(i as u32)));
                }
            }
        }
    }

    #[test]
    fn repair_matches_cold_resample_on_fig1() {
        use oipa_graph::{EdgeChange, GraphDelta, TopicProb};
        let (g, table, campaign) = fig1();
        let seed = 77;
        let mut pool = MrrPool::generate(&g, &table, &campaign, 4000, seed);
        // Remove c -> b (kills z2 chains through b) and add a -> d on z1.
        let delta = GraphDelta {
            insert: vec![EdgeChange {
                source: 0,
                target: 3,
                probs: vec![TopicProb {
                    topic: 0,
                    prob: 1.0,
                }],
            }],
            remove: vec![(2, 1)],
            reweight: vec![],
        };
        let app = g.apply_delta(&delta).unwrap();
        let new_table = table.apply_delta(&delta, &app).unwrap();
        let outcome = pool
            .repair(&app.graph, &new_table, &campaign, &app.dirty_targets, seed)
            .unwrap();
        assert!(outcome.sets_resampled > 0);
        assert!(outcome.sets_resampled < outcome.sets_total);
        let cold = MrrPool::generate(&app.graph, &new_table, &campaign, 4000, seed);
        assert_same_pool(&pool, &cold, "repaired");
    }

    #[test]
    fn dead_walk_classification_is_exact() {
        let (g, table, campaign) = fig1();
        let pool = MrrPool::generate(&g, &table, &campaign, 1000, 5);
        let sets = replayed_sets(&g, &table, &campaign, &pool, 5);
        for (j, piece_sets) in sets.iter().enumerate() {
            let dead = pool.dead_walks(j, &[1]);
            for (i, set) in piece_sets.iter().enumerate() {
                let touches = set.contains(&1);
                assert_eq!(dead.binary_search(&(i as u32)).is_ok(), touches);
            }
        }
        // Out-of-range dirty targets are ignored, empty dirt kills nothing.
        assert!(pool.dead_walks(0, &[]).is_empty());
        assert!(pool.dead_walks(0, &[999]).is_empty());
    }

    #[test]
    fn repair_rejects_mismatched_inputs() {
        let (g, table, campaign) = fig1();
        let mut pool = MrrPool::generate(&g, &table, &campaign, 100, 5);
        let bigger = DiGraph::from_edges(6, &[(0, 1)]).unwrap();
        assert!(matches!(
            pool.repair(&bigger, &table, &campaign, &[0], 5),
            Err(PoolBuildError::PoolMismatch(_))
        ));
        let one_piece = Campaign::new(vec![campaign.pieces()[0].clone()]).unwrap();
        assert!(matches!(
            pool.repair(&g, &table, &one_piece, &[0], 5),
            Err(PoolBuildError::PoolMismatch(_))
        ));
    }

    #[test]
    fn roots_shared_across_pieces() {
        let (g, table, campaign) = fig1();
        let pool = MrrPool::generate(&g, &table, &campaign, 200, 29);
        for (i, &root) in pool.roots().iter().enumerate() {
            // The root always belongs to both of its RR sets.
            for j in 0..pool.ell() {
                assert!(pool.samples_containing(j, root).contains(&(i as u32)));
            }
        }
    }
}
