//! Branch-and-bound driver — Algorithm 1.
//!
//! A max-heap orders open search nodes by the τ upper bound of their
//! subtree. Each node is a pair (partial plan `S̄ᵃ`, exclusion set):
//! popping the top node fixes the global upper bound `U`; branching picks
//! the highest-gain available candidate `v*` (the first greedy selection
//! of the node's own bound computation — the "most influential first"
//! order §V motivates from the power law) and opens two children, one
//! including `v*` and one excluding it. Every bound computation also emits
//! a complete candidate plan whose exact MRR estimate raises the incumbent
//! `L`. Nodes with `U ≤ L` are pruned; the search stops when
//! `U − L ≤ gap · L` (the paper's experiments use 1%), when the heap
//! drains, or when the node cap is hit.
//!
//! # Engines
//!
//! Two interchangeable engines drive the same search
//! ([`BabConfig::engine`]):
//!
//! * [`SolverEngine::Reference`] — every bound computation re-anchors the
//!   τ workspace with a full [`TauState::reset_to`] replay and re-seeds
//!   its greedy from a fresh singleton-gain scan over all
//!   ℓ×|Vᵖ| candidates. Simple, and the equivalence oracle.
//! * [`SolverEngine::Incremental`] (default) — the node's partial plan is
//!   established by trail-based push/pop ([`TauState::assign`] /
//!   [`TauState::pop_to`]): sibling nodes sharing a plan prefix rewind to
//!   the shared prefix instead of replaying. On top of that, each open
//!   node carries an `Arc`-shared **seed cache**: the singleton-gain
//!   vector captured by the last fresh scan on its root-to-node path.
//!   Exclude-children reuse it exactly (their partial plan is unchanged,
//!   so the cached gains are the very values a fresh scan would compute);
//!   include-children reuse it inflated by the certified
//!   [`TangentTable::diagonal_inflation`] factor ρ per extension step, so
//!   the seeds stay valid CELF upper bounds. Once the accumulated slack
//!   exceeds [`BabConfig::max_seed_slack`] the driver falls back to a
//!   fresh scan and re-bases the cache.
//!
//! Both engines visit the same nodes, compute bit-identical bounds, and
//! return bit-identical plans — all selection decisions reduce to integer
//! coverage state plus order-independent floating-point folds (see
//! `tau.rs`), and CELF commits are invariant to seed values as long as
//! those are valid upper bounds (see `greedy.rs`). The incremental engine
//! simply spends far fewer τ evaluations getting there; `bench_solver`
//! (`BENCH_solver.json`) records both engines' counts and gates them
//! exactly.
//!
//! [`TangentTable::diagonal_inflation`]: crate::tangent::TangentTable::diagonal_inflation

use crate::greedy::{
    compute_bound_celf_with, compute_bound_plain, pack, BoundResult, CelfSeeding, SeedEntry,
};
use crate::plan::AssignmentPlan;
use crate::progressive::compute_bound_progressive_with;
use crate::tangent::TangentTable;
use crate::tau::{TauState, TrailMark};
use crate::{OipaInstance, Solution};
use oipa_graph::hashing::FxHashSet;
use oipa_graph::NodeId;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::Instant;

/// Which `ComputeBound` implementation the driver calls.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BoundMethod {
    /// Algorithm 2 with CELF lazy greedy (default; same output as plain).
    Greedy,
    /// Algorithm 2 verbatim (full rescan each iteration) — ablation only.
    PlainGreedy,
    /// Algorithm 3, the progressive estimation with parameter ε (BAB-P).
    Progressive {
        /// Threshold decay ε (the paper fixes 0.5 after tuning).
        eps: f64,
    },
}

/// Which state-management engine drives the search (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolverEngine {
    /// Full `reset_to` replay + fresh gain scan per bound (the oracle).
    Reference,
    /// Trail-based push/pop establishment + cross-node seed caching.
    Incremental,
}

/// Driver configuration.
#[derive(Debug, Clone, Copy)]
pub struct BabConfig {
    /// Bound routine.
    pub method: BoundMethod,
    /// Relative termination gap: stop when `U − L ≤ gap · L`. The paper's
    /// experiments use 0.01; `0.0` demands the exact `L ≥ U` fixpoint.
    pub gap: f64,
    /// Hard cap on expanded nodes (safety on large instances).
    pub max_nodes: Option<usize>,
    /// Whether to refine tangent anchors as partial plans grow (Fig. 2).
    /// `false` is the ablation mode: anchor-0 majorants throughout.
    pub refine_anchors: bool,
    /// State-management engine (default [`SolverEngine::Incremental`]).
    pub engine: SolverEngine,
    /// Maximum accumulated seed-inflation slack before the incremental
    /// engine re-bases its gain cache with a fresh scan. Must be ≥ 1.
    pub max_seed_slack: f64,
}

impl Default for BabConfig {
    fn default() -> Self {
        BabConfig {
            method: BoundMethod::Greedy,
            gap: 0.01,
            max_nodes: None,
            refine_anchors: true,
            engine: SolverEngine::Incremental,
            max_seed_slack: 4.0,
        }
    }
}

impl BabConfig {
    /// The paper's `BAB` configuration (greedy bound, 1% gap).
    pub fn bab() -> Self {
        Self::default()
    }

    /// The paper's `BAB-P` configuration (progressive bound, 1% gap).
    pub fn bab_p(eps: f64) -> Self {
        BabConfig {
            method: BoundMethod::Progressive { eps },
            ..Self::default()
        }
    }

    /// Checks every field against its documented domain, returning a typed
    /// error instead of panicking (used by fallible entry points such as
    /// [`BranchAndBound::try_new`] and the `PlannerService`).
    pub fn validate(&self) -> Result<(), crate::OipaError> {
        if let BoundMethod::Progressive { eps } = self.method {
            if eps.is_nan() || eps <= 0.0 {
                return Err(crate::OipaError::config(format!(
                    "ε must be positive, got {eps}"
                )));
            }
        }
        if self.gap.is_nan() || self.gap < 0.0 {
            return Err(crate::OipaError::config(format!(
                "gap must be nonnegative, got {}",
                self.gap
            )));
        }
        if self.max_seed_slack.is_nan() || self.max_seed_slack < 1.0 {
            return Err(crate::OipaError::config(format!(
                "max_seed_slack must be ≥ 1, got {}",
                self.max_seed_slack
            )));
        }
        Ok(())
    }
}

/// Search statistics.
#[derive(Debug, Clone, Default)]
pub struct BabStats {
    /// Heap nodes expanded (branchings performed).
    pub nodes_expanded: usize,
    /// Bound computations (2 per branching + 1 root).
    pub bounds_computed: usize,
    /// Nodes discarded because their bound fell under the incumbent.
    pub nodes_pruned: usize,
    /// τ marginal-gain evaluations (the paper's §V-C cost metric).
    pub tau_evaluations: u64,
    /// Bound computations seeded from a cached ancestor gain vector
    /// (incremental engine only).
    pub seed_cache_hits: u64,
    /// Bound computations that fell back to a fresh seeding scan
    /// (incremental engine, cache-capable methods only).
    pub seed_cache_misses: u64,
    /// Trail entries recorded by the τ workspace (samples traversed by
    /// `assign`/`add`, including `reset_to` replays).
    pub trail_pushes: u64,
    /// Trail entries undone by the τ workspace.
    pub trail_pops: u64,
    /// Wall-clock time of `solve`.
    pub elapsed: std::time::Duration,
}

/// Persistent exclusion list: children share their parent's tail, so heap
/// entries cost O(1) to branch instead of O(depth) copies.
#[derive(Debug, Clone, Default)]
struct ExclusionList(Option<Arc<ExclusionNode>>);

#[derive(Debug)]
struct ExclusionNode {
    packed: u64,
    rest: Option<Arc<ExclusionNode>>,
}

impl ExclusionList {
    fn push(&self, j: usize, v: NodeId) -> ExclusionList {
        ExclusionList(Some(Arc::new(ExclusionNode {
            packed: pack(j, v),
            rest: self.0.clone(),
        })))
    }

    /// Writes the exclusions into a caller-pooled set (cleared first), so
    /// bound computations reuse one allocation across all nodes instead
    /// of materializing a fresh `FxHashSet` per bound.
    fn fill_into(&self, set: &mut FxHashSet<u64>) {
        set.clear();
        let mut cur = &self.0;
        while let Some(node) = cur {
            set.insert(node.packed);
            cur = &node.rest;
        }
    }
}

/// Persistent root-to-node assignment path (insertion order), used by the
/// incremental engine to establish a node's partial plan via push/pop.
#[derive(Debug, Clone, Default)]
struct PathList(Option<Arc<PathNode>>);

#[derive(Debug)]
struct PathNode {
    j: u32,
    v: NodeId,
    rest: Option<Arc<PathNode>>,
}

impl PathList {
    fn push(&self, j: usize, v: NodeId) -> PathList {
        PathList(Some(Arc::new(PathNode {
            j: j as u32,
            v,
            rest: self.0.clone(),
        })))
    }

    /// Writes the path root-first into a caller-pooled buffer.
    fn write_into(&self, out: &mut Vec<(usize, NodeId)>) {
        out.clear();
        let mut cur = &self.0;
        while let Some(node) = cur {
            out.push((node.j as usize, node.v));
            cur = &node.rest;
        }
        out.reverse();
    }
}

/// A cached singleton-gain vector attached to an open node. The values
/// are valid upper bounds on the singleton gains at that node's
/// partial-plan state; `exact` marks vectors whose values are *exactly*
/// what a fresh scan would compute there (required by the progressive
/// bound, and letting CELF skip pre-commit re-evaluation).
struct SeedVec {
    entries: Vec<SeedEntry>,
    exact: bool,
}

/// How one bound computation seeds its greedy (decided by the driver).
enum BoundSeeding<'s> {
    /// Full singleton scan; optionally capture it as an exact vector.
    Fresh { capture: bool },
    /// Reuse a cached vector (×`inflate` to stay an upper bound here);
    /// optionally capture the tightened effective vector for children.
    Reuse {
        vec: &'s SeedVec,
        inflate: f64,
        refresh: bool,
    },
}

/// One open search node.
struct OpenNode {
    upper: f64,
    plan: AssignmentPlan,
    excluded: ExclusionList,
    branch: Option<(usize, NodeId)>,
    /// Root-to-node assignment path (incremental engine).
    path: PathList,
    /// Cached singleton-gain vector valid at this node.
    seeds: Option<Arc<SeedVec>>,
    /// Accumulated worst-case pessimism of `seeds` vs a fresh scan; once
    /// an include chain pushes it past `max_seed_slack` the driver
    /// re-bases with a fresh scan.
    slack: f64,
}

impl PartialEq for OpenNode {
    fn eq(&self, other: &Self) -> bool {
        self.upper == other.upper
    }
}
impl Eq for OpenNode {}
impl PartialOrd for OpenNode {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OpenNode {
    fn cmp(&self, other: &Self) -> Ordering {
        self.upper
            .partial_cmp(&other.upper)
            .expect("bounds are finite")
            // Tie-break: deeper plans first (cheaper to close).
            .then_with(|| self.plan.size().cmp(&other.plan.size()))
    }
}

/// Per-solve mutable search machinery (τ workspace + pooled scratch).
struct SearchState<'s> {
    state: TauState<'s>,
    /// Established assignment stack: `(assignment, mark-before-assign)`.
    stack: Vec<((usize, NodeId), TrailMark)>,
    /// Pooled exclusion set, refilled per node expansion.
    excl: FxHashSet<u64>,
    /// Pooled root-first path buffer.
    path_buf: Vec<(usize, NodeId)>,
}

impl<'s> SearchState<'s> {
    /// Moves the τ workspace to the partial plan described by `target`
    /// (root-first), popping to the longest common prefix with the
    /// currently established path and pushing the remainder.
    fn establish(&mut self, target: &[(usize, NodeId)]) {
        let mut common = 0usize;
        while common < self.stack.len()
            && common < target.len()
            && self.stack[common].0 == target[common]
        {
            common += 1;
        }
        while self.stack.len() > common {
            let (_, mark) = self.stack.pop().expect("stack length checked");
            self.state.pop_to(mark);
        }
        for &(j, v) in &target[common..] {
            let mark = self.state.mark();
            self.state.assign(j, v);
            self.stack.push(((j, v), mark));
        }
    }
}

/// The branch-and-bound solver. Holds the reusable τ workspace; one
/// instance can solve repeatedly (e.g. across a parameter sweep) without
/// reallocating θ-sized buffers.
///
/// ```
/// use oipa_core::{BabConfig, BranchAndBound, OipaInstance};
/// use oipa_sampler::MrrPool;
/// use oipa_topics::LogisticAdoption;
///
/// let (graph, table, campaign) = oipa_sampler::testkit::fig1();
/// let pool = MrrPool::generate(&graph, &table, &campaign, 20_000, 42);
/// let instance = OipaInstance::new(&pool, LogisticAdoption::example(), (0..5).collect(), 2).unwrap();
/// let solution = BranchAndBound::new(&instance, BabConfig::bab()).solve();
/// assert_eq!(solution.plan.set(0), &[0]); // tax piece -> user a
/// assert_eq!(solution.plan.set(1), &[4]); // healthcare piece -> user e
/// ```
pub struct BranchAndBound<'a> {
    instance: &'a OipaInstance<'a>,
    config: BabConfig,
    table: TangentTable,
    /// Certified per-step seed inflation (None = no finite bound; the
    /// incremental engine then fresh-scans every include bound).
    rho: Option<f64>,
}

impl<'a> BranchAndBound<'a> {
    /// Creates a solver for an instance, panicking on an invalid
    /// configuration. Use [`BranchAndBound::try_new`] to get a typed error
    /// instead.
    pub fn new(instance: &'a OipaInstance<'a>, config: BabConfig) -> Self {
        Self::try_new(instance, config).expect("invalid BabConfig")
    }

    /// Creates a solver for an instance, validating the configuration.
    pub fn try_new(
        instance: &'a OipaInstance<'a>,
        config: BabConfig,
    ) -> Result<Self, crate::OipaError> {
        config.validate()?;
        let table = if config.refine_anchors {
            TangentTable::new(instance.model, instance.ell())
        } else {
            TangentTable::unrefined(instance.model, instance.ell())
        };
        let rho = table.diagonal_inflation();
        Ok(BranchAndBound {
            instance,
            config,
            table,
            rho,
        })
    }

    /// Decides how the bound at a child-or-node state seeds its greedy,
    /// plus the pessimism slack its output vector will carry.
    ///
    /// `inflate` is 1.0 for a bound at the node's own state (the exclude
    /// branch and the node's re-pop) and ρ for a bound one assignment
    /// deeper (the include branch).
    fn plan_seeding<'n>(
        &self,
        node_seeds: Option<&'n Arc<SeedVec>>,
        node_slack: f64,
        include_step: bool,
    ) -> (BoundSeeding<'n>, f64) {
        let cacheable = match self.config.method {
            BoundMethod::Greedy | BoundMethod::Progressive { .. } => true,
            BoundMethod::PlainGreedy => false,
        };
        if !cacheable || self.config.engine == SolverEngine::Reference {
            return (BoundSeeding::Fresh { capture: false }, 1.0);
        }
        let fresh = (BoundSeeding::Fresh { capture: true }, 1.0);
        let Some(vec) = node_seeds else { return fresh };
        match self.config.method {
            BoundMethod::Greedy if include_step => match self.rho {
                Some(rho) if node_slack * rho <= self.config.max_seed_slack => (
                    BoundSeeding::Reuse {
                        vec,
                        inflate: rho,
                        refresh: true,
                    },
                    node_slack * rho,
                ),
                _ => fresh,
            },
            BoundMethod::Greedy => (
                BoundSeeding::Reuse {
                    vec,
                    inflate: 1.0,
                    // An exact vector is already the sharpest statement
                    // about this state; otherwise tighten it.
                    refresh: !vec.exact,
                },
                node_slack,
            ),
            // The progressive sweep depends on the seed values themselves
            // (ordering + cut-offs), so only exact same-state vectors are
            // reusable — which exclude branches always have.
            BoundMethod::Progressive { .. } if !include_step && vec.exact => (
                BoundSeeding::Reuse {
                    vec,
                    inflate: 1.0,
                    refresh: false,
                },
                node_slack,
            ),
            BoundMethod::Progressive { .. } => fresh,
            BoundMethod::PlainGreedy => unreachable!("filtered above"),
        }
    }

    /// Runs one bound computation at the node state described by `path` /
    /// `partial`, under the configured engine and the given seeding plan.
    /// Returns the bound plus the captured seed vector, if any.
    #[allow(clippy::too_many_arguments)]
    fn bound(
        &self,
        search: &mut SearchState<'_>,
        stats: &mut BabStats,
        path: &[(usize, NodeId)],
        partial: &AssignmentPlan,
        excluded: &FxHashSet<u64>,
        seeding: BoundSeeding<'_>,
    ) -> (BoundResult, Option<SeedVec>) {
        let promoters = &self.instance.promoters;
        let k = self.instance.budget;
        if self.config.engine == SolverEngine::Reference {
            search.state.reset_to(partial);
        } else {
            search.establish(path);
        }
        let mark = search.state.mark();
        let state = &mut search.state;
        let mut captured: Option<Vec<SeedEntry>> = None;
        let mut captured_exact = false;
        let result = match self.config.method {
            BoundMethod::PlainGreedy => {
                // The ablation method stays cache-free by design: its
                // whole point is measuring the rescan cost.
                compute_bound_plain(state, partial, promoters, excluded, k)
            }
            BoundMethod::Greedy => {
                let celf_seeding = match seeding {
                    BoundSeeding::Fresh { capture } => {
                        if capture {
                            stats.seed_cache_misses += 1;
                            captured = Some(Vec::new());
                            captured_exact = true;
                        }
                        CelfSeeding::Fresh
                    }
                    BoundSeeding::Reuse {
                        vec,
                        inflate,
                        refresh,
                    } => {
                        stats.seed_cache_hits += 1;
                        if refresh {
                            captured = Some(Vec::with_capacity(vec.entries.len()));
                        }
                        CelfSeeding::Cached {
                            entries: &vec.entries,
                            inflate,
                            exact: vec.exact && inflate == 1.0,
                        }
                    }
                };
                compute_bound_celf_with(
                    state,
                    partial,
                    promoters,
                    excluded,
                    k,
                    celf_seeding,
                    captured.as_mut(),
                )
            }
            BoundMethod::Progressive { eps } => match seeding {
                BoundSeeding::Reuse { vec, .. } => {
                    stats.seed_cache_hits += 1;
                    compute_bound_progressive_with(
                        state,
                        partial,
                        promoters,
                        excluded,
                        k,
                        eps,
                        Some(&vec.entries),
                        None,
                    )
                }
                BoundSeeding::Fresh { capture } => {
                    if capture {
                        stats.seed_cache_misses += 1;
                        captured = Some(Vec::new());
                        captured_exact = true;
                    }
                    compute_bound_progressive_with(
                        state,
                        partial,
                        promoters,
                        excluded,
                        k,
                        eps,
                        None,
                        captured.as_mut(),
                    )
                }
            },
        };
        search.state.pop_to(mark);
        let captured = captured.map(|entries| SeedVec {
            entries,
            exact: captured_exact,
        });
        (result, captured)
    }

    /// Seed vector for a child node: a captured vector re-bases the
    /// cache at the bound's state, otherwise the node's own vector is
    /// inherited (exclude branches share the parent state).
    fn child_seeds(
        captured: Option<SeedVec>,
        inherited: Option<&Arc<SeedVec>>,
    ) -> Option<Arc<SeedVec>> {
        match captured {
            Some(vec) => Some(Arc::new(vec)),
            None => inherited.cloned(),
        }
    }

    /// Runs Algorithm 1 to completion and returns the best plan found,
    /// with utilities in user units.
    pub fn solve(&mut self) -> Solution {
        let start = Instant::now();
        let inst = self.instance;
        let scale = inst.pool.scale();
        let mut search = SearchState {
            state: TauState::new(inst.pool, &self.table, inst.model),
            stack: Vec::new(),
            excl: Default::default(),
            path_buf: Vec::new(),
        };
        let mut stats = BabStats::default();

        // Root bound (Lines 2–5).
        let empty = AssignmentPlan::empty(inst.ell());
        let no_exclusions: FxHashSet<u64> = Default::default();
        let (root_seeding, root_slack) = self.plan_seeding(None, 1.0, false);
        let (root, root_capture) = self.bound(
            &mut search,
            &mut stats,
            &[],
            &empty,
            &no_exclusions,
            root_seeding,
        );
        stats.bounds_computed += 1;
        let mut best_plan = root.plan.clone();
        let mut lower = root.sigma;
        let mut global_upper = root.tau;
        let root_seeds = Self::child_seeds(root_capture, None);
        let mut heap = BinaryHeap::new();
        heap.push(OpenNode {
            upper: root.tau,
            plan: empty,
            excluded: ExclusionList::default(),
            branch: root.first_pick,
            path: PathList::default(),
            seeds: root_seeds,
            slack: root_slack,
        });

        // Search loop (Lines 6–18).
        while let Some(node) = heap.pop() {
            global_upper = node.upper;
            // Termination: exact fixpoint or within the configured gap.
            if global_upper <= lower + self.config.gap * lower.max(f64::MIN_POSITIVE) {
                global_upper = global_upper.max(lower);
                break;
            }
            if node.upper <= lower {
                stats.nodes_pruned += 1;
                continue;
            }
            let Some((j_star, v_star)) = node.branch else {
                // Leaf: pool exhausted under this node.
                continue;
            };
            if node.plan.size() >= inst.budget {
                continue;
            }
            if let Some(cap) = self.config.max_nodes {
                if stats.nodes_expanded >= cap {
                    break;
                }
            }
            stats.nodes_expanded += 1;

            // Pooled per-expansion scratch: exclusions + root-first path.
            let mut excl = std::mem::take(&mut search.excl);
            node.excluded.fill_into(&mut excl);
            let mut path = std::mem::take(&mut search.path_buf);
            node.path.write_into(&mut path);

            // Include branch: S̄ᵃ = S̄ ∪_{j*} {v*} (Line 11).
            let mut include_plan = node.plan.clone();
            include_plan.insert(j_star, v_star);
            path.push((j_star, v_star));
            let (inc_seeding, inc_slack) = self.plan_seeding(node.seeds.as_ref(), node.slack, true);
            let (inc, inc_capture) = self.bound(
                &mut search,
                &mut stats,
                &path,
                &include_plan,
                &excl,
                inc_seeding,
            );
            stats.bounds_computed += 1;
            if inc.sigma > lower {
                lower = inc.sigma;
                best_plan = inc.plan.clone();
            }
            if inc.tau > lower {
                let seeds = Self::child_seeds(inc_capture, node.seeds.as_ref());
                heap.push(OpenNode {
                    upper: inc.tau,
                    plan: include_plan,
                    excluded: node.excluded.clone(),
                    branch: inc.first_pick,
                    path: node.path.push(j_star, v_star),
                    seeds,
                    slack: inc_slack,
                });
            } else {
                stats.nodes_pruned += 1;
            }

            // Exclude branch: S̄ᵇ = S̄ with (j*, v*) removed from the pool
            // (Lines 10, 12, 18).
            path.pop();
            excl.insert(pack(j_star, v_star));
            let (exc_seeding, exc_slack) =
                self.plan_seeding(node.seeds.as_ref(), node.slack, false);
            let (exc, exc_capture) = self.bound(
                &mut search,
                &mut stats,
                &path,
                &node.plan,
                &excl,
                exc_seeding,
            );
            stats.bounds_computed += 1;
            if exc.sigma > lower {
                lower = exc.sigma;
                best_plan = exc.plan.clone();
            }
            if exc.tau > lower {
                let seeds = Self::child_seeds(exc_capture, node.seeds.as_ref());
                heap.push(OpenNode {
                    upper: exc.tau,
                    plan: node.plan,
                    excluded: node.excluded.push(j_star, v_star),
                    branch: exc.first_pick,
                    path: node.path,
                    seeds,
                    slack: exc_slack,
                });
            } else {
                stats.nodes_pruned += 1;
            }

            // Return the pooled scratch.
            search.excl = excl;
            search.path_buf = path;
        }
        if heap.is_empty() {
            // Search exhausted: the incumbent is optimal w.r.t. the pruning
            // bound, so the upper-bound estimate collapses onto it.
            global_upper = lower;
        }

        stats.tau_evaluations = search.state.evaluations;
        stats.trail_pushes = search.state.trail_pushed;
        stats.trail_pops = search.state.trail_popped;
        stats.elapsed = start.elapsed();
        Solution {
            plan: best_plan,
            utility: lower * scale,
            upper_bound: global_upper.max(lower) * scale,
            stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oipa_sampler::testkit::fig1;
    use oipa_sampler::MrrPool;
    use oipa_topics::LogisticAdoption;

    fn fig1_instance(theta: usize) -> (MrrPool, LogisticAdoption) {
        let (g, table, campaign) = fig1();
        let pool = MrrPool::generate(&g, &table, &campaign, theta, 61);
        (pool, LogisticAdoption::example())
    }

    #[test]
    fn solves_fig1_exactly() {
        let (pool, model) = fig1_instance(80_000);
        let instance = OipaInstance::new(&pool, model, vec![0, 1, 2, 3, 4], 2).unwrap();
        let mut solver = BranchAndBound::new(
            &instance,
            BabConfig {
                gap: 0.0,
                ..BabConfig::bab()
            },
        );
        let sol = solver.solve();
        assert_eq!(sol.plan.set(0), &[0], "t1 -> a");
        assert_eq!(sol.plan.set(1), &[4], "t2 -> e");
        assert!((sol.utility - 1.045).abs() < 0.05, "σ = {}", sol.utility);
        assert!(sol.upper_bound + 1e-9 >= sol.utility);
    }

    #[test]
    fn bab_p_matches_bab_on_fig1() {
        let (pool, model) = fig1_instance(60_000);
        let instance = OipaInstance::new(&pool, model, vec![0, 1, 2, 3, 4], 2).unwrap();
        let bab = BranchAndBound::new(&instance, BabConfig::bab()).solve();
        let bab_p = BranchAndBound::new(&instance, BabConfig::bab_p(0.5)).solve();
        assert_eq!(bab.plan, bab_p.plan, "BAB-P diverged on a trivial instance");
        assert!((bab.utility - bab_p.utility).abs() < 1e-9);
    }

    #[test]
    fn respects_budget() {
        let (pool, model) = fig1_instance(20_000);
        let instance = OipaInstance::new(&pool, model, vec![0, 1, 2, 3, 4], 3).unwrap();
        let sol = BranchAndBound::new(&instance, BabConfig::bab()).solve();
        assert!(sol.plan.size() <= 3);
    }

    #[test]
    fn budget_larger_than_pool_terminates() {
        let (pool, model) = fig1_instance(10_000);
        // 2 pieces × 5 promoters = 10 possible assignments; ask for 10.
        let instance = OipaInstance::new(&pool, model, vec![0, 1, 2, 3, 4], 10).unwrap();
        let sol = BranchAndBound::new(&instance, BabConfig::bab()).solve();
        assert!(sol.plan.size() <= 10);
        assert!(sol.utility > 0.0);
    }

    #[test]
    fn node_cap_respected() {
        let (pool, model) = fig1_instance(10_000);
        let instance = OipaInstance::new(&pool, model, vec![0, 1, 2, 3, 4], 4).unwrap();
        let mut solver = BranchAndBound::new(
            &instance,
            BabConfig {
                max_nodes: Some(3),
                gap: 0.0,
                ..BabConfig::bab()
            },
        );
        let sol = solver.solve();
        assert!(sol.stats.nodes_expanded <= 3);
        assert!(sol.utility > 0.0, "incumbent must still exist");
    }

    #[test]
    fn monotone_in_budget() {
        let (pool, model) = fig1_instance(40_000);
        let mut prev = 0.0;
        for k in 1..=4usize {
            let instance = OipaInstance::new(&pool, model, vec![0, 1, 2, 3, 4], k).unwrap();
            let sol = BranchAndBound::new(&instance, BabConfig::bab()).solve();
            assert!(
                sol.utility + 1e-6 >= prev,
                "utility dropped from {prev} to {} at k={k}",
                sol.utility
            );
            prev = sol.utility;
        }
    }

    #[test]
    fn stats_populated() {
        let (pool, model) = fig1_instance(10_000);
        let instance = OipaInstance::new(&pool, model, vec![0, 1, 2, 3, 4], 2).unwrap();
        let sol = BranchAndBound::new(&instance, BabConfig::bab()).solve();
        assert!(sol.stats.bounds_computed >= 1);
        assert!(sol.stats.tau_evaluations > 0);
        // The incremental default records trail traffic and a root miss.
        assert!(sol.stats.trail_pushes > 0);
        assert!(sol.stats.seed_cache_hits + sol.stats.seed_cache_misses >= 1);
    }

    #[test]
    fn engines_agree_on_fig1() {
        let (pool, model) = fig1_instance(30_000);
        let instance = OipaInstance::new(&pool, model, vec![0, 1, 2, 3, 4], 3).unwrap();
        let reference = BranchAndBound::new(
            &instance,
            BabConfig {
                engine: SolverEngine::Reference,
                gap: 0.0,
                ..BabConfig::bab()
            },
        )
        .solve();
        let incremental = BranchAndBound::new(
            &instance,
            BabConfig {
                engine: SolverEngine::Incremental,
                gap: 0.0,
                ..BabConfig::bab()
            },
        )
        .solve();
        assert_eq!(reference.plan, incremental.plan);
        assert_eq!(reference.utility.to_bits(), incremental.utility.to_bits());
        assert_eq!(
            reference.upper_bound.to_bits(),
            incremental.upper_bound.to_bits()
        );
        assert_eq!(
            reference.stats.nodes_expanded,
            incremental.stats.nodes_expanded
        );
        assert!(incremental.stats.tau_evaluations <= reference.stats.tau_evaluations);
    }

    #[test]
    fn single_piece_campaign_reduces_to_im() {
        // ℓ = 1: OIPA degenerates to (a logistic-weighted) IM; the solver
        // must pick the highest-spread promoter.
        let (g, table, _) = fig1();
        let campaign = oipa_topics::Campaign::new(vec![oipa_topics::Piece::new(
            "only",
            oipa_topics::TopicVector::one_hot(2, 0).unwrap(),
        )])
        .unwrap();
        let pool = MrrPool::generate(&g, &table, &campaign, 40_000, 71);
        let instance =
            OipaInstance::new(&pool, LogisticAdoption::example(), vec![0, 1, 2, 3, 4], 1).unwrap();
        let sol = BranchAndBound::new(&instance, BabConfig::bab()).solve();
        // Under t1 the best single promoter is a (covers a, b, c, d).
        assert_eq!(sol.plan.set(0), &[0]);
    }
}
