//! The unified [`Solver`] trait and the method registry.
//!
//! Historically each method had its own entry point with its own
//! signature — `BranchAndBound::solve`, `relaxed::envelope_heuristic`,
//! the `oipa-baselines` free functions, `brute::brute_force_best` — and
//! callers hard-coded the dispatch. Here every method implements one
//! trait over one [`SolveContext`], and dispatch is data-driven through
//! [`registry`]/[`solver_for`]. Each implementation delegates to the
//! pre-existing entry point unchanged, so registry answers are
//! bitwise-identical to direct calls (enforced by
//! `crates/service/tests/service_api.rs`).

use crate::request::Method;
use oipa_baselines::paper::collapsed_pool;
use oipa_baselines::{im_baseline, tim_baseline};
use oipa_core::brute::brute_force_best;
use oipa_core::relaxed::envelope_heuristic;
use oipa_core::{
    AssignmentPlan, AuEstimator, BabConfig, BabStats, BoundMethod, BranchAndBound, OipaError,
    OipaInstance,
};
use oipa_graph::{DiGraph, NodeId};
use oipa_sampler::MrrPool;
use oipa_topics::{EdgeTopicProbs, LogisticAdoption};

/// Everything a solver may need, resolved from a request by the
/// `PlannerService` (pool fetched or sampled, promoters materialized,
/// model built, defaults applied).
pub struct SolveContext<'a> {
    /// The MRR pool to optimize over.
    pub pool: &'a MrrPool,
    /// The logistic adoption model.
    pub model: LogisticAdoption,
    /// The promoter pool `V^p` (validated, deduplicated, sorted).
    pub promoters: &'a [NodeId],
    /// Budget `k`.
    pub budget: usize,
    /// Branch-and-bound termination gap (`None` → the 1% default).
    pub gap: Option<f64>,
    /// Progressive-bound ε.
    pub eps: f64,
    /// Hard node cap for branch-and-bound methods.
    pub max_nodes: Option<usize>,
    /// Seed for method-internal sampling (the `im` collapsed pool).
    pub seed: u64,
    /// The social graph, when the session owns one (`im` needs it).
    pub graph: Option<&'a DiGraph>,
    /// Edge probabilities, when the session owns them (`im` needs them).
    pub table: Option<&'a EdgeTopicProbs>,
    /// θ for the `im` baseline's collapsed pool (`None` → the pool's θ).
    pub collapsed_theta: Option<usize>,
    /// Pre-built collapsed-probability RR pool for `im` (the
    /// `PlannerService` caches one per (θ, seed); when absent the solver
    /// samples it itself).
    pub flat_pool: Option<&'a oipa_sampler::RrPool>,
}

/// What every solver returns.
pub struct SolverOutput {
    /// The assignment plan found.
    pub plan: AssignmentPlan,
    /// MRR-estimated adoption utility, in users.
    pub utility: f64,
    /// Upper-bound estimate: the paper's greedy-τ bound over the pool,
    /// not a certificate (branch-and-bound methods only).
    pub upper_bound: Option<f64>,
    /// Search statistics (branch-and-bound methods only).
    pub stats: Option<BabStats>,
}

impl SolverOutput {
    /// An output with no bound and no search statistics.
    fn estimate(plan: AssignmentPlan, utility: f64) -> Self {
        SolverOutput {
            plan,
            utility,
            upper_bound: None,
            stats: None,
        }
    }
}

/// A registered solve method.
pub trait Solver: Sync {
    /// The method this solver implements.
    fn method(&self) -> Method;

    /// Runs the method over a resolved context.
    fn solve(&self, ctx: &SolveContext<'_>) -> Result<SolverOutput, OipaError>;
}

/// The branch-and-bound configuration of `method` — bab, bab-p (with
/// progressive ε `eps`) or plain — with a request's `gap` override and
/// node cap applied; `None` for methods that are not branch-and-bound.
/// The one mapping both the fixed-θ solvers and the auto-θ path use.
pub(crate) fn bab_config(
    method: Method,
    eps: f64,
    gap: Option<f64>,
    max_nodes: Option<usize>,
) -> Option<BabConfig> {
    let mut config = match method {
        Method::Bab => BabConfig::bab(),
        Method::BabP => BabConfig::bab_p(eps),
        Method::Plain => BabConfig {
            method: BoundMethod::PlainGreedy,
            ..BabConfig::bab()
        },
        _ => return None,
    };
    if let Some(gap) = gap {
        config.gap = gap;
    }
    config.max_nodes = max_nodes;
    Some(config)
}

/// The three branch-and-bound flavors share [`bab_config`] and one driver.
struct BabSolver(Method);

impl Solver for BabSolver {
    fn method(&self) -> Method {
        self.0
    }

    fn solve(&self, ctx: &SolveContext<'_>) -> Result<SolverOutput, OipaError> {
        let config = bab_config(self.0, ctx.eps, ctx.gap, ctx.max_nodes)
            .unwrap_or_else(|| unreachable!("BabSolver registered for {}", self.0));
        let instance = OipaInstance::new(ctx.pool, ctx.model, ctx.promoters.to_vec(), ctx.budget)?;
        let solution = BranchAndBound::try_new(&instance, config)?.solve();
        Ok(SolverOutput {
            plan: solution.plan,
            utility: solution.utility,
            upper_bound: Some(solution.upper_bound),
            stats: Some(solution.stats),
        })
    }
}

/// The §VII concave-envelope relaxation heuristic.
struct GreedySolver;

impl Solver for GreedySolver {
    fn method(&self) -> Method {
        Method::Greedy
    }

    fn solve(&self, ctx: &SolveContext<'_>) -> Result<SolverOutput, OipaError> {
        let (plan, utility) = envelope_heuristic(ctx.pool, ctx.model, ctx.promoters, ctx.budget);
        Ok(SolverOutput::estimate(plan, utility))
    }
}

/// Exact enumeration, gated on the candidate-count limit.
struct BruteSolver;

/// `brute_force_best` enumerates `C(candidates, k)` plans; beyond this
/// many candidates it would not terminate in reasonable time.
const BRUTE_CANDIDATE_LIMIT: usize = 26;

impl Solver for BruteSolver {
    fn method(&self) -> Method {
        Method::Brute
    }

    fn solve(&self, ctx: &SolveContext<'_>) -> Result<SolverOutput, OipaError> {
        let candidates = ctx.pool.ell() * ctx.promoters.len();
        if candidates > BRUTE_CANDIDATE_LIMIT {
            return Err(OipaError::TooLarge {
                what: "brute-force candidate count (ℓ × |promoters|)".to_string(),
                limit: BRUTE_CANDIDATE_LIMIT,
                got: candidates,
            });
        }
        let mut estimator = AuEstimator::new(ctx.pool, ctx.model);
        let (plan, utility) =
            brute_force_best(&mut estimator, ctx.promoters, ctx.pool.ell(), ctx.budget);
        Ok(SolverOutput::estimate(plan, utility))
    }
}

/// The paper's topic-oblivious `IM` baseline.
struct ImSolver;

impl Solver for ImSolver {
    fn method(&self) -> Method {
        Method::Im
    }

    fn solve(&self, ctx: &SolveContext<'_>) -> Result<SolverOutput, OipaError> {
        let (Some(graph), Some(table)) = (ctx.graph, ctx.table) else {
            return Err(OipaError::MissingInput {
                what: "the social graph and edge probabilities".to_string(),
                hint: "the im baseline samples a collapsed-probability pool; construct the \
                       service with PlannerService::new(graph, table) or call attach_graph"
                    .to_string(),
            });
        };
        let theta = ctx.collapsed_theta.unwrap_or_else(|| ctx.pool.theta());
        let owned;
        let flat = match ctx.flat_pool {
            Some(flat) => flat,
            None => {
                owned = collapsed_pool(graph, table, theta, ctx.seed);
                &owned
            }
        };
        let mut estimator = AuEstimator::new(ctx.pool, ctx.model);
        let result = im_baseline(flat, ctx.pool, &mut estimator, ctx.promoters, ctx.budget);
        Ok(SolverOutput::estimate(result.plan, result.utility))
    }
}

/// The paper's per-piece `TIM` baseline.
struct TimSolver;

impl Solver for TimSolver {
    fn method(&self) -> Method {
        Method::Tim
    }

    fn solve(&self, ctx: &SolveContext<'_>) -> Result<SolverOutput, OipaError> {
        let mut estimator = AuEstimator::new(ctx.pool, ctx.model);
        let result = tim_baseline(ctx.pool, &mut estimator, ctx.promoters, ctx.budget);
        Ok(SolverOutput::estimate(result.plan, result.utility))
    }
}

static BAB: BabSolver = BabSolver(Method::Bab);
static BAB_P: BabSolver = BabSolver(Method::BabP);
static PLAIN: BabSolver = BabSolver(Method::Plain);
static GREEDY: GreedySolver = GreedySolver;
static BRUTE: BruteSolver = BruteSolver;
static IM: ImSolver = ImSolver;
static TIM: TimSolver = TimSolver;

static REGISTRY: [&dyn Solver; 7] = [&BAB, &BAB_P, &PLAIN, &GREEDY, &BRUTE, &IM, &TIM];

/// Every registered solver, in [`Method::ALL`] order.
pub fn registry() -> &'static [&'static dyn Solver] {
    &REGISTRY
}

/// The solver registered for a method.
pub fn solver_for(method: Method) -> &'static dyn Solver {
    REGISTRY
        .iter()
        .copied()
        .find(|s| s.method() == method)
        .expect("every Method variant is registered")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_covers_every_method() {
        assert_eq!(registry().len(), Method::ALL.len());
        for m in Method::ALL {
            assert_eq!(solver_for(m).method(), m);
        }
    }
}
