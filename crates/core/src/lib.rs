//! # oipa-core
//!
//! The paper's contribution: the **Optimal Influential Pieces Assignment**
//! (OIPA) problem and its solvers.
//!
//! Given a social graph with topic-aware influence probabilities, a
//! campaign of ℓ viral pieces, a promoter pool `V^p` and a budget `k`,
//! find the assignment plan `S̄ = {S_1..S_ℓ}` (|S̄| ≤ k) maximizing the
//! adoption utility under the logistic model of Eqn. (1).
//!
//! Module map (paper section → code):
//!
//! | Paper | Module |
//! |---|---|
//! | §III-B plans, containment, unions | [`plan`] |
//! | §V-A MRR-based AU estimation (Eqn. 6) | [`estimator`] |
//! | Fig. 2 + Appendix `Refine` tangent construction | [`tangent`] |
//! | Definition 6 upper bound τ over MRR sets | [`tau`] |
//! | Algorithm 2 `ComputeBound` (greedy, CELF-accelerated) | [`greedy`] |
//! | Algorithm 3 `ComputeBoundPro` (progressive thresholds) | [`progressive`] |
//! | Algorithm 1 branch-and-bound driver | [`bab`] |
//! | §VII concave-envelope relaxation (the served `greedy`) | [`relaxed`] |
//! | exact enumeration for validation | [`brute`] |
//! | §IV-A non-submodularity / monotonicity witnesses | tests throughout |
//!
//! The solvers operate on an [`OipaInstance`]: an [`MrrPool`]
//! (pre-sampled), a [`LogisticAdoption`] model, a promoter pool, and a
//! budget. All returned utilities are in *user* units (scaled by `n/θ`).

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod auto;
pub mod bab;
pub mod brute;
mod celf;
pub mod error;
pub mod estimator;
pub mod greedy;
pub mod plan;
pub mod progressive;
pub mod relaxed;
pub mod tangent;
pub mod tau;

pub use bab::{BabConfig, BabStats, BoundMethod, BranchAndBound, SolverEngine};
pub use error::OipaError;
pub use estimator::AuEstimator;
pub use greedy::SeedEntry;
pub use plan::AssignmentPlan;
pub use tangent::{TangentLine, TangentTable};
pub use tau::TrailMark;

use oipa_graph::NodeId;
use oipa_sampler::MrrPool;
use oipa_topics::LogisticAdoption;

/// A fully specified OIPA problem instance over a pre-sampled MRR pool.
///
/// The pool carries the graph scale (`n`, θ, ℓ); the instance adds the
/// adoption model, the eligible promoter pool `V^p`, and the budget `k`.
pub struct OipaInstance<'a> {
    /// Pre-sampled MRR sets (θ samples × ℓ pieces).
    pub pool: &'a MrrPool,
    /// Logistic adoption parameters (α, β).
    pub model: LogisticAdoption,
    /// Eligible promoters `V^p` (deduplicated, sorted on construction).
    pub promoters: Vec<NodeId>,
    /// Budget `k` = total number of promoter assignments.
    pub budget: usize,
}

impl<'a> OipaInstance<'a> {
    /// Creates an instance, normalizing the promoter pool (sort + dedup).
    ///
    /// Input validation is typed rather than panicking: a zero budget, an
    /// empty promoter pool, or a promoter id outside the graph produce the
    /// corresponding [`OipaError`] variant with an actionable message.
    pub fn new(
        pool: &'a MrrPool,
        model: LogisticAdoption,
        mut promoters: Vec<NodeId>,
        budget: usize,
    ) -> Result<Self, OipaError> {
        if budget == 0 {
            return Err(OipaError::InvalidBudget);
        }
        promoters.sort_unstable();
        promoters.dedup();
        if let Some(&bad) = promoters
            .iter()
            .find(|&&v| (v as usize) >= pool.node_count())
        {
            return Err(OipaError::PromoterOutOfRange {
                promoter: bad,
                node_count: pool.node_count(),
            });
        }
        if promoters.is_empty() {
            return Err(OipaError::EmptyPromoters);
        }
        Ok(OipaInstance {
            pool,
            model,
            promoters,
            budget,
        })
    }

    /// Number of pieces ℓ.
    #[inline]
    pub fn ell(&self) -> usize {
        self.pool.ell()
    }

    /// The paper's experimental promoter pool: a uniform `fraction` of all
    /// users (§VI-A uses 10%).
    pub fn sample_promoters<R: rand::Rng + ?Sized>(
        rng: &mut R,
        node_count: usize,
        fraction: f64,
    ) -> Vec<NodeId> {
        assert!((0.0..=1.0).contains(&fraction));
        let target = ((node_count as f64 * fraction).round() as usize).max(1);
        rand::seq::index::sample(rng, node_count, target.min(node_count))
            .into_iter()
            .map(|i| i as NodeId)
            .collect()
    }
}

/// A solver result: the plan, its estimated utility (user units), the final
/// upper bound, and search statistics.
#[derive(Debug, Clone)]
pub struct Solution {
    /// The assignment plan found.
    pub plan: AssignmentPlan,
    /// MRR-estimated adoption utility σ̂(plan), in users.
    pub utility: f64,
    /// The global upper bound at termination (≥ utility up to the
    /// configured gap).
    pub upper_bound: f64,
    /// Search statistics.
    pub stats: BabStats,
}
