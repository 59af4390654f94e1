//! Automatic sample-size selection.
//!
//! The paper fixes θ = 10⁶ ("In practice, a large θ ensures the estimated
//! AU score for any S̄ is accurate with a high probability", §V-A) —
//! fine for a fixed testbed, wasteful or insufficient elsewhere. This
//! module chooses θ adaptively, IMM-style: solve at a small θ, then
//! *cross-validate* the winning plan on a freshly sampled, larger pool.
//! If the fresh estimate confirms the old one within a relative tolerance
//! the solution is accepted; otherwise θ doubles and the search repeats.
//! Cross-validation on fresh samples guards against the optimizer
//! overfitting the sampling noise of its own pool (the winner's-curse bias
//! that same-pool estimates carry).

use crate::bab::{BabConfig, BranchAndBound};
use crate::estimator::AuEstimator;
use crate::{OipaError, OipaInstance, Solution};
use oipa_graph::{DiGraph, NodeId};
use oipa_sampler::MrrPool;
use oipa_topics::{Campaign, EdgeTopicProbs, LogisticAdoption};

/// Configuration for [`solve_auto_theta`].
#[derive(Debug, Clone, Copy)]
pub struct AutoThetaConfig {
    /// Starting θ.
    pub initial_theta: usize,
    /// Hard θ ceiling (the paper's 10⁶ is a natural choice).
    pub max_theta: usize,
    /// Accept when `|σ_fresh − σ_solve| ≤ rel_tol · σ_fresh`.
    pub rel_tol: f64,
    /// Base seed; each round derives fresh, disjoint streams.
    pub seed: u64,
    /// Worker threads for pool generation.
    pub threads: usize,
    /// Solver configuration per round.
    pub bab: BabConfig,
}

impl Default for AutoThetaConfig {
    fn default() -> Self {
        AutoThetaConfig {
            initial_theta: 10_000,
            max_theta: 1_000_000,
            rel_tol: 0.02,
            seed: 42,
            // Match the machine instead of hard-coding a count: a fixed 4
            // oversubscribes small containers (this repo's CI runs on one
            // core) and under-uses large hosts.
            threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
            bab: BabConfig::bab_p(0.5),
        }
    }
}

impl AutoThetaConfig {
    /// Checks the configuration's documented domain.
    pub fn validate(&self) -> Result<(), OipaError> {
        if self.initial_theta < 100 {
            return Err(OipaError::config(format!(
                "auto-θ needs a non-trivial starting θ (≥ 100), got {}",
                self.initial_theta
            )));
        }
        if self.max_theta < self.initial_theta {
            return Err(OipaError::config(format!(
                "auto-θ ceiling {} is below the starting θ {}",
                self.max_theta, self.initial_theta
            )));
        }
        if !(self.rel_tol.is_finite() && self.rel_tol > 0.0) {
            return Err(OipaError::config(format!(
                "auto-θ tolerance must be finite and positive, got {}",
                self.rel_tol
            )));
        }
        self.bab.validate()
    }
}

/// One convergence-trajectory entry.
#[derive(Debug, Clone, Copy)]
pub struct ThetaRound {
    /// θ used for solving this round.
    pub theta: usize,
    /// Same-pool estimate of the round's plan.
    pub solve_estimate: f64,
    /// Fresh-pool (2θ) estimate of the same plan.
    pub fresh_estimate: f64,
}

/// Result of the adaptive search.
#[derive(Debug)]
pub struct AutoThetaResult {
    /// The accepted solution (utility = fresh-pool estimate).
    pub solution: Solution,
    /// θ of the accepted round.
    pub theta: usize,
    /// Whether the tolerance was met (false ⇒ stopped at `max_theta`).
    pub converged: bool,
    /// Per-round history.
    pub rounds: Vec<ThetaRound>,
}

/// Runs the adaptive-θ loop. See module docs.
#[allow(clippy::too_many_arguments)]
pub fn solve_auto_theta(
    graph: &DiGraph,
    table: &EdgeTopicProbs,
    campaign: &Campaign,
    model: LogisticAdoption,
    promoters: &[NodeId],
    k: usize,
    config: AutoThetaConfig,
) -> Result<AutoThetaResult, OipaError> {
    config.validate()?;
    let mut theta = config.initial_theta;
    let mut rounds = Vec::new();
    let mut round_idx = 0u64;
    loop {
        let solve_pool = MrrPool::try_generate_parallel(
            graph,
            table,
            campaign,
            theta,
            config.seed ^ (round_idx << 1),
            config.threads,
        )?;
        let instance = OipaInstance::new(&solve_pool, model, promoters.to_vec(), k)?;
        let solution = BranchAndBound::try_new(&instance, config.bab)?.solve();

        // Fresh, larger validation pool with a disjoint seed stream.
        let fresh_pool = MrrPool::try_generate_parallel(
            graph,
            table,
            campaign,
            (theta * 2).min(config.max_theta.max(theta)),
            config.seed ^ (round_idx << 1) ^ 0xf00d,
            config.threads,
        )?;
        let mut fresh_est = AuEstimator::new(&fresh_pool, model);
        let fresh = fresh_est.evaluate(&solution.plan);
        rounds.push(ThetaRound {
            theta,
            solve_estimate: solution.utility,
            fresh_estimate: fresh,
        });

        let agreed = (fresh - solution.utility).abs() <= config.rel_tol * fresh.abs().max(1e-12);
        let at_ceiling = theta >= config.max_theta;
        if agreed || at_ceiling {
            let mut accepted = solution;
            accepted.utility = fresh; // report the unbiased estimate
            return Ok(AutoThetaResult {
                solution: accepted,
                theta,
                converged: agreed,
                rounds,
            });
        }
        theta = (theta * 2).min(config.max_theta);
        round_idx += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oipa_sampler::testkit::fig1;

    #[test]
    fn converges_immediately_on_deterministic_graph() {
        let (g, table, campaign) = fig1();
        let result = solve_auto_theta(
            &g,
            &table,
            &campaign,
            LogisticAdoption::example(),
            &[0, 1, 2, 3, 4],
            2,
            AutoThetaConfig {
                initial_theta: 2_000,
                max_theta: 50_000,
                threads: 2,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(result.converged);
        assert_eq!(result.theta, 2_000, "Fig. 1 needs no refinement");
        assert_eq!(result.rounds.len(), 1);
        assert_eq!(result.solution.plan.set(0), &[0]);
        assert_eq!(result.solution.plan.set(1), &[4]);
        assert!((result.solution.utility - 1.045).abs() < 0.05);
    }

    #[test]
    fn escalates_theta_under_tight_tolerance() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(21);
        let (g, table, campaign) =
            oipa_sampler::testkit::small_random_instance(&mut rng, 120, 900, 4, 3);
        let result = solve_auto_theta(
            &g,
            &table,
            &campaign,
            LogisticAdoption::new(2.0, 1.0),
            &(0..30u32).collect::<Vec<_>>(),
            5,
            AutoThetaConfig {
                initial_theta: 200,
                max_theta: 40_000,
                rel_tol: 0.0005, // very tight: tiny pools will disagree
                threads: 2,
                ..Default::default()
            },
        )
        .unwrap();
        // Either it needed more than one round or the ceiling stopped it;
        // both demonstrate the escalation path.
        assert!(result.rounds.len() > 1 || !result.converged);
        // θ trajectory doubles (clamped at the ceiling).
        for w in result.rounds.windows(2) {
            assert_eq!(w[1].theta, (w[0].theta * 2).min(40_000));
        }
        assert!(result.solution.utility > 0.0);
    }

    #[test]
    fn ceiling_respected() {
        let (g, table, campaign) = fig1();
        let result = solve_auto_theta(
            &g,
            &table,
            &campaign,
            LogisticAdoption::example(),
            &[0, 1, 2, 3, 4],
            2,
            AutoThetaConfig {
                initial_theta: 500,
                max_theta: 1_000,
                rel_tol: 1e-9, // unreachable tolerance
                threads: 1,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(result.theta <= 1_000);
        assert!(!result.rounds.is_empty());
    }
}
