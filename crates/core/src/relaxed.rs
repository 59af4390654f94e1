//! Tractable adoption-model relaxations — the paper's second future-work
//! direction (§VII: *"a promising future direction would be to relax the
//! adoption behavior model in a way that would render the problem
//! tractable, i.e., monotone and submodular"*).
//!
//! If the per-user adoption probability is a **concave nondecreasing**
//! function `φ(c)` of the piece-coverage count `c` (instead of the convex-
//! then-concave logistic), the adoption utility becomes monotone
//! *submodular* over the plan lattice, and plain CELF greedy solves OIPA
//! with the classic `(1 − 1/e)` guarantee — no branch-and-bound needed.
//!
//! This module provides:
//!
//! * [`AdoptionCurve`] — the pluggable curve abstraction, with the
//!   logistic (non-submodular reference), probabilistic coverage
//!   `1 − (1 − p)^c`, capped-linear, and the **concave envelope of the
//!   logistic** (the tightest submodular relaxation of the paper's own
//!   model — the same envelope the BAB bound uses, globally instead of
//!   per-anchor);
//! * [`greedy_relaxed`] — CELF greedy directly on the relaxed σ;
//! * a heuristic recipe: optimize under the envelope relaxation, then
//!   *evaluate* under the true logistic. The `relaxation` bench compares
//!   it against BAB/BAB-P.

use crate::celf::{CelfEntry, NO_SLOT};
use crate::greedy::pack;
use crate::plan::AssignmentPlan;
use oipa_graph::hashing::FxHashSet;
use oipa_graph::NodeId;
use oipa_sampler::MrrPool;
use oipa_topics::LogisticAdoption;
use std::collections::BinaryHeap;

/// A per-user adoption curve: probability of adoption given the number of
/// distinct campaign pieces received.
pub trait AdoptionCurve {
    /// `φ(c)` for coverage `c` (must be nondecreasing with `φ(0) = 0`).
    fn prob(&self, coverage: usize) -> f64;

    /// Whether the curve is concave on the integers (marginals
    /// nonincreasing) — i.e. whether greedy enjoys the `(1 − 1/e)` bound.
    fn is_concave(&self, max_coverage: usize) -> bool {
        let mut prev = f64::INFINITY;
        for c in 0..max_coverage {
            let m = self.prob(c + 1) - self.prob(c);
            if m > prev + 1e-12 {
                return false;
            }
            prev = m;
        }
        true
    }
}

/// The paper's logistic model (non-submodular reference).
#[derive(Debug, Clone, Copy)]
pub struct LogisticCurve(pub LogisticAdoption);

impl AdoptionCurve for LogisticCurve {
    fn prob(&self, coverage: usize) -> f64 {
        self.0.adoption_prob(coverage)
    }
}

/// Probabilistic coverage: each received piece independently convinces the
/// user with probability `p`, so `φ(c) = 1 − (1 − p)^c`. Concave for any
/// `p ∈ (0, 1]`.
#[derive(Debug, Clone, Copy)]
pub struct ProbabilisticCoverage {
    /// Per-piece conversion probability.
    pub p: f64,
}

impl AdoptionCurve for ProbabilisticCoverage {
    fn prob(&self, coverage: usize) -> f64 {
        assert!((0.0..=1.0).contains(&self.p));
        1.0 - (1.0 - self.p).powi(coverage as i32)
    }
}

/// Capped linear: `φ(c) = min(slope · c, cap)`. Concave.
#[derive(Debug, Clone, Copy)]
pub struct CappedLinear {
    /// Per-piece increment.
    pub slope: f64,
    /// Saturation level (≤ 1).
    pub cap: f64,
}

impl AdoptionCurve for CappedLinear {
    fn prob(&self, coverage: usize) -> f64 {
        (self.slope * coverage as f64).min(self.cap)
    }
}

/// The concave envelope of the logistic over `c ∈ [0, ℓ]`, anchored at the
/// true `φ(0) = 0` — the minimal concave majorant of the paper's own
/// model, hence the *tightest* submodular relaxation of it.
#[derive(Debug, Clone)]
pub struct LogisticEnvelope {
    values: Vec<f64>,
}

impl LogisticEnvelope {
    /// Builds the envelope for a model and maximum coverage ℓ.
    pub fn new(model: LogisticAdoption, ell: usize) -> Self {
        let table = crate::tangent::TangentTable::new(model, ell.max(1));
        LogisticEnvelope {
            values: (0..=ell).map(|c| table.value(0, c)).collect(),
        }
    }
}

impl AdoptionCurve for LogisticEnvelope {
    fn prob(&self, coverage: usize) -> f64 {
        self.values[coverage.min(self.values.len() - 1)]
    }
}

/// Result of the relaxed greedy.
#[derive(Debug, Clone)]
pub struct RelaxedSolution {
    /// The selected plan.
    pub plan: AssignmentPlan,
    /// Utility under the *relaxed* curve (user units).
    pub relaxed_utility: f64,
    /// Marginal-gain evaluations performed.
    pub evaluations: u64,
}

/// CELF greedy maximizing `Σ_i φ(c_i)` over the MRR pool. When `curve`
/// is concave this enjoys the `(1 − 1/e)` guarantee end-to-end — the
/// tractable OIPA variant of §VII.
pub fn greedy_relaxed<C: AdoptionCurve>(
    pool: &MrrPool,
    curve: &C,
    promoters: &[NodeId],
    k: usize,
    excluded: &FxHashSet<u64>,
) -> RelaxedSolution {
    let ell = pool.ell();
    let theta = pool.theta();
    debug_assert!(
        curve.is_concave(ell),
        "greedy_relaxed requires a concave curve; use BranchAndBound for the logistic"
    );
    // Marginal lookup per coverage level.
    let marginals: Vec<f64> = (0..ell)
        .map(|c| curve.prob(c + 1) - curve.prob(c))
        .collect();
    let mut covered = vec![0u64; (theta * ell).div_ceil(64)];
    let mut count = vec![0u8; theta];
    let mut utility = 0.0f64;
    let mut evaluations = 0u64;

    let bit = |covered: &[u64], i: usize, j: usize| -> bool {
        let idx = i * ell + j;
        covered[idx / 64] >> (idx % 64) & 1 == 1
    };

    let gain_of = |covered: &[u64], count: &[u8], j: usize, v: NodeId| -> f64 {
        let mut acc = 0.0;
        for &i in pool.samples_containing(j, v) {
            let i = i as usize;
            if !bit(covered, i, j) {
                acc += marginals[count[i] as usize];
            }
        }
        acc
    };

    let mut heap: BinaryHeap<CelfEntry> = BinaryHeap::new();
    for j in 0..ell {
        for &v in promoters {
            if excluded.contains(&pack(j, v)) {
                continue;
            }
            evaluations += 1;
            let gain = gain_of(&covered, &count, j, v);
            if gain > 0.0 {
                heap.push(CelfEntry {
                    gain,
                    j: j as u32,
                    v,
                    round: 0,
                    slot: NO_SLOT,
                });
            }
        }
    }

    let mut plan = AssignmentPlan::empty(ell);
    let mut round = 0u32;
    while plan.size() < k {
        let Some(top) = heap.pop() else { break };
        if top.round == round {
            let (j, v) = (top.j as usize, top.v);
            for &i in pool.samples_containing(j, v) {
                let i = i as usize;
                if !bit(&covered, i, j) {
                    let idx = i * ell + j;
                    covered[idx / 64] |= 1 << (idx % 64);
                    utility += marginals[count[i] as usize];
                    count[i] += 1;
                }
            }
            plan.insert(j, v);
            round += 1;
        } else {
            evaluations += 1;
            let gain = gain_of(&covered, &count, top.j as usize, top.v);
            if gain > 0.0 {
                heap.push(CelfEntry {
                    gain,
                    j: top.j,
                    v: top.v,
                    round,
                    slot: NO_SLOT,
                });
            }
        }
    }

    RelaxedSolution {
        plan,
        relaxed_utility: utility * pool.scale(),
        evaluations,
    }
}

/// The §VII heuristic for the *original* (logistic) problem: optimize the
/// envelope relaxation greedily, then report the plan's true logistic
/// utility. No approximation guarantee for the logistic objective — the
/// `relaxation` bench measures how close it lands to BAB in practice.
pub fn envelope_heuristic(
    pool: &MrrPool,
    model: LogisticAdoption,
    promoters: &[NodeId],
    k: usize,
) -> (AssignmentPlan, f64) {
    let curve = LogisticEnvelope::new(model, pool.ell());
    let relaxed = greedy_relaxed(pool, &curve, promoters, k, &Default::default());
    let mut est = crate::estimator::AuEstimator::new(pool, model);
    let true_utility = est.evaluate(&relaxed.plan);
    (relaxed.plan, true_utility)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bab::{BabConfig, BranchAndBound};
    use crate::OipaInstance;
    use oipa_sampler::testkit::fig1;

    fn pool(theta: usize) -> MrrPool {
        let (g, table, campaign) = fig1();
        MrrPool::generate(&g, &table, &campaign, theta, 313)
    }

    #[test]
    fn concavity_classification() {
        assert!(ProbabilisticCoverage { p: 0.4 }.is_concave(10));
        assert!(CappedLinear {
            slope: 0.2,
            cap: 0.9
        }
        .is_concave(10));
        assert!(LogisticEnvelope::new(LogisticAdoption::example(), 5).is_concave(5));
        // The logistic itself is NOT concave when the inflection sits
        // inside the coverage range.
        assert!(!LogisticCurve(LogisticAdoption::new(5.0, 1.0)).is_concave(10));
    }

    #[test]
    fn envelope_dominates_logistic() {
        let model = LogisticAdoption::example();
        let env = LogisticEnvelope::new(model, 4);
        for c in 0..=4 {
            assert!(env.prob(c) + 1e-12 >= model.adoption_prob(c));
        }
        assert_eq!(env.prob(0), 0.0);
    }

    #[test]
    fn relaxed_greedy_solves_fig1() {
        let pool = pool(60_000);
        let curve = ProbabilisticCoverage { p: 0.5 };
        let sol = greedy_relaxed(&pool, &curve, &[0, 1, 2, 3, 4], 2, &Default::default());
        // Under any sensible monotone curve the coverage-optimal plan on
        // Fig. 1 is still {{a}, {e}}.
        assert_eq!(sol.plan.set(0), &[0]);
        assert_eq!(sol.plan.set(1), &[4]);
        assert!(sol.relaxed_utility > 0.0);
    }

    #[test]
    fn relaxed_guarantee_vs_enumeration() {
        // (1 − 1/e) on the concave objective, by brute force.
        let pool = pool(30_000);
        let curve = ProbabilisticCoverage { p: 0.35 };
        let promoters = [0u32, 1, 2, 3, 4];
        let sol = greedy_relaxed(&pool, &curve, &promoters, 2, &Default::default());
        // Enumerate all ≤2 plans, computing the relaxed utility directly.
        let mut opt = 0.0f64;
        for j1 in 0..2usize {
            for &v1 in &promoters {
                for j2 in 0..2usize {
                    for &v2 in &promoters {
                        let mut plan = AssignmentPlan::empty(2);
                        plan.insert(j1, v1);
                        plan.insert(j2, v2);
                        opt = opt.max(relaxed_utility_of(&pool, &curve, &plan));
                    }
                }
            }
        }
        let ratio = 1.0 - std::f64::consts::E.recip();
        assert!(
            sol.relaxed_utility + 1e-9 >= ratio * opt,
            "greedy {} < (1-1/e)·{opt}",
            sol.relaxed_utility
        );
    }

    fn relaxed_utility_of<C: AdoptionCurve>(
        pool: &MrrPool,
        curve: &C,
        plan: &AssignmentPlan,
    ) -> f64 {
        let mut total = 0.0;
        for i in 0..pool.theta() {
            let mut c = 0usize;
            for j in 0..pool.ell() {
                let holds = |v: NodeId| pool.samples_containing(j, v).binary_search(&(i as u32));
                if plan.set(j).iter().any(|&v| holds(v).is_ok()) {
                    c += 1;
                }
            }
            total += curve.prob(c);
        }
        total * pool.scale()
    }

    #[test]
    fn envelope_heuristic_close_to_bab_on_fig1() {
        let pool = pool(60_000);
        let model = LogisticAdoption::example();
        let (plan, utility) = envelope_heuristic(&pool, model, &[0, 1, 2, 3, 4], 2);
        let instance = OipaInstance::new(&pool, model, vec![0, 1, 2, 3, 4], 2).unwrap();
        let bab = BranchAndBound::new(&instance, BabConfig::bab()).solve();
        assert!(
            utility >= 0.9 * bab.utility,
            "heuristic {utility} far from BAB {}",
            bab.utility
        );
        assert_eq!(plan.size(), 2);
    }

    #[test]
    fn exclusions_respected() {
        let pool = pool(20_000);
        let mut excluded: FxHashSet<u64> = Default::default();
        excluded.insert(pack(0, 0));
        let sol = greedy_relaxed(
            &pool,
            &ProbabilisticCoverage { p: 0.5 },
            &[0, 1, 2, 3, 4],
            3,
            &excluded,
        );
        assert!(!sol.plan.contains(0, 0));
    }
}
