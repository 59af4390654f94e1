//! The §VII relaxation heuristic — the paper's second future-work
//! direction (*"a promising future direction would be to relax the
//! adoption behavior model in a way that would render the problem
//! tractable, i.e., monotone and submodular"*).
//!
//! Replace each user's logistic adoption probability by its **concave
//! envelope** over the coverage count `c ∈ [0, ℓ]`, anchored at the true
//! `φ(0) = 0`: the minimal concave majorant of the paper's own model,
//! hence its tightest submodular relaxation (the same envelope the BAB
//! bound uses, globally instead of per anchor). Under it the utility is
//! monotone submodular, so CELF greedy enjoys the `(1 − 1/e)` guarantee
//! for the relaxed objective. [`envelope_heuristic`] optimizes that
//! relaxation, then *evaluates* the plan under the true logistic. It is
//! the `greedy` method the service serves (half of `wirebench`'s keys).

use crate::celf::{CelfEntry, NO_SLOT};
use crate::plan::AssignmentPlan;
use crate::tangent::TangentTable;
use oipa_graph::NodeId;
use oipa_sampler::MrrPool;
use oipa_topics::LogisticAdoption;
use std::collections::BinaryHeap;

/// The §VII heuristic for the *original* (logistic) problem: CELF greedy
/// on the envelope relaxation `Σ_i env(c_i)` over the MRR pool, then the
/// plan's true logistic utility (user units). No approximation guarantee
/// for the logistic objective; `envelope_heuristic_close_to_bab_on_fig1`
/// holds it within 10% of BAB on Fig. 1.
pub fn envelope_heuristic(
    pool: &MrrPool,
    model: LogisticAdoption,
    promoters: &[NodeId],
    k: usize,
) -> (AssignmentPlan, f64) {
    let ell = pool.ell();
    let theta = pool.theta();
    // The envelope is the bound's majorant anchored at coverage 0.
    let table = TangentTable::new(model, ell);
    let mut covered = vec![0u64; (theta * ell).div_ceil(64)];
    let mut count = vec![0u8; theta];

    let bit = |covered: &[u64], i: usize, j: usize| -> bool {
        let idx = i * ell + j;
        covered[idx / 64] >> (idx % 64) & 1 == 1
    };

    let gain_of = |covered: &[u64], count: &[u8], j: usize, v: NodeId| -> f64 {
        let mut acc = 0.0;
        for &i in pool.samples_containing(j, v) {
            let i = i as usize;
            if !bit(covered, i, j) {
                acc += table.marginal(0, count[i] as usize);
            }
        }
        acc
    };

    let mut heap: BinaryHeap<CelfEntry> = BinaryHeap::new();
    for j in 0..ell {
        for &v in promoters {
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
                    count[i] += 1;
                }
            }
            plan.insert(j, v);
            round += 1;
        } else {
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

    let utility = crate::estimator::AuEstimator::new(pool, model).evaluate(&plan);
    (plan, utility)
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

    /// The relaxed objective `Σ_i env(c_i)` of a plan (user units), by a
    /// direct membership scan rather than the greedy's incremental counts.
    fn relaxed_utility_of(pool: &MrrPool, model: LogisticAdoption, plan: &AssignmentPlan) -> f64 {
        let table = TangentTable::new(model, pool.ell());
        let mut total = 0.0;
        for i in 0..pool.theta() {
            let mut c = 0usize;
            for j in 0..pool.ell() {
                let holds = |v: NodeId| pool.samples_containing(j, v).binary_search(&(i as u32));
                if plan.set(j).iter().any(|&v| holds(v).is_ok()) {
                    c += 1;
                }
            }
            total += table.value(0, c);
        }
        total * pool.scale()
    }

    #[test]
    fn envelope_greedy_solves_fig1() {
        // The coverage-optimal plan on Fig. 1 is {{a}, {e}}.
        let pool = pool(60_000);
        let (plan, utility) =
            envelope_heuristic(&pool, LogisticAdoption::example(), &[0, 1, 2, 3, 4], 2);
        assert_eq!(plan.set(0), &[0]);
        assert_eq!(plan.set(1), &[4]);
        assert!(utility > 0.0);
    }

    #[test]
    fn relaxed_guarantee_vs_enumeration() {
        // (1 − 1/e) on the concave envelope objective, by brute force.
        let pool = pool(30_000);
        let model = LogisticAdoption::example();
        let promoters = [0u32, 1, 2, 3, 4];
        let (plan, _) = envelope_heuristic(&pool, model, &promoters, 2);
        let greedy = relaxed_utility_of(&pool, model, &plan);
        let mut opt = 0.0f64;
        for j1 in 0..2usize {
            for &v1 in &promoters {
                for j2 in 0..2usize {
                    for &v2 in &promoters {
                        let mut plan = AssignmentPlan::empty(2);
                        plan.insert(j1, v1);
                        plan.insert(j2, v2);
                        opt = opt.max(relaxed_utility_of(&pool, model, &plan));
                    }
                }
            }
        }
        let ratio = 1.0 - std::f64::consts::E.recip();
        assert!(
            greedy + 1e-9 >= ratio * opt,
            "greedy {greedy} < (1-1/e)·{opt}"
        );
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

    /// The served greedy's answers are fixed: for budgets 1..=5, the plan
    /// and the bits of the utility `envelope_heuristic` returns hash to
    /// these values over fig. 1, four seeded random instances and one
    /// pool shaped like `wirebench`'s `spill` pools (300 nodes, 2 400
    /// edges, 4 topics, ℓ = 3, θ = 20 000, 60 promoters).
    #[test]
    fn greedy_answers_are_pinned() {
        use oipa_graph::hashing::FxHasher;
        use oipa_sampler::testkit::small_random_instance;
        use rand::{Rng as _, SeedableRng as _};
        use std::hash::Hasher as _;

        let digest = |pool: &MrrPool, model: LogisticAdoption, promoters: &[NodeId]| {
            let mut h = FxHasher::default();
            for k in 1..=5 {
                let (plan, utility) = super::envelope_heuristic(pool, model, promoters, k);
                assert!(plan.size() > 0);
                for j in 0..pool.ell() {
                    h.write_u64(plan.set(j).len() as u64);
                    for &v in plan.set(j) {
                        h.write_u32(v);
                    }
                }
                h.write_u64(utility.to_bits());
            }
            h.finish()
        };
        let (g, table, campaign) = fig1();
        let mut cases = vec![(
            MrrPool::generate(&g, &table, &campaign, 5_000, 9),
            LogisticAdoption::example(),
            vec![0, 1, 2, 3, 4],
        )];
        for (seed, ell, ratio) in [(1u64, 2, 0.3), (2, 3, 0.5), (3, 4, 0.7), (4, 5, 0.5)] {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let (g, table, campaign) = small_random_instance(&mut rng, 60, 300, 3, ell);
            let pool = MrrPool::generate(&g, &table, &campaign, 4_000, seed);
            let promoters: Vec<NodeId> = (0..60).filter(|_| rng.gen_bool(0.5)).collect();
            cases.push((pool, LogisticAdoption::from_ratio(ratio), promoters));
        }
        let mut rng = rand::rngs::StdRng::seed_from_u64(0x5e12e);
        let (g, table, campaign) = small_random_instance(&mut rng, 300, 2_400, 4, 3);
        cases.push((
            MrrPool::generate(&g, &table, &campaign, 20_000, 7),
            LogisticAdoption::from_ratio(0.5),
            (0..300).step_by(5).collect(),
        ));
        let expected: [u64; 6] = [
            0xE046_35F2_8C53_D167,
            0xC577_49A5_01CD_1E9B,
            0xD133_1E36_51F2_27CF,
            0x414C_A652_4E01_A12D,
            0xA89E_0032_9085_2351,
            0x31F7_B242_A4B9_6D6E,
        ];
        for (c, (pool, model, promoters)) in cases.iter().enumerate() {
            let got = digest(pool, *model, promoters);
            assert_eq!(got, expected[c], "case {c}: {got:#018x}");
        }
    }
}
