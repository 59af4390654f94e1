//! MRR-based adoption-utility estimation (Eqn. 6, Lemma 2).

use crate::plan::AssignmentPlan;
use oipa_sampler::MrrPool;
use oipa_topics::LogisticAdoption;

/// Evaluates the AU estimator
/// `σ̂(S̄) = n/θ · Σ_i sigmoid(β·c_i − α)` with `c_i` the number of pieces
/// `j` whose seed set intersects `R_i^j` (and the zero-coverage branch of
/// Eqn. 1 mapping `c_i = 0` to probability 0).
///
/// The estimator precomputes the per-coverage adoption probabilities
/// (`ℓ + 1` values) so each evaluation is pure integer work plus one table
/// lookup per sample.
pub struct AuEstimator<'a> {
    pool: &'a MrrPool,
    /// The adoption model the σ table was built from.
    model: LogisticAdoption,
    /// `sigma_by_coverage[c]` = adoption probability at coverage `c`.
    sigma_by_coverage: Vec<f64>,
    /// Scratch coverage counters, one per sample (reused across calls).
    coverage: Vec<u8>,
    /// Samples touched by the last evaluation (for O(touched) reset).
    touched: Vec<u32>,
    /// Struct-owned per-piece dedup scratch: `seen[i] == seen_epoch` marks
    /// sample `i` as already counted for the current piece. Epoch-stamped
    /// so "clearing" between pieces (and calls) is O(1) instead of O(θ),
    /// and multi-seed evaluations never allocate.
    seen: Vec<u32>,
    /// Current epoch for `seen` (0 = no sample stamped yet).
    seen_epoch: u32,
}

impl<'a> AuEstimator<'a> {
    /// Builds an estimator for a pool and adoption model.
    pub fn new(pool: &'a MrrPool, model: LogisticAdoption) -> Self {
        let sigma_by_coverage = (0..=pool.ell()).map(|c| model.adoption_prob(c)).collect();
        AuEstimator {
            pool,
            model,
            sigma_by_coverage,
            coverage: vec![0; pool.theta()],
            touched: Vec::new(),
            seen: vec![0; pool.theta()],
            seen_epoch: 0,
        }
    }

    /// The pool this estimator reads.
    #[inline]
    pub fn pool(&self) -> &'a MrrPool {
        self.pool
    }

    /// The adoption model this estimator evaluates under.
    #[inline]
    pub fn model(&self) -> LogisticAdoption {
        self.model
    }

    /// Advances the `seen` epoch, handling the (theoretical) wrap-around.
    #[inline]
    fn next_epoch(&mut self) -> u32 {
        self.seen_epoch = self.seen_epoch.wrapping_add(1);
        if self.seen_epoch == 0 {
            self.seen.iter_mut().for_each(|s| *s = 0);
            self.seen_epoch = 1;
        }
        self.seen_epoch
    }

    /// Estimates σ(S̄) in user units.
    ///
    /// Coverage per (sample, piece) is binary: a piece covered by several
    /// of its seeds counts once. Seeds of a piece are folded through a
    /// per-piece `seen` pass, so each sample's coverage count is exact.
    pub fn evaluate(&mut self, plan: &AssignmentPlan) -> f64 {
        assert_eq!(
            plan.ell(),
            self.pool.ell(),
            "plan piece count must match pool"
        );
        let theta = self.pool.theta();
        if theta == 0 {
            return 0.0;
        }
        for &i in &self.touched {
            self.coverage[i as usize] = 0;
        }
        self.touched.clear();
        // Per piece: collect distinct samples covered by S_j, bump counts.
        for j in 0..plan.ell() {
            let seeds = plan.set(j);
            if seeds.is_empty() {
                continue;
            }
            if seeds.len() == 1 {
                // Fast path: a single seed's sample list is already distinct.
                for &i in self.pool.samples_containing(j, seeds[0]) {
                    if self.coverage[i as usize] == 0 {
                        self.touched.push(i);
                    }
                    self.coverage[i as usize] += 1;
                }
            } else {
                let epoch = self.next_epoch();
                for &v in seeds {
                    for &i in self.pool.samples_containing(j, v) {
                        if self.seen[i as usize] != epoch {
                            self.seen[i as usize] = epoch;
                            if self.coverage[i as usize] == 0 {
                                self.touched.push(i);
                            }
                            self.coverage[i as usize] += 1;
                        }
                    }
                }
            }
        }
        let mut total = 0.0f64;
        for &i in &self.touched {
            total += self.sigma_by_coverage[self.coverage[i as usize] as usize];
        }
        total * self.pool.scale()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oipa_sampler::testkit::fig1;
    use oipa_sampler::{simulate, MrrPool};
    use oipa_topics::LogisticAdoption;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn example_pool(theta: usize) -> MrrPool {
        let (g, table, campaign) = fig1();
        MrrPool::generate(&g, &table, &campaign, theta, 42)
    }

    /// Example 1 / Example 3 of the paper: σ({{a},{e}}) = 1.05 exactly on
    /// the deterministic Fig. 1 graph (MRR noise only from root sampling).
    #[test]
    fn example1_utility() {
        let pool = example_pool(200_000);
        let mut est = AuEstimator::new(&pool, LogisticAdoption::example());
        let plan = AssignmentPlan::from_sets(vec![vec![0], vec![4]]);
        let sigma = est.evaluate(&plan);
        assert!((sigma - 1.045).abs() < 0.02, "σ̂ = {sigma}");
    }

    /// Example 2: the non-submodularity witness. δ_{S̄y}(S̄) > δ_{S̄x}(S̄)
    /// despite S̄x ⊆ S̄y — exactly the counterexample of §IV-A.
    #[test]
    fn example2_non_submodular() {
        let pool = example_pool(200_000);
        let mut est = AuEstimator::new(&pool, LogisticAdoption::example());
        let x = AssignmentPlan::empty(2); // S̄x = {∅, ∅}
        let y = AssignmentPlan::from_sets(vec![vec![0], vec![]]); // S̄y = {{a}, ∅}
        let s = AssignmentPlan::from_sets(vec![vec![], vec![4]]); // S̄ = {∅, {e}}
        assert!(x.contained_in(&y));
        let delta_y = est.evaluate(&y.union(&s)) - est.evaluate(&y);
        let delta_x = est.evaluate(&x.union(&s)) - est.evaluate(&x);
        // Paper: 0.57 vs 0.48.
        assert!(
            delta_y > delta_x + 0.05,
            "expected super-modular jump: δy {delta_y} vs δx {delta_x}"
        );
        assert!((delta_y - 0.57).abs() < 0.03, "δy = {delta_y}");
        assert!((delta_x - 0.48).abs() < 0.03, "δx = {delta_x}");
    }

    #[test]
    fn monotone_under_containment() {
        let pool = example_pool(50_000);
        let mut est = AuEstimator::new(&pool, LogisticAdoption::example());
        let small = AssignmentPlan::from_sets(vec![vec![0], vec![]]);
        let big = AssignmentPlan::from_sets(vec![vec![0, 1], vec![4]]);
        assert!(small.contained_in(&big));
        assert!(est.evaluate(&small) <= est.evaluate(&big) + 1e-9);
    }

    #[test]
    fn empty_plan_zero() {
        let pool = example_pool(10_000);
        let mut est = AuEstimator::new(&pool, LogisticAdoption::example());
        assert_eq!(est.evaluate(&AssignmentPlan::empty(2)), 0.0);
    }

    #[test]
    fn duplicate_seeds_do_not_double_count() {
        let pool = example_pool(50_000);
        let mut est = AuEstimator::new(&pool, LogisticAdoption::example());
        let single = AssignmentPlan::from_sets(vec![vec![0], vec![]]);
        // b is downstream of a under t1; adding it must not double-count
        // coverage on samples already hit by a.
        let both = AssignmentPlan::from_sets(vec![vec![0, 1], vec![]]);
        let s1 = est.evaluate(&single);
        let s2 = est.evaluate(&both);
        assert!(s2 >= s1 - 1e-9);
        // Coverage per (sample, piece) is binary, so even with two seeds
        // covering the same sets the utility cannot exceed the all-covered
        // level for piece 0: n · sigmoid(1·1 − 3) scaled by hit fraction ≤ n.
        assert!(s2 <= 5.0);
    }

    #[test]
    fn estimator_matches_forward_simulation_on_random_instance() {
        let mut rng = StdRng::seed_from_u64(8);
        let (g, table, campaign) =
            oipa_sampler::testkit::small_random_instance(&mut rng, 60, 420, 4, 3);
        let model = LogisticAdoption::new(2.0, 1.0);
        let pool = MrrPool::generate(&g, &table, &campaign, 120_000, 5);
        let mut est = AuEstimator::new(&pool, model);
        let plan = AssignmentPlan::from_sets(vec![vec![0, 7], vec![3], vec![11, 19]]);
        let est_sigma = est.evaluate(&plan);
        let truth = simulate::simulate_adoption(
            &mut StdRng::seed_from_u64(99),
            &g,
            &table,
            &campaign,
            &plan.to_vecs(),
            model,
            3000,
        );
        let rel = (est_sigma - truth).abs() / truth.max(0.5);
        assert!(
            rel < 0.08,
            "estimator {est_sigma} vs simulation {truth} (rel err {rel})"
        );
    }

    #[test]
    fn repeated_evaluations_are_consistent() {
        let pool = example_pool(20_000);
        let mut est = AuEstimator::new(&pool, LogisticAdoption::example());
        let a = AssignmentPlan::from_sets(vec![vec![0], vec![4]]);
        let b = AssignmentPlan::from_sets(vec![vec![1], vec![]]);
        let first_a = est.evaluate(&a);
        let _ = est.evaluate(&b);
        let second_a = est.evaluate(&a);
        assert_eq!(first_a, second_a, "scratch reuse must not leak state");
    }
}
