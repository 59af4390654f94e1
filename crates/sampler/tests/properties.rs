//! Property-based invariants of the sampling engine.

use oipa_sampler::{testkit, MaterializedProbs, MrrPool, RrPool};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Structural invariants of RR pools: roots in range and always
    /// members of their own set; index ↔ membership agreement on a
    /// sampled node; zero probability ⇒ singleton sets.
    #[test]
    fn rr_pool_invariants(seed in 0u64..5_000, p in 0.0f32..0.6) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = oipa_graph::generators::erdos_renyi_gnm(&mut rng, 30, 120);
        let probs = MaterializedProbs(vec![p; g.edge_count()]);
        let pool = RrPool::generate(&g, &probs, 500, seed);
        prop_assert_eq!(pool.theta(), 500);
        for (i, &root) in pool.roots().iter().enumerate() {
            prop_assert!((root as usize) < 30);
            prop_assert!(pool.store().set(i).contains(&root));
            if p == 0.0 {
                prop_assert_eq!(pool.store().set(i).len(), 1);
            }
        }
        let v = (seed % 30) as u32;
        let listed: std::collections::HashSet<u32> =
            pool.store().samples_containing(v).iter().copied().collect();
        for i in 0..pool.theta() {
            prop_assert_eq!(pool.store().set(i).contains(&v), listed.contains(&(i as u32)));
        }
    }

    /// Estimated spread is monotone in the seed set and bounded by n.
    #[test]
    fn spread_monotone_and_bounded(seed in 0u64..5_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = oipa_graph::generators::erdos_renyi_gnm(&mut rng, 25, 100);
        let probs = MaterializedProbs(vec![0.3; g.edge_count()]);
        let pool = RrPool::generate(&g, &probs, 2_000, seed);
        let small = pool.estimate_spread(&[0, 1]);
        let large = pool.estimate_spread(&[0, 1, 2, 3]);
        prop_assert!(small <= large + 1e-9);
        prop_assert!(large <= 25.0 + 1e-9);
        prop_assert!(small >= 0.0);
    }

    /// Thread count never changes MRR output (chunked determinism).
    #[test]
    fn mrr_thread_invariance(seed in 0u64..2_000, threads in 1usize..5) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (g, table, campaign) = testkit::small_random_instance(&mut rng, 25, 90, 3, 2);
        let a = MrrPool::generate(&g, &table, &campaign, 600, seed);
        let b = MrrPool::generate_parallel(&g, &table, &campaign, 600, seed, threads);
        prop_assert_eq!(a.roots(), b.roots());
        for j in 0..2 {
            for i in (0..600).step_by(77) {
                prop_assert_eq!(a.rr_set(j, i), b.rr_set(j, i));
            }
        }
    }

    /// Pool serialization round-trips for arbitrary instances: the
    /// decoded pool is the cold one, stored index included, at θ = 1
    /// (most nodes with empty postings) up to θ = 20 000 (gaps that need
    /// two-byte varints; on 30 000 nodes, first ids that need three).
    #[test]
    fn pool_binio_roundtrip(seed in 0u64..2_000, pick in 0usize..5) {
        let (n, m, theta) = [
            (20, 70, 1),
            (20, 70, 2),
            (20, 70, 300),
            (20, 70, 20_000),
            (30_000, 60_000, 20_000),
        ][pick];
        let mut rng = StdRng::seed_from_u64(seed);
        let (g, table, campaign) = testkit::small_random_instance(&mut rng, n, m, 3, 2);
        let pool = MrrPool::generate(&g, &table, &campaign, theta, seed);
        let mut buf = Vec::new();
        oipa_sampler::binio::write_pool(&pool, &mut buf).unwrap();
        let encoding = oipa_sampler::binio::PoolEncoding::new(&pool);
        prop_assert_eq!(buf.len(), encoding.encoded_len());
        let back = oipa_sampler::binio::read_pool(&buf[..]).unwrap();
        prop_assert_eq!(back.fingerprint(), pool.fingerprint());
        prop_assert_eq!(back.roots(), pool.roots());
        for j in 0..pool.ell() {
            for i in 0..pool.theta() {
                prop_assert_eq!(back.rr_set(j, i), pool.rr_set(j, i));
            }
            for v in 0..pool.node_count() as u32 {
                prop_assert_eq!(back.samples_containing(j, v), pool.samples_containing(j, v));
            }
        }
        prop_assert!(back.check_index().is_ok());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The MRR estimator stays within a generous band of forward
    /// simulation across random instances (Lemma 2 in practice).
    #[test]
    fn estimator_band(seed in 0u64..300) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (g, table, campaign) = testkit::small_random_instance(&mut rng, 40, 220, 3, 2);
        let model = oipa_topics::LogisticAdoption::new(2.0, 1.0);
        let pool = MrrPool::generate(&g, &table, &campaign, 40_000, seed ^ 1);
        let assignments = vec![vec![0u32, 5], vec![9, 13]];
        // Inline estimator (avoids depending on oipa-core from here).
        let mut coverage = vec![0u8; pool.theta()];
        for (j, seeds) in assignments.iter().enumerate() {
            let mut seen = vec![false; pool.theta()];
            for &v in seeds {
                for &i in pool.samples_containing(j, v) {
                    if !seen[i as usize] {
                        seen[i as usize] = true;
                        coverage[i as usize] += 1;
                    }
                }
            }
        }
        let est: f64 = coverage
            .iter()
            .map(|&c| model.adoption_prob(c as usize))
            .sum::<f64>()
            * pool.scale();
        let truth = oipa_sampler::simulate::simulate_adoption(
            &mut StdRng::seed_from_u64(seed ^ 2),
            &g,
            &table,
            &campaign,
            &assignments,
            model,
            2_000,
        );
        let tol = 0.15 * truth.max(0.5) + 0.1;
        prop_assert!(
            (est - truth).abs() <= tol,
            "estimate {est} vs simulation {truth}"
        );
    }
}
