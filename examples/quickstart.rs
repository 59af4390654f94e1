//! Quickstart: the paper's running example (Fig. 1 / Example 1) in ~60
//! lines.
//!
//! Builds the 5-user, 2-topic network, samples MRR sets, and solves the
//! OIPA instance at budget k = 2. The optimal plan assigns the "tax"
//! piece to user `a` and the "healthcare" piece to user `e`, with
//! adoption utility ≈ 1.05 — exactly Example 1.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use oipa::core::{AuEstimator, BabConfig, BranchAndBound, OipaInstance};
use oipa::sampler::testkit::{fig1, FIG1_NAMES};
use oipa::sampler::MrrPool;
use oipa::topics::LogisticAdoption;

fn main() {
    // 1. The running-example network: users a..e, topics {tax, healthcare},
    //    deterministic topic-tagged edges (Fig. 1a).
    let (graph, table, campaign) = fig1();
    println!(
        "graph: {} users, {} edges, {} topics, campaign of {} pieces",
        graph.node_count(),
        graph.edge_count(),
        table.topic_count(),
        campaign.len()
    );

    // 2. Sample multi-reverse-reachable sets (§V-A). θ = 200k is overkill
    //    for 5 nodes but instant.
    let pool = MrrPool::generate(&graph, &table, &campaign, 200_000, 42);
    println!("sampled {} MRR sets per piece", pool.theta());

    // 3. The adoption model of Example 1: α = 3, β = 1.
    let model = LogisticAdoption::example();

    // 4. Solve OIPA with branch-and-bound at budget k = 2; every user is
    //    an eligible promoter here.
    let instance = OipaInstance::new(&pool, model, (0..5).collect(), 2).unwrap();
    let solution = BranchAndBound::new(&instance, BabConfig::bab()).solve();

    // 5. Report.
    println!("\noptimal assignment plan:");
    for (j, piece) in campaign.pieces().iter().enumerate() {
        let names: Vec<&str> = solution
            .plan
            .set(j)
            .iter()
            .map(|&v| FIG1_NAMES[v as usize])
            .collect();
        println!("  piece {:12} -> promoters {:?}", piece.name, names);
    }
    println!(
        "estimated adoption utility: {:.3}  (paper's Example 1: 1.05)",
        solution.utility
    );
    println!(
        "upper-bound estimate:       {:.3}  (gap {:.2}%)",
        solution.upper_bound,
        100.0 * (solution.upper_bound - solution.utility) / solution.utility
    );

    // 6. Cross-check against a direct estimator evaluation of the plan.
    let mut estimator = AuEstimator::new(&pool, model);
    let direct = estimator.evaluate(&solution.plan);
    assert!((direct - solution.utility).abs() < 1e-9);
    assert_eq!(solution.plan.set(0), &[0], "t1 should go to a");
    assert_eq!(solution.plan.set(1), &[4], "t2 should go to e");
    println!("\nquickstart checks passed ✓");
}
