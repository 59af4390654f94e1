//! The `solver` benchmark family: incremental vs reference
//! branch-and-bound engines on seeded random instances.
//!
//! Produces the `BENCH_solver.json` artifact with wall-clock,
//! `tau_evaluations` (the paper's §V-C cost metric), `nodes_expanded`,
//! `bounds_computed`, and the incremental engine's cache/trail counters.
//! Regenerate it with
//! `cargo run --release -p oipa-bench --bin bench_solver`; `--check`
//! gates the three search-effort counts and the answers (utility and
//! upper bound, bit for bit) exactly against the checked-in file
//! ([`compare_exact`]).
//!
//! The `pools` section pins what the sampler builds on the same seeds:
//! each instance's pool fingerprint and posting count, and for one
//! seeded single-edge reweight the dirty targets, the sets resampled and
//! the repaired pool's fingerprint, all gated exactly; the best-of-3
//! `generate_ms` and `repair_ms` are recorded, never gated.
//!
//! Every incremental run is paired with its reference run on the same
//! instance and records whether the plans matched — the suite doubles as
//! an end-to-end golden check of the engine-equivalence guarantee. The
//! `refine_anchors: false` rows are the tangent-refinement ablation
//! (Fig. 2): every sample keeps its coverage-0 majorant, so bounds are
//! looser and the search does more work for the same instance.

use oipa_core::{BabConfig, BoundMethod, BranchAndBound, OipaInstance, Solution, SolverEngine};
use oipa_graph::{DiGraph, EdgeChange, GraphDelta, NodeId, TopicProb};
use oipa_sampler::testkit::small_random_instance;
use oipa_sampler::MrrPool;
use oipa_topics::{Campaign, EdgeTopicProbs, LogisticAdoption};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Schema identifier stamped into every report.
pub const SOLVER_SCHEMA: &str = "oipa.bench.solver/v3";

/// Suite configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct SolverSuiteConfig {
    /// One tiny instance, run in seconds (not gated against the file).
    pub smoke: bool,
    /// Base seed for instance generation.
    pub seed: u64,
}

/// One (instance, method, engine, refinement) measurement.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SolverBenchRecord {
    /// Instance label.
    pub instance: String,
    /// Graph nodes.
    pub nodes: usize,
    /// Graph edges.
    pub edges: usize,
    /// Campaign pieces ℓ.
    pub ell: usize,
    /// MRR samples θ.
    pub theta: usize,
    /// Budget k.
    pub k: usize,
    /// Bound method (`bab-celf`, `bab-plain`, `bab-p`).
    pub method: String,
    /// Engine (`reference` or `incremental`).
    pub engine: String,
    /// Whether tangent anchors were refined (`false`: the ablation).
    pub refine_anchors: bool,
    /// Wall-clock of `solve` in milliseconds.
    pub wall_ms: f64,
    /// τ marginal-gain evaluations (§V-C cost metric).
    pub tau_evaluations: u64,
    /// Branchings performed.
    pub nodes_expanded: usize,
    /// Bound computations.
    pub bounds_computed: usize,
    /// Seed-cache hits (incremental engine).
    pub seed_cache_hits: u64,
    /// Seed-cache misses / fresh scans (incremental engine).
    pub seed_cache_misses: u64,
    /// Trail entries pushed by the τ workspace.
    pub trail_pushes: u64,
    /// Trail entries popped by the τ workspace.
    pub trail_pops: u64,
    /// Estimated utility (user units).
    pub utility: f64,
    /// Upper-bound estimate, the paper's greedy-τ bound (user units).
    pub upper_bound: f64,
    /// Whether this run's plan is identical to the reference engine's
    /// plan on the same (instance, method, refinement). Always true by
    /// construction for reference rows.
    pub plan_matches_reference: bool,
}

/// The full suite report (the `BENCH_solver.json` payload).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SolverSuiteReport {
    /// Schema identifier (`oipa.bench.solver/v3`).
    pub schema: String,
    /// Whether this was a smoke run.
    pub smoke: bool,
    /// Base seed.
    pub seed: u64,
    /// `std::thread::available_parallelism()` of the host that ran it.
    pub available_parallelism: usize,
    /// All measurements.
    pub records: Vec<SolverBenchRecord>,
    /// The pools the solver rows ran on, plus the `wirebench`-shaped
    /// pool (full runs only).
    pub pools: Vec<PoolBenchRecord>,
}

/// One pool as the sampler builds it, and one seeded single-edge repair
/// of it.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PoolBenchRecord {
    /// Instance label.
    pub instance: String,
    /// Graph nodes.
    pub nodes: usize,
    /// Graph edges.
    pub edges: usize,
    /// Campaign pieces ℓ.
    pub ell: usize,
    /// MRR samples θ.
    pub theta: usize,
    /// The seed the pool was sampled with.
    pub pool_seed: u64,
    /// [`MrrPool::fingerprint`], as 16 hex digits.
    pub fingerprint: String,
    /// [`MrrPool::total_nodes`]: postings over every piece.
    pub total_nodes: usize,
    /// Dirty targets of the seeded single-edge reweight.
    pub dirty_targets: Vec<NodeId>,
    /// Sets the repair resampled.
    pub sets_resampled: usize,
    /// The repaired pool's fingerprint, as 16 hex digits.
    pub repaired_fingerprint: String,
    /// Best-of-3 wall-clock of `MrrPool::generate`, in milliseconds.
    pub generate_ms: f64,
    /// Best-of-3 wall-clock of `MrrPool::repaired`, in milliseconds.
    pub repair_ms: f64,
}

struct InstanceSpec {
    label: &'static str,
    seed: u64,
    nodes: u32,
    edges: usize,
    ell: usize,
    theta: usize,
    k: usize,
    alpha: f64,
    max_nodes: usize,
}

/// The seeded bench instances. α sits deep in the coverage range so the
/// logistic is genuinely non-concave over integer coverage and the
/// branch-and-bound actually branches.
fn instances(smoke: bool) -> Vec<InstanceSpec> {
    if smoke {
        vec![InstanceSpec {
            label: "smoke-40",
            seed: 11,
            nodes: 40,
            edges: 260,
            ell: 2,
            theta: 4_000,
            k: 3,
            alpha: 3.0,
            max_nodes: 30,
        }]
    } else {
        vec![
            InstanceSpec {
                label: "rand-90",
                seed: 77,
                nodes: 90,
                edges: 700,
                ell: 3,
                theta: 20_000,
                k: 5,
                alpha: 3.0,
                max_nodes: 120,
            },
            InstanceSpec {
                label: "rand-60",
                seed: 23,
                nodes: 60,
                edges: 420,
                ell: 3,
                theta: 16_000,
                k: 4,
                alpha: 3.5,
                max_nodes: 120,
            },
            InstanceSpec {
                label: "rand-120",
                seed: 29,
                nodes: 120,
                edges: 900,
                ell: 4,
                theta: 20_000,
                k: 6,
                alpha: 4.5,
                max_nodes: 120,
            },
        ]
    }
}

fn method_config(method: &str, max_nodes: usize, refine_anchors: bool) -> BabConfig {
    let base = BabConfig {
        max_nodes: Some(max_nodes),
        refine_anchors,
        ..BabConfig::bab()
    };
    match method {
        "bab-celf" => base,
        "bab-plain" => BabConfig {
            method: BoundMethod::PlainGreedy,
            ..base
        },
        "bab-p" => BabConfig {
            method: BoundMethod::Progressive { eps: 0.5 },
            ..base
        },
        other => unreachable!("unknown bench method {other}"),
    }
}

fn record(
    spec: &InstanceSpec,
    method: &str,
    engine: &str,
    refine_anchors: bool,
    solution: &Solution,
    wall_ms: f64,
    plan_matches_reference: bool,
) -> SolverBenchRecord {
    SolverBenchRecord {
        instance: spec.label.to_string(),
        nodes: spec.nodes as usize,
        edges: spec.edges,
        ell: spec.ell,
        theta: spec.theta,
        k: spec.k,
        method: method.to_string(),
        engine: engine.to_string(),
        refine_anchors,
        wall_ms,
        tau_evaluations: solution.stats.tau_evaluations,
        nodes_expanded: solution.stats.nodes_expanded,
        bounds_computed: solution.stats.bounds_computed,
        seed_cache_hits: solution.stats.seed_cache_hits,
        seed_cache_misses: solution.stats.seed_cache_misses,
        trail_pushes: solution.stats.trail_pushes,
        trail_pops: solution.stats.trail_pops,
        utility: solution.utility,
        upper_bound: solution.upper_bound,
        plan_matches_reference,
    }
}

/// Solves are repeated and the minimum wall-clock kept, so the timed
/// fields in the tracked artifact are usable for regression comparisons
/// on noisy (shared, single-core) machines. Everything else the solver
/// reports is deterministic across repeats.
const TIMING_REPEATS: usize = 3;

/// Runs one configuration `TIMING_REPEATS` times, returning the (repeat-
/// invariant) solution and the minimum wall-clock in milliseconds.
fn timed_solve(instance: &OipaInstance<'_>, config: BabConfig) -> (Solution, f64) {
    let mut best_ms = f64::INFINITY;
    let mut last = None;
    for _ in 0..TIMING_REPEATS {
        let solution = BranchAndBound::new(instance, config).solve();
        best_ms = best_ms.min(solution.stats.elapsed.as_secs_f64() * 1e3);
        last = Some(solution);
    }
    (last.expect("at least one repeat"), best_ms)
}

/// The `wirebench` base instance the pinned index digest also hashes:
/// its graph seed, nodes, edges, topics, ℓ, θ and pool seed.
const WIREBENCH_POOL: (u64, u32, usize, usize, usize, usize, u64) =
    (0x5e12e, 300, 2_400, 4, 3, 20_000, 7);

/// Best-of-`TIMING_REPEATS` wall-clock of `f` in milliseconds, with the
/// (repeat-invariant) last result.
fn best_of<T>(mut f: impl FnMut() -> T) -> (T, f64) {
    let mut best_ms = f64::INFINITY;
    let mut last = None;
    for _ in 0..TIMING_REPEATS {
        let start = Instant::now();
        let out = f();
        best_ms = best_ms.min(start.elapsed().as_secs_f64() * 1e3);
        last = Some(out);
    }
    (last.expect("at least one repeat"), best_ms)
}

/// Samples the pool of one instance, then repairs it after reweighting
/// one edge picked by `pool_seed` to a fresh single-topic row.
fn pool_record(
    label: &str,
    (graph, table, campaign): &(DiGraph, EdgeTopicProbs, Campaign),
    theta: usize,
    pool_seed: u64,
) -> (MrrPool, PoolBenchRecord) {
    let (pool, generate_ms) =
        best_of(|| MrrPool::generate(graph, table, campaign, theta, pool_seed));
    let mut rng = StdRng::seed_from_u64(pool_seed ^ 0xde17a);
    let edge = graph
        .edges()
        .nth(rng.gen_range(0..graph.edge_count()))
        .expect("the instance has edges");
    let delta = GraphDelta {
        reweight: vec![EdgeChange {
            source: edge.source,
            target: edge.target,
            probs: vec![TopicProb {
                topic: rng.gen_range(0..table.topic_count()) as u16,
                prob: rng.gen_range(0.05..0.8f32),
            }],
        }],
        ..GraphDelta::default()
    };
    let app = graph
        .apply_delta(&delta)
        .expect("a reweight of an existing edge");
    let new_table = table.apply_delta(&delta, &app).expect("a valid row");
    let ((repaired, outcome), repair_ms) = best_of(|| {
        pool.repaired(
            &app.graph,
            &new_table,
            campaign,
            &app.dirty_targets,
            pool_seed,
        )
        .expect("repair inputs match the pool")
    });
    let record = PoolBenchRecord {
        instance: label.to_string(),
        nodes: graph.node_count(),
        edges: graph.edge_count(),
        ell: campaign.len(),
        theta,
        pool_seed,
        fingerprint: format!("{:016x}", pool.fingerprint()),
        total_nodes: pool.total_nodes(),
        dirty_targets: app.dirty_targets.clone(),
        sets_resampled: outcome.sets_resampled,
        repaired_fingerprint: format!("{:016x}", repaired.fingerprint()),
        generate_ms,
        repair_ms,
    };
    (pool, record)
}

/// Runs the suite: for each seeded instance, BAB (CELF) and BAB-P under
/// both engines, BAB (CELF) without anchor refinement under both
/// engines, plus the plain-greedy rescan baseline (reference engine only
/// — it is the §V-C cost yardstick).
pub fn run_solver_suite(config: SolverSuiteConfig) -> SolverSuiteReport {
    let mut records = Vec::new();
    let mut pools = Vec::new();
    for spec in instances(config.smoke) {
        let mut rng = StdRng::seed_from_u64(spec.seed ^ config.seed);
        let inputs =
            small_random_instance(&mut rng, spec.nodes, spec.edges, spec.ell + 1, spec.ell);
        let (pool, pool_row) = pool_record(
            spec.label,
            &inputs,
            spec.theta,
            spec.seed ^ config.seed ^ 0xbeef,
        );
        pools.push(pool_row);
        let model = LogisticAdoption::new(spec.alpha, 1.0);
        let promoters: Vec<u32> = (0..spec.nodes).step_by(3).collect();
        let instance = OipaInstance::new(&pool, model, promoters, spec.k).unwrap();

        // The plain-greedy rescan (Algorithm 2 as printed) runs on the
        // reference engine only; every other configuration runs on both,
        // and the incremental row records whether it reproduced the
        // reference plan.
        let both = &[SolverEngine::Reference, SolverEngine::Incremental][..];
        for (method, refine, engines) in [
            ("bab-plain", true, &both[..1]),
            ("bab-celf", true, both),
            ("bab-p", true, both),
            ("bab-celf", false, both),
        ] {
            let mut reference: Option<Solution> = None;
            for &engine in engines {
                let config = BabConfig {
                    engine,
                    ..method_config(method, spec.max_nodes, refine)
                };
                let (solution, wall_ms) = timed_solve(&instance, config);
                let matches = reference.as_ref().is_none_or(|r| {
                    r.plan == solution.plan && r.utility.to_bits() == solution.utility.to_bits()
                });
                let name = match engine {
                    SolverEngine::Reference => "reference",
                    SolverEngine::Incremental => "incremental",
                };
                records.push(record(
                    &spec, method, name, refine, &solution, wall_ms, matches,
                ));
                reference.get_or_insert(solution);
            }
        }
    }
    if !config.smoke {
        let (graph_seed, nodes, edges, topics, ell, theta, pool_seed) = WIREBENCH_POOL;
        let mut rng = StdRng::seed_from_u64(graph_seed);
        let inputs = small_random_instance(&mut rng, nodes, edges, topics, ell);
        pools.push(pool_record("wirebench-300", &inputs, theta, pool_seed).1);
    }
    SolverSuiteReport {
        schema: SOLVER_SCHEMA.to_string(),
        smoke: config.smoke,
        seed: config.seed,
        available_parallelism: std::thread::available_parallelism().map_or(1, |n| n.get()),
        records,
        pools,
    }
}

/// Validates a report's schema and its invariants: CELF never evaluates
/// more than the plain-greedy rescan, every incremental run returned the
/// reference plan with no more evaluations, and (full runs only) the
/// incremental engine cut refined CELF τ evaluations by ≥2× in aggregate.
pub fn validate_report(report: &SolverSuiteReport) -> Result<(), String> {
    if report.schema != SOLVER_SCHEMA {
        return Err(format!(
            "schema mismatch: {} != {SOLVER_SCHEMA}",
            report.schema
        ));
    }
    if report.records.is_empty() {
        return Err("no records".to_string());
    }
    let find = |r: &SolverBenchRecord, method: &str, engine: &str| {
        report.records.iter().find(|o| {
            o.instance == r.instance
                && o.method == method
                && o.engine == engine
                && o.refine_anchors == r.refine_anchors
        })
    };
    let mut celf_ref_total = 0u64;
    let mut celf_inc_total = 0u64;
    for r in &report.records {
        if !r.plan_matches_reference {
            return Err(format!("{}: plan diverged from reference", row_label(r)));
        }
        if r.engine == "incremental" {
            let reference = find(r, &r.method, "reference")
                .ok_or_else(|| format!("{}: missing reference row", row_label(r)))?;
            if r.tau_evaluations > reference.tau_evaluations {
                return Err(format!(
                    "{}: incremental used more τ evaluations ({} > {})",
                    row_label(r),
                    r.tau_evaluations,
                    reference.tau_evaluations
                ));
            }
            if r.method == "bab-celf" && r.refine_anchors {
                celf_ref_total += reference.tau_evaluations;
                celf_inc_total += r.tau_evaluations;
            }
        }
        if r.method == "bab-celf" && r.engine == "reference" && r.refine_anchors {
            let plain = find(r, "bab-plain", "reference")
                .ok_or_else(|| format!("{}: missing bab-plain row", r.instance))?;
            if r.tau_evaluations > plain.tau_evaluations {
                return Err(format!(
                    "{}: CELF exceeded plain-greedy evaluations ({} > {})",
                    r.instance, r.tau_evaluations, plain.tau_evaluations
                ));
            }
        }
    }
    if !report.smoke && celf_inc_total * 2 > celf_ref_total {
        return Err(format!(
            "incremental CELF did not halve τ evaluations: {celf_inc_total} vs {celf_ref_total}"
        ));
    }
    Ok(())
}

fn row_label(r: &SolverBenchRecord) -> String {
    let refined = if r.refine_anchors { "" } else { "/unrefined" };
    format!("{}/{}/{}{refined}", r.instance, r.method, r.engine)
}

/// The exact gate: `actual` must carry the same rows as `expected`, in
/// the same order, with equal `tau_evaluations`, `nodes_expanded` and
/// `bounds_computed`, and bitwise-equal `utility` and `upper_bound`; and
/// the same pools, in the same order, with equal fingerprints, posting
/// counts, dirty targets, sets resampled and repaired fingerprints.
/// These are deterministic for a given seed, so any difference is a
/// change in search behaviour, in the answer or in a pool, never noise
/// (the report writes each float in its shortest round-trip form, so it
/// reads back bit for bit). Wall-clock and the remaining fields are not
/// compared.
pub fn compare_exact(
    expected: &SolverSuiteReport,
    actual: &SolverSuiteReport,
) -> Result<(), String> {
    if (expected.schema.as_str(), expected.smoke, expected.seed)
        != (actual.schema.as_str(), actual.smoke, actual.seed)
    {
        return Err(format!(
            "run differs from the baseline: schema {} / smoke {} / seed {} vs {} / {} / {}",
            actual.schema,
            actual.smoke,
            actual.seed,
            expected.schema,
            expected.smoke,
            expected.seed
        ));
    }
    if expected.records.len() != actual.records.len() {
        return Err(format!(
            "{} rows vs {} in the baseline",
            actual.records.len(),
            expected.records.len()
        ));
    }
    let mut diffs = Vec::new();
    for (e, a) in expected.records.iter().zip(&actual.records) {
        let (label, baseline_label) = (row_label(a), row_label(e));
        if label != baseline_label {
            return Err(format!(
                "row {label} where the baseline has {baseline_label}"
            ));
        }
        let counts = [
            ("tau_evaluations", e.tau_evaluations, a.tau_evaluations),
            (
                "nodes_expanded",
                e.nodes_expanded as u64,
                a.nodes_expanded as u64,
            ),
            (
                "bounds_computed",
                e.bounds_computed as u64,
                a.bounds_computed as u64,
            ),
        ];
        for (field, want, got) in counts {
            if want != got {
                diffs.push(format!("{label}: {field} {got} (baseline {want})"));
            }
        }
        let answers = [
            ("utility", e.utility, a.utility),
            ("upper_bound", e.upper_bound, a.upper_bound),
        ];
        for (field, want, got) in answers {
            if want.to_bits() != got.to_bits() {
                diffs.push(format!("{label}: {field} {got:?} (baseline {want:?})"));
            }
        }
    }
    if expected.pools.len() != actual.pools.len() {
        return Err(format!(
            "{} pools vs {} in the baseline",
            actual.pools.len(),
            expected.pools.len()
        ));
    }
    for (e, a) in expected.pools.iter().zip(&actual.pools) {
        let label = format!("pool {}", a.instance);
        if a.instance != e.instance {
            return Err(format!(
                "{label} where the baseline has pool {}",
                e.instance
            ));
        }
        let fields = [
            ("fingerprint", &e.fingerprint, &a.fingerprint),
            (
                "repaired_fingerprint",
                &e.repaired_fingerprint,
                &a.repaired_fingerprint,
            ),
            (
                "total_nodes",
                &e.total_nodes.to_string(),
                &a.total_nodes.to_string(),
            ),
            (
                "dirty_targets",
                &format!("{:?}", e.dirty_targets),
                &format!("{:?}", a.dirty_targets),
            ),
            (
                "sets_resampled",
                &e.sets_resampled.to_string(),
                &a.sets_resampled.to_string(),
            ),
        ];
        for (field, want, got) in fields {
            if want != got {
                diffs.push(format!("{label}: {field} {got} (baseline {want})"));
            }
        }
    }
    if diffs.is_empty() {
        Ok(())
    } else {
        Err(diffs.join("; "))
    }
}

/// Renders the human-readable table printed by the bin.
pub fn summary_text(report: &SolverSuiteReport) -> String {
    use std::fmt::Write as _;
    let mut out = format!(
        "{:<34} {:>9} {:>6} {:>7} {:>8}\n",
        "instance/method/engine", "tau_evals", "nodes", "bounds", "wall_ms"
    );
    for r in &report.records {
        let _ = writeln!(
            out,
            "{:<34} {:>9} {:>6} {:>7} {:>8.1}",
            row_label(r),
            r.tau_evaluations,
            r.nodes_expanded,
            r.bounds_computed,
            r.wall_ms
        );
    }
    let _ = writeln!(
        out,
        "\n{:<16} {:>16} {:>11} {:>9} {:>11} {:>9}",
        "pool", "fingerprint", "postings", "resampled", "generate_ms", "repair_ms"
    );
    for p in &report.pools {
        let _ = writeln!(
            out,
            "{:<16} {:>16} {:>11} {:>9} {:>11.2} {:>9.2}",
            p.instance, p.fingerprint, p.total_nodes, p.sets_resampled, p.generate_ms, p.repair_ms
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke() -> SolverSuiteReport {
        run_solver_suite(SolverSuiteConfig {
            smoke: true,
            seed: 0,
        })
    }

    #[test]
    fn smoke_suite_passes_validation() {
        let report = smoke();
        // 1 instance × (1 plain + 3 (method, refinement) pairs × 2 engines).
        assert_eq!(report.records.len(), 7);
        assert_eq!(
            report.records.iter().filter(|r| !r.refine_anchors).count(),
            2
        );
        validate_report(&report).expect("smoke report must validate");
        let text = summary_text(&report);
        assert!(text.contains("bab-celf"));
    }

    #[test]
    fn exact_gate_passes_a_json_round_trip_and_fails_any_perturbed_count() {
        let report = smoke();
        let json = serde_json::to_string_pretty(&report).unwrap();
        let parsed: SolverSuiteReport = serde_json::from_str(&json).unwrap();
        compare_exact(&parsed, &report).expect("a round trip keeps every count and answer");

        for (row, field) in [
            (0, "tau_evaluations"),
            (3, "nodes_expanded"),
            (6, "bounds_computed"),
        ] {
            let mut perturbed = report.clone();
            let r = &mut perturbed.records[row];
            match field {
                "tau_evaluations" => r.tau_evaluations += 1,
                "nodes_expanded" => r.nodes_expanded += 1,
                _ => r.bounds_computed += 1,
            }
            let err = compare_exact(&report, &perturbed).unwrap_err();
            assert!(err.contains(field), "{err}");
            assert!(err.contains(&row_label(&report.records[row])), "{err}");
        }

        // One ulp either way on either answer fails the gate.
        let ulp =
            |x: f64, up: bool| f64::from_bits(if up { x.to_bits() + 1 } else { x.to_bits() - 1 });
        for (row, field, up) in [
            (1, "utility", true),
            (2, "utility", false),
            (4, "upper_bound", true),
            (5, "upper_bound", false),
        ] {
            let mut perturbed = report.clone();
            let r = &mut perturbed.records[row];
            match field {
                "utility" => r.utility = ulp(r.utility, up),
                _ => r.upper_bound = ulp(r.upper_bound, up),
            }
            let err = compare_exact(&report, &perturbed).unwrap_err();
            assert!(err.contains(field), "{err}");
            assert!(err.contains(&row_label(&report.records[row])), "{err}");
        }

        // One bit of either fingerprint, or one more set resampled, fails
        // the gate.
        let flip = |hex: &str| format!("{:016x}", u64::from_str_radix(hex, 16).unwrap() ^ 1);
        for field in ["fingerprint", "repaired_fingerprint", "sets_resampled"] {
            let mut perturbed = report.clone();
            let p = &mut perturbed.pools[0];
            match field {
                "fingerprint" => p.fingerprint = flip(&p.fingerprint),
                "repaired_fingerprint" => p.repaired_fingerprint = flip(&p.repaired_fingerprint),
                _ => p.sets_resampled += 1,
            }
            let err = compare_exact(&report, &perturbed).unwrap_err();
            assert!(err.contains(&format!("{field} ")), "{err}");
            assert!(err.contains("pool smoke-40"), "{err}");
        }

        let mut missing = report.clone();
        missing.records.pop();
        assert!(compare_exact(&report, &missing).is_err());
        let mut no_pool = report.clone();
        no_pool.pools.clear();
        assert!(compare_exact(&report, &no_pool).is_err());
        let mut reordered = report.clone();
        reordered.records.swap(1, 2);
        assert!(compare_exact(&report, &reordered).is_err());
        let mut reseeded = report.clone();
        reseeded.seed = 1;
        assert!(compare_exact(&report, &reseeded).is_err());
    }
}
