//! `bench_solver` — emits the `BENCH_solver.json` artifact for the
//! branch-and-bound engines.
//!
//! ```text
//! bench_solver [--smoke] [--check] [--seed N] [--out FILE]
//! ```
//!
//! * `--smoke` — one tiny instance (seconds)
//! * `--check` — validate the report invariants and the written JSON; on
//!   a full run, also require `tau_evaluations`, `nodes_expanded`,
//!   `bounds_computed`, and bit for bit `utility` and `upper_bound`, to
//!   equal the checked-in `BENCH_solver.json` row by row, and every
//!   pool's fingerprint, posting count and single-edge repair to equal
//!   it pool by pool. Exits non-zero on any violation.
//! * `--out`   — output path (default `BENCH_solver.json` in the working
//!   directory; with `--check`, `BENCH_solver.json` beside the executable,
//!   so a check from the repository root leaves the checked-in file as it
//!   is)

use oipa_bench::solver_suite::{
    compare_exact, run_solver_suite, summary_text, validate_report, SolverSuiteConfig,
    SolverSuiteReport,
};

/// The checked-in artifact a full `--check` run is gated against.
const BASELINE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_solver.json");

fn main() {
    let mut smoke = false;
    let mut check = false;
    let mut seed = 0u64;
    let mut out = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--check" => check = true,
            "--seed" => {
                seed = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--seed needs an integer"));
            }
            "--out" => {
                out = Some(args.next().unwrap_or_else(|| die("--out needs a path")));
            }
            other => die(&format!("unknown flag {other:?}")),
        }
    }

    let out = out.unwrap_or_else(|| default_out(check));
    // Read the baseline before anything is written: `--out` may name it.
    let baseline = (check && !smoke).then(|| read_report(BASELINE));

    let report = run_solver_suite(SolverSuiteConfig { smoke, seed });
    print!("{}", summary_text(&report));
    let json = serde_json::to_string_pretty(&report).unwrap_or_else(|e| die(&format!("{e}")));
    std::fs::write(&out, &json).unwrap_or_else(|e| die(&format!("writing {out}: {e}")));
    println!("wrote {out} ({} records)", report.records.len());

    if check {
        if let Err(e) = validate_report(&report) {
            die(&format!("validation failed: {e}"));
        }
        // The written file must parse back to the same counts and answers.
        if let Err(e) = compare_exact(&report, &read_report(&out)) {
            die(&format!("{out} does not round-trip: {e}"));
        }
        if let Some(baseline) = baseline {
            if let Err(e) = compare_exact(&baseline, &report) {
                die(&format!(
                    "counts, answers or pools differ from the checked-in BENCH_solver.json: {e}"
                ));
            }
            println!(
                "check passed: invariants hold, counts, answers and pools equal the checked-in baseline"
            );
        } else {
            println!("check passed: invariants hold");
        }
    }
}

/// Where the report goes without `--out`: the working directory, or
/// for `--check` the executable's directory (under the build's target
/// directory).
fn default_out(check: bool) -> String {
    if !check {
        return String::from("BENCH_solver.json");
    }
    let exe =
        std::env::current_exe().unwrap_or_else(|e| die(&format!("locating the executable: {e}")));
    exe.with_file_name("BENCH_solver.json")
        .to_string_lossy()
        .into_owned()
}

fn read_report(path: &str) -> SolverSuiteReport {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| die(&format!("reading {path}: {e}")));
    serde_json::from_str(&text).unwrap_or_else(|e| die(&format!("parsing {path}: {e}")))
}

fn die(msg: &str) -> ! {
    eprintln!("bench_solver: {msg}");
    std::process::exit(1);
}
