//! Command implementations.
//!
//! `solve`, `simulate`, and `batch` all route through one
//! [`PlannerService`] session, so the CLI exercises exactly the engine a
//! long-lived server would run: `solve` is a one-request session over an
//! injected pool file, `batch` streams a JSONL request file through a
//! single session whose pool arena amortizes sampling across the whole
//! file. Errors are typed ([`OipaError`]): user errors exit 2 with an
//! actionable message, environment (I/O) failures exit 1.

use crate::opts::{CliError, ParsedArgs};
use oipa_core::OipaError;
use oipa_datasets::Scale;
use oipa_graph::{binio as graph_io, DiGraph};
use oipa_sampler::{binio as pool_io, MrrPool};
use oipa_service::{Method, PlannerService, SimulateRequest, SolveRequest, SolveResponse};
use oipa_store::io::{parse_fault_schedule, FaultIo};
use oipa_store::{DiskTier, OpenReport, StoreConfig, QUARANTINE_DIR};
use oipa_topics::{binio as probs_io, Campaign, EdgeTopicProbs};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::collections::HashMap;
use std::fmt::Write as _;

impl From<CliError> for OipaError {
    fn from(e: CliError) -> Self {
        OipaError::InvalidConfig { what: e.0 }
    }
}

/// Runs one parsed command, returning its human-readable report.
pub fn run(args: &ParsedArgs) -> Result<String, OipaError> {
    match args.command.as_str() {
        "generate" => cmd_generate(args),
        "import" => cmd_import(args),
        "stats" => cmd_stats(args),
        "sample" => cmd_sample(args),
        "solve" => cmd_solve(args),
        "simulate" => cmd_simulate(args),
        "batch" => cmd_batch(args),
        "store" => cmd_store(args),
        "obs" => cmd_obs(args),
        other => Err(OipaError::InvalidConfig {
            what: format!("unknown command {other:?}"),
        }),
    }
}

/// `oipa-cli store ls|verify|gc --dir DIR` — administers a persistent
/// pool-store directory. Opening a store always *recovers* it first:
/// stale temp files are swept, orphaned or size-mismatched segments are
/// quarantined, and the manifest is rewritten clean.
fn cmd_store(args: &ParsedArgs) -> Result<String, OipaError> {
    let action = args.positional.as_deref().unwrap_or("ls");
    let dir = args.required("dir")?;
    // No byte budget here: administration must never evict entries.
    let mut tier = DiskTier::open(dir, u64::MAX).map_err(|e| OipaError::Io {
        what: format!("opening store {dir}"),
        detail: e.to_string(),
    })?;
    let opened = tier.open_report();
    let mut out = String::new();
    if opened != OpenReport::default() {
        writeln!(
            out,
            "recovered on open: {} quarantined, {} missing entries dropped, \
             {} stale temps swept{}",
            opened.quarantined,
            opened.dropped_missing,
            opened.stale_temps,
            if opened.corrupt_manifest {
                ", manifest was corrupt (rebuilt empty)"
            } else {
                ""
            }
        )
        .expect("string write");
    }
    match action {
        "ls" => {
            let current = tier.current_epoch();
            writeln!(
                out,
                "{:<24} {:>10} {:>12} {:>16} {:>8} {:>6} {:>10} campaign",
                "file", "theta", "bytes", "seed", "epoch", "state", "last_used"
            )
            .expect("string write");
            for e in tier.entries() {
                let campaign = e.key.campaign();
                // Truncate on a char boundary: campaign JSON may embed
                // non-ASCII piece names.
                let shown: String = match campaign.char_indices().nth(40) {
                    Some((idx, _)) => format!("{}…", &campaign[..idx]),
                    None => campaign.to_string(),
                };
                writeln!(
                    out,
                    "{:<24} {:>10} {:>12} {:>16} {:>8} {:>6} {:>10} {shown}",
                    e.file,
                    e.key.theta(),
                    e.bytes,
                    format!("{:016x}", e.key.seed()),
                    format!("{:04x}", e.epoch),
                    // A dirty pool is stamped with an ancestor epoch: it
                    // is never served as-is, only delta-repaired.
                    if e.epoch == current { "live" } else { "dirty" },
                    e.last_used
                )
                .expect("string write");
            }
            let stats = tier.stats();
            // Fill ratio: the live fraction of committed region bytes —
            // the remainder is dead space a `gc` pass would reclaim.
            let committed = stats.bytes + stats.dead_bytes;
            let fill = if committed == 0 {
                100.0
            } else {
                100.0 * stats.bytes as f64 / committed as f64
            };
            let lineage = tier
                .lineage()
                .iter()
                .map(|fp| format!("{fp:016x}"))
                .collect::<Vec<_>>()
                .join(" -> ");
            write!(
                out,
                "{} segments, {} bytes in {} region(s) ({fill:.0}% live)\n\
                 lineage {} (epoch {:04x}, {} stale)",
                tier.len(),
                tier.bytes(),
                stats.regions,
                if lineage.is_empty() {
                    "(unset)".to_string()
                } else {
                    lineage
                },
                current,
                stats.stale_entries,
            )
            .expect("string write");
            if let Some(purge) = stats.last_purge {
                write!(
                    out,
                    "\n{} purge(s); last dropped {} entr{} ({:016x} -> {:016x})",
                    stats.purges,
                    purge.entries,
                    if purge.entries == 1 { "y" } else { "ies" },
                    purge.from,
                    purge.to,
                )
                .expect("string write");
            }
            Ok(out)
        }
        "verify" => {
            let verdict = tier.verify();
            for (file, bytes) in &verdict.ok {
                writeln!(out, "ok      {file} ({bytes} bytes)").expect("string write");
            }
            for (file, reason) in &verdict.corrupt {
                writeln!(out, "CORRUPT {file}: {reason}").expect("string write");
            }
            // Segments already set aside — by a past recovery, a gc run,
            // or a fault-injected session — are reported with the reason
            // recorded beside them, so quarantine is never a silent hole.
            let quarantined = list_quarantine(std::path::Path::new(dir));
            for (file, reason) in &quarantined {
                writeln!(out, "quarantined {file}: {reason}").expect("string write");
            }
            if !verdict.corrupt.is_empty() {
                return Err(OipaError::Mismatch {
                    what: format!(
                        "store verify: {} of {} segment(s) corrupt:\n{out}",
                        verdict.corrupt.len(),
                        verdict.ok.len() + verdict.corrupt.len()
                    ),
                });
            }
            write!(
                out,
                "{} segment(s) verified clean, {} in quarantine",
                verdict.ok.len(),
                quarantined.len()
            )
            .expect("string write");
            Ok(out)
        }
        "gc" => {
            let report = tier.gc().map_err(|e| OipaError::Io {
                what: format!("gc on store {dir}"),
                detail: e.to_string(),
            })?;
            for (region, bytes) in &report.region_reclaimed {
                writeln!(out, "region {region}: {bytes} bytes reclaimed").expect("string write");
            }
            write!(
                out,
                "gc: kept {}, quarantined {} corrupt ({} bytes reclaimed), \
                 {} orphan(s) quarantined, {} missing entr(ies) dropped, \
                 {} stale temp(s) swept",
                report.kept,
                report.quarantined.len(),
                report.reclaimed_bytes,
                report.orphans_quarantined,
                report.dropped_missing,
                report.stale_temps
            )
            .expect("string write");
            Ok(out)
        }
        other => Err(OipaError::InvalidConfig {
            what: format!("unknown store action {other:?} (available: ls, verify, gc)"),
        }),
    }
}

/// `oipa-cli obs dump --addr HOST:PORT` — scrapes a live server's
/// `GET /metrics` exposition over the wire and renders it as an aligned
/// `series / type / value` table, one row per sample.
fn cmd_obs(args: &ParsedArgs) -> Result<String, OipaError> {
    let action = args.positional.as_deref().unwrap_or("dump");
    if action != "dump" {
        return Err(OipaError::InvalidConfig {
            what: format!("unknown obs action {action:?} (available: dump)"),
        });
    }
    let addr = args.required("addr")?;
    let exposition = fetch_metrics(addr).map_err(|detail| OipaError::Io {
        what: format!("scraping http://{addr}/metrics"),
        detail,
    })?;
    render_metrics_table(&exposition).map_err(|e| OipaError::Mismatch {
        what: format!("unparseable exposition from {addr}: {e}"),
    })
}

/// One `Connection: close` GET of `/metrics`; returns the body.
fn fetch_metrics(addr: &str) -> Result<String, String> {
    use std::io::{Read as _, Write as _};
    let mut stream = std::net::TcpStream::connect(addr).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(10)))
        .map_err(|e| e.to_string())?;
    stream
        .write_all(
            format!("GET /metrics HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n")
                .as_bytes(),
        )
        .map_err(|e| e.to_string())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(|e| e.to_string())?;
    let text = String::from_utf8_lossy(&raw);
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or("incomplete HTTP response")?;
    match head.split(' ').nth(1) {
        Some("200") => Ok(body.to_string()),
        Some(status) => Err(format!("GET /metrics answered {status}")),
        None => Err("malformed status line".to_string()),
    }
}

/// Renders a Prometheus text exposition as an aligned table. Family
/// kinds come from the `# TYPE` lines; `_bucket`/`_sum`/`_count` samples
/// resolve to their histogram family.
fn render_metrics_table(exposition: &str) -> Result<String, String> {
    let mut kinds: Vec<(String, String)> = Vec::new();
    let mut rows: Vec<(String, String)> = Vec::new();
    for line in exposition.lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut words = rest.split_whitespace();
            match (words.next(), words.next()) {
                (Some(family), Some(kind)) => kinds.push((family.to_string(), kind.to_string())),
                _ => return Err(format!("malformed TYPE line {line:?}")),
            }
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("sample line without a value: {line:?}"))?;
        value
            .parse::<f64>()
            .map_err(|_| format!("unparseable value in {line:?}"))?;
        rows.push((series.to_string(), value.to_string()));
    }
    if rows.is_empty() {
        return Err("no samples in the exposition".to_string());
    }
    let kind_of = |series: &str| {
        let name = series.split('{').next().unwrap_or(series);
        kinds
            .iter()
            .find(|(family, _)| {
                name == family
                    || ["_bucket", "_sum", "_count"]
                        .iter()
                        .any(|suffix| name.strip_suffix(suffix) == Some(family.as_str()))
            })
            .map_or("untyped", |(_, kind)| kind.as_str())
    };
    let width = rows
        .iter()
        .map(|(series, _)| series.len())
        .max()
        .unwrap_or(0)
        .max("series".len());
    let mut out = String::new();
    writeln!(out, "{:<width$}  {:<9}  value", "series", "type").expect("string write");
    for (series, value) in &rows {
        writeln!(out, "{series:<width$}  {:<9}  {value}", kind_of(series)).expect("string write");
    }
    write!(out, "{} series across {} families", rows.len(), kinds.len()).expect("string write");
    Ok(out)
}

/// Lists `quarantine/` as `(file, reason)` pairs, pairing each set-aside
/// file with its `<name>.reason.txt` note (or a placeholder when the
/// note itself failed to land — e.g. quarantine under a full disk).
fn list_quarantine(dir: &std::path::Path) -> Vec<(String, String)> {
    let qdir = dir.join(QUARANTINE_DIR);
    let Ok(entries) = std::fs::read_dir(&qdir) else {
        return Vec::new();
    };
    let mut out = Vec::new();
    for entry in entries.flatten() {
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.ends_with(".reason.txt") {
            continue;
        }
        let reason = std::fs::read_to_string(qdir.join(format!("{name}.reason.txt")))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "(no reason recorded)".to_string());
        out.push((name, reason));
    }
    out.sort();
    out
}

fn io_err(what: &str, path: &str, e: impl std::fmt::Display) -> OipaError {
    OipaError::Io {
        what: format!("{what} {path}"),
        detail: e.to_string(),
    }
}

fn load_graph(path: &str) -> Result<DiGraph, OipaError> {
    graph_io::read_graph_file(path).map_err(|e| io_err("reading graph", path, e))
}

fn load_probs(path: &str, graph: &DiGraph) -> Result<EdgeTopicProbs, OipaError> {
    let table =
        probs_io::read_table_file(path).map_err(|e| io_err("reading probabilities", path, e))?;
    table
        .check_against(graph)
        .map_err(|e| OipaError::Mismatch {
            what: format!("probability table {path}: {e}"),
        })?;
    Ok(table)
}

fn load_pool(path: &str) -> Result<MrrPool, OipaError> {
    pool_io::read_pool_file(path).map_err(|e| io_err("reading pool", path, e))
}

fn load_json<T: serde::de::DeserializeOwned>(path: &str, what: &str) -> Result<T, OipaError> {
    let text =
        std::fs::read_to_string(path).map_err(|e| io_err(&format!("reading {what}"), path, e))?;
    serde_json::from_str(&text).map_err(|e| OipaError::InvalidConfig {
        what: format!("parsing {what} {path}: {e}"),
    })
}

fn save_json<T: Serialize>(value: &T, path: &str, what: &str) -> Result<(), OipaError> {
    let text = serde_json::to_string_pretty(value)
        .map_err(|e| io_err(&format!("serializing {what}"), path, e))?;
    std::fs::write(path, text).map_err(|e| io_err(&format!("writing {what}"), path, e))
}

fn cmd_generate(args: &ParsedArgs) -> Result<String, OipaError> {
    let name = args.required("dataset")?;
    let scale_str = args.optional("scale").unwrap_or("tiny");
    let scale = Scale::parse(scale_str).ok_or_else(|| OipaError::InvalidConfig {
        what: format!("bad --scale {scale_str:?} (tiny|small|medium|full)"),
    })?;
    let seed: u64 = args.parsed_or("seed", 42)?;
    let dataset = match name {
        "lastfm" => oipa_datasets::lastfm_like(scale, seed),
        "dblp" => oipa_datasets::dblp_like(scale, seed),
        "tweet" => oipa_datasets::tweet_like(scale, seed),
        other => {
            return Err(OipaError::InvalidConfig {
                what: format!("unknown dataset {other:?} (lastfm|dblp|tweet)"),
            })
        }
    };
    let out_graph = args.required("out-graph")?;
    let out_probs = args.required("out-probs")?;
    graph_io::write_graph_file(&dataset.graph, out_graph)
        .map_err(|e| io_err("writing graph", out_graph, e))?;
    probs_io::write_table_file(&dataset.table, out_probs)
        .map_err(|e| io_err("writing probabilities", out_probs, e))?;
    let s = dataset.stats();
    Ok(format!(
        "generated {name} ({scale_str}): {} nodes, {} edges, {} topics -> {out_graph}, {out_probs}",
        s.nodes, s.edges, dataset.topics
    ))
}

fn cmd_import(args: &ParsedArgs) -> Result<String, OipaError> {
    let edges_path = args.required("edges")?;
    let graph = oipa_graph::io::read_edge_list_file(edges_path, oipa_graph::DedupPolicy::Simple)
        .map_err(|e| io_err("reading edge list", edges_path, e))?;
    let out_graph = args.required("out-graph")?;
    graph_io::write_graph_file(&graph, out_graph)
        .map_err(|e| io_err("writing graph", out_graph, e))?;
    let mut report = format!(
        "imported {} nodes, {} edges -> {out_graph}",
        graph.node_count(),
        graph.edge_count()
    );
    // Optional: synthesize a probability table for graphs without one.
    if let Some(out_probs) = args.optional("out-probs") {
        let topics: usize = args.parsed_or("topics", 10)?;
        let avg_support: f64 = args.parsed_or("avg-support", 1.5)?;
        let max_prob: f32 = args.parsed_or("max-prob", 1.0)?;
        let seed: u64 = args.parsed_or("seed", 42)?;
        let mut rng = StdRng::seed_from_u64(seed);
        let table = oipa_topics::synthesize_random(
            &mut rng,
            &graph,
            oipa_topics::SynthesisParams {
                topic_count: topics,
                avg_support,
                max_prob,
                weighted_cascade: true,
            },
        );
        probs_io::write_table_file(&table, out_probs)
            .map_err(|e| io_err("writing probabilities", out_probs, e))?;
        write!(report, "; synthesized {topics}-topic table -> {out_probs}").expect("string write");
    }
    Ok(report)
}

fn cmd_stats(args: &ParsedArgs) -> Result<String, OipaError> {
    let graph = load_graph(args.required("graph")?)?;
    let s = oipa_graph::stats::graph_stats(&graph);
    let mut out = format!(
        "nodes {}\nedges {}\navg_degree {:.2}\nmax_out_degree {}\nmax_in_degree {}\nisolated {}",
        s.nodes, s.edges, s.avg_degree, s.max_out_degree, s.max_in_degree, s.isolated
    );
    if let Some(alpha) =
        oipa_graph::stats::power_law_exponent_mle(graph.nodes().map(|v| graph.out_degree(v)), 3)
    {
        write!(out, "\nout_degree_power_law_alpha {alpha:.2}").expect("string write");
    }
    if let Some(probs_path) = args.optional("probs") {
        let table = load_probs(probs_path, &graph)?;
        write!(
            out,
            "\ntopics {}\navg_topic_support {:.2}\nmean_nonzero_prob {:.4}",
            table.topic_count(),
            table.avg_support(),
            table.mean_nonzero_prob()
        )
        .expect("string write");
    }
    Ok(out)
}

fn cmd_sample(args: &ParsedArgs) -> Result<String, OipaError> {
    let graph = load_graph(args.required("graph")?)?;
    let table = load_probs(args.required("probs")?, &graph)?;
    let ell: usize = args.parsed_or("ell", 3)?;
    let theta: usize = args.parsed_or("theta", 100_000)?;
    let seed: u64 = args.parsed_or("seed", 42)?;
    let threads: usize = args.parsed_or(
        "threads",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    )?;
    if ell == 0 {
        return Err(OipaError::config("--ell must be at least 1"));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let campaign = Campaign::sample_one_hot(&mut rng, table.topic_count(), ell);
    let start = std::time::Instant::now();
    let pool = MrrPool::try_generate_parallel(&graph, &table, &campaign, theta, seed, threads)
        .map_err(|e| OipaError::Mismatch {
            what: e.to_string(),
        })?;
    let sample_time = start.elapsed();
    let out_pool = args.required("out-pool")?;
    pool_io::write_pool_file(&pool, out_pool).map_err(|e| io_err("writing pool", out_pool, e))?;
    let out_campaign = args.required("out-campaign")?;
    save_json(&campaign, out_campaign, "campaign")?;
    Ok(format!(
        "sampled θ={theta} MRR sets for ℓ={ell} pieces in {:.2}s ({} total RR entries) -> {out_pool}, {out_campaign}",
        sample_time.as_secs_f64(),
        pool.total_nodes()
    ))
}

/// Builds the request the `solve` flag set describes.
fn request_from_flags(args: &ParsedArgs, method: Method) -> Result<SolveRequest, OipaError> {
    let mut request = SolveRequest::new(method, args.parsed_or("k", 10)?);
    request.ratio = Some(args.parsed_or("ratio", 0.5)?);
    request.eps = Some(args.parsed_or("eps", 0.5)?);
    request.gap = args.parsed("gap")?;
    request.promoter_fraction = Some(args.parsed_or("promoter-fraction", 0.1)?);
    request.max_nodes = Some(args.parsed_or("max-nodes", 64)?);
    request.seed = Some(args.parsed_or("seed", 42)?);
    request.theta = args.parsed("theta")?;
    request.ell = args.parsed("ell")?;
    Ok(request)
}

/// Attaches a persistent pool store when the command asked for one.
/// `--fault-schedule` (a dev flag) routes the store's I/O through a
/// deterministic fault injector — for rehearsing disk failures against
/// a real workload without real hardware misbehaving.
fn attach_store_flag(service: &mut PlannerService, args: &ParsedArgs) -> Result<(), OipaError> {
    if let Some(dir) = args.optional("store-dir") {
        let mut config = StoreConfig::new(dir);
        if let Some(region_bytes) = args.parsed::<u64>("region-bytes")? {
            config.region_bytes = region_bytes;
        }
        if let Some(spec) = args.optional("fault-schedule") {
            let schedule = parse_fault_schedule(spec).map_err(|e| OipaError::InvalidConfig {
                what: format!("--fault-schedule {spec:?}: {e}"),
            })?;
            config = config.with_io(FaultIo::over_real(schedule));
        }
        service.attach_store(config)?;
    }
    Ok(())
}

fn cmd_solve(args: &ParsedArgs) -> Result<String, OipaError> {
    let method = Method::parse(args.optional("method").unwrap_or("bab-p"))?;
    let mut service = match args.optional("pool") {
        Some(pool_path) => {
            let mut service = PlannerService::from_pool(load_pool(pool_path)?);
            if method == Method::Im {
                // The topic-oblivious baseline samples a collapsed-probability
                // RR pool, which needs the graph and table.
                let graph = load_graph(args.required("graph")?)?;
                let table = load_probs(args.required("probs")?, &graph)?;
                service.attach_graph(graph, table)?;
            }
            service
        }
        None => {
            // Graph-based session: the service samples (or, with a store
            // attached, recalls) the pool itself. Requires a campaign
            // spec — a seeded one-hot `--ell` here.
            let graph = load_graph(args.required("graph")?)?;
            let table = load_probs(args.required("probs")?, &graph)?;
            if args.optional("ell").is_none() {
                return Err(OipaError::config(
                    "solving from --graph/--probs needs --ell N (seeded one-hot campaign); \
                     alternatively pass a pre-sampled --pool",
                ));
            }
            PlannerService::new(graph, table)?
        }
    };
    attach_store_flag(&mut service, args)?;
    let request = request_from_flags(args, method)?;
    let response = service.solve(&request)?;
    if let Some(out) = args.optional("out-plan") {
        save_json(&response, out, "plan")?;
    }
    serde_json::to_string_pretty(&response).map_err(|e| OipaError::Io {
        what: "serializing the solve report".to_string(),
        detail: e.to_string(),
    })
}

fn cmd_simulate(args: &ParsedArgs) -> Result<String, OipaError> {
    let graph = load_graph(args.required("graph")?)?;
    let table = load_probs(args.required("probs")?, &graph)?;
    let service = PlannerService::new(graph, table)?;
    let campaign: Campaign = load_json(args.required("campaign")?, "campaign")?;
    // Accept either a bare plan or a solve report containing one.
    let plan: oipa_core::AssignmentPlan = {
        let path = args.required("plan")?;
        let text = std::fs::read_to_string(path).map_err(|e| io_err("reading plan", path, e))?;
        let value: serde_json::Value =
            serde_json::from_str(&text).map_err(|_| OipaError::InvalidConfig {
                what: format!("plan file {path} is not JSON"),
            })?;
        let inner = value.get("plan").cloned().unwrap_or(value);
        serde_json::from_value(inner).map_err(|e| OipaError::InvalidConfig {
            what: format!("parsing plan {path}: {e}"),
        })?
    };
    let request = SimulateRequest {
        plan,
        campaign,
        ratio: Some(args.parsed_or("ratio", 0.5)?),
        alpha: None,
        beta: None,
        runs: Some(args.parsed_or("runs", 500)?),
        seed: Some(args.parsed_or("seed", 42)?),
    };
    let response = service.simulate(&request)?;
    Ok(format!(
        "simulated adoption utility over {} runs: {:.3} users",
        response.runs, response.utility
    ))
}

/// `oipa-cli batch` — streams JSONL [`SolveRequest`]s through **one**
/// service session, amortizing the pool arena across the whole file.
///
/// Each input line produces one output line: the [`SolveResponse`] JSON,
/// or `{"line": N, "error": "..."}` for requests that fail (the batch
/// continues). Output order always matches input order. With
/// `--threads N` the requests are answered by N workers sharing the
/// session (`PlannerService::solve` takes `&self`): warm requests hit
/// the pool store's shared read path concurrently and N simultaneous
/// misses on one pool key sample exactly once, so plans and utilities
/// are identical to a sequential run. With `--out FILE` the response
/// lines go to the file and the report carries only the summary;
/// otherwise the report itself is the JSONL stream followed by a
/// `#`-prefixed summary line.
fn cmd_batch(args: &ParsedArgs) -> Result<String, OipaError> {
    let requests_path = args.required("requests")?;
    let threads: usize = args.parsed_or("threads", 1)?;
    if threads == 0 {
        return Err(OipaError::config("--threads must be at least 1"));
    }
    let mut service = match args.optional("pool") {
        Some(pool_path) => {
            let mut service = PlannerService::from_pool(load_pool(pool_path)?);
            match (args.optional("graph"), args.optional("probs")) {
                (Some(g), Some(p)) => {
                    let graph = load_graph(g)?;
                    let table = load_probs(p, &graph)?;
                    service.attach_graph(graph, table)?;
                }
                (None, None) => {}
                _ => {
                    return Err(OipaError::config(
                        "--graph and --probs must be given together",
                    ))
                }
            }
            service
        }
        None => {
            let graph = load_graph(args.required("graph")?)?;
            let table = load_probs(args.required("probs")?, &graph)?;
            PlannerService::new(graph, table)?
        }
    };
    attach_store_flag(&mut service, args)?;
    let text = std::fs::read_to_string(requests_path)
        .map_err(|e| io_err("reading requests", requests_path, e))?;
    let check = args.parsed_or("check", false)?;

    let entries: Vec<(usize, &str)> = text
        .lines()
        .enumerate()
        .filter_map(|(idx, line)| {
            let line = line.trim();
            (!line.is_empty() && !line.starts_with('#')).then_some((idx + 1, line))
        })
        .collect();

    // One request → one outcome: the output line, whether it succeeded,
    // and (under --check) the parsed pair for the agreement check.
    type BatchOutcome = (String, bool, Option<(usize, SolveRequest, SolveResponse)>);
    let solve_line = |lineno: usize, line: &str| -> BatchOutcome {
        let outcome = serde_json::from_str::<SolveRequest>(line)
            .map_err(|e| OipaError::InvalidConfig {
                what: format!("parsing request: {e}"),
            })
            .and_then(|request| {
                let response = service.solve(&request)?;
                let rendered = serde_json::to_string(&response).map_err(|e| OipaError::Io {
                    what: "serializing a response".to_string(),
                    detail: e.to_string(),
                })?;
                Ok((rendered, request, response))
            });
        match outcome {
            Ok((rendered, request, response)) => {
                let retained = check.then_some((lineno, request, response));
                (rendered, true, retained)
            }
            Err(e) => (
                format!(
                    "{{\"line\": {lineno}, \"error\": {}}}",
                    serde_json::to_string(&e.to_string()).expect("string serializes")
                ),
                false,
                None,
            ),
        }
    };

    let start = std::time::Instant::now();
    let outcomes: Vec<BatchOutcome> = if threads <= 1 {
        entries.iter().map(|(n, l)| solve_line(*n, l)).collect()
    } else {
        // The shim's parallel map preserves input order, so the output
        // JSONL lines land exactly where the sequential path puts them.
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .map_err(|e| OipaError::config(format!("building the worker pool: {e}")))?;
        pool.install(|| {
            use rayon::prelude::*;
            entries.par_iter().map(|(n, l)| solve_line(*n, l)).collect()
        })
    };
    let elapsed = start.elapsed().as_secs_f64();

    let mut lines_out: Vec<String> = Vec::with_capacity(outcomes.len());
    let mut responses: Vec<(usize, SolveRequest, SolveResponse)> = Vec::new();
    let mut ok = 0usize;
    let mut failed = 0usize;
    for (line, succeeded, retained) in outcomes {
        if succeeded {
            ok += 1;
        } else {
            failed += 1;
        }
        lines_out.push(line);
        responses.extend(retained);
    }
    if check {
        batch_check(&responses, failed)?;
    }

    let stats = service.arena_stats();
    let total = ok + failed;
    let summary = format!(
        "# batch: {total} requests, {ok} ok, {failed} failed in {elapsed:.2}s \
         ({:.2} req/s, {threads} thread(s)); arena: {} pools, {} hits, {} misses{}",
        total as f64 / elapsed.max(1e-9),
        stats.entries,
        stats.hits,
        stats.misses,
        if check { "; check passed" } else { "" }
    );
    match args.optional("out") {
        Some(out) => {
            let mut body = lines_out.join("\n");
            body.push('\n');
            std::fs::write(out, body).map_err(|e| io_err("writing responses", out, e))?;
            Ok(format!("wrote {total} response lines -> {out}\n{summary}"))
        }
        None => {
            lines_out.push(summary);
            Ok(lines_out.join("\n"))
        }
    }
}

/// `--check` invariants: no failed request, and every `bab`/`greedy`
/// request pair that differs only in the method must agree on the plan
/// (the agreement gate the CI batch fixture asserts).
///
/// Requests are grouped by their method-erased JSON rendering, so the
/// comparison is linear in the batch size.
fn batch_check(
    responses: &[(usize, SolveRequest, SolveResponse)],
    failed: usize,
) -> Result<(), OipaError> {
    if failed > 0 {
        return Err(OipaError::Mismatch {
            what: format!("--check: {failed} request(s) failed"),
        });
    }
    let mut groups: HashMap<String, Vec<(usize, Method, &oipa_core::AssignmentPlan)>> =
        HashMap::new();
    for (lineno, request, response) in responses {
        if !matches!(request.method, Method::Bab | Method::Greedy) {
            continue;
        }
        let mut erased = request.clone();
        erased.method = Method::Bab;
        let key = serde_json::to_string(&erased).map_err(|e| OipaError::Io {
            what: "serializing a request key".to_string(),
            detail: e.to_string(),
        })?;
        groups
            .entry(key)
            .or_default()
            .push((*lineno, request.method, &response.plan));
    }
    for group in groups.values() {
        let bab = group.iter().find(|(_, m, _)| *m == Method::Bab);
        let greedy = group.iter().find(|(_, m, _)| *m == Method::Greedy);
        if let (Some((line_a, _, plan_a)), Some((line_b, _, plan_b))) = (bab, greedy) {
            if plan_a != plan_b {
                return Err(OipaError::Mismatch {
                    what: format!(
                        "--check: lines {line_a} and {line_b} (bab vs greedy) disagree on the plan"
                    ),
                });
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_words(words: &[&str]) -> Result<String, OipaError> {
        let parsed =
            ParsedArgs::parse(words.iter().map(|s| s.to_string()).collect()).expect("parseable");
        run(&parsed)
    }

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("oipa-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    #[test]
    fn full_pipeline_via_files() {
        let g = tmp("pipe.graph");
        let p = tmp("pipe.probs");
        let pool = tmp("pipe.pool");
        let campaign = tmp("pipe.campaign.json");
        let plan = tmp("pipe.plan.json");

        let report = run_words(&[
            "generate",
            "--dataset",
            "lastfm",
            "--scale",
            "tiny",
            "--seed",
            "7",
            "--out-graph",
            &g,
            "--out-probs",
            &p,
        ])
        .unwrap();
        assert!(report.contains("generated lastfm"));

        let report = run_words(&["stats", "--graph", &g, "--probs", &p]).unwrap();
        assert!(report.contains("topics 20"));

        let report = run_words(&[
            "sample",
            "--graph",
            &g,
            "--probs",
            &p,
            "--ell",
            "2",
            "--theta",
            "8000",
            "--seed",
            "7",
            "--threads",
            "2",
            "--out-pool",
            &pool,
            "--out-campaign",
            &campaign,
        ])
        .unwrap();
        assert!(report.contains("θ=8000"));

        let report = run_words(&[
            "solve",
            "--pool",
            &pool,
            "--method",
            "bab-p",
            "--k",
            "4",
            "--ratio",
            "0.5",
            "--max-nodes",
            "4",
            "--seed",
            "7",
            "--out-plan",
            &plan,
        ])
        .unwrap();
        assert!(report.contains("\"utility\""));
        assert!(report.contains("\"pool_cache_hit\": true"), "{report}");

        let report = run_words(&[
            "simulate",
            "--graph",
            &g,
            "--probs",
            &p,
            "--campaign",
            &campaign,
            "--plan",
            &plan,
            "--ratio",
            "0.5",
            "--runs",
            "100",
            "--seed",
            "7",
        ])
        .unwrap();
        assert!(report.contains("simulated adoption utility"));
    }

    #[test]
    fn import_with_synthesized_probs() {
        let edges = tmp("imp.edges");
        std::fs::write(&edges, "0 1\n1 2\n2 0\n").unwrap();
        let g = tmp("imp.graph");
        let p = tmp("imp.probs");
        let report = run_words(&[
            "import",
            "--edges",
            &edges,
            "--out-graph",
            &g,
            "--out-probs",
            &p,
            "--topics",
            "4",
            "--seed",
            "3",
        ])
        .unwrap();
        assert!(report.contains("imported 3 nodes, 3 edges"));
        let stats = run_words(&["stats", "--graph", &g, "--probs", &p]).unwrap();
        assert!(stats.contains("topics 4"));
    }

    #[test]
    fn solve_all_registry_methods() {
        let g = tmp("m.graph");
        let p = tmp("m.probs");
        let pool = tmp("m.pool");
        let campaign = tmp("m.campaign.json");
        run_words(&[
            "generate",
            "--dataset",
            "lastfm",
            "--scale",
            "tiny",
            "--seed",
            "8",
            "--out-graph",
            &g,
            "--out-probs",
            &p,
        ])
        .unwrap();
        run_words(&[
            "sample",
            "--graph",
            &g,
            "--probs",
            &p,
            "--ell",
            "2",
            "--theta",
            "4000",
            "--seed",
            "8",
            "--out-pool",
            &pool,
            "--out-campaign",
            &campaign,
        ])
        .unwrap();
        for method in ["greedy", "tim", "bab", "plain"] {
            let report = run_words(&[
                "solve",
                "--pool",
                &pool,
                "--method",
                method,
                "--k",
                "3",
                "--max-nodes",
                "2",
            ])
            .unwrap();
            assert!(report.contains("\"utility\""), "{method}: {report}");
        }
        // IM additionally needs the graph and table for its collapsed pool.
        let report = run_words(&[
            "solve", "--pool", &pool, "--method", "im", "--k", "3", "--graph", &g, "--probs", &p,
            "--theta", "4000",
        ])
        .unwrap();
        assert!(report.contains("\"utility\""), "im: {report}");
    }

    #[test]
    fn batch_streams_jsonl_through_one_session() {
        let g = tmp("b.graph");
        let p = tmp("b.probs");
        let requests = tmp("b.requests.jsonl");
        let out = tmp("b.responses.jsonl");
        run_words(&[
            "generate",
            "--dataset",
            "lastfm",
            "--scale",
            "tiny",
            "--seed",
            "4",
            "--out-graph",
            &g,
            "--out-probs",
            &p,
        ])
        .unwrap();
        // Three requests sharing one pool key (amortized), one distinct,
        // one malformed (the batch must continue past it).
        let body = r#"# seeded batch fixture
{"method":"bab","budget":2,"ell":2,"theta":3000,"seed":5,"promoter_fraction":0.4,"max_nodes":8}
{"method":"greedy","budget":2,"ell":2,"theta":3000,"seed":5,"promoter_fraction":0.4,"max_nodes":8}
{"method":"tim","budget":2,"ell":2,"theta":3000,"seed":5,"promoter_fraction":0.4,"max_nodes":8}
{"method":"warp","budget":2}
{"method":"bab","budget":2,"ell":2,"theta":2000,"seed":5,"promoter_fraction":0.4,"max_nodes":8}
"#;
        std::fs::write(&requests, body).unwrap();
        let report = run_words(&[
            "batch",
            "--requests",
            &requests,
            "--graph",
            &g,
            "--probs",
            &p,
            "--out",
            &out,
        ])
        .unwrap();
        assert!(report.contains("5 requests, 4 ok, 1 failed"), "{report}");
        assert!(report.contains("2 hits"), "one shared pool key: {report}");
        let lines: Vec<String> = std::fs::read_to_string(&out)
            .unwrap()
            .lines()
            .map(String::from)
            .collect();
        assert_eq!(lines.len(), 5);
        let first: SolveResponse = serde_json::from_str(&lines[0]).unwrap();
        assert!(!first.pool_cache_hit);
        let second: SolveResponse = serde_json::from_str(&lines[1]).unwrap();
        assert!(second.pool_cache_hit, "second request reuses the pool");
        assert!(lines[3].contains("\"error\""), "{}", lines[3]);

        // A partial --graph/--probs pair is rejected, not ignored.
        let err = run_words(&[
            "batch",
            "--requests",
            &requests,
            "--pool",
            &tmp("nonexistent.pool"),
            "--graph",
            &g,
        ])
        .unwrap_err();
        assert!(
            err.to_string().contains("given together") || err.to_string().contains("reading pool"),
            "{err}"
        );

        // --check fails when any request failed…
        let err = run_words(&[
            "batch",
            "--requests",
            &requests,
            "--graph",
            &g,
            "--probs",
            &p,
            "--check",
            "true",
        ])
        .unwrap_err();
        assert!(err.to_string().contains("failed"), "{err}");

        // …and passes on a clean fixture where bab and greedy agree.
        let clean = tmp("b.clean.jsonl");
        std::fs::write(
            &clean,
            r#"{"method":"bab","budget":2,"ell":2,"theta":3000,"seed":5,"promoter_fraction":0.4,"max_nodes":8}
{"method":"greedy","budget":2,"ell":2,"theta":3000,"seed":5,"promoter_fraction":0.4,"max_nodes":8}
"#,
        )
        .unwrap();
        let report = run_words(&[
            "batch",
            "--requests",
            &clean,
            "--graph",
            &g,
            "--probs",
            &p,
            "--check",
            "true",
        ])
        .unwrap();
        assert!(report.contains("check passed"), "{report}");
    }

    /// The checked-in CI fixture must keep passing `--check` end to end
    /// (all 10 requests solve, bab/greedy pairs agree, pools amortize).
    #[test]
    fn checked_in_batch_fixture_passes_check() {
        let g = tmp("fix.graph");
        let p = tmp("fix.probs");
        run_words(&[
            "generate",
            "--dataset",
            "lastfm",
            "--scale",
            "tiny",
            "--seed",
            "7",
            "--out-graph",
            &g,
            "--out-probs",
            &p,
        ])
        .unwrap();
        let fixture = concat!(env!("CARGO_MANIFEST_DIR"), "/fixtures/batch10.jsonl");
        let report = run_words(&[
            "batch",
            "--requests",
            fixture,
            "--graph",
            &g,
            "--probs",
            &p,
            "--check",
            "true",
        ])
        .unwrap();
        assert!(report.contains("10 requests, 10 ok, 0 failed"), "{report}");
        assert!(report.contains("check passed"), "{report}");
        assert!(
            report.contains("8 hits"),
            "pool amortization broke: {report}"
        );
    }

    /// The full store lifecycle through the CLI: a graph-based solve
    /// populates the store, a rerun recalls the pool from disk, `verify`
    /// flags a corrupted segment, `gc` quarantines it, and `verify` is
    /// clean again.
    #[test]
    fn solve_with_store_dir_persists_and_recovers() {
        let g = tmp("st.graph");
        let p = tmp("st.probs");
        let dir = tmp("st.store");
        let _ = std::fs::remove_dir_all(&dir);
        run_words(&[
            "generate",
            "--dataset",
            "lastfm",
            "--scale",
            "tiny",
            "--seed",
            "7",
            "--out-graph",
            &g,
            "--out-probs",
            &p,
        ])
        .unwrap();
        let solve = |store: &str| {
            run_words(&[
                "solve",
                "--graph",
                &g,
                "--probs",
                &p,
                "--ell",
                "2",
                "--theta",
                "3000",
                "--k",
                "3",
                "--max-nodes",
                "8",
                "--seed",
                "5",
                "--store-dir",
                store,
            ])
            .unwrap()
        };
        // Cold: samples, persists. Rerun ("restart"): served from disk.
        let cold = solve(&dir);
        assert!(cold.contains("\"pool_cache_hit\": false"), "{cold}");
        let warm = solve(&dir);
        assert!(warm.contains("\"pool_tier\": \"disk\""), "{warm}");
        assert!(warm.contains("\"pool_cache_hit\": true"), "{warm}");

        // Same answers on both paths.
        let plan_of = |report: &str| {
            let v: serde_json::Value = serde_json::from_str(report).unwrap();
            serde_json::to_string(v.get("plan").unwrap()).unwrap()
        };
        assert_eq!(plan_of(&cold), plan_of(&warm));

        let ls = run_words(&["store", "ls", "--dir", &dir]).unwrap();
        assert!(ls.contains("1 segments"), "{ls}");
        assert!(ls.contains("1 region(s)"), "{ls}");
        assert!(ls.contains("(100% live)"), "{ls}");
        // Fingerprints and epochs render as zero-padded hex, the pool is
        // live at the lineage head, and no purge has ever happened.
        assert!(ls.contains("live"), "{ls}");
        assert!(ls.contains("lineage "), "{ls}");
        assert!(ls.contains("epoch 0000, 0 stale"), "{ls}");
        assert!(!ls.contains("purge"), "{ls}");
        assert!(run_words(&["store", "verify", "--dir", &dir])
            .unwrap()
            .contains("1 segment(s) verified clean"));

        // Corrupt one payload byte: verify must flag it (exit-2 error)…
        let seg = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .find(|e| {
                e.file_name()
                    .to_string_lossy()
                    .starts_with(oipa_store::REGION_PREFIX)
            })
            .expect("a region file")
            .path();
        let mut bytes = std::fs::read(&seg).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        std::fs::write(&seg, &bytes).unwrap();
        let err = run_words(&["store", "verify", "--dir", &dir]).unwrap_err();
        assert!(err.to_string().contains("CORRUPT"), "{err}");
        assert_eq!(err.exit_code(), 2);

        // …gc quarantines it, and verify is clean again — and lists the
        // set-aside file with its recorded reason.
        let gc = run_words(&["store", "gc", "--dir", &dir]).unwrap();
        assert!(gc.contains("quarantined 1 corrupt"), "{gc}");
        let verify = run_words(&["store", "verify", "--dir", &dir]).unwrap();
        assert!(verify.contains("0 segment(s) verified clean"), "{verify}");
        assert!(verify.contains("1 in quarantine"), "{verify}");
        assert!(verify.contains("quarantined "), "{verify}");
        // The next stored solve goes cold again (the segment is gone).
        let resampled = solve(&dir);
        assert!(
            resampled.contains("\"pool_cache_hit\": false"),
            "{resampled}"
        );
    }

    /// `store verify` runs the decoder's structural checks, not only the
    /// checksums: an entry whose checksum (and the manifest's record of
    /// it) is valid but whose postings name a sample past θ fails.
    #[test]
    fn store_verify_fails_a_valid_crc_entry_that_breaks_a_structural_check() {
        let dir = tmp("idx.store");
        let _ = std::fs::remove_dir_all(&dir);
        let (g, table, campaign) = oipa_sampler::testkit::fig1();
        let theta = 50;
        let pool = MrrPool::generate(&g, &table, &campaign, theta, 5);
        let mut tier = DiskTier::open(&dir, u64::MAX).unwrap();
        assert!(tier.put(&oipa_store::PoolKey::sampled("idx".into(), theta, 5), &pool));
        let entry = tier.entries()[0].clone();
        drop(tier);
        assert!(run_words(&["store", "verify", "--dir", &dir])
            .unwrap()
            .contains("1 segment(s) verified clean"));

        // Piece 0's postings (binio v4) start with node 0's first id as a
        // one-byte gap; 127 puts it past θ = 50.
        let region = std::path::Path::new(&dir).join(&entry.file);
        let mut bytes = std::fs::read(&region).unwrap();
        let (start, len) = (entry.offset as usize, entry.bytes as usize);
        let data = &mut bytes[start..start + len];
        let n = u32::from_le_bytes(data[12..16].try_into().unwrap()) as usize;
        let postings = 28 + 4 * theta + 8 * (n + 1) + 8;
        assert!(data[postings] < 0x80, "a one-byte gap");
        data[postings] = 0x7f;
        let crc = oipa_graph::checksum::crc32(&data[..len - 4]);
        data[len - 4..].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(&region, &bytes).unwrap();
        let manifest_path = std::path::Path::new(&dir).join(oipa_store::MANIFEST_FILE);
        let manifest = std::fs::read_to_string(&manifest_path).unwrap();
        let resealed = manifest.replacen(
            &format!("\"crc\": {}", entry.crc),
            &format!("\"crc\": {crc}"),
            1,
        );
        assert_ne!(manifest, resealed, "the manifest records the entry's crc");
        std::fs::write(&manifest_path, resealed).unwrap();

        let err = run_words(&["store", "verify", "--dir", &dir]).unwrap_err();
        assert!(err.to_string().contains("CORRUPT"), "{err}");
        assert!(err.to_string().contains("not below θ"), "{err}");
    }

    /// `--fault-schedule` (dev flag): a disk-full first segment write
    /// must not fail the solve — the answer comes back, the store just
    /// has nothing persisted. A bad spec is rejected loudly.
    #[test]
    fn solve_with_fault_schedule_survives_disk_full() {
        let g = tmp("fs.graph");
        let p = tmp("fs.probs");
        let dir = tmp("fs.store");
        let _ = std::fs::remove_dir_all(&dir);
        run_words(&[
            "generate",
            "--dataset",
            "lastfm",
            "--scale",
            "tiny",
            "--seed",
            "7",
            "--out-graph",
            &g,
            "--out-probs",
            &p,
        ])
        .unwrap();
        // Writes #0/#1 are the open's manifest persist and the instance
        // stamp; write #2 is the segment this solve tries to spill —
        // where the disk "fills up".
        let report = run_words(&[
            "solve",
            "--graph",
            &g,
            "--probs",
            &p,
            "--ell",
            "2",
            "--theta",
            "2000",
            "--k",
            "3",
            "--max-nodes",
            "8",
            "--seed",
            "5",
            "--store-dir",
            &dir,
            "--fault-schedule",
            "write:enospc=2",
        ])
        .unwrap();
        assert!(report.contains("\"pool_cache_hit\": false"), "{report}");
        let ls = run_words(&["store", "ls", "--dir", &dir]).unwrap();
        assert!(ls.contains("0 segments"), "{ls}");

        let err = run_words(&[
            "solve",
            "--graph",
            &g,
            "--probs",
            &p,
            "--ell",
            "2",
            "--store-dir",
            &dir,
            "--fault-schedule",
            "write:banana=1",
        ])
        .unwrap_err();
        assert!(err.to_string().contains("fault-schedule"), "{err}");
        assert_eq!(err.exit_code(), 2);
    }

    #[test]
    fn solve_from_graph_needs_ell() {
        let g = tmp("ne.graph");
        let p = tmp("ne.probs");
        run_words(&[
            "generate",
            "--dataset",
            "lastfm",
            "--scale",
            "tiny",
            "--seed",
            "3",
            "--out-graph",
            &g,
            "--out-probs",
            &p,
        ])
        .unwrap();
        let err = run_words(&["solve", "--graph", &g, "--probs", &p]).unwrap_err();
        assert!(err.to_string().contains("--ell"), "{err}");
        assert_eq!(err.exit_code(), 2);
    }

    /// `batch --threads N` must produce the same answers, in the same
    /// order, as the sequential path — only the summary's timing and
    /// thread count may differ.
    #[test]
    fn threaded_batch_matches_sequential_output() {
        let g = tmp("tb.graph");
        let p = tmp("tb.probs");
        let requests = tmp("tb.requests.jsonl");
        run_words(&[
            "generate",
            "--dataset",
            "lastfm",
            "--scale",
            "tiny",
            "--seed",
            "6",
            "--out-graph",
            &g,
            "--out-probs",
            &p,
        ])
        .unwrap();
        // Six requests over two pool keys, one malformed line (both modes
        // must place its error object at the same position).
        let body = r#"{"method":"bab","budget":2,"ell":2,"theta":3000,"seed":5,"promoter_fraction":0.4,"max_nodes":8}
{"method":"greedy","budget":2,"ell":2,"theta":3000,"seed":5,"promoter_fraction":0.4,"max_nodes":8}
{"method":"tim","budget":2,"ell":2,"theta":3000,"seed":5,"promoter_fraction":0.4,"max_nodes":8}
{"method":"warp","budget":2}
{"method":"bab","budget":3,"ell":2,"theta":2000,"seed":5,"promoter_fraction":0.4,"max_nodes":8}
{"method":"greedy","budget":3,"ell":2,"theta":2000,"seed":5,"promoter_fraction":0.4,"max_nodes":8}
"#;
        std::fs::write(&requests, body).unwrap();
        let run_with = |threads: &str, out: &str| {
            run_words(&[
                "batch",
                "--requests",
                &requests,
                "--graph",
                &g,
                "--probs",
                &p,
                "--threads",
                threads,
                "--out",
                out,
            ])
            .unwrap()
        };
        let seq_out = tmp("tb.seq.jsonl");
        let par_out = tmp("tb.par.jsonl");
        let seq_report = run_with("1", &seq_out);
        let par_report = run_with("3", &par_out);
        assert!(
            seq_report.contains("6 requests, 5 ok, 1 failed"),
            "{seq_report}"
        );
        assert!(
            par_report.contains("6 requests, 5 ok, 1 failed"),
            "{par_report}"
        );
        assert!(par_report.contains("3 thread(s)"), "{par_report}");

        let read_lines = |path: &str| -> Vec<String> {
            std::fs::read_to_string(path)
                .unwrap()
                .lines()
                .map(String::from)
                .collect()
        };
        let seq_lines = read_lines(&seq_out);
        let par_lines = read_lines(&par_out);
        assert_eq!(seq_lines.len(), 6);
        assert_eq!(par_lines.len(), 6);
        for (i, (s, p)) in seq_lines.iter().zip(&par_lines).enumerate() {
            if s.contains("\"error\"") {
                assert_eq!(s, p, "line {i}: error objects must match");
                continue;
            }
            let a: SolveResponse = serde_json::from_str(s).unwrap();
            let b: SolveResponse = serde_json::from_str(p).unwrap();
            assert_eq!(a.plan, b.plan, "line {i}: plans diverged across modes");
            assert_eq!(
                a.utility.to_bits(),
                b.utility.to_bits(),
                "line {i}: utilities diverged across modes"
            );
            assert_eq!(a.theta, b.theta, "line {i}");
            assert_eq!(a.method, b.method, "line {i}: output order broke");
        }

        // --threads 0 is rejected up front.
        let err = run_words(&[
            "batch",
            "--requests",
            &requests,
            "--graph",
            &g,
            "--probs",
            &p,
            "--threads",
            "0",
        ])
        .unwrap_err();
        assert!(err.to_string().contains("--threads"), "{err}");
    }

    #[test]
    fn helpful_errors_and_exit_codes() {
        let missing_flag = run_words(&["stats"]).unwrap_err();
        assert!(missing_flag.to_string().contains("--graph"));
        assert_eq!(missing_flag.exit_code(), 2, "user error exits 2");

        let io = run_words(&["solve", "--pool", "/nonexistent.pool"]).unwrap_err();
        assert!(io.to_string().contains("reading pool"));
        assert_eq!(io.exit_code(), 1, "environment error exits 1");

        let method =
            run_words(&["solve", "--pool", "/nonexistent.pool", "--method", "magic"]).unwrap_err();
        assert!(
            method.to_string().contains("registered solvers"),
            "{method}"
        );
        assert_eq!(method.exit_code(), 2);
    }

    #[test]
    fn obs_table_renders_typed_aligned_rows() {
        let exposition = "\
# HELP oipa_http_requests_total Requests answered.\n\
# TYPE oipa_http_requests_total counter\n\
oipa_http_requests_total{endpoint=\"/solve\",status=\"200\"} 5\n\
# HELP oipa_http_request_seconds Request latency.\n\
# TYPE oipa_http_request_seconds histogram\n\
oipa_http_request_seconds_bucket{endpoint=\"/solve\",le=\"+Inf\"} 5\n\
oipa_http_request_seconds_count{endpoint=\"/solve\"} 5\n\
# HELP oipa_uptime_seconds Uptime.\n\
# TYPE oipa_uptime_seconds gauge\n\
oipa_uptime_seconds 1.5\n";
        let table = render_metrics_table(exposition).unwrap();
        let lines: Vec<&str> = table.lines().collect();
        assert!(lines[0].starts_with("series"), "{table}");
        assert!(
            lines[1].contains("counter") && lines[1].ends_with('5'),
            "{table}"
        );
        assert!(
            lines[2].contains("histogram") && lines[2].contains("le=\"+Inf\""),
            "{table}"
        );
        assert!(lines[3].contains("histogram"), "_count resolves: {table}");
        assert!(lines[4].contains("gauge"), "{table}");
        assert!(lines[5].contains("4 series across 3 families"), "{table}");
        // All rows align their type column.
        let col = lines[1].find("counter").unwrap();
        assert_eq!(lines[2].find("histogram"), Some(col), "{table}");
        assert_eq!(lines[4].find("gauge"), Some(col), "{table}");

        assert!(render_metrics_table("").is_err(), "empty exposition");
        assert!(render_metrics_table("junk without value\n# TYPE x counter\n").is_err());
    }

    #[test]
    fn obs_dump_scrapes_a_live_server() {
        let (graph, probs, _campaign) = oipa_sampler::testkit::fig1();
        let service = std::sync::Arc::new(std::sync::RwLock::new(
            PlannerService::new(graph, probs).unwrap(),
        ));
        let handle = oipa_server::Server::spawn(
            std::sync::Arc::clone(&service),
            oipa_server::ServerConfig::default(),
        )
        .unwrap();
        let addr = handle.addr().to_string();

        let table = run_words(&["obs", "dump", "--addr", &addr]).unwrap();
        assert!(table.contains("oipa_build_info"), "{table}");
        assert!(table.contains("oipa_store_mem_lookups_total"), "{table}");
        assert!(table.contains("series across"), "{table}");

        let err = run_words(&["obs", "wat", "--addr", &addr]).unwrap_err();
        assert!(err.to_string().contains("unknown obs action"), "{err}");
        handle.shutdown();

        let err = run_words(&["obs", "dump", "--addr", &addr]).unwrap_err();
        assert_eq!(err.exit_code(), 1, "a dead server is an I/O error");
    }

    #[test]
    fn plan_campaign_mismatch_detected() {
        let g = tmp("mm.graph");
        let p = tmp("mm.probs");
        run_words(&[
            "generate",
            "--dataset",
            "lastfm",
            "--scale",
            "tiny",
            "--seed",
            "9",
            "--out-graph",
            &g,
            "--out-probs",
            &p,
        ])
        .unwrap();
        let campaign = tmp("mm.campaign.json");
        let plan = tmp("mm.plan.json");
        // 3-piece campaign, 2-piece plan.
        let mut rng = StdRng::seed_from_u64(1);
        save_json(
            &Campaign::sample_one_hot(&mut rng, 20, 3),
            &campaign,
            "campaign",
        )
        .unwrap();
        save_json(&oipa_core::AssignmentPlan::empty(2), &plan, "plan").unwrap();
        let err = run_words(&[
            "simulate",
            "--graph",
            &g,
            "--probs",
            &p,
            "--campaign",
            &campaign,
            "--plan",
            &plan,
        ])
        .unwrap_err();
        assert!(err.to_string().contains("pieces"));
        assert_eq!(err.exit_code(), 2);
    }
}
