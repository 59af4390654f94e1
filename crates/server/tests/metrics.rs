//! Black-box protocol suite for `GET /metrics`: the exposition must
//! parse, the request counters must be monotone across scrapes, the
//! histogram invariants must hold, and `/stats` and `/metrics` must
//! never disagree about the store counters they both report.

mod common;

use common::{request, solve_over_wire, spawn};
use oipa_server::{Server, ServerConfig};
use oipa_service::StoreConfig;
use std::net::SocketAddr;
use std::sync::{Arc, RwLock};

/// One parsed exposition scrape: samples in file order plus a lookup map
/// keyed by the full `name{labels}` series string.
struct Scrape {
    /// `(series, value)` in exposition order.
    samples: Vec<(String, f64)>,
}

impl Scrape {
    fn get(&self, series: &str) -> f64 {
        self.samples
            .iter()
            .find(|(name, _)| name == series)
            .map(|(_, v)| *v)
            .unwrap_or_else(|| {
                let all: Vec<&str> = self.samples.iter().map(|(n, _)| n.as_str()).collect();
                panic!("series {series:?} not in the scrape; present: {all:#?}")
            })
    }

    fn has(&self, series: &str) -> bool {
        self.samples.iter().any(|(name, _)| name == series)
    }

    /// All samples whose series string starts with `prefix`, in file
    /// (= bucket-ladder) order.
    fn with_prefix(&self, prefix: &str) -> Vec<(String, f64)> {
        self.samples
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .cloned()
            .collect()
    }
}

/// Scrapes `/metrics` and validates the exposition grammar line by line:
/// comment lines are `# HELP` / `# TYPE`, every other line is
/// `series value` with a parseable float value.
fn scrape(addr: SocketAddr) -> Scrape {
    let resp = request(addr, "GET", "/metrics", None);
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    assert_eq!(
        resp.header("content-type"),
        Some("text/plain; version=0.0.4"),
        "the exposition content type is part of the frozen wire format"
    );
    let mut samples = Vec::new();
    for line in resp.body_str().lines() {
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            assert!(
                comment.starts_with(" HELP ") || comment.starts_with(" TYPE "),
                "unknown comment line {line:?}"
            );
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("sample line without a value: {line:?}"));
        let value: f64 = value
            .parse()
            .unwrap_or_else(|_| panic!("unparseable value in {line:?}"));
        samples.push((series.to_string(), value));
    }
    assert!(!samples.is_empty(), "an empty scrape is never right");
    Scrape { samples }
}

fn solve_requests_series() -> &'static str {
    "oipa_http_requests_total{endpoint=\"/solve\",status=\"200\"}"
}

#[test]
fn metrics_counters_are_monotone_and_histograms_sum_to_request_count() {
    let (handle, _service) = spawn(ServerConfig::default());
    let addr = handle.addr();

    // Three solves on one key: one cold (samples the pool), two warm.
    let req = common::solve_request(2, 2_000, 11);
    for _ in 0..3 {
        solve_over_wire(addr, &req);
    }

    let first = scrape(addr);
    assert_eq!(first.get(solve_requests_series()), 3.0);
    assert_eq!(
        first.get("oipa_http_request_seconds_count{endpoint=\"/solve\"}"),
        3.0,
        "the latency histogram must count every /solve request"
    );
    // Solver-phase metrics flow through the same registry: one sampling
    // run, a pool lookup and a solve per request.
    assert_eq!(
        first.get("oipa_solver_phase_seconds_count{phase=\"sampling\"}"),
        1.0
    );
    assert_eq!(
        first.get("oipa_solver_phase_seconds_count{phase=\"pool_lookup\"}"),
        3.0
    );
    assert_eq!(
        first.get("oipa_solver_phase_seconds_count{phase=\"solve\"}"),
        3.0
    );
    assert_eq!(
        first.get("oipa_pool_requests_total{outcome=\"sampled\"}"),
        1.0
    );
    assert_eq!(
        first.get("oipa_pool_requests_total{outcome=\"hit_memory\"}"),
        2.0
    );
    // Identity: the build info gauge and a sane uptime.
    assert_eq!(
        first.get(&format!(
            "oipa_build_info{{service=\"oipa-server\",version=\"{}\"}}",
            env!("CARGO_PKG_VERSION")
        )),
        1.0
    );
    assert!(first.get("oipa_uptime_seconds") >= 0.0);

    // Two more solves: every counter moves forward, never backward.
    for _ in 0..2 {
        solve_over_wire(addr, &req);
    }
    let second = scrape(addr);
    assert_eq!(second.get(solve_requests_series()), 5.0);
    assert_eq!(
        second.get("oipa_http_requests_total{endpoint=\"/metrics\",status=\"200\"}"),
        1.0,
        "the first scrape itself is counted by the second"
    );
    for (series, value) in &first.samples {
        if series.contains("_seconds") && !series.contains("_count") && !series.contains("_bucket")
        {
            continue; // gauges (uptime) and _sum lines may move freely
        }
        if series.starts_with("oipa_http_inflight")
            || series.starts_with("oipa_store_mem_entries")
            || series.starts_with("oipa_store_mem_bytes")
            || series.starts_with("oipa_build_info")
        {
            continue; // gauges
        }
        assert!(
            second.get(series) >= *value,
            "counter {series} went backwards: {} -> {}",
            value,
            second.get(series)
        );
    }

    // Histogram invariants on the /solve latency series: buckets are
    // cumulative (monotone over the ladder) and +Inf equals _count.
    let buckets = second.with_prefix("oipa_http_request_seconds_bucket{endpoint=\"/solve\"");
    assert!(buckets.len() > 2, "expected a bucket ladder: {buckets:?}");
    let mut last = 0.0;
    for (series, value) in &buckets {
        assert!(
            *value >= last,
            "bucket {series} is not cumulative: {value} < {last}"
        );
        last = *value;
    }
    let (inf_series, inf_value) = buckets.last().unwrap();
    assert!(inf_series.contains("le=\"+Inf\""), "{inf_series}");
    assert_eq!(
        *inf_value,
        second.get("oipa_http_request_seconds_count{endpoint=\"/solve\"}"),
        "+Inf bucket must equal the histogram count"
    );
    assert_eq!(*inf_value, 5.0, "five /solve requests were answered");

    handle.shutdown();
}

#[test]
fn stats_and_metrics_report_the_same_store_counters() {
    let (handle, service) = spawn(ServerConfig::default());
    let addr = handle.addr();

    let req = common::solve_request(2, 2_000, 23);
    for _ in 0..3 {
        solve_over_wire(addr, &req);
    }

    // No traffic between the two reads, so the shared atomics cannot
    // move: the snapshot behind /stats and the bridge behind /metrics
    // must agree exactly.
    let resp = request(addr, "GET", "/stats", None);
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    let stats: oipa_server::StatsBody = serde_json::from_str(resp.body_str()).unwrap();
    let metrics = scrape(addr);

    assert_eq!(
        metrics.get("oipa_store_mem_lookups_total"),
        stats.store.mem.lookups as f64
    );
    assert_eq!(
        metrics.get("oipa_store_mem_hits_total"),
        stats.store.mem.hits as f64
    );
    assert_eq!(
        metrics.get("oipa_store_mem_misses_total"),
        stats.store.mem.misses as f64
    );
    assert_eq!(
        metrics.get("oipa_store_mem_entries"),
        stats.store.mem.entries as f64
    );
    assert!(
        !metrics.has("oipa_store_disk_hits_total"),
        "no disk tier attached, so no disk families may appear"
    );
    // The identity header matches what the registry reports.
    assert_eq!(stats.server.metrics_schema, oipa_server::METRICS_SCHEMA);
    assert_eq!(stats.server.stats_schema, oipa_store::STATS_SCHEMA);
    // And the in-process snapshot is the wire snapshot.
    assert_eq!(stats.store, service.read().unwrap().stats_snapshot());

    handle.shutdown();
}

/// With a disk tier attached, `/metrics` bridges the disk counters —
/// the tier-lock wait and the decode time included — from the same
/// snapshot `/stats` serves.
#[test]
fn stats_and_metrics_report_the_same_disk_counters() {
    let dir = common::tmpdir("metrics-disk");
    let mut service = common::fig1_service();
    service
        .attach_store(StoreConfig::new(&dir))
        .expect("attaching the disk store");
    let service = Arc::new(RwLock::new(service));
    let handle = Server::spawn(Arc::clone(&service), ServerConfig::default()).unwrap();
    let addr = handle.addr();

    // Cold solve (written through to disk), then a disk hit.
    let req = common::solve_request(2, 2_000, 31);
    solve_over_wire(addr, &req);
    service.write().unwrap().clear_arena();
    let warm = solve_over_wire(addr, &req);
    assert_eq!(warm.pool_tier.as_deref(), Some("disk"));

    let resp = request(addr, "GET", "/stats", None);
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    let stats: oipa_server::StatsBody = serde_json::from_str(resp.body_str()).unwrap();
    let disk = stats.store.disk.expect("a disk tier is attached");
    let metrics = scrape(addr);
    assert_eq!(metrics.get("oipa_store_disk_hits_total"), disk.hits as f64);
    assert_eq!(disk.hits, 1);
    // The one entry is the tier's only indexed bytes, and the hit read
    // exactly those.
    assert_eq!(disk.read_bytes, disk.bytes);
    assert_eq!(
        metrics.get("oipa_store_disk_read_bytes_total"),
        disk.read_bytes as f64
    );
    assert_eq!(
        metrics.get("oipa_store_disk_lock_wait_seconds_total"),
        disk.lock_wait_ns as f64 / 1e9
    );
    // The one disk hit decoded its entry, and took time doing it.
    assert!(disk.decode_ns > 0);
    assert_eq!(
        metrics.get("oipa_store_disk_decode_seconds_total"),
        disk.decode_ns as f64 / 1e9
    );
    assert_eq!(stats.server.stats_schema, "oipa.stats/v4");

    // Every further disk hit adds exactly the entry's bytes.
    for hits in 2..=3u64 {
        service.write().unwrap().clear_arena();
        let again = solve_over_wire(addr, &req);
        assert_eq!(again.pool_tier.as_deref(), Some("disk"));
        assert_eq!(
            scrape(addr).get("oipa_store_disk_read_bytes_total"),
            (hits * disk.bytes) as f64
        );
    }

    handle.shutdown();
}

#[test]
fn healthz_carries_build_and_uptime_identity() {
    let (handle, _service) = spawn(ServerConfig::default());
    let resp = request(handle.addr(), "GET", "/healthz", None);
    assert_eq!(resp.status, 200);
    let body = resp.body_str();
    assert!(
        body.contains(&format!("\"version\":\"{}\"", env!("CARGO_PKG_VERSION"))),
        "healthz body: {body}"
    );
    assert!(body.contains("\"uptime_seconds\":"), "healthz body: {body}");
    handle.shutdown();
}

#[test]
fn slow_request_threshold_feeds_the_slow_counter() {
    // Threshold 0 ⇒ every request is "slow"; the JSONL goes to stderr,
    // the counter is what a black-box test can assert on.
    let config = ServerConfig {
        slow_ms: Some(0),
        ..ServerConfig::default()
    };
    let (handle, _service) = spawn(config);
    let addr = handle.addr();
    solve_over_wire(addr, &common::solve_request(1, 1_000, 3));
    let metrics = scrape(addr);
    assert!(
        metrics.get("oipa_http_slow_requests_total") >= 1.0,
        "a 0ms threshold must flag the solve as slow"
    );
    handle.shutdown();
}

#[test]
fn wrong_method_on_metrics_is_405_and_unknown_status_grid_falls_back() {
    let (handle, _service) = spawn(ServerConfig::default());
    let addr = handle.addr();
    let resp = request(addr, "POST", "/metrics", Some("{}"));
    resp.assert_error(405, "method_not_allowed");
    let metrics = scrape(addr);
    assert_eq!(
        metrics.get("oipa_http_requests_total{endpoint=\"/metrics\",status=\"405\"}"),
        1.0
    );
    handle.shutdown();
}
