//! Black-box protocol suite: every malformed input a client can send
//! must map to the documented 4xx/5xx with a typed JSON error body —
//! never a panic, never a hung worker — and the server must keep serving
//! afterwards.

mod common;

use common::*;
use oipa_server::ServerConfig;
use std::io::{Read, Write};
use std::net::Shutdown;
use std::time::{Duration, Instant};

/// A server with a short read timeout so the truncation tests run in
/// test-suite time, not production time.
fn quick_config() -> ServerConfig {
    ServerConfig {
        read_timeout: Duration::from_millis(400),
        max_body_bytes: 64 * 1024,
        ..ServerConfig::default()
    }
}

#[test]
fn malformed_request_lines_are_400() {
    let (handle, _service) = spawn(quick_config());
    let addr = handle.addr();
    for bad in [
        &b"garbage\r\n\r\n"[..],
        b"get / HTTP/1.1\r\n\r\n",               // lowercase method token
        b"GET nopath HTTP/1.1\r\n\r\n",          // target is not a path
        b"GET / HTTP/1.1 extra\r\n\r\n",         // four request-line parts
        b"GET / SPDY/3\r\n\r\n",                 // unsupported protocol
        b"\x00\x01\x02\xff binary junk\r\n\r\n", // not even text
    ] {
        let resp = send_raw(addr, bad);
        resp.assert_error(400, "bad_request");
        assert_healthy(addr);
    }
    handle.shutdown();
}

#[test]
fn unknown_routes_and_methods_get_typed_answers() {
    let (handle, _service) = spawn(quick_config());
    let addr = handle.addr();

    request(addr, "GET", "/nope", None).assert_error(404, "not_found");
    // Known path, wrong method — both directions.
    request(addr, "GET", "/solve", None).assert_error(405, "method_not_allowed");
    request(addr, "GET", "/delta", None).assert_error(405, "method_not_allowed");
    request(addr, "POST", "/healthz", Some("{}")).assert_error(405, "method_not_allowed");
    request(addr, "POST", "/stats", Some("{}")).assert_error(405, "method_not_allowed");
    // Unknown method token (valid grammar, unimplemented semantics).
    request(addr, "BREW", "/solve", Some("{}")).assert_error(501, "not_implemented");
    // Chunked framing is deliberately unsupported.
    send_raw(
        addr,
        b"POST /solve HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
    )
    .assert_error(501, "not_implemented");
    // Query strings are stripped for routing, not 404ed.
    let resp = request(addr, "GET", "/healthz?probe=1", None);
    assert_eq!(resp.status, 200);

    assert_healthy(addr);
    handle.shutdown();
}

#[test]
fn content_length_abuse() {
    let (handle, _service) = spawn(quick_config());
    let addr = handle.addr();

    // POST without a Content-Length: the server must not guess.
    send_raw(addr, b"POST /solve HTTP/1.1\r\nHost: t\r\n\r\n").assert_error(411, "length_required");
    // Unparseable length.
    send_raw(
        addr,
        b"POST /solve HTTP/1.1\r\nContent-Length: banana\r\n\r\n",
    )
    .assert_error(400, "bad_request");
    // A length over the configured cap is refused *before* any body
    // byte is read — the response arrives although we never send one.
    send_raw(
        addr,
        b"POST /solve HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n",
    )
    .assert_error(413, "body_too_large");

    assert_healthy(addr);
    handle.shutdown();
}

#[test]
fn truncated_body_times_out_with_408() {
    let config = quick_config();
    let timeout = config.read_timeout;
    let (handle, _service) = spawn(config);
    let addr = handle.addr();

    // Promise 100 bytes, deliver 10, stall. The worker must give up
    // after the read timeout — not hang forever, not answer early.
    let mut stream = connect(addr);
    stream
        .write_all(b"POST /solve HTTP/1.1\r\nContent-Length: 100\r\n\r\n0123456789")
        .unwrap();
    let started = Instant::now();
    let resp = read_response(&mut stream);
    let elapsed = started.elapsed();
    resp.assert_error(408, "request_timeout");
    // A timeout is retryable: the client is told when to come back.
    assert_eq!(
        resp.header("Retry-After"),
        Some("1"),
        "408 must carry Retry-After"
    );
    assert!(
        elapsed >= timeout,
        "408 answered after {elapsed:?}, before the {timeout:?} read timeout"
    );
    assert!(
        elapsed < timeout + Duration::from_secs(5),
        "408 took {elapsed:?} — the worker sat well past the timeout"
    );

    // Same truncation, but the client hangs up instead of stalling:
    // a clean EOF mid-body is a 400, answered promptly.
    let mut stream = connect(addr);
    stream
        .write_all(b"POST /solve HTTP/1.1\r\nContent-Length: 100\r\n\r\n0123456789")
        .unwrap();
    stream.shutdown(Shutdown::Write).unwrap();
    read_response(&mut stream).assert_error(400, "bad_request");

    // And a head that never finishes (no \r\n\r\n) also times out.
    let mut stream = connect(addr);
    stream.write_all(b"POST /solve HT").unwrap();
    let resp = read_response(&mut stream);
    resp.assert_error(408, "request_timeout");
    assert_eq!(resp.header("Retry-After"), Some("1"));

    assert_healthy(addr);
    handle.shutdown();
}

#[test]
fn oversized_head_is_431() {
    let (handle, _service) = spawn(quick_config());
    let addr = handle.addr();
    let mut huge = b"GET /healthz HTTP/1.1\r\n".to_vec();
    for i in 0..2000 {
        huge.extend_from_slice(format!("X-Pad-{i}: {}\r\n", "y".repeat(64)).as_bytes());
    }
    huge.extend_from_slice(b"\r\n");
    send_raw(addr, &huge).assert_error(431, "head_too_large");
    assert_healthy(addr);
    handle.shutdown();
}

#[test]
fn solve_body_validation() {
    let (handle, _service) = spawn(quick_config());
    let addr = handle.addr();

    // Not UTF-8.
    let mut raw = b"POST /solve HTTP/1.1\r\nContent-Length: 4\r\n\r\n".to_vec();
    raw.extend_from_slice(&[0xff, 0xfe, 0x80, 0x81]);
    send_raw(addr, &raw).assert_error(400, "bad_json");
    // Not JSON.
    request(addr, "POST", "/solve", Some("this is not json")).assert_error(400, "bad_json");
    // JSON, but not a SolveRequest.
    request(addr, "POST", "/solve", Some("{\"nonsense\":true}")).assert_error(400, "bad_json");
    // An unknown method name fails the typed parse, not the solver.
    request(
        addr,
        "POST",
        "/solve",
        Some("{\"method\":\"quantum\",\"budget\":2}"),
    )
    .assert_error(400, "bad_json");
    // A well-formed request the solver itself rejects: budget 0.
    let req = serde_json::to_string(&solve_request(0, 1_000, 1)).unwrap();
    request(addr, "POST", "/solve", Some(&req)).assert_error(422, "solve_error");
    // More pieces than a pool can hold (ℓ ≤ 255).
    let mut wide = solve_request(2, 1_000, 1);
    wide.campaign = None;
    wide.ell = Some(300);
    let req = serde_json::to_string(&wide).unwrap();
    request(addr, "POST", "/solve", Some(&req)).assert_error(422, "solve_error");

    assert_healthy(addr);
    handle.shutdown();
}

#[test]
fn keep_alive_serves_many_requests_per_connection() {
    let (handle, _service) = spawn(quick_config());
    let addr = handle.addr();

    let mut stream = connect(addr);
    for round in 0..3 {
        write_request(&mut stream, "GET", "/healthz", None, true);
        let resp = read_response(&mut stream);
        assert_eq!(resp.status, 200, "round {round}");
        assert_eq!(resp.header("Connection"), Some("keep-alive"));
    }
    // The final request asks to close; the server must honor it.
    write_request(&mut stream, "GET", "/healthz", None, false);
    let resp = read_response(&mut stream);
    assert_eq!(resp.header("Connection"), Some("close"));
    let mut rest = Vec::new();
    stream.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "bytes after Connection: close");

    // HTTP/1.0 defaults to close without asking.
    let mut stream = connect(addr);
    stream.write_all(b"GET /healthz HTTP/1.0\r\n\r\n").unwrap();
    let resp = read_response(&mut stream);
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("Connection"), Some("close"));

    handle.shutdown();
}

#[test]
fn idle_keep_alive_connections_expire() {
    let config = quick_config();
    let timeout = config.read_timeout;
    let (handle, _service) = spawn(config);
    let addr = handle.addr();

    // Connect, say nothing. The server closes the idle connection after
    // the read timeout instead of parking a worker on it forever.
    let mut stream = connect(addr);
    let started = Instant::now();
    let mut buf = [0u8; 64];
    let n = loop {
        match stream.read(&mut buf) {
            Ok(n) => break n,
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) => {}
            Err(e) => panic!("waiting for idle close: {e}"),
        }
    };
    assert_eq!(
        n, 0,
        "an idle connection must be closed silently, not answered"
    );
    assert!(
        started.elapsed() >= timeout,
        "idle connection closed after only {:?}",
        started.elapsed()
    );
    assert_healthy(addr);
    handle.shutdown();
}

#[test]
fn stats_endpoint_serves_a_schema_tagged_snapshot() {
    let (handle, service) = spawn(quick_config());
    let addr = handle.addr();

    // Cold solve, then a warm repeat, over the wire.
    let req = solve_request(2, 2_000, 7);
    let cold = solve_over_wire(addr, &req);
    assert!(!cold.pool_cache_hit);
    let warm = solve_over_wire(addr, &req);
    assert!(warm.pool_cache_hit);

    let resp = request(addr, "GET", "/stats", None);
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    let stats: oipa_server::StatsBody = serde_json::from_str(resp.body_str()).unwrap();
    assert_eq!(stats.server.service, "oipa-server");
    assert_eq!(stats.server.version, env!("CARGO_PKG_VERSION"));
    assert_eq!(stats.server.stats_schema, oipa_store::STATS_SCHEMA);
    assert_eq!(stats.server.metrics_schema, oipa_server::METRICS_SCHEMA);
    assert!(stats.server.uptime_seconds >= 0.0);
    let snapshot = stats.store;
    assert!(snapshot.schema_ok(), "schema: {}", snapshot.schema);
    assert_eq!(
        snapshot.mem.lookups,
        snapshot.mem.hits + snapshot.mem.misses
    );
    assert!(snapshot.mem.hits >= 1, "the warm repeat must be a hit");
    assert!(snapshot.disk.is_none(), "no store dir ⇒ no disk tier");
    // The wire snapshot is the in-process snapshot.
    assert_eq!(snapshot, service.read().unwrap().stats_snapshot());

    assert_eq!(handle.requests(), 3, "two solves + one stats");
    handle.shutdown();
}
