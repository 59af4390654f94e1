//! Concurrency suite over real sockets: N client threads hammering one
//! server must get answers bitwise-identical to in-process calls, a
//! primed key set must be served without sampling, a shared cold key
//! must be sampled exactly once, and the connection cap must reject with
//! 503 only above the cap — then recover cleanly.

mod common;

use common::*;
use oipa_server::ServerConfig;
use oipa_service::SolveResponse;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// N threads × the same request mix over real sockets answer bitwise
/// what the in-process service answers — the wire adds serialization,
/// not nondeterminism.
#[test]
fn wire_answers_match_in_process_bitwise() {
    let (handle, _service) = spawn(ServerConfig::default());
    let addr = handle.addr();

    // 6 request shapes over 2 distinct pool keys (seeds 11 and 12).
    let requests: Vec<_> = [(2usize, 11u64), (3, 11), (1, 11), (2, 12), (3, 12), (4, 12)]
        .into_iter()
        .map(|(k, seed)| solve_request(k, 2_000, seed))
        .collect();

    // In-process reference on a *separate* fresh session: the server
    // must not be the oracle for itself.
    let reference: Vec<_> = {
        let service = fig1_service();
        requests
            .iter()
            .map(|r| answer(&service.solve(r).unwrap()))
            .collect()
    };

    let threads = 4;
    let barrier = Arc::new(Barrier::new(threads));
    let answers: Vec<Vec<_>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let barrier = Arc::clone(&barrier);
                let requests = &requests;
                scope.spawn(move || {
                    barrier.wait();
                    // Each thread walks the mix from its own offset so
                    // cold keys collide across threads.
                    (0..requests.len())
                        .map(|i| {
                            let idx = (i + t) % requests.len();
                            (idx, answer(&solve_over_wire(addr, &requests[idx])))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                let mut per_thread = vec![None; requests.len()];
                for (idx, ans) in h.join().expect("client thread panicked") {
                    per_thread[idx] = Some(ans);
                }
                per_thread.into_iter().map(Option::unwrap).collect()
            })
            .collect()
    });

    for (t, thread_answers) in answers.iter().enumerate() {
        for (i, ans) in thread_answers.iter().enumerate() {
            assert_eq!(
                ans, &reference[i],
                "thread {t}: wire request {i} diverged from the in-process answer"
            );
        }
    }
    assert_eq!(handle.requests(), (threads * requests.len()) as u64);
    assert_eq!(handle.rejected_503(), 0, "nothing should hit the cap here");
    handle.shutdown();
}

/// A cold phase over distinct keys, then a warm phase of several
/// clients over the same keys: every cold request misses, every warm
/// request hits and returns the cold answer, the server's own sampling
/// counter stays at one per key (a warm hit runs no sampling), and
/// nothing is rejected under the connection cap.
#[test]
fn primed_keys_are_served_over_the_wire_without_sampling() {
    let (handle, _service) = spawn(ServerConfig::default());
    let addr = handle.addr();
    let requests: Vec<_> = (21..25u64)
        .map(|seed| solve_request(2, 2_000, seed))
        .collect();

    let cold: Vec<SolveResponse> = requests.iter().map(|r| solve_over_wire(addr, r)).collect();
    assert!(
        cold.iter().all(|r| !r.pool_cache_hit),
        "a cold phase over distinct keys cannot hit"
    );

    let clients = 3;
    let rounds = 2;
    let warm: Vec<(usize, SolveResponse)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let requests = &requests;
                scope.spawn(move || {
                    (0..rounds * requests.len())
                        .map(|i| {
                            let key = (i + c) % requests.len();
                            (key, solve_over_wire(addr, &requests[key]))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    assert_eq!(warm.len(), clients * rounds * requests.len());
    for (key, response) in &warm {
        assert!(response.pool_cache_hit, "warm request for key {key} missed");
        assert_eq!(answer(response), answer(&cold[*key]), "key {key} diverged");
    }

    let metrics = request(addr, "GET", "/metrics", None);
    let sampled = metrics
        .body_str()
        .lines()
        .find_map(|l| l.strip_prefix("oipa_pool_requests_total{outcome=\"sampled\"} "))
        .expect("the sampling counter is exported");
    assert_eq!(
        sampled,
        requests.len().to_string(),
        "one sampling run per key"
    );
    assert_eq!(handle.rejected_503(), 0, "nothing should hit the cap here");
    handle.shutdown();
}

/// Many clients racing on one cold key: exactly one response pays for
/// sampling, everyone else reads the cached pool — over the wire, same
/// as in-process.
#[test]
fn shared_cold_key_is_sampled_exactly_once() {
    let (handle, service) = spawn(ServerConfig::default());
    let addr = handle.addr();

    let req = solve_request(2, 2_000, 99);
    let threads = 6;
    let barrier = Arc::new(Barrier::new(threads));
    let responses: Vec<SolveResponse> = std::thread::scope(|scope| {
        (0..threads)
            .map(|_| {
                let barrier = Arc::clone(&barrier);
                let req = &req;
                scope.spawn(move || {
                    barrier.wait();
                    solve_over_wire(addr, req)
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });

    let cold = responses.iter().filter(|r| !r.pool_cache_hit).count();
    assert_eq!(
        cold, 1,
        "exactly one request may pay for sampling the shared key"
    );
    for pair in responses.windows(2) {
        assert_eq!(answer(&pair[0]), answer(&pair[1]), "answers diverged");
    }
    // The arena counts a miss per lookup that raced the sampler, but
    // only one entry exists and the books still balance.
    let stats = service.read().unwrap().arena_stats();
    assert_eq!(stats.entries, 1, "one key ⇒ one arena entry");
    assert_eq!(stats.lookups, stats.hits + stats.misses);
    handle.shutdown();
}

/// The admission cap: connections above it get a fast 503, connections
/// under it keep working, and closing the hogs restores full service.
#[test]
fn connection_cap_rejects_with_503_and_recovers() {
    let config = ServerConfig {
        threads: 2,
        max_connections: 2,
        read_timeout: Duration::from_secs(10),
        ..ServerConfig::default()
    };
    let (handle, _service) = spawn(config);
    let addr = handle.addr();

    // Two idle keep-alive connections fill the cap.
    let hog_a = connect(addr);
    let hog_b = connect(addr);
    // Give the accept thread time to register both.
    std::thread::sleep(Duration::from_millis(100));

    // The third connection is over the cap: the accept thread answers
    // 503 unprompted (before the client sends a byte) and closes, so a
    // bare connect + read observes the rejection.
    let mut over_cap = connect(addr);
    let resp = read_response(&mut over_cap);
    resp.assert_error(503, "overloaded");
    // Overload is transient by definition: the rejection tells the
    // client when to retry.
    assert_eq!(
        resp.header("Retry-After"),
        Some("1"),
        "503 must carry Retry-After"
    );
    assert_eq!(handle.rejected_503(), 1);

    // Release the hogs; the server must recover to full service. The
    // slot frees when a worker notices the close, so retry briefly —
    // tolerating resets from connects that still hit the cap.
    drop(hog_a);
    drop(hog_b);
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let mut stream = connect(addr);
        // Lenient write: a still-capped server already closed on us.
        let _ = std::io::Write::write_all(
            &mut stream,
            b"GET /healthz HTTP/1.1\r\nContent-Length: 0\r\nConnection: close\r\n\r\n",
        );
        match try_read_response(&mut stream) {
            Ok(resp) if resp.status == 200 => break,
            _ => {
                assert!(
                    Instant::now() < deadline,
                    "server did not recover from the cap within 10s"
                );
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }

    // And real work flows again.
    let solved = solve_over_wire(addr, &solve_request(2, 1_000, 3));
    assert_eq!(solved.k, 2);
    handle.shutdown();
}
