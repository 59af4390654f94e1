//! Concurrency suite for the `&self` `PlannerService`: M threads × K
//! requests over shared pool keys must produce bitwise-identical answers
//! to a sequential run, sample each missed key exactly once, and leave
//! the pool store with internally consistent stats.

use oipa_sampler::testkit::small_random_instance;
use oipa_service::{Method, PlannerService, SolveRequest, SolveResponse};
use oipa_topics::Campaign;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, Barrier};

fn instance() -> (oipa_graph::DiGraph, oipa_topics::EdgeTopicProbs, Campaign) {
    let mut rng = StdRng::seed_from_u64(31);
    small_random_instance(&mut rng, 70, 500, 4, 2)
}

fn service() -> PlannerService {
    let (graph, table, _) = instance();
    PlannerService::new(graph, table).unwrap()
}

fn request(campaign: &Campaign, method: Method, budget: usize, seed: u64) -> SolveRequest {
    let mut req = SolveRequest::new(method, budget);
    req.campaign = Some(campaign.clone());
    req.theta = Some(3_000);
    req.seed = Some(seed);
    req.promoter_fraction = Some(0.3);
    req.max_nodes = Some(20);
    req
}

/// The answer-bearing part of a response (timing excluded — wall-clock
/// can never be bitwise-reproducible; cache-hit flags excluded — *which*
/// request pays for sampling is scheduling-dependent, the answers are
/// not).
fn answer(r: &SolveResponse) -> (String, u64, Option<u64>, usize) {
    (
        serde_json::to_string(&r.plan).unwrap(),
        r.utility.to_bits(),
        r.upper_bound.map(f64::to_bits),
        r.theta,
    )
}

/// The tentpole acceptance gate: M threads × K requests over shared keys
/// answer bitwise-identically to the sequential run, at every thread
/// count, and a second (warm) pass of the same threads hits on every
/// request.
#[test]
fn threaded_answers_match_sequential_bitwise() {
    let (_, _, campaign) = instance();
    // 6 request shapes over 2 distinct pool keys (seeds 5 and 6).
    let requests: Vec<SolveRequest> = [
        (Method::BabP, 3, 5),
        (Method::Greedy, 3, 5),
        (Method::BabP, 2, 5),
        (Method::Greedy, 4, 6),
        (Method::BabP, 3, 6),
        (Method::Tim, 3, 6),
    ]
    .into_iter()
    .map(|(m, k, s)| request(&campaign, m, k, s))
    .collect();

    // Sequential reference on a fresh session.
    let reference: Vec<_> = {
        let service = service();
        requests
            .iter()
            .map(|r| answer(&service.solve(r).unwrap()))
            .collect()
    };

    for threads in [2usize, 4] {
        let shared = Arc::new(service());
        let barrier = Arc::new(Barrier::new(threads));
        let answers: Vec<Vec<_>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let shared = Arc::clone(&shared);
                    let barrier = Arc::clone(&barrier);
                    let requests = &requests;
                    scope.spawn(move || {
                        barrier.wait();
                        // Each thread walks the request list from its own
                        // offset so pool misses collide across threads.
                        (0..requests.len())
                            .map(|i| {
                                let idx = (i + t) % requests.len();
                                (idx, answer(&shared.solve(&requests[idx]).unwrap()))
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    let mut per_thread = vec![None; requests.len()];
                    for (idx, ans) in h.join().expect("request thread panicked") {
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
                    "thread {t} of {threads}: request {i} diverged from the sequential run"
                );
            }
        }
        // Warm pass: every key is cached now, so every request of every
        // thread hits and answers what the sequential run answered.
        std::thread::scope(|scope| {
            for t in 0..threads {
                let (shared, requests, reference) = (&shared, &requests, &reference);
                scope.spawn(move || {
                    for (i, req) in requests.iter().enumerate() {
                        let warm = shared.solve(req).unwrap();
                        assert!(warm.pool_cache_hit, "thread {t}: warm request {i} missed");
                        assert_eq!(answer(&warm), reference[i], "thread {t}: warm request {i}");
                    }
                });
            }
        });
        let stats = shared.arena_stats();
        assert_eq!(stats.lookups, stats.hits + stats.misses);
        assert_eq!(stats.entries, 2, "two pool keys ⇒ two arena entries");
    }
}

/// The once-sampling gate: N concurrent misses on one `PoolKey` sample
/// exactly once — one request reports a cache miss, every other request
/// is served the sampled pool.
#[test]
fn concurrent_misses_on_one_key_sample_exactly_once() {
    const THREADS: usize = 8;
    let (_, _, campaign) = instance();
    let shared = Arc::new(service());
    let req = request(&campaign, Method::Greedy, 3, 17);
    let barrier = Arc::new(Barrier::new(THREADS));

    let responses: Vec<SolveResponse> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let shared = Arc::clone(&shared);
                let barrier = Arc::clone(&barrier);
                let req = req.clone();
                scope.spawn(move || {
                    barrier.wait();
                    shared.solve(&req).unwrap()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("request thread panicked"))
            .collect()
    });

    let misses = responses.iter().filter(|r| !r.pool_cache_hit).count();
    assert_eq!(
        misses, 1,
        "exactly one of {THREADS} concurrent requests must pay for sampling"
    );
    let first = answer_key(&responses[0]);
    for r in &responses[1..] {
        assert_eq!(answer_key(r), first, "concurrent answers diverged");
    }
    assert_eq!(shared.arena_stats().entries, 1, "one key ⇒ one pool");
}

fn answer_key(r: &SolveResponse) -> (String, u64) {
    (serde_json::to_string(&r.plan).unwrap(), r.utility.to_bits())
}

/// Concurrent `im` requests share one collapsed flat pool (the cache is
/// built once and reused), and their answers agree with sequential.
#[test]
fn concurrent_im_requests_share_the_flat_pool() {
    const THREADS: usize = 4;
    let (_, _, campaign) = instance();
    let req = {
        let mut r = request(&campaign, Method::Im, 3, 9);
        r.theta = Some(2_000);
        r
    };
    let reference = answer_key(&service().solve(&req).unwrap());

    let shared = Arc::new(service());
    let barrier = Arc::new(Barrier::new(THREADS));
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let shared = Arc::clone(&shared);
            let barrier = Arc::clone(&barrier);
            let req = req.clone();
            let reference = reference.clone();
            scope.spawn(move || {
                barrier.wait();
                let response = shared.solve(&req).unwrap();
                assert_eq!(answer_key(&response), reference, "im answer diverged");
            });
        }
    });
}

/// A session behind an `Arc` must be shareable across threads at the
/// type level — the compile-time face of the `&self` refactor.
#[test]
fn service_solves_through_a_plain_shared_reference() {
    let (_, _, campaign) = instance();
    let shared: Arc<PlannerService> = Arc::new(service());
    let req = request(&campaign, Method::Greedy, 2, 1);
    // No &mut anywhere: two solves through the same shared reference.
    let a = shared.solve(&req).unwrap();
    let b = shared.solve(&req).unwrap();
    assert!(!a.pool_cache_hit && b.pool_cache_hit);
    assert_eq!(answer_key(&a), answer_key(&b));
}

/// The once-sampling hand-off must not depend on the arena accepting the
/// pool: with a budget smaller than any pool (every pool "oversized",
/// never cached), N concurrent misses on one key must still sample
/// exactly once — waiters take the pool from the sampling slot itself.
#[test]
fn oversized_pools_still_sample_exactly_once() {
    const THREADS: usize = 6;
    let (graph, table, campaign) = instance();
    let shared = Arc::new(
        PlannerService::new(graph, table)
            .unwrap()
            .with_arena_capacity(64), // smaller than any real pool
    );
    let req = request(&campaign, Method::Greedy, 3, 23);
    let barrier = Arc::new(Barrier::new(THREADS));

    let responses: Vec<SolveResponse> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let shared = Arc::clone(&shared);
                let barrier = Arc::clone(&barrier);
                let req = req.clone();
                scope.spawn(move || {
                    barrier.wait();
                    shared.solve(&req).unwrap()
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("request thread panicked"))
            .collect()
    });

    let misses = responses.iter().filter(|r| !r.pool_cache_hit).count();
    assert_eq!(
        misses, 1,
        "oversized pool sampled more than once across {THREADS} racing requests"
    );
    let first = answer_key(&responses[0]);
    for r in &responses[1..] {
        assert_eq!(answer_key(r), first, "oversized-pool answers diverged");
    }
    assert_eq!(
        shared.arena_stats().entries,
        0,
        "an oversized pool must still never be cached"
    );
}
