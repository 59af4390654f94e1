//! # oipa-server
//!
//! The network front door of the OIPA serving stack: an HTTP/1.1 server
//! over blocking `std::net` sockets (the offline environment has no
//! hyper/tokio — see [`http`] for the hand-rolled framing) that exposes
//! one shared, `Send + Sync` [`PlannerService`] to any number of remote
//! clients.
//!
//! ## Endpoint contract
//!
//! | route | method | body | answer |
//! |---|---|---|---|
//! | `/solve` | POST | [`SolveRequest`] JSON | 200 [`SolveResponse`](oipa_service::SolveResponse) JSON |
//! | `/delta` | POST | [`GraphDelta`] JSON | 200 [`DeltaReport`](oipa_service::DeltaReport) JSON |
//! | `/healthz` | GET | — | 200 `{"status":"ok"}` + build/uptime identity (or `"degraded"` + disk-tier detail while the store rides out a disk fault) |
//! | `/stats` | GET | — | 200 [`StatsBody`] JSON: a [`ServerIdentity`] header plus the [`StatsSnapshot`](oipa_store::StatsSnapshot) (arena + disk counters) |
//! | `/metrics` | GET | — | 200 Prometheus text exposition (`text/plain; version=0.0.4`) of the whole [`oipa_obs::Registry`] |
//!
//! ## Observability
//!
//! Every server owns an [`oipa_obs::Registry`] (inject a shared one via
//! [`ServerConfig::registry`]): per-endpoint/per-status request counters
//! and latency histograms, an in-flight gauge, overload/timeout
//! counters, solver-phase timings (the service is attached to the same
//! registry), and scrape-time bridges for the pool store's counters —
//! `/stats` and `/metrics` read the same atomics and cannot drift.
//! [`ServerConfig::slow_ms`] turns on structured JSONL slow-request
//! logging to stderr, one line per offending request with its
//! per-phase spans.
//!
//! Every non-2xx answer is a typed [`http::ErrorBody`]: malformed
//! request lines are `400`, unknown paths `404`, wrong methods `405`,
//! missing `Content-Length` on POST `411`, oversized bodies `413`,
//! truncated bodies `408` (after the read timeout — a stalled client
//! can never park a worker forever), unknown method tokens `501`, and
//! domain errors from the solver ([`oipa_core::OipaError`]) `422`. A
//! handler panic answers `500` and poisons nothing: the service's locks
//! recover, and the worker moves to the next connection.
//!
//! ## Backpressure and shutdown
//!
//! Admission control is a hard connection cap
//! ([`ServerConfig::max_connections`]): accepted-but-unfinished
//! connections above it are answered `503` and closed immediately,
//! so overload degrades into fast, explicit rejections instead of
//! unbounded queueing. [`ServerHandle::shutdown`] drains gracefully —
//! the listener stops admitting, queued and in-flight requests complete
//! (idle keep-alive connections are told `Connection: close`), workers
//! join, and dropping the service afterwards flushes the pool store's
//! batched recency stamps to disk (restart-persistent LRU).
//!
//! ## Graph deltas
//!
//! `POST /delta` mutates the session graph behind the service lock: the
//! server holds every `/solve` behind a shared (read) lock and takes the
//! exclusive (write) side for the delta, so a delta waits for in-flight
//! solves to drain and no solve ever observes a half-applied graph.
//! Cached pools are not thrown away — they go stale and delta-repair
//! lazily on their next request (see `oipa_service::PlannerService::apply_delta`).
//!
//! ```no_run
//! use oipa_server::{Server, ServerConfig};
//! use oipa_service::PlannerService;
//! use std::sync::{Arc, RwLock};
//!
//! let (graph, probs, _) = oipa_sampler::testkit::fig1();
//! let service = Arc::new(RwLock::new(PlannerService::new(graph, probs).unwrap()));
//! let handle = Server::spawn(service, ServerConfig::default()).unwrap();
//! println!("serving on http://{}", handle.addr());
//! handle.shutdown();
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod http;

pub use http::{ErrorBody, ErrorDetail, HttpError};
pub use oipa_obs::{Registry, EXPOSITION_CONTENT_TYPE, METRICS_SCHEMA};

use http::{ConnReader, ReadOutcome, Request};
use oipa_obs::{Counter, Gauge, Histogram, MetricKind, PromText, Trace};
use oipa_service::{GraphDelta, PlannerService, SolveRequest};
use serde::{Deserialize, Serialize};
use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::AssertUnwindSafe;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The service as the server shares it: `/solve` and the read-only
/// endpoints take the shared side, `POST /delta` (and any other session
/// rewiring) takes the exclusive side — which is exactly the drain
/// barrier deltas need.
pub type SharedService = Arc<RwLock<PlannerService>>;

/// Read-locks the service, recovering from poisoning (handler panics are
/// already contained per request; the session state is still coherent).
fn read_service(service: &RwLock<PlannerService>) -> RwLockReadGuard<'_, PlannerService> {
    service.read().unwrap_or_else(|e| e.into_inner())
}

/// Write-locks the service (see [`read_service`] on poisoning).
fn write_service(service: &RwLock<PlannerService>) -> RwLockWriteGuard<'_, PlannerService> {
    service.write().unwrap_or_else(|e| e.into_inner())
}

/// Server configuration. `Default` binds an ephemeral loopback port
/// with 4 workers and a 64-connection cap.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`host:port`; port 0 picks an ephemeral port).
    pub addr: String,
    /// Worker threads handling connections.
    pub threads: usize,
    /// Hard cap on accepted-but-unfinished connections; everything above
    /// it is answered `503` at accept time.
    pub max_connections: usize,
    /// Per-stage read timeout: how long a client may take to deliver a
    /// request head (from its first byte) or a `Content-Length` body
    /// before the server answers `408` and closes. Also the idle
    /// keep-alive lifetime.
    pub read_timeout: Duration,
    /// Largest accepted request body.
    pub max_body_bytes: usize,
    /// Slow-request threshold in milliseconds: requests at or above it
    /// are logged to stderr as one JSONL line each (trace id, endpoint,
    /// status, total latency, per-phase spans). `None` (the default)
    /// disables the log entirely.
    pub slow_ms: Option<u64>,
    /// The metrics registry the server reports into. `None` (the
    /// default) gives the server a fresh private registry — inject one
    /// to aggregate several servers or to scrape without HTTP.
    pub registry: Option<Registry>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            threads: 4,
            max_connections: 64,
            read_timeout: Duration::from_secs(10),
            max_body_bytes: 16 << 20,
            slow_ms: None,
            registry: None,
        }
    }
}

/// Monotonic counters the server keeps about itself (distinct from the
/// pool-store counters `/stats` reports).
#[derive(Debug, Default)]
struct Counters {
    accepted: AtomicU64,
    rejected_503: AtomicU64,
    requests: AtomicU64,
}

/// Endpoint labels the request grid is pre-registered for. Anything
/// else (404 paths, pre-route failures) lands under `"other"`.
const ENDPOINTS: [&str; 6] = [
    "/solve", "/delta", "/healthz", "/stats", "/metrics", "other",
];

/// Status codes this server emits, pre-registered so the hot path is a
/// plain array index into `Arc<Counter>` handles — no lock, no map.
const STATUSES: [u16; 12] = [200, 400, 404, 405, 408, 411, 413, 422, 431, 500, 501, 503];

const REQUESTS_NAME: &str = "oipa_http_requests_total";
const REQUESTS_HELP: &str = "Requests answered, by endpoint and status.";

/// Pre-registered handles into the server's registry. Built once at
/// spawn; the per-request path is array lookups into relaxed atomics.
struct ServerMetrics {
    registry: Registry,
    /// `requests[endpoint][status]` over [`ENDPOINTS`] × [`STATUSES`].
    requests: Vec<Vec<Arc<Counter>>>,
    /// Request latency per endpoint (nanoseconds in, seconds out).
    latency: Vec<Arc<Histogram>>,
    /// Requests currently being dispatched.
    inflight: Arc<Gauge>,
    /// Connections rejected `503` by the admission cap.
    rejected_503: Arc<Counter>,
    /// Requests that timed out (`408`) while being read.
    timeouts: Arc<Counter>,
    /// Requests at or above the `--slow-ms` threshold.
    slow_requests: Arc<Counter>,
}

impl ServerMetrics {
    fn new(registry: Registry) -> ServerMetrics {
        let requests = ENDPOINTS
            .iter()
            .map(|endpoint| {
                STATUSES
                    .iter()
                    .map(|status| {
                        registry.counter(
                            REQUESTS_NAME,
                            REQUESTS_HELP,
                            &[("endpoint", endpoint), ("status", &status.to_string())],
                        )
                    })
                    .collect()
            })
            .collect();
        let latency = ENDPOINTS
            .iter()
            .map(|endpoint| {
                registry.histogram(
                    "oipa_http_request_seconds",
                    "Request latency from parsed request to handler return.",
                    &[("endpoint", endpoint)],
                )
            })
            .collect();
        ServerMetrics {
            requests,
            latency,
            inflight: registry.gauge(
                "oipa_http_inflight",
                "Requests currently being dispatched.",
                &[],
            ),
            rejected_503: registry.counter(
                "oipa_http_rejected_503_total",
                "Connections rejected at accept time by the admission cap.",
                &[],
            ),
            timeouts: registry.counter(
                "oipa_http_timeouts_total",
                "Requests that timed out (408) while being read.",
                &[],
            ),
            slow_requests: registry.counter(
                "oipa_http_slow_requests_total",
                "Requests at or above the slow-request threshold.",
                &[],
            ),
            registry,
        }
    }

    /// The grid row a request path belongs to.
    fn endpoint_index(path: &str) -> usize {
        ENDPOINTS
            .iter()
            .position(|e| *e == path)
            .unwrap_or(ENDPOINTS.len() - 1)
    }

    /// Counts one answered request and records its latency. Unknown
    /// statuses fall back to registry get-or-create (cold path only —
    /// every status the server emits is pre-registered).
    fn record(&self, endpoint_index: usize, status: u16, elapsed: Duration) {
        match STATUSES.iter().position(|s| *s == status) {
            Some(i) => self.requests[endpoint_index][i].inc(),
            None => self
                .registry
                .counter(
                    REQUESTS_NAME,
                    REQUESTS_HELP,
                    &[
                        ("endpoint", ENDPOINTS[endpoint_index]),
                        ("status", &status.to_string()),
                    ],
                )
                .inc(),
        }
        self.latency[endpoint_index].record_duration(elapsed);
    }
}

struct Shared {
    service: SharedService,
    config: ServerConfig,
    shutting_down: AtomicBool,
    /// Accepted-but-unfinished connections (queued + in-flight).
    active: AtomicUsize,
    counters: Counters,
    metrics: ServerMetrics,
    /// When the server was spawned (uptime reporting).
    started: Instant,
}

/// Registers the build/uptime identity collector:
/// `oipa_build_info{service,version} 1` plus `oipa_uptime_seconds`.
fn register_identity_collector(registry: &Registry, started: Instant) {
    registry.register_collector(move |w| {
        w.family(
            "oipa_build_info",
            MetricKind::Gauge,
            "Build identity carried in the labels; the value is always 1.",
        );
        w.sample_u64(
            "oipa_build_info",
            &[
                ("service", "oipa-server"),
                ("version", env!("CARGO_PKG_VERSION")),
            ],
            1,
        );
        w.family(
            "oipa_uptime_seconds",
            MetricKind::Gauge,
            "Seconds since the server was spawned.",
        );
        w.sample_f64("oipa_uptime_seconds", &[], started.elapsed().as_secs_f64());
    });
}

/// One unlabeled family with a single integer sample (collector helper).
fn bridge(w: &mut PromText, name: &str, kind: MetricKind, help: &str, value: u64) {
    w.family(name, kind, help);
    w.sample_u64(name, &[], value);
}

/// Bridges the pool store's counters into `/metrics` at scrape time.
/// The store's own atomics stay the single source of truth — `/stats`
/// serializes the same snapshot — so the two endpoints cannot drift.
fn register_store_collector(registry: &Registry, service: SharedService) {
    use MetricKind::{Counter, Gauge};
    registry.register_collector(move |w| {
        let snap = read_service(&service).stats_snapshot();
        let chain = read_service(&service)
            .lineage()
            .map_or(0, |l| l.fingerprints().len());
        bridge(
            w,
            "oipa_store_epoch",
            Gauge,
            "Epoch of the lineage head pools serve at: deltas applied since the cold load.",
            chain.saturating_sub(1) as u64,
        );
        bridge(
            w,
            "oipa_store_lineage_length",
            Gauge,
            "Fingerprints on the store's epoch chain (0 on pool-only sessions).",
            chain as u64,
        );
        let mem = &snap.mem;
        bridge(
            w,
            "oipa_store_mem_entries",
            Gauge,
            "Pools resident in the memory arena.",
            mem.entries as u64,
        );
        bridge(
            w,
            "oipa_store_mem_bytes",
            Gauge,
            "Bytes resident in the memory arena.",
            mem.bytes as u64,
        );
        bridge(
            w,
            "oipa_store_mem_capacity_bytes",
            Gauge,
            "Configured memory-arena byte budget.",
            mem.capacity_bytes as u64,
        );
        bridge(
            w,
            "oipa_store_mem_lookups_total",
            Counter,
            "Memory-arena lookups (hits + misses).",
            mem.lookups,
        );
        bridge(
            w,
            "oipa_store_mem_hits_total",
            Counter,
            "Memory-arena lookups answered from cache.",
            mem.hits,
        );
        bridge(
            w,
            "oipa_store_mem_misses_total",
            Counter,
            "Memory-arena lookups that missed.",
            mem.misses,
        );
        bridge(
            w,
            "oipa_store_mem_evictions_total",
            Counter,
            "Pools evicted from the memory arena.",
            mem.evictions,
        );
        if let Some(disk) = &snap.disk {
            bridge(
                w,
                "oipa_store_disk_entries",
                Gauge,
                "Pool entries indexed on disk.",
                disk.entries as u64,
            );
            bridge(
                w,
                "oipa_store_disk_bytes",
                Gauge,
                "Live bytes indexed on disk.",
                disk.bytes,
            );
            bridge(
                w,
                "oipa_store_disk_dead_bytes",
                Gauge,
                "Committed-but-dead bytes awaiting GC.",
                disk.dead_bytes,
            );
            bridge(
                w,
                "oipa_store_disk_hits_total",
                Counter,
                "Lookups served from disk.",
                disk.hits,
            );
            bridge(
                w,
                "oipa_store_disk_read_bytes_total",
                Counter,
                "Bytes disk lookups read from region files.",
                disk.read_bytes,
            );
            bridge(
                w,
                "oipa_store_disk_misses_total",
                Counter,
                "Disk lookups that found no usable entry.",
                disk.misses,
            );
            bridge(
                w,
                "oipa_store_disk_spills_total",
                Counter,
                "Pools written to disk.",
                disk.spills,
            );
            bridge(
                w,
                "oipa_store_disk_evictions_total",
                Counter,
                "Disk entries dropped for the byte budget.",
                disk.evictions,
            );
            bridge(
                w,
                "oipa_store_disk_write_errors_total",
                Counter,
                "Best-effort disk writes that failed.",
                disk.write_errors,
            );
            bridge(
                w,
                "oipa_store_disk_degraded_skips_total",
                Counter,
                "Operations short-circuited while degraded.",
                disk.degraded_skips,
            );
            bridge(
                w,
                "oipa_store_disk_gc_runs_total",
                Counter,
                "GC passes run.",
                disk.gc_runs,
            );
            w.family(
                "oipa_store_disk_gc_seconds_total",
                Counter,
                "Wall-clock seconds spent in GC passes.",
            );
            w.sample_f64(
                "oipa_store_disk_gc_seconds_total",
                &[],
                disk.gc_duration_ns as f64 / 1e9,
            );
            w.family(
                "oipa_store_disk_lock_wait_seconds_total",
                Counter,
                "Seconds serving lookups waited to take the disk-tier lock.",
            );
            w.sample_f64(
                "oipa_store_disk_lock_wait_seconds_total",
                &[],
                disk.lock_wait_ns as f64 / 1e9,
            );
            w.family(
                "oipa_store_disk_decode_seconds_total",
                Counter,
                "Seconds lookups spent verifying and decoding disk entries.",
            );
            w.sample_f64(
                "oipa_store_disk_decode_seconds_total",
                &[],
                disk.decode_ns as f64 / 1e9,
            );
        }
        if let Some(health) = &snap.disk_health {
            bridge(
                w,
                "oipa_store_disk_degraded",
                Gauge,
                "1 while the disk tier is degraded, else 0.",
                u64::from(!health.is_healthy()),
            );
            bridge(
                w,
                "oipa_store_disk_errors_total",
                Counter,
                "Cumulative disk-tier I/O errors.",
                health.errors,
            );
            bridge(
                w,
                "oipa_store_disk_degradations_total",
                Counter,
                "Healthy → degraded transitions.",
                health.degradations,
            );
            bridge(
                w,
                "oipa_store_disk_recoveries_total",
                Counter,
                "Degraded → healthy transitions.",
                health.recoveries,
            );
        }
    });
}

/// The server factory; see [`Server::spawn`].
pub struct Server;

impl Server {
    /// Binds the listener and starts the accept thread plus
    /// [`ServerConfig::threads`] workers over one shared service.
    /// Returns a handle owning every thread.
    pub fn spawn(service: SharedService, config: ServerConfig) -> std::io::Result<ServerHandle> {
        assert!(config.threads > 0, "a server needs at least one worker");
        assert!(
            config.max_connections > 0,
            "a connection cap of 0 would reject every request"
        );
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let registry = config.registry.clone().unwrap_or_default();
        let started = Instant::now();
        // The service reports solver-phase timings and pool-outcome
        // counters into the same registry the server scrapes.
        read_service(&service).attach_obs(&registry);
        register_identity_collector(&registry, started);
        register_store_collector(&registry, Arc::clone(&service));
        let shared = Arc::new(Shared {
            service,
            config,
            shutting_down: AtomicBool::new(false),
            active: AtomicUsize::new(0),
            counters: Counters::default(),
            metrics: ServerMetrics::new(registry),
            started,
        });

        let (sender, receiver) = mpsc::channel::<TcpStream>();
        let receiver = Arc::new(Mutex::new(receiver));
        let workers: Vec<JoinHandle<()>> = (0..shared.config.threads)
            .map(|_| {
                let shared = Arc::clone(&shared);
                let receiver = Arc::clone(&receiver);
                std::thread::spawn(move || worker_loop(&shared, &receiver))
            })
            .collect();

        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&shared, &listener, sender))
        };

        Ok(ServerHandle {
            addr,
            shared,
            accept: Some(accept),
            workers,
        })
    }
}

/// A running server: its bound address and the threads serving it.
/// Dropping the handle without [`ServerHandle::shutdown`] aborts the
/// process-exit way (threads are detached); call `shutdown` for the
/// graceful path.
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The actually-bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections accepted so far (including ones answered `503`).
    pub fn accepted(&self) -> u64 {
        self.shared.counters.accepted.load(Ordering::SeqCst)
    }

    /// Connections rejected with `503` by the admission cap.
    pub fn rejected_503(&self) -> u64 {
        self.shared.counters.rejected_503.load(Ordering::SeqCst)
    }

    /// Requests answered (any status) by the worker pool.
    pub fn requests(&self) -> u64 {
        self.shared.counters.requests.load(Ordering::SeqCst)
    }

    /// The metrics registry this server reports into (the one behind
    /// `GET /metrics`). Clone-cheap; render it directly for in-process
    /// scraping without a socket.
    pub fn registry(&self) -> Registry {
        self.shared.metrics.registry.clone()
    }

    /// Graceful drain: stop admitting, let queued and in-flight requests
    /// complete, join every thread. Idle keep-alive connections are
    /// closed at their next poll quantum, so the drain is bounded by the
    /// slowest in-flight request plus one [`http::POLL_QUANTUM`] — not
    /// by the read timeout.
    pub fn shutdown(mut self) {
        self.shared.shutting_down.store(true, Ordering::SeqCst);
        // Unblock the accept thread: it re-checks the flag per
        // connection, and a failed connect means it already exited.
        let _ = TcpStream::connect_timeout(&self.addr, Duration::from_secs(1));
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        // The accept thread dropped the sender on exit; workers drain
        // whatever was queued, then see the disconnect and stop.
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// The accept loop: admission control happens here, before any worker
/// is involved, so an overloaded server rejects in microseconds.
fn accept_loop(shared: &Shared, listener: &TcpListener, sender: mpsc::Sender<TcpStream>) {
    loop {
        let mut stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => {
                if shared.shutting_down.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if shared.shutting_down.load(Ordering::SeqCst) {
            // New connects during a drain are refused (the wake-up
            // connect from `shutdown` lands here too).
            return;
        }
        shared.counters.accepted.fetch_add(1, Ordering::SeqCst);
        // Admission control: claim a slot; over the cap, give it back
        // and answer 503 without touching the worker pool.
        let was_active = shared.active.fetch_add(1, Ordering::SeqCst);
        if was_active >= shared.config.max_connections {
            shared.active.fetch_sub(1, Ordering::SeqCst);
            shared.counters.rejected_503.fetch_add(1, Ordering::SeqCst);
            shared.metrics.rejected_503.inc();
            let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
            http::write_error(
                &mut stream,
                &HttpError::new(
                    503,
                    "overloaded",
                    format!(
                        "connection cap {} reached; retry with backoff",
                        shared.config.max_connections
                    ),
                ),
            );
            continue;
        }
        if sender.send(stream).is_err() {
            // Workers are gone (shutdown raced us); the slot dies here.
            shared.active.fetch_sub(1, Ordering::SeqCst);
            return;
        }
    }
}

/// One worker: pull connections until the accept thread hangs up, then
/// drain what is already queued and exit.
fn worker_loop(shared: &Shared, receiver: &Arc<Mutex<mpsc::Receiver<TcpStream>>>) {
    loop {
        let stream = {
            let guard = receiver.lock().unwrap_or_else(|e| e.into_inner());
            guard.recv()
        };
        match stream {
            Ok(stream) => {
                handle_connection(shared, stream);
                shared.active.fetch_sub(1, Ordering::SeqCst);
            }
            Err(_) => return, // sender dropped: graceful drain complete
        }
    }
}

/// Serves one connection: a keep-alive loop of read → dispatch → write.
/// Every protocol error answers with a typed body and closes; a clean
/// close or an abort (graceful shutdown between requests) just closes.
fn handle_connection(shared: &Shared, mut stream: TcpStream) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(shared.config.read_timeout.max(Duration::from_secs(1))));
    let mut reader = ConnReader::default();
    loop {
        match reader.read_request(
            &mut stream,
            shared.config.read_timeout,
            shared.config.max_body_bytes,
            &shared.shutting_down,
        ) {
            Ok(ReadOutcome::Request(request)) => {
                shared.counters.requests.fetch_add(1, Ordering::SeqCst);
                let draining = shared.shutting_down.load(Ordering::SeqCst);
                let keep_alive = request.keep_alive && !draining;
                let endpoint =
                    ServerMetrics::endpoint_index(request.path.split('?').next().unwrap_or(""));
                let trace = Trace::new();
                shared.metrics.inflight.inc();
                let outcome = dispatch(shared, &request, &trace);
                shared.metrics.inflight.dec();
                let status = match &outcome {
                    Ok(_) => 200,
                    Err(e) => e.status,
                };
                shared.metrics.record(endpoint, status, trace.elapsed());
                maybe_log_slow(shared, &trace, ENDPOINTS[endpoint], status);
                match outcome {
                    Ok(reply) => {
                        let write = http::write_response_with_type(
                            &mut stream,
                            200,
                            reply.content_type,
                            &reply.body,
                            keep_alive,
                        );
                        if write.is_err() {
                            return;
                        }
                    }
                    Err(e) => {
                        http::write_error(&mut stream, &e);
                        return;
                    }
                }
                if !keep_alive {
                    return;
                }
            }
            Ok(ReadOutcome::Closed | ReadOutcome::Aborted) => return,
            Err(e) => {
                // Pre-route failure: no endpoint was resolved, so the
                // grid charges it to "other" with zero handler latency.
                if e.status == 408 {
                    shared.metrics.timeouts.inc();
                }
                shared
                    .metrics
                    .record(ENDPOINTS.len() - 1, e.status, Duration::ZERO);
                http::write_error(&mut stream, &e);
                return;
            }
        }
    }
}

/// Emits the one-line JSONL slow-request event when the request's total
/// latency is at or above the configured threshold.
fn maybe_log_slow(shared: &Shared, trace: &Trace, endpoint: &str, status: u16) {
    let Some(slow_ms) = shared.config.slow_ms else {
        return;
    };
    let elapsed = trace.elapsed();
    if elapsed.as_millis() < u128::from(slow_ms) {
        return;
    }
    shared.metrics.slow_requests.inc();
    eprintln!(
        "{}",
        trace.event_jsonl(
            "slow_request",
            &[
                ("endpoint", oipa_obs::json_string(endpoint)),
                ("status", status.to_string()),
                (
                    "total_ms",
                    oipa_obs::json_number(elapsed.as_secs_f64() * 1e3),
                ),
            ],
        )
    );
}

/// A successful dispatch: the 200 body and its content type (JSON for
/// every endpoint except the Prometheus exposition on `/metrics`).
struct Reply {
    body: String,
    content_type: &'static str,
}

impl Reply {
    fn json(body: String) -> Reply {
        Reply {
            body,
            content_type: http::CONTENT_TYPE_JSON,
        }
    }
}

/// Routes one request. `Ok` carries the 200 reply; `Err` the typed
/// failure (including a 500 for a caught panic).
fn dispatch(shared: &Shared, request: &Request, trace: &Trace) -> Result<Reply, HttpError> {
    let path = request.path.split('?').next().unwrap_or("");
    match (request.method.as_str(), path) {
        ("GET", "/healthz") => healthz(shared).map(Reply::json),
        ("GET", "/stats") => stats(shared).map(Reply::json),
        ("GET", "/metrics") => Ok(Reply {
            body: shared.metrics.registry.render(),
            content_type: oipa_obs::EXPOSITION_CONTENT_TYPE,
        }),
        ("POST", "/solve") => solve(shared, &request.body, trace).map(Reply::json),
        ("POST", "/delta") => delta(shared, &request.body, trace).map(Reply::json),
        ("GET" | "POST", "/healthz" | "/stats" | "/metrics" | "/solve" | "/delta") => {
            Err(HttpError::new(
                405,
                "method_not_allowed",
                format!(
                    "{} does not accept {}; /solve and /delta take POST, /healthz, /stats \
                     and /metrics take GET",
                    path, request.method
                ),
            ))
        }
        ("GET" | "POST", _) => Err(HttpError::new(
            404,
            "not_found",
            format!(
                "{path:?} is not a route; try POST /solve, POST /delta, GET /healthz, \
                 GET /stats, GET /metrics"
            ),
        )),
        (other, _) => Err(HttpError::new(
            501,
            "not_implemented",
            format!("method {other:?} is not implemented; use GET or POST"),
        )),
    }
}

/// The `/healthz` body: process liveness, build identity, and the disk
/// tier's health. `disk` is `null` on memory-only deployments.
#[derive(serde::Serialize)]
struct HealthzBody {
    status: String,
    service: String,
    version: String,
    uptime_seconds: f64,
    disk: Option<oipa_store::TierHealthSnapshot>,
}

/// The `/healthz` handler. Always `200` while the process serves — a
/// degraded disk tier is an operating mode, not an outage — but the
/// body says which: `"ok"` when every tier is healthy, `"degraded"`
/// (with the tier's error detail) while the store is riding out a disk
/// fault on its memory/resample fallback.
fn healthz(shared: &Shared) -> Result<String, HttpError> {
    let disk = read_service(&shared.service).health();
    let status = match &disk {
        Some(h) if !h.is_healthy() => "degraded",
        _ => "ok",
    };
    let body = HealthzBody {
        status: status.to_string(),
        service: "oipa-server".to_string(),
        version: env!("CARGO_PKG_VERSION").to_string(),
        uptime_seconds: shared.started.elapsed().as_secs_f64(),
        disk,
    };
    serde_json::to_string(&body).map_err(|e| HttpError::new(500, "serialize", e.to_string()))
}

/// The identity header `GET /stats` carries alongside the snapshot:
/// which build answered, which schemas it speaks, how long it has been
/// up. Round-trips through serde so clients can assert on it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerIdentity {
    /// Always `"oipa-server"`.
    pub service: String,
    /// The crate version of the serving build.
    pub version: String,
    /// The [`oipa_store::STATS_SCHEMA`] this build stamps snapshots with.
    pub stats_schema: String,
    /// The [`oipa_obs::METRICS_SCHEMA`] governing `/metrics` (frozen,
    /// additive-only).
    pub metrics_schema: String,
    /// Seconds since the server was spawned.
    pub uptime_seconds: f64,
}

/// The full `GET /stats` body: identity header + store snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StatsBody {
    /// Who is answering (build/schema/uptime identity).
    pub server: ServerIdentity,
    /// The pool store's two-tier counter snapshot.
    pub store: oipa_store::StatsSnapshot,
}

/// The `/stats` handler: the store snapshot under an identity header.
fn stats(shared: &Shared) -> Result<String, HttpError> {
    let body = StatsBody {
        server: ServerIdentity {
            service: "oipa-server".to_string(),
            version: env!("CARGO_PKG_VERSION").to_string(),
            stats_schema: oipa_store::STATS_SCHEMA.to_string(),
            metrics_schema: oipa_obs::METRICS_SCHEMA.to_string(),
            uptime_seconds: shared.started.elapsed().as_secs_f64(),
        },
        store: read_service(&shared.service).stats_snapshot(),
    };
    serde_json::to_string(&body).map_err(|e| HttpError::new(500, "serialize", e.to_string()))
}

/// The `/solve` handler: JSON in, JSON out, panics contained, phase
/// spans recorded into the request's trace.
fn solve(shared: &Shared, body: &[u8], trace: &Trace) -> Result<String, HttpError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| HttpError::new(400, "bad_json", "body is not valid UTF-8"))?;
    let request: SolveRequest = serde_json::from_str(text)
        .map_err(|e| HttpError::new(400, "bad_json", format!("unparseable SolveRequest: {e}")))?;
    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
        read_service(&shared.service).solve_traced(&request, Some(trace))
    }))
    .map_err(|_| {
        HttpError::new(
            500,
            "panic",
            "the solver panicked; the request was dropped and the server kept serving",
        )
    })?;
    let response = outcome.map_err(|e| HttpError::new(422, "solve_error", e.to_string()))?;
    serde_json::to_string(&response).map_err(|e| HttpError::new(500, "serialize", e.to_string()))
}

/// The `/delta` handler: a [`GraphDelta`] JSON body in, a
/// [`oipa_service::DeltaReport`] out. Takes the service's exclusive
/// (write) lock, so the mutation waits for every in-flight solve to
/// drain and no solve overlaps a half-applied graph.
fn delta(shared: &Shared, body: &[u8], trace: &Trace) -> Result<String, HttpError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| HttpError::new(400, "bad_json", "body is not valid UTF-8"))?;
    let delta: GraphDelta = serde_json::from_str(text)
        .map_err(|e| HttpError::new(400, "bad_json", format!("unparseable GraphDelta: {e}")))?;
    let started = Instant::now();
    let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
        write_service(&shared.service).apply_delta(&delta)
    }))
    .map_err(|_| {
        HttpError::new(
            500,
            "panic",
            "applying the delta panicked; the session was not modified",
        )
    })?;
    trace.record_span("delta", started, Instant::now());
    let report = outcome.map_err(|e| HttpError::new(422, "delta_error", e.to_string()))?;
    serde_json::to_string(&report).map_err(|e| HttpError::new(500, "serialize", e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The handle must be shareable with a shutdown-watcher thread.
    #[test]
    fn server_types_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<ServerHandle>();
        assert_send::<ServerConfig>();
    }
}
