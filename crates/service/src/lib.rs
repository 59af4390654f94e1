//! # oipa-service
//!
//! `PlannerService`: a session-oriented, multi-query engine over the OIPA
//! solver stack.
//!
//! The paper's pipeline is one-shot — sample θ MRR sets, solve once. A
//! serving system answers *streams* of queries against the same graph:
//! different budgets, methods, adoption models, and campaigns. Sampling
//! dominates per-query latency, yet a pool depends only on (campaign, θ,
//! seed) — so a session that caches pools under that key amortizes
//! sampling across every request that shares it, IMM-style (§V-A), while
//! the per-request work shrinks to the solve itself.
//!
//! One service owns:
//!
//! * a social graph and its topic-wise edge probabilities (optional when
//!   a pre-sampled pool is injected instead);
//! * a **tiered pool store** — the in-memory LRU arena of sampled
//!   [`MrrPool`]s keyed by (campaign, θ, seed) ([`PoolArena`]), backed by
//!   an optional persistent disk tier
//!   ([`PlannerService::attach_store`]) so warm pools survive byte
//!   pressure and process restarts;
//! * the **solver registry** — every method (`bab`, `bab-p`, `plain`,
//!   `greedy`, `brute`, `im`, `tim`) behind one [`Solver`] trait, so
//!   dispatch is data-driven and answers are bitwise-identical to the
//!   historical direct entry points.
//!
//! **Concurrency:** [`PlannerService::solve`] and
//! [`PlannerService::simulate`] take `&self`, and the service is `Send +
//! Sync` — put it behind an `Arc` and answer requests from as many
//! threads as the hardware offers. Warm requests hit the pool store's
//! shared read path; N concurrent cache misses on the same pool key
//! sample **exactly once** (the first requester samples, the rest wait
//! for its pool instead of burning CPU on identical sampling), and
//! answers are bitwise-identical to a sequential run at any thread
//! count. Session *reconfiguration* (`attach_graph`, `attach_store`,
//! `clear_arena`) remains `&mut self`: Rust's borrow rules then
//! guarantee no request is in flight while the session is rewired.
//!
//! Requests and responses are plain serde types ([`SolveRequest`] /
//! [`SolveResponse`]), so the same engine backs the library API, the
//! `oipa-cli solve`/`batch` commands, and any future network frontend.
//!
//! ```
//! use oipa_service::{Method, PlannerService, SolveRequest};
//!
//! let (graph, probs, campaign) = oipa_sampler::testkit::fig1();
//! let service = PlannerService::new(graph, probs).unwrap();
//!
//! let mut request = SolveRequest::new(Method::Bab, 2);
//! request.campaign = Some(campaign);
//! request.theta = Some(20_000);
//! request.promoters = Some((0..5).collect());
//!
//! let first = service.solve(&request).unwrap();   // samples the pool
//! let second = service.solve(&request).unwrap();  // arena hit: no sampling
//! assert!(!first.pool_cache_hit && second.pool_cache_hit);
//! assert_eq!(first.plan, second.plan);
//! assert_eq!(first.plan.set(0), &[0]); // Example 1's optimum
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

mod request;
mod solver;

pub use oipa_graph::{EdgeChange, GraphDelta, Lineage, TopicProb};
pub use oipa_store::{
    ArenaStats, DiskStats, PoolArena, PoolKey, PoolStore, PoolTier, PurgeRecord, StatsSnapshot,
    StoreConfig, TierHealthSnapshot, STATS_SCHEMA,
};
pub use request::{
    AutoThetaReport, AutoThetaRequest, DeltaReport, Method, PoolRepair, SearchStats,
    SimulateRequest, SimulateResponse, SolveRequest, SolveResponse,
};
pub use solver::{registry, solver_for, SolveContext, Solver, SolverOutput};

use oipa_baselines::paper::collapsed_pool;
use oipa_core::auto::{solve_auto_theta, AutoThetaConfig};
use oipa_core::{OipaError, OipaInstance};
use oipa_graph::{DiGraph, NodeId};
use oipa_obs::{Counter, Histogram, Registry, Trace};
use oipa_sampler::{simulate, MrrPool, RrPool};
use oipa_store::{Ancestor, Fetched, Invalidation};
use oipa_topics::{Campaign, EdgeTopicProbs, LogisticAdoption};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Default arena byte budget (≈256 MiB).
pub const DEFAULT_ARENA_BYTES: usize = 256 << 20;

/// Default MRR samples per pool (the `oipa-cli sample` default).
pub const DEFAULT_THETA: usize = 100_000;

/// Default base seed (the workspace-wide convention).
pub const DEFAULT_SEED: u64 = 42;

/// Default promoter-pool fraction (§VI-A uses 10% of all users).
pub const DEFAULT_PROMOTER_FRACTION: f64 = 0.1;

/// Default logistic ratio β/α.
pub const DEFAULT_RATIO: f64 = 0.5;

/// Default progressive-bound ε (the paper fixes 0.5 after tuning).
pub const DEFAULT_EPS: f64 = 0.5;

/// A long-lived planning session: graph + probabilities + pool arena +
/// solver registry. See the crate docs for the full story.
pub struct PlannerService {
    graph: Option<DiGraph>,
    table: Option<EdgeTopicProbs>,
    /// The pool store, which also owns the epoch chain the graph is at
    /// (rooted at the (graph, table) content fingerprint, advanced by
    /// each applied delta's digest) and each delta's dirty targets.
    store: PoolStore,
    /// Arena key of an injected pool, used when a request names no
    /// campaign of its own.
    default_pool: Option<PoolKey>,
    /// Campaign of the injected pool, if the caller provided one.
    default_campaign: Option<Campaign>,
    /// Single-entry cache for the `im` baseline's collapsed-probability
    /// RR pool, keyed by (θ, seed). Invalidated with the graph. Behind a
    /// mutex so concurrent `im` requests build it exactly once.
    flat_cache: Mutex<Option<FlatPoolCache>>,
    /// Metric handles into an attached observability registry
    /// ([`Self::attach_obs`]). `OnceLock` so attaching works through a
    /// shared `Arc<PlannerService>`; until attached, instrumentation is
    /// a single `get()` returning `None`.
    obs: OnceLock<ServiceMetrics>,
}

/// Pre-fetched `Arc` handles into the registry, resolved once at
/// [`PlannerService::attach_obs`] so the request hot path records into
/// relaxed atomics and never takes the registry's registration lock.
struct ServiceMetrics {
    phase_pool_lookup: Arc<Histogram>,
    phase_sampling: Arc<Histogram>,
    phase_solve: Arc<Histogram>,
    phase_repair: Arc<Histogram>,
    pool_hit_memory: Arc<Counter>,
    pool_hit_disk: Arc<Counter>,
    pool_sampled: Arc<Counter>,
    pool_repaired: Arc<Counter>,
    invalidated_dirty: Arc<Counter>,
    invalidated_purged: Arc<Counter>,
    store_purges: Arc<Counter>,
    tau_evaluations: Arc<Counter>,
    seed_cache_hits: Arc<Counter>,
    seed_cache_misses: Arc<Counter>,
    solve_errors: Arc<Counter>,
}

impl ServiceMetrics {
    fn from_registry(registry: &Registry) -> ServiceMetrics {
        const PHASE: &str = "oipa_solver_phase_seconds";
        const PHASE_HELP: &str =
            "Time spent per solver phase: pool_lookup (tiered store get), sampling \
             (MRR pool generation on a miss), solve (the method itself).";
        const POOL: &str = "oipa_pool_requests_total";
        const POOL_HELP: &str =
            "Pool resolutions by outcome: hit_memory, hit_disk, repaired, or sampled.";
        const INVALIDATED: &str = "oipa_pool_invalidations_total";
        const INVALIDATED_HELP: &str =
            "Cached pools invalidated, by kind: dirty (stale-repairable after a graph \
             delta) or purged (dropped — unrelated instance).";
        ServiceMetrics {
            phase_pool_lookup: registry.histogram(PHASE, PHASE_HELP, &[("phase", "pool_lookup")]),
            phase_sampling: registry.histogram(PHASE, PHASE_HELP, &[("phase", "sampling")]),
            phase_solve: registry.histogram(PHASE, PHASE_HELP, &[("phase", "solve")]),
            phase_repair: registry.histogram(
                "oipa_pool_repair_seconds",
                "Time spent delta-repairing a stale pool (dead-walk classification \
                 plus partial resampling) on the request path.",
                &[],
            ),
            pool_hit_memory: registry.counter(POOL, POOL_HELP, &[("outcome", "hit_memory")]),
            pool_hit_disk: registry.counter(POOL, POOL_HELP, &[("outcome", "hit_disk")]),
            pool_sampled: registry.counter(POOL, POOL_HELP, &[("outcome", "sampled")]),
            pool_repaired: registry.counter(POOL, POOL_HELP, &[("outcome", "repaired")]),
            invalidated_dirty: registry.counter(
                INVALIDATED,
                INVALIDATED_HELP,
                &[("kind", "dirty")],
            ),
            invalidated_purged: registry.counter(
                INVALIDATED,
                INVALIDATED_HELP,
                &[("kind", "purged")],
            ),
            store_purges: registry.counter(
                "oipa_store_purges_total",
                "Whole-store purges: the announced instance fingerprint shared no \
                 lineage with the stored pools.",
                &[],
            ),
            tau_evaluations: registry.counter(
                "oipa_solver_tau_evaluations_total",
                "CELF-style marginal-utility (τ) evaluations across solves.",
                &[],
            ),
            seed_cache_hits: registry.counter(
                "oipa_solver_seed_cache_hits_total",
                "Solver seed-cache hits across solves.",
                &[],
            ),
            seed_cache_misses: registry.counter(
                "oipa_solver_seed_cache_misses_total",
                "Solver seed-cache misses across solves.",
                &[],
            ),
            solve_errors: registry.counter(
                "oipa_solve_errors_total",
                "Solve requests that returned a typed error.",
                &[],
            ),
        }
    }
}

/// How [`PlannerService::resolve_pool`] obtained a request's pool.
enum PoolOutcome {
    /// Served warm from a store tier — no sampling at all.
    Hit(PoolTier),
    /// A stale cached pool was delta-repaired (partial resampling).
    Repaired(PoolRepair),
    /// Sampled cold for this request.
    Sampled,
}

struct FlatPoolCache {
    theta: usize,
    seed: u64,
    pool: Arc<RrPool>,
}

impl PlannerService {
    /// Creates a session that samples its own pools from a graph and its
    /// edge probabilities (validated against each other).
    pub fn new(graph: DiGraph, table: EdgeTopicProbs) -> Result<Self, OipaError> {
        let mut service = PlannerService::empty();
        service.attach_graph(graph, table)?;
        Ok(service)
    }

    /// A session with no inputs and an empty memory-only store.
    fn empty() -> Self {
        PlannerService {
            graph: None,
            table: None,
            store: PoolStore::memory_only(DEFAULT_ARENA_BYTES),
            default_pool: None,
            default_campaign: None,
            flat_cache: Mutex::new(None),
            obs: OnceLock::new(),
        }
    }

    /// Creates a session around a pre-sampled pool (e.g. loaded from a
    /// `oipa-cli sample` file). Requests that name no campaign use this
    /// pool; requests that do need a graph attached ([`Self::attach_graph`]).
    pub fn from_pool(pool: MrrPool) -> Self {
        // The key carries the pool's content fingerprint, so two
        // different injected pools never alias one entry.
        let key = PoolKey::external("injected", &pool);
        let service = PlannerService {
            default_pool: Some(key.clone()),
            ..PlannerService::empty()
        };
        // Pinned: byte pressure from sampled pools must never evict the
        // pool the session was built around.
        service.store.insert_pinned(key, Arc::new(pool));
        service
    }

    /// Attaches a metrics registry: solver-phase timings, pool-outcome
    /// counters, and CELF cache counters start flowing into it. Takes
    /// `&self` (works through a shared `Arc`); the first attachment
    /// wins, later calls are no-ops — one service reports to one
    /// registry for its lifetime.
    pub fn attach_obs(&self, registry: &Registry) {
        let _ = self.obs.set(ServiceMetrics::from_registry(registry));
    }

    /// Attaches a persistent disk tier behind the pool arena (see
    /// [`oipa_store::PoolStore`]): pools evicted by memory pressure
    /// spill to the store directory, arena misses consult it before
    /// resampling, and a later session over the same directory serves
    /// yesterday's pools at disk speed. When the session already owns a
    /// graph and probability table, the directory is stamped with their
    /// epoch chain — the full chain, so a directory stamped with an
    /// ancestor epoch keeps its pools (stale-repairable), while one of
    /// pools sampled from *different* inputs is purged, never served.
    pub fn attach_store(&mut self, config: StoreConfig) -> Result<(), OipaError> {
        let invalidated = self.store.attach_disk(config).map_err(store_err)?;
        self.record_invalidation(invalidated);
        Ok(())
    }

    /// Records the campaign an injected pool was sampled for. Campaign-less
    /// requests keep using the injected pool directly; the recorded
    /// campaign only feeds paths that must resample, i.e. `auto_theta`
    /// requests (which otherwise need `campaign`/`ell` in the request).
    pub fn set_default_campaign(&mut self, campaign: Campaign) {
        self.default_campaign = Some(campaign);
    }

    /// Attaches (or replaces) the graph and probability table, validated
    /// against each other. Needed by `im` and by pool-sampling requests
    /// on a [`Self::from_pool`] session.
    ///
    /// Every pool the session sampled from the previous graph is evicted
    /// — stale pools must not answer requests against the new one.
    /// Injected (pinned) pools are kept: the caller vouched for those.
    pub fn attach_graph(&mut self, graph: DiGraph, table: EdgeTopicProbs) -> Result<(), OipaError> {
        if graph.node_count() == 0 {
            return Err(OipaError::config("the graph has no nodes"));
        }
        table.check_against(&graph).map_err(mismatch)?;
        self.store.evict_unpinned();
        // Neither tier may keep serving pools sampled from the old
        // inputs: restamp (purging on lineage divergence) before the new
        // graph answers anything. A replacement graph starts a fresh
        // lineage — deltas applied to the old one do not carry over.
        let invalidated = self
            .store
            .set_root(instance_fingerprint(&graph, &table))
            .map_err(store_err)?;
        self.record_invalidation(invalidated);
        self.graph = Some(graph);
        self.table = Some(table);
        *lock(&self.flat_cache) = None;
        Ok(())
    }

    /// Folds what a lineage change did to the store into the
    /// invalidation metrics: entries that went stale count as `dirty`,
    /// entries that disappeared count as `purged`.
    fn record_invalidation(&self, invalidated: Invalidation) {
        if let Some(obs) = self.obs.get() {
            obs.invalidated_dirty.add(invalidated.dirty as u64);
            obs.invalidated_purged.add(invalidated.dropped as u64);
            if invalidated.purged {
                obs.store_purges.inc();
            }
        }
    }

    /// Applies a [`GraphDelta`] to the session: rebuilds the graph and
    /// probability table for the post-delta edge set, advances the
    /// lineage by one epoch, and marks every cached pool stale — each
    /// repairs lazily ([`MrrPool::repair`]) the next time a request
    /// addresses it, resampling only the RR sets the delta actually
    /// killed. Answers after the delta are bitwise identical to a
    /// service cold-started on the post-delta inputs.
    ///
    /// `&mut self` — like every session rewiring, deltas are exclusive
    /// with in-flight requests (the server drains before applying).
    pub fn apply_delta(&mut self, delta: &GraphDelta) -> Result<DeltaReport, OipaError> {
        let start = Instant::now();
        if delta.is_empty() {
            return Err(OipaError::config("the delta performs no operations"));
        }
        let (graph, table) = self.inputs("deltas mutate the session's graph")?;
        let app = graph.apply_delta(delta).map_err(mismatch)?;
        let new_table = table.apply_delta(delta, &app).map_err(mismatch)?;
        // Inputs validated; commit. The store holds a lineage whenever
        // the session has a graph (new/attach_graph set its root).
        let dirty_targets = app.dirty_targets.len();
        let (fingerprint, invalidated) = self
            .store
            .advance(app.digest, app.dirty_targets)
            .map_err(store_err)?;
        self.record_invalidation(invalidated);
        self.graph = Some(app.graph);
        self.table = Some(new_table);
        *lock(&self.flat_cache) = None;
        Ok(DeltaReport {
            epoch: self.store.current_epoch(),
            fingerprint,
            ops: delta.op_count(),
            dirty_targets,
            pools_dirty: invalidated.dirty,
            pools_purged: invalidated.dropped,
            seconds: start.elapsed().as_secs_f64(),
        })
    }

    /// The session's epoch chain, as the pool store holds it: `None` on
    /// pool-only sessions, else the fingerprint lineage from the
    /// cold-load root to the current epoch.
    pub fn lineage(&self) -> Option<Lineage> {
        self.graph.as_ref()?;
        Lineage::from_fingerprints(self.store.lineage())
    }

    /// Replaces the memory tier's byte budget, evicting (and, with a
    /// disk tier attached, spilling) LRU entries that no longer fit.
    pub fn with_arena_capacity(self, capacity_bytes: usize) -> Self {
        self.store.set_mem_capacity(capacity_bytes);
        self
    }

    /// Occupancy and hit/miss/eviction counters of the memory pool tier.
    pub fn arena_stats(&self) -> ArenaStats {
        self.store.arena_stats()
    }

    /// Occupancy and counters of both pool tiers (the disk half is
    /// `None` until [`Self::attach_store`]) in their wire form: what the
    /// `oipa-server` `/stats` endpoint serves and `wirebench`'s stats
    /// check reads back (see [`oipa_store::StatsSnapshot`]).
    pub fn stats_snapshot(&self) -> StatsSnapshot {
        self.store.stats()
    }

    /// The disk tier's health, when a store is attached (`None` on
    /// memory-only sessions — nothing to degrade). Degraded means the
    /// tier is short-circuiting to memory/resample fallbacks; answers
    /// are unaffected, only cache effectiveness and latency.
    pub fn health(&self) -> Option<TierHealthSnapshot> {
        self.store.health()
    }

    /// Drops every memory-cached pool (the injected default pool
    /// included). Disk segments are kept: they remain valid for the
    /// instance they are stamped with.
    pub fn clear_arena(&mut self) {
        self.store.clear_memory();
        self.default_pool = None;
        *lock(&self.flat_cache) = None;
    }

    /// Answers one solve request. See [`SolveRequest`] for the knobs and
    /// their defaults. Takes `&self`: any number of threads may solve
    /// against one session concurrently.
    pub fn solve(&self, request: &SolveRequest) -> Result<SolveResponse, OipaError> {
        self.solve_traced(request, None)
    }

    /// [`Self::solve`] with per-phase spans recorded into `trace` (and,
    /// once a registry is attached via [`Self::attach_obs`], into the
    /// solver-phase histograms). The phases are `pool_lookup` (tiered
    /// store get), `sampling` (MRR generation on a miss), and `solve`
    /// (the method itself). `solve(r)` is exactly
    /// `solve_traced(r, None)`.
    pub fn solve_traced(
        &self,
        request: &SolveRequest,
        trace: Option<&Trace>,
    ) -> Result<SolveResponse, OipaError> {
        let result = self.solve_inner(request, trace);
        if result.is_err() {
            if let Some(obs) = self.obs.get() {
                obs.solve_errors.inc();
            }
        }
        result
    }

    fn solve_inner(
        &self,
        request: &SolveRequest,
        trace: Option<&Trace>,
    ) -> Result<SolveResponse, OipaError> {
        let start = Instant::now();
        if request.budget == 0 {
            return Err(OipaError::InvalidBudget);
        }
        let model = resolve_model(request.ratio, request.alpha, request.beta)?;
        if request.theta == Some(0) {
            return Err(OipaError::config("θ must be at least 1"));
        }
        let seed = request.seed.unwrap_or(DEFAULT_SEED);
        if let Some(auto) = &request.auto_theta {
            return self.solve_auto(request, auto, model, seed, start, trace);
        }
        let gap = request.gap;
        let eps = request.eps.unwrap_or(DEFAULT_EPS);
        validate_tuning(gap, eps)?;
        let (pool, outcome) = self.resolve_pool(request, seed, trace)?;
        if let Some(obs) = self.obs.get() {
            match &outcome {
                PoolOutcome::Hit(PoolTier::Memory) => obs.pool_hit_memory.inc(),
                PoolOutcome::Hit(PoolTier::Disk) => obs.pool_hit_disk.inc(),
                PoolOutcome::Repaired(_) => obs.pool_repaired.inc(),
                PoolOutcome::Sampled => obs.pool_sampled.inc(),
            }
        }
        // Reject bad promoters before paying any im collapsed-pool
        // sampling below.
        let promoters = resolve_promoters(
            request.promoters.clone(),
            request.promoter_fraction,
            pool.node_count(),
            seed,
        )?;
        let flat_pool = if request.method == Method::Im {
            self.resolve_flat_pool(request.theta.unwrap_or_else(|| pool.theta()), seed)
        } else {
            None
        };
        let context = SolveContext {
            pool: &pool,
            model,
            promoters: &promoters,
            budget: request.budget,
            gap,
            eps,
            max_nodes: request.max_nodes,
            seed,
            graph: self.graph.as_ref(),
            table: self.table.as_ref(),
            collapsed_theta: request.theta,
            flat_pool: flat_pool.as_deref(),
        };
        let solve_started = Instant::now();
        let output = solver_for(request.method).solve(&context)?;
        self.observe_phase("solve", solve_started, trace);
        let stats = output.stats.as_ref().map(SearchStats::from);
        if let (Some(obs), Some(s)) = (self.obs.get(), stats.as_ref()) {
            obs.tau_evaluations.add(s.tau_evaluations);
            obs.seed_cache_hits.add(s.seed_cache_hits);
            obs.seed_cache_misses.add(s.seed_cache_misses);
        }
        Ok(SolveResponse {
            method: request.method,
            k: request.budget,
            theta: pool.theta(),
            pool_cache_hit: matches!(outcome, PoolOutcome::Hit(_)),
            pool_tier: match &outcome {
                PoolOutcome::Hit(tier) => Some(tier.name().to_string()),
                _ => None,
            },
            utility: output.utility,
            upper_bound: output.upper_bound,
            plan: output.plan,
            seconds: start.elapsed().as_secs_f64(),
            stats,
            auto_theta: None,
            pool_repair: match outcome {
                PoolOutcome::Repaired(repair) => Some(repair),
                _ => None,
            },
        })
    }

    /// Records a completed phase into the trace (when one rides along)
    /// and the attached phase histogram (when a registry is attached).
    /// Near-free when neither: two `None` checks.
    fn observe_phase(&self, name: &'static str, started: Instant, trace: Option<&Trace>) {
        let ended = Instant::now();
        if let Some(trace) = trace {
            trace.record_span(name, started, ended);
        }
        if let Some(obs) = self.obs.get() {
            let histogram = match name {
                "pool_lookup" => &obs.phase_pool_lookup,
                "sampling" => &obs.phase_sampling,
                "repair" => &obs.phase_repair,
                _ => &obs.phase_solve,
            };
            histogram.record_duration(ended.saturating_duration_since(started));
        }
    }

    /// Forward Monte-Carlo evaluation of a plan on the session's graph.
    pub fn simulate(&self, request: &SimulateRequest) -> Result<SimulateResponse, OipaError> {
        let start = Instant::now();
        let (graph, table) = self.inputs("simulation spreads cascades on the graph")?;
        check_campaign_topics(&request.campaign, table)?;
        if request.plan.ell() != request.campaign.len() {
            return Err(OipaError::Mismatch {
                what: format!(
                    "plan has {} pieces but the campaign has {}",
                    request.plan.ell(),
                    request.campaign.len()
                ),
            });
        }
        let model = resolve_model(request.ratio, request.alpha, request.beta)?;
        let runs = request.runs.unwrap_or(500);
        if runs == 0 {
            return Err(OipaError::config("runs must be at least 1"));
        }
        let seed = request.seed.unwrap_or(DEFAULT_SEED);
        let utility = simulate::simulate_adoption(
            &mut StdRng::seed_from_u64(seed),
            graph,
            table,
            &request.campaign,
            &request.plan.to_vecs(),
            model,
            runs,
        );
        Ok(SimulateResponse {
            runs,
            utility,
            seconds: start.elapsed().as_secs_f64(),
        })
    }

    /// Fetches the pool a request addresses: a tiered-store hit, a
    /// delta-repair of a stale cached pool, or — only when neither is
    /// possible — a full cold sampling run.
    fn resolve_pool(
        &self,
        request: &SolveRequest,
        seed: u64,
        trace: Option<&Trace>,
    ) -> Result<(Arc<MrrPool>, PoolOutcome), OipaError> {
        let campaign = self.resolve_campaign(request, seed)?;
        let Some(campaign) = campaign else {
            // No campaign in the request: fall back to the injected pool.
            let Some(key) = self.default_pool.clone() else {
                return Err(OipaError::MissingInput {
                    what: "a campaign".to_string(),
                    hint: "set `campaign` (explicit topic mixes) or `ell` (seeded one-hot \
                           pieces) in the request, or inject a pre-sampled pool with \
                           PlannerService::from_pool"
                        .to_string(),
                });
            };
            // Invariant: `default_pool` is Some only while its pinned
            // entry is resident — byte pressure never evicts pinned
            // entries (pins survive same-key replaces) and `clear_arena`
            // nulls both together. Should the invariant ever break, the
            // request gets a typed error, not the process a panic.
            let lookup_started = Instant::now();
            let found = self.store.get(&key);
            self.observe_phase("pool_lookup", lookup_started, trace);
            let Some((pool, tier)) = found else {
                return Err(OipaError::MissingInput {
                    what: "the injected default pool".to_string(),
                    hint: "the pinned pool this session was built around is no longer \
                           resident; re-inject it with PlannerService::from_pool or name a \
                           campaign in the request"
                        .to_string(),
                });
            };
            return Ok((pool, PoolOutcome::Hit(tier)));
        };
        let campaign_json = serde_json::to_string(&campaign).map_err(|e| OipaError::Io {
            what: "serializing the campaign cache key".to_string(),
            detail: e.to_string(),
        })?;
        let theta = request.theta.unwrap_or(DEFAULT_THETA);
        let key = PoolKey::sampled(campaign_json, theta, seed);
        // One store fetch: memory, then disk, then — once across
        // concurrent requests for the key — repair of a stale ancestor,
        // or cold sampling when there is none to repair. The repaired
        // pool is bitwise identical to a cold sample at the current
        // epoch, so requests served either way can't tell the
        // difference.
        let lookup_started = Instant::now();
        let (pool, fetched) = self.store.fetch(&key, |ancestor| {
            self.observe_phase("pool_lookup", lookup_started, trace);
            if let Some(repaired) = ancestor.and_then(|a| self.repair(a, &campaign, seed, trace)) {
                return Ok::<_, OipaError>(repaired);
            }
            let sampling_started = Instant::now();
            let sampled = self.sample_pool(&campaign, theta, seed);
            self.observe_phase("sampling", sampling_started, trace);
            Ok((sampled?, PoolOutcome::Sampled))
        })?;
        let outcome = match fetched {
            Fetched::Hit(tier) => {
                self.observe_phase("pool_lookup", lookup_started, trace);
                PoolOutcome::Hit(tier)
            }
            Fetched::Populated(outcome) => outcome,
        };
        Ok((pool, outcome))
    }

    /// Delta-repairs a stale ancestor of a missed key: resamples only the
    /// RR sets whose walks crossed a dirty target since the ancestor's
    /// epoch. `None` when the session has no graph to repair against, or
    /// the store knows no dirty history from the ancestor's epoch to the
    /// current one ([`PoolStore::dirty_since`]) — the caller samples
    /// cold.
    fn repair(
        &self,
        (stale, epoch): Ancestor,
        campaign: &Campaign,
        seed: u64,
        trace: Option<&Trace>,
    ) -> Option<(Arc<MrrPool>, PoolOutcome)> {
        let (graph, table) = (self.graph.as_ref()?, self.table.as_ref()?);
        // Accumulated invalidation frontier from the pool's epoch to now.
        let dirty = self.store.dirty_since(epoch)?;
        let started = Instant::now();
        let (pool, outcome) = stale.repaired(graph, table, campaign, &dirty, seed).ok()?;
        self.observe_phase("repair", started, trace);
        let repair = PoolRepair {
            from_epoch: epoch,
            to_epoch: self.store.current_epoch(),
            sets_total: outcome.sets_total,
            sets_resampled: outcome.sets_resampled,
            seconds: started.elapsed().as_secs_f64(),
        };
        Some((Arc::new(pool), PoolOutcome::Repaired(repair)))
    }

    /// The session's graph and probability table, or a typed error
    /// saying `why` the request needs them.
    fn inputs(&self, why: &str) -> Result<(&DiGraph, &EdgeTopicProbs), OipaError> {
        match (self.graph.as_ref(), self.table.as_ref()) {
            (Some(graph), Some(table)) => Ok((graph, table)),
            _ => Err(OipaError::MissingInput {
                what: "the social graph and edge probabilities".to_string(),
                hint: format!(
                    "{why}; construct the service with PlannerService::new(graph, table) or \
                     call attach_graph"
                ),
            }),
        }
    }

    /// Samples a pool for a campaign (the cache-miss slow path).
    fn sample_pool(
        &self,
        campaign: &Campaign,
        theta: usize,
        seed: u64,
    ) -> Result<Arc<MrrPool>, OipaError> {
        let (graph, table) = self.inputs("sampling a pool for this campaign needs them")?;
        check_campaign_topics(campaign, table)?;
        Ok(Arc::new(MrrPool::try_generate(
            graph, table, campaign, theta, seed,
        )?))
    }

    /// The campaign a request itself names: explicit or seeded one-hot.
    /// `None` means the request addresses the session's injected pool
    /// (the session default campaign is only a fallback for paths that
    /// cannot run without one, such as auto-θ).
    fn resolve_campaign(
        &self,
        request: &SolveRequest,
        seed: u64,
    ) -> Result<Option<Campaign>, OipaError> {
        if let Some(campaign) = &request.campaign {
            if campaign.is_empty() {
                return Err(OipaError::config("the campaign has no pieces"));
            }
            return Ok(Some(campaign.clone()));
        }
        if let Some(ell) = request.ell {
            if ell == 0 {
                return Err(OipaError::config("ell must be at least 1"));
            }
            let Some(table) = self.table.as_ref() else {
                return Err(OipaError::MissingInput {
                    what: "edge probabilities".to_string(),
                    hint: "a seeded one-hot campaign draws topics from the probability \
                           table; attach one or pass an explicit `campaign`"
                        .to_string(),
                });
            };
            let mut rng = StdRng::seed_from_u64(seed);
            return Ok(Some(Campaign::sample_one_hot(
                &mut rng,
                table.topic_count(),
                ell,
            )));
        }
        Ok(None)
    }

    /// The collapsed-probability RR pool the `im` baseline needs,
    /// cached per (θ, seed) so repeated `im` requests skip its sampling
    /// cost just like the MRR arena skips theirs. The cache mutex is held
    /// across the build, so concurrent `im` requests sample it once.
    /// Returns `None` when no graph is attached (the solver then reports
    /// the missing input).
    fn resolve_flat_pool(&self, theta: usize, seed: u64) -> Option<Arc<RrPool>> {
        let (graph, table) = (self.graph.as_ref()?, self.table.as_ref()?);
        let mut cache = lock(&self.flat_cache);
        if let Some(cached) = cache.as_ref() {
            if cached.theta == theta && cached.seed == seed {
                return Some(Arc::clone(&cached.pool));
            }
        }
        let pool = Arc::new(collapsed_pool(graph, table, theta, seed));
        *cache = Some(FlatPoolCache {
            theta,
            seed,
            pool: Arc::clone(&pool),
        });
        Some(pool)
    }

    /// The auto-θ path: escalating solve-and-cross-validate rounds on
    /// fresh pools (these do not enter the arena — each round's θ is
    /// provisional by design).
    fn solve_auto(
        &self,
        request: &SolveRequest,
        auto: &AutoThetaRequest,
        model: LogisticAdoption,
        seed: u64,
        start: Instant,
        trace: Option<&Trace>,
    ) -> Result<SolveResponse, OipaError> {
        let Some(bab) = solver::bab_config(
            request.method,
            request.eps.unwrap_or(DEFAULT_EPS),
            request.gap,
            request.max_nodes,
        ) else {
            return Err(OipaError::config(format!(
                "auto θ drives the branch-and-bound methods (bab, bab-p, plain); \
                 method {} takes a fixed θ",
                request.method
            )));
        };
        let defaults = AutoThetaConfig::default();
        let config = AutoThetaConfig {
            initial_theta: auto.initial_theta.unwrap_or(defaults.initial_theta),
            max_theta: auto.max_theta.unwrap_or(defaults.max_theta),
            rel_tol: auto.rel_tol.unwrap_or(defaults.rel_tol),
            seed,
            bab,
            ..defaults
        };
        // Validate the policy up front — before touching the graph or the
        // sampler — so a malformed request (`initial_theta: 0`, a ceiling
        // below the start, a non-finite tolerance) is a typed config
        // error at the service boundary, never a panic deeper down.
        // `AutoThetaConfig::validate` is the single source of truth for
        // the accepted domain; `solve_auto_theta` re-checks it for free.
        config.validate()?;
        let campaign = self
            .resolve_campaign(request, seed)?
            .or_else(|| self.default_campaign.clone())
            .ok_or_else(|| OipaError::MissingInput {
                what: "a campaign".to_string(),
                hint: "auto θ resamples pools per round, so the request must carry \
                       `campaign` or `ell`"
                    .to_string(),
            })?;
        let (graph, table) = self.inputs("auto θ resamples pools per round")?;
        check_campaign_topics(&campaign, table)?;
        let promoters = resolve_promoters(
            request.promoters.clone(),
            request.promoter_fraction,
            graph.node_count(),
            seed,
        )?;
        // Auto-θ interleaves sampling and solving per round; one "solve"
        // span covers the whole escalation.
        let solve_started = Instant::now();
        let result = solve_auto_theta(
            graph,
            table,
            &campaign,
            model,
            &promoters,
            request.budget,
            config,
        )?;
        self.observe_phase("solve", solve_started, trace);
        Ok(SolveResponse {
            method: request.method,
            k: request.budget,
            theta: result.theta,
            pool_cache_hit: false,
            pool_tier: None,
            utility: result.solution.utility,
            upper_bound: Some(result.solution.upper_bound),
            plan: result.solution.plan,
            seconds: start.elapsed().as_secs_f64(),
            stats: Some(SearchStats::from(&result.solution.stats)),
            auto_theta: Some(AutoThetaReport {
                converged: result.converged,
                rounds: result.rounds.len(),
            }),
            pool_repair: None,
        })
    }
}

/// Locks a mutex, recovering from poisoning: service state behind these
/// locks is a cache (rebuildable), so one panicked request must not take
/// every other request thread down with it.
fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

/// Maps an input-validation failure into the typed mismatch error.
fn mismatch(e: impl ToString) -> OipaError {
    OipaError::Mismatch {
        what: e.to_string(),
    }
}

/// Maps a store-directory failure into the service's typed error space.
fn store_err(e: oipa_store::StoreError) -> OipaError {
    OipaError::Io {
        what: "the persistent pool store".to_string(),
        detail: e.to_string(),
    }
}

/// Fingerprint of the sampling inputs a pool store is valid for: mixes
/// the graph topology and the probability table. Stamped into the store
/// manifest so a directory can never serve pools across instances.
fn instance_fingerprint(graph: &DiGraph, table: &EdgeTopicProbs) -> u64 {
    use std::hash::Hasher as _;
    let mut h = oipa_graph::hashing::FxHasher::default();
    h.write_u64(graph.fingerprint());
    h.write_u64(table.fingerprint());
    h.finish()
}

/// Builds the logistic model from the request's `ratio` or `alpha`+`beta`
/// (mutually exclusive; default ratio 0.5).
fn resolve_model(
    ratio: Option<f64>,
    alpha: Option<f64>,
    beta: Option<f64>,
) -> Result<LogisticAdoption, OipaError> {
    match (ratio, alpha, beta) {
        (Some(_), Some(_), _) | (Some(_), _, Some(_)) => Err(OipaError::config(
            "give either `ratio` or `alpha`+`beta`, not both",
        )),
        (_, Some(a), Some(b)) => {
            if !(a.is_finite() && b.is_finite() && a > 0.0 && b > 0.0) {
                return Err(OipaError::config(format!(
                    "alpha and beta must be positive and finite, got α={a}, β={b}"
                )));
            }
            Ok(LogisticAdoption::new(a, b))
        }
        (_, Some(_), None) | (_, None, Some(_)) => {
            Err(OipaError::config("alpha and beta must be given together"))
        }
        (r, None, None) => {
            let r = r.unwrap_or(DEFAULT_RATIO);
            if !(r.is_finite() && r > 0.0) {
                return Err(OipaError::config(format!(
                    "ratio must be positive and finite, got {r}"
                )));
            }
            Ok(LogisticAdoption::from_ratio(r))
        }
    }
}

/// Materializes the promoter pool: an explicit id list (validated and
/// normalized) or a seeded uniform sample of `fraction · n` users.
fn resolve_promoters(
    explicit: Option<Vec<NodeId>>,
    fraction: Option<f64>,
    node_count: usize,
    seed: u64,
) -> Result<Vec<NodeId>, OipaError> {
    if let Some(mut promoters) = explicit {
        promoters.sort_unstable();
        promoters.dedup();
        if let Some(&bad) = promoters.iter().find(|&&v| (v as usize) >= node_count) {
            return Err(OipaError::PromoterOutOfRange {
                promoter: bad,
                node_count,
            });
        }
        if promoters.is_empty() {
            return Err(OipaError::EmptyPromoters);
        }
        return Ok(promoters);
    }
    let fraction = fraction.unwrap_or(DEFAULT_PROMOTER_FRACTION);
    if !(fraction > 0.0 && fraction <= 1.0) {
        return Err(OipaError::config(format!(
            "promoter fraction must be in (0, 1], got {fraction}"
        )));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    Ok(OipaInstance::sample_promoters(
        &mut rng, node_count, fraction,
    ))
}

/// Tuning-parameter checks shared by every method, so a malformed
/// request fails identically regardless of dispatch target.
/// Every piece's topic vector must live in the probability table's topic
/// space; anything else would panic deep inside the sampler.
fn check_campaign_topics(campaign: &Campaign, table: &EdgeTopicProbs) -> Result<(), OipaError> {
    if let Some(piece) = campaign
        .pieces()
        .iter()
        .find(|p| p.topics.dim() != table.topic_count())
    {
        return Err(OipaError::Mismatch {
            what: format!(
                "campaign piece {:?} has {}-dimensional topics but the probability table \
                 has {} topics",
                piece.name,
                piece.topics.dim(),
                table.topic_count()
            ),
        });
    }
    Ok(())
}

fn validate_tuning(gap: Option<f64>, eps: f64) -> Result<(), OipaError> {
    if let Some(gap) = gap {
        if gap.is_nan() || gap < 0.0 {
            return Err(OipaError::config(format!(
                "gap must be nonnegative, got {gap}"
            )));
        }
    }
    if eps.is_nan() || eps <= 0.0 {
        return Err(OipaError::config(format!("ε must be positive, got {eps}")));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tentpole contract: a session must be shareable across request
    /// threads (compile-time check).
    #[test]
    fn planner_service_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<PlannerService>();
        assert_send_sync::<PoolStore>();
    }

    #[test]
    fn model_resolution_rules() {
        assert!(resolve_model(None, None, None).is_ok());
        assert!(resolve_model(Some(0.7), None, None).is_ok());
        assert!(resolve_model(None, Some(2.0), Some(1.0)).is_ok());
        assert!(resolve_model(Some(0.5), Some(2.0), Some(1.0)).is_err());
        assert!(resolve_model(None, Some(2.0), None).is_err());
        assert!(resolve_model(Some(-1.0), None, None).is_err());
    }

    #[test]
    fn promoter_resolution_rules() {
        let explicit = resolve_promoters(Some(vec![3, 1, 1, 2]), None, 5, 0).unwrap();
        assert_eq!(explicit, vec![1, 2, 3]);
        assert!(matches!(
            resolve_promoters(Some(vec![9]), None, 5, 0),
            Err(OipaError::PromoterOutOfRange { promoter: 9, .. })
        ));
        assert!(matches!(
            resolve_promoters(Some(vec![]), None, 5, 0),
            Err(OipaError::EmptyPromoters)
        ));
        let sampled = resolve_promoters(None, Some(0.5), 100, 7).unwrap();
        assert_eq!(sampled.len(), 50);
        assert!(resolve_promoters(None, Some(1.5), 100, 7).is_err());
    }
}
