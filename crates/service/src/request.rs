//! The service wire format: serde-serializable requests and responses.
//!
//! A [`SolveRequest`] is a self-contained description of one OIPA query —
//! method, budget, promoter policy, adoption model, θ policy (fixed or
//! auto), and campaign — with every optional field defaulting to the
//! paper's experimental settings. Requests stream naturally as JSONL
//! (`oipa-cli batch`), and the matching [`SolveResponse`] carries the
//! plan, its utility, the θ actually used, and solver statistics.

use oipa_core::{AssignmentPlan, BabStats, OipaError};
use oipa_topics::Campaign;
use serde::{Deserialize, Error as SerdeError, Serialize, Value};

/// The registered solve methods, in registry order.
///
/// Wire names match the CLI's historical `--method` values: `bab`,
/// `bab-p`, `plain`, `greedy`, `brute`, `im`, `tim`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Branch-and-bound with the CELF greedy bound (Algorithm 1 + 2).
    Bab,
    /// Branch-and-bound with the progressive bound (Algorithm 3).
    BabP,
    /// Branch-and-bound with the plain rescan bound (ablation).
    Plain,
    /// The §VII concave-envelope relaxation heuristic (CELF greedy).
    Greedy,
    /// Exact enumeration (tiny instances only).
    Brute,
    /// The paper's topic-oblivious `IM` baseline (needs the graph).
    Im,
    /// The paper's per-piece `TIM` baseline.
    Tim,
}

impl Method {
    /// Every method, in registry order.
    pub const ALL: [Method; 7] = [
        Method::Bab,
        Method::BabP,
        Method::Plain,
        Method::Greedy,
        Method::Brute,
        Method::Im,
        Method::Tim,
    ];

    /// The wire/CLI name.
    pub fn name(self) -> &'static str {
        match self {
            Method::Bab => "bab",
            Method::BabP => "bab-p",
            Method::Plain => "plain",
            Method::Greedy => "greedy",
            Method::Brute => "brute",
            Method::Im => "im",
            Method::Tim => "tim",
        }
    }

    /// Parses a wire/CLI name, listing the registered names on failure.
    pub fn parse(name: &str) -> Result<Method, OipaError> {
        Method::ALL
            .into_iter()
            .find(|m| m.name() == name)
            .ok_or_else(|| OipaError::UnknownMethod {
                got: name.to_string(),
                known: Method::ALL.iter().map(|m| m.name().to_string()).collect(),
            })
    }
}

impl std::fmt::Display for Method {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

// Hand-written serde: the wire names (`bab-p`) are not valid Rust variant
// identifiers, so the shim's unit-enum derive cannot produce them.
impl Serialize for Method {
    fn to_value(&self) -> Value {
        Value::String(self.name().to_string())
    }
}

impl Deserialize for Method {
    fn from_value(v: &Value) -> Result<Self, SerdeError> {
        match v {
            Value::String(s) => Method::parse(s).map_err(SerdeError::msg),
            other => Err(SerdeError(format!(
                "expected a method name string, found {}",
                other.kind()
            ))),
        }
    }
}

/// The auto-θ policy: solve at a small θ and escalate until a fresh-pool
/// cross-validation agrees (see `oipa_core::auto`). Absent fields take
/// [`oipa_core::auto::AutoThetaConfig`] defaults.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AutoThetaRequest {
    /// Starting θ (default 10 000).
    pub initial_theta: Option<usize>,
    /// Hard θ ceiling (default 1 000 000).
    pub max_theta: Option<usize>,
    /// Relative agreement tolerance (default 0.02).
    pub rel_tol: Option<f64>,
}

/// One OIPA query. Only `method` and `budget` are mandatory; everything
/// else defaults to the paper's experimental settings (promoter fraction
/// 10%, logistic ratio β/α = 0.5, gap 1%, ε = 0.5, θ = 100 000).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SolveRequest {
    /// The solve method (registry name).
    pub method: Method,
    /// Budget `k`: total promoter assignments across pieces.
    pub budget: usize,
    /// Explicit promoter ids (overrides `promoter_fraction`).
    pub promoters: Option<Vec<u32>>,
    /// Uniformly sampled promoter-pool fraction (default 0.1).
    pub promoter_fraction: Option<f64>,
    /// Base seed for promoter sampling and pool generation (default 42).
    pub seed: Option<u64>,
    /// Logistic ratio β/α shorthand (default 0.5; exclusive with
    /// `alpha`/`beta`).
    pub ratio: Option<f64>,
    /// Logistic α (requires `beta`).
    pub alpha: Option<f64>,
    /// Logistic β (requires `alpha`).
    pub beta: Option<f64>,
    /// Branch-and-bound termination gap (default 0.01).
    pub gap: Option<f64>,
    /// Progressive-bound ε for `bab-p` (default 0.5).
    pub eps: Option<f64>,
    /// Hard cap on expanded branch-and-bound nodes (default: none).
    pub max_nodes: Option<usize>,
    /// Explicit campaign (topic mix per piece).
    pub campaign: Option<Campaign>,
    /// Piece count for a seeded one-hot campaign (when `campaign` is
    /// absent; requires the service to own a probability table).
    pub ell: Option<usize>,
    /// Fixed θ policy: MRR samples per pool (default 100 000). With an
    /// externally injected pool this only sizes the `im` baseline's
    /// collapsed pool.
    pub theta: Option<usize>,
    /// Auto-θ policy; overrides `theta` (branch-and-bound methods only).
    pub auto_theta: Option<AutoThetaRequest>,
}

impl SolveRequest {
    /// A request with every optional field left to its default.
    pub fn new(method: Method, budget: usize) -> Self {
        SolveRequest {
            method,
            budget,
            promoters: None,
            promoter_fraction: None,
            seed: None,
            ratio: None,
            alpha: None,
            beta: None,
            gap: None,
            eps: None,
            max_nodes: None,
            campaign: None,
            ell: None,
            theta: None,
            auto_theta: None,
        }
    }
}

/// Search statistics echoed in a [`SolveResponse`] (the serializable
/// subset of [`BabStats`]; only branch-and-bound methods produce them).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SearchStats {
    /// Heap nodes expanded.
    pub nodes_expanded: usize,
    /// Bound computations.
    pub bounds_computed: usize,
    /// Nodes pruned against the incumbent.
    pub nodes_pruned: usize,
    /// τ marginal-gain evaluations (the paper's §V-C cost metric).
    pub tau_evaluations: u64,
    /// Cached-seed bound computations (incremental engine).
    pub seed_cache_hits: u64,
    /// Fresh-scan bound computations (incremental engine).
    pub seed_cache_misses: u64,
}

impl From<&BabStats> for SearchStats {
    fn from(s: &BabStats) -> Self {
        SearchStats {
            nodes_expanded: s.nodes_expanded,
            bounds_computed: s.bounds_computed,
            nodes_pruned: s.nodes_pruned,
            tau_evaluations: s.tau_evaluations,
            seed_cache_hits: s.seed_cache_hits,
            seed_cache_misses: s.seed_cache_misses,
        }
    }
}

/// How a request's pool was brought forward after graph deltas: instead
/// of resampling all θ · ℓ RR sets from scratch, only the sets whose
/// walks crossed a dirty target were regenerated (see
/// [`oipa_sampler::MrrPool::repair`]). The repaired pool is bitwise
/// identical to a cold resample at the current epoch.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PoolRepair {
    /// Epoch the stale pool was sampled at.
    pub from_epoch: u64,
    /// Epoch the pool was repaired to (the session's current epoch).
    pub to_epoch: u64,
    /// Total RR sets in the pool (θ · ℓ).
    pub sets_total: usize,
    /// Sets classified dead and resampled.
    pub sets_resampled: usize,
    /// Wall-clock seconds spent classifying and resampling.
    pub seconds: f64,
}

/// What applying one [`oipa_graph::GraphDelta`] to a session did — the
/// `POST /delta` response body.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DeltaReport {
    /// The session's epoch after the delta (one per applied delta).
    pub epoch: u64,
    /// The lineage head fingerprint at the new epoch.
    pub fingerprint: u64,
    /// Edge operations in the delta (insert + remove + reweight).
    pub ops: usize,
    /// Nodes whose in-edge row changed — the invalidation frontier.
    pub dirty_targets: usize,
    /// Cached pools marked stale-repairable by this delta (across both
    /// store tiers; each repairs lazily on its next request).
    pub pools_dirty: usize,
    /// Cached pools dropped outright (0 unless the lineage diverged,
    /// which a delta never causes — attaching an unrelated graph does).
    pub pools_purged: usize,
    /// Wall-clock seconds for the CSR rebuild and cache restamp.
    pub seconds: f64,
}

/// How an auto-θ request converged.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AutoThetaReport {
    /// Whether the cross-validation tolerance was met (false ⇒ the θ
    /// ceiling stopped the escalation).
    pub converged: bool,
    /// Escalation rounds performed.
    pub rounds: usize,
}

/// The answer to one [`SolveRequest`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SolveResponse {
    /// The method that produced the plan.
    pub method: Method,
    /// The budget the plan was optimized for.
    pub k: usize,
    /// MRR samples θ of the pool the plan was evaluated on.
    pub theta: usize,
    /// Whether the pool came from the session's pool store (amortized)
    /// rather than being sampled for this request.
    pub pool_cache_hit: bool,
    /// Which store tier served the pool on a cache hit: `"memory"` or
    /// `"disk"`. `None` when the request paid for sampling.
    pub pool_tier: Option<String>,
    /// MRR-estimated adoption utility of the plan, in users.
    pub utility: f64,
    /// Upper-bound estimate (branch-and-bound methods only): the paper's
    /// greedy-τ bound over the sampled pool, not a certificate — a fresh
    /// σ estimate of the plan can exceed it.
    pub upper_bound: Option<f64>,
    /// The assignment plan.
    pub plan: AssignmentPlan,
    /// End-to-end request latency in seconds (includes sampling on a
    /// pool-cache miss).
    pub seconds: f64,
    /// Search statistics (branch-and-bound methods only).
    pub stats: Option<SearchStats>,
    /// Auto-θ convergence report (auto-θ requests only).
    pub auto_theta: Option<AutoThetaReport>,
    /// Present when the pool was delta-repaired for this request rather
    /// than served warm or sampled cold ([`pool_cache_hit`] stays
    /// `false`: the request did pay for partial resampling).
    ///
    /// [`pool_cache_hit`]: SolveResponse::pool_cache_hit
    pub pool_repair: Option<PoolRepair>,
}

/// A forward Monte-Carlo evaluation request: spread each piece from its
/// assigned promoters and average adopted users over `runs` cascades.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimulateRequest {
    /// The plan to evaluate.
    pub plan: AssignmentPlan,
    /// The campaign the plan indexes into.
    pub campaign: Campaign,
    /// Logistic ratio β/α shorthand (default 0.5).
    pub ratio: Option<f64>,
    /// Logistic α (requires `beta`).
    pub alpha: Option<f64>,
    /// Logistic β (requires `alpha`).
    pub beta: Option<f64>,
    /// Monte-Carlo cascades (default 500).
    pub runs: Option<usize>,
    /// RNG seed (default 42).
    pub seed: Option<u64>,
}

/// The answer to a [`SimulateRequest`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimulateResponse {
    /// Cascades simulated.
    pub runs: usize,
    /// Mean adopted users across cascades.
    pub utility: f64,
    /// Wall-clock seconds.
    pub seconds: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn method_wire_names_round_trip() {
        for m in Method::ALL {
            let json = serde_json::to_string(&m).unwrap();
            let back: Method = serde_json::from_str(&json).unwrap();
            assert_eq!(m, back);
            assert_eq!(Method::parse(m.name()).unwrap(), m);
        }
        assert_eq!(serde_json::to_string(&Method::BabP).unwrap(), "\"bab-p\"");
        let err = Method::parse("bap").unwrap_err();
        assert!(err.to_string().contains("bab-p"), "{err}");
    }

    #[test]
    fn absent_fields_deserialize_as_none() {
        let req: SolveRequest = serde_json::from_str(r#"{"method":"bab","budget":3}"#).unwrap();
        assert_eq!(req.method, Method::Bab);
        assert_eq!(req.budget, 3);
        assert!(req.theta.is_none() && req.campaign.is_none() && req.auto_theta.is_none());
    }
}
