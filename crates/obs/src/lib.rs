//! # oipa-obs
//!
//! First-party observability for the OIPA serving stack: a metrics
//! registry of relaxed-atomic [`Counter`]s, [`Gauge`]s, and
//! log₂-bucketed [`Histogram`]s, plus lightweight structured tracing
//! ([`Trace`] / spans) with JSONL event rendering. Zero dependencies by
//! policy (the same rule as `shims/`): the build environment has no
//! registry access, and an observability layer must cost nothing to
//! adopt.
//!
//! ## Design
//!
//! * **Recording is lock-free.** Every metric handle is an `Arc` around
//!   plain atomics; [`Counter::inc`], [`Gauge::set`], and
//!   [`Histogram::record`] are relaxed atomic ops — no locks, no
//!   allocation, nanoseconds per call whether or not anyone ever reads
//!   the registry. The only lock in the crate guards *registration*
//!   (get-or-create of a named series), which callers do once at startup
//!   and cache.
//! * **Histograms are HDR-style**: log₂ octaves refined by 64 linear
//!   sub-buckets (≤ 1.6% relative quantization error), with exact
//!   atomic `count`/`sum`/`max` on the side. Percentile readout is the
//!   ceil-rank order statistic ([`Histogram::percentile`]).
//! * **Pull, don't push.** [`Registry::render`] walks the registered
//!   series and any [collector closures](Registry::register_collector)
//!   and emits Prometheus text exposition (`text/plain; version=0.0.4`).
//!   Collectors let an existing stats source (the pool store's counters)
//!   be bridged at scrape time, so `/stats` and `/metrics` read the same
//!   atomics and can never drift.
//! * **Tracing is per-request.** A [`Trace`] carries a process-unique id
//!   and an append-only span list; [`Trace::event_jsonl`] renders one
//!   structured log line (used by the server's `--slow-ms` slow-request
//!   log).
//!
//! ```
//! use oipa_obs::Registry;
//! use std::time::Duration;
//!
//! let registry = Registry::new();
//! let hits = registry.counter("cache_hits_total", "Cache hits.", &[]);
//! let latency = registry.histogram(
//!     "request_seconds",
//!     "Request latency.",
//!     &[("endpoint", "/solve")],
//! );
//! hits.inc();
//! latency.record_duration(Duration::from_micros(250));
//! let text = registry.render();
//! assert!(text.contains("cache_hits_total 1"));
//! assert!(text.contains("request_seconds_count{endpoint=\"/solve\"} 1"));
//! ```

#![deny(missing_docs)]
#![warn(rust_2018_idioms)]

mod metrics;
mod registry;
mod trace;

pub use metrics::{Counter, Gauge, Histogram};
pub use registry::{MetricKind, PromText, Registry};
pub use trace::{json_escape, json_number, json_string, SpanRecord, Trace};

/// Wire-format version of the `/metrics` exposition this crate renders.
/// The format is **frozen additive-only**: metric names, label keys, and
/// semantics never change or disappear under one schema value — new
/// series may appear, existing ones may not be repurposed.
pub const METRICS_SCHEMA: &str = "oipa.metrics/v1";

/// The Prometheus text-exposition content type [`Registry::render`]
/// output should be served under.
pub const EXPOSITION_CONTENT_TYPE: &str = "text/plain; version=0.0.4";
