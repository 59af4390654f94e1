//! # oipa-sampler
//!
//! Reverse-reachable-set sampling engine for the OIPA reproduction.
//!
//! The paper estimates the adoption utility (AU) of an assignment plan via
//! **Multi-Reverse-Reachable (MRR) sets** (§V-A): sample θ root users
//! uniformly; for each root, build one reverse-reachable set per viral
//! piece `t_j` under the piece's homogeneous influence graph
//! (`p(t_j, e) = t_j · p(e)`). The AU estimator is then
//!
//! ```text
//! σ(S̄) ≈ n/θ · Σ_i  1 / (1 + exp(α − β · Σ_j I[R_i^j ∩ S_j ≠ ∅]))
//! ```
//!
//! This crate provides:
//!
//! * [`RrPool`] — θ single-piece RR sets with an inverted node→samples
//!   index (what classical IM greedy consumes);
//! * [`MrrPool`] — the multi-piece extension sharing one root sequence
//!   across pieces, as required by Lemma 2's unbiasedness argument;
//! * [`EdgeProb`] — the edge-probability abstraction (materialized vector
//!   or on-the-fly `t · p(e)` dot products);
//! * [`LiveInEdges`] — one piece's in-edges with `p > 0`, each with an
//!   integer threshold, built from an [`EdgeProb`] once per pool (or, for
//!   pools with fewer walks than a quarter of the nodes, read row by row
//!   from it): every RR-set walk ([`sample_rr_set`]) runs over it,
//!   drawing one 24-bit integer per edge it probes;
//! * [`simulate`] — forward Monte-Carlo cascade simulation, the ground
//!   truth against which the estimator is validated.
//!
//! Generation is deterministic given a seed, *independent of thread count*:
//! the parallel generator partitions the sample range into fixed chunks,
//! each derived from the base seed.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod binio;
mod edge_prob;
mod mrr;
mod rr;
pub mod simulate;
pub mod testkit;

pub use edge_prob::{EdgeProb, MaterializedProbs, PieceProbs};
pub use mrr::{MrrPool, PoolBuildError, RepairOutcome, MAX_PIECES};
pub use rr::{sample_rr_set, LiveInEdges, RrPool, RrStore};
