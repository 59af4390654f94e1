//! # oipa-graph
//!
//! Directed-graph substrate for the OIPA reproduction of
//! *Maximizing Multifaceted Network Influence* (ICDE 2019).
//!
//! The paper's algorithms operate on a directed social graph `G(V, E)` where
//! each edge carries a topic-wise influence-probability vector. This crate
//! provides the topology half of that contract:
//!
//! * [`DiGraph`] — an immutable compressed-sparse-row (CSR) directed graph
//!   with stable edge identifiers and an always-available transpose, so that
//!   *reverse* traversals (the backbone of reverse-reachable-set sampling)
//!   can recover the original edge id of every in-edge in O(1).
//! * [`GraphBuilder`] — incremental construction with deduplication options.
//! * [`io`] — plain-text edge-list readers/writers.
//! * [`generators`] — synthetic network models (Barabási–Albert,
//!   power-law configuration model, Erdős–Rényi) used to
//!   stand in for the paper's proprietary `lastfm`/`dblp`/`tweet` datasets.
//! * [`stats`] — degree statistics and a power-law exponent estimator
//!   (the paper's §V-C complexity argument rests on the power-law principle).
//! * [`traverse`] — BFS scratch space and reachability.
//! * [`hashing`] — a small FxHash-style hasher for integer-keyed maps, so we
//!   do not pull in an external hashing crate.
//! * [`checksum`] — streaming CRC-32 shared by every checksummed binary
//!   format in the workspace (pool binio v3, the persistent pool store).
//!
//! Node ids are dense `u32` values in `0..n`; edge ids are dense `u32`
//! values in `0..m` assigned in CSR order (sorted by source node).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod binio;
mod builder;
pub mod checksum;
mod csr;
pub mod delta;
pub mod generators;
pub mod hashing;
pub mod io;
pub mod stats;
pub mod traverse;

pub use builder::{DedupPolicy, GraphBuilder};
pub use csr::{DiGraph, EdgeId, EdgeRef, NodeId};
pub use delta::{mix_fingerprint, DeltaApplication, EdgeChange, GraphDelta, Lineage, TopicProb};

/// Errors produced by graph construction and IO.
#[derive(Debug)]
pub enum GraphError {
    /// An edge endpoint was outside the declared node range.
    NodeOutOfRange {
        /// The offending node id.
        node: u64,
        /// The number of nodes in the graph.
        node_count: u64,
    },
    /// A self-loop was rejected by the active [`DedupPolicy`].
    SelfLoopRejected {
        /// The node carrying the loop.
        node: NodeId,
    },
    /// The input exceeded the `u32` node/edge-id space.
    TooLarge {
        /// Human-readable description of what overflowed.
        what: &'static str,
    },
    /// An IO or parse failure while reading an edge list.
    Io(std::io::Error),
    /// A malformed line in an edge-list file.
    Parse {
        /// 1-based line number.
        line: usize,
        /// Description of the problem.
        message: String,
    },
    /// A delta tried to insert an edge that already exists.
    EdgeExists {
        /// Source node.
        source: NodeId,
        /// Target node.
        target: NodeId,
    },
    /// A delta named an edge that does not exist (remove/reweight).
    EdgeMissing {
        /// Source node.
        source: NodeId,
        /// Target node.
        target: NodeId,
    },
}

impl std::fmt::Display for GraphError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, node_count } => {
                write!(f, "node {node} out of range (graph has {node_count} nodes)")
            }
            GraphError::SelfLoopRejected { node } => {
                write!(f, "self-loop on node {node} rejected by dedup policy")
            }
            GraphError::TooLarge { what } => write!(f, "{what} exceeds u32 id space"),
            GraphError::Io(e) => write!(f, "io error: {e}"),
            GraphError::Parse { line, message } => {
                write!(f, "parse error on line {line}: {message}")
            }
            GraphError::EdgeExists { source, target } => {
                write!(f, "edge {source} -> {target} already exists")
            }
            GraphError::EdgeMissing { source, target } => {
                write!(f, "edge {source} -> {target} does not exist")
            }
        }
    }
}

impl std::error::Error for GraphError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            GraphError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for GraphError {
    fn from(e: std::io::Error) -> Self {
        GraphError::Io(e)
    }
}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, GraphError>;
