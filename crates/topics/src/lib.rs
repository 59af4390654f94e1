//! # oipa-topics
//!
//! Topic-aware influence-model substrate for the OIPA reproduction.
//!
//! The paper (§III-A) adopts the topic-aware independent-cascade family of
//! models: a hidden topic set `Z`, per-edge topic-wise influence
//! probabilities `p(e|z)`, and viral pieces `t` described by topic
//! distributions, with the effective pass-through probability
//! `p(t, e) = t · p(e)`. This crate provides:
//!
//! * [`TopicVector`] — dense probability vectors over topics (pieces, user
//!   interests) and [`SparseTopicVector`] — the per-edge `p(e)` rows, which
//!   in real data are very sparse (the paper reports an average of 1.5
//!   non-zero entries per edge on `tweet`).
//! * [`Piece`] / [`Campaign`] — the multifaceted campaign `T = {t_1..t_ℓ}`.
//! * [`EdgeTopicProbs`] — the `p(e|z)` table for a whole graph, with
//!   [`EdgeTopicProbs::materialize`] producing the homogeneous influence
//!   graph `G_t` for one piece (the paper's Fig. 1b/1c construction).
//! * [`LogisticAdoption`] — the user adoption model of Eqn. (1), including
//!   the zero-coverage "otherwise" branch.
//! * [`tic`] — a TIC-style EM learner recovering `p(e|z)` from action logs
//!   (the paper learns `lastfm` probabilities this way, citing (ref 3)).
//! * [`lda`] — collapsed-Gibbs LDA used to derive user topic distributions
//!   from hashtag documents (the paper's `tweet` preparation, citing (ref 5)).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod adoption;
pub mod binio;
mod campaign;
mod edge_probs;
pub mod lda;
pub mod tic;
mod vector;

pub use adoption::{sigmoid, sigmoid_derivative, LogisticAdoption};
pub use campaign::{Campaign, Piece};
pub use edge_probs::{
    from_user_profiles, synthesize_random, EdgeProbsBuilder, EdgeTopicProbs, SynthesisParams,
};
pub use vector::{SparseTopicVector, TopicVector};

/// Errors from topic-model construction.
#[derive(Debug)]
pub enum TopicError {
    /// A probability fell outside `[0, 1]`.
    BadProbability {
        /// The offending value.
        value: f64,
    },
    /// Topic-vector dimensions disagreed.
    DimensionMismatch {
        /// Expected dimension.
        expected: usize,
        /// Actual dimension.
        actual: usize,
    },
    /// Edge-probability table does not cover the graph's edges.
    EdgeCountMismatch {
        /// Edges in the graph.
        graph_edges: usize,
        /// Rows in the table.
        table_rows: usize,
    },
    /// A topic id exceeded the declared topic count.
    TopicOutOfRange {
        /// The offending topic id.
        topic: usize,
        /// The number of topics.
        topic_count: usize,
    },
    /// A binary (de)serialization failure (bad magic, truncation, IO).
    Serialization(String),
    /// A sparse row listed the same topic twice.
    DuplicateTopic {
        /// The repeated topic id.
        topic: usize,
    },
}

impl std::fmt::Display for TopicError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopicError::BadProbability { value } => {
                write!(f, "probability {value} outside [0, 1]")
            }
            TopicError::DimensionMismatch { expected, actual } => {
                write!(
                    f,
                    "topic dimension mismatch: expected {expected}, got {actual}"
                )
            }
            TopicError::EdgeCountMismatch {
                graph_edges,
                table_rows,
            } => write!(
                f,
                "edge-probability table has {table_rows} rows but graph has {graph_edges} edges"
            ),
            TopicError::TopicOutOfRange { topic, topic_count } => {
                write!(f, "topic {topic} out of range (|Z| = {topic_count})")
            }
            TopicError::Serialization(msg) => write!(f, "serialization error: {msg}"),
            TopicError::DuplicateTopic { topic } => {
                write!(f, "topic {topic} listed twice in a sparse row")
            }
        }
    }
}

impl std::error::Error for TopicError {}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, TopicError>;
