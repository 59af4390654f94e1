//! Typed errors for the OIPA solver stack.
//!
//! Historically the workspace validated inputs with `assert!` (a backtrace
//! on bad user input) and reported failures as bare `String`s. This module
//! replaces both with one [`OipaError`] enum that is threaded through
//! `oipa-core`, `oipa-service`, and `oipa-cli`, so every layer can react
//! to the *kind* of failure: the CLI maps user errors to exit code 2 and
//! environment failures to exit code 1, and the service serializes them
//! into per-request error responses instead of tearing the session down.

/// Every way an OIPA request can fail, with actionable messages.
#[derive(Debug, Clone, PartialEq)]
pub enum OipaError {
    /// The budget `k` was zero (a plan must hold at least one assignment).
    InvalidBudget,
    /// The promoter pool was empty after deduplication.
    EmptyPromoters,
    /// A promoter id referenced a node outside the graph.
    PromoterOutOfRange {
        /// The offending promoter id.
        promoter: u32,
        /// The graph's node count (valid ids are `0..node_count`).
        node_count: usize,
    },
    /// A configuration value was out of its documented domain.
    InvalidConfig {
        /// What was wrong and what the valid domain is.
        what: String,
    },
    /// A method needs an input the caller did not provide.
    MissingInput {
        /// The missing input.
        what: String,
        /// How to provide it.
        hint: String,
    },
    /// A method name did not match any registered solver.
    UnknownMethod {
        /// The unrecognized name.
        got: String,
        /// The registered solver names.
        known: Vec<String>,
    },
    /// The instance is too large for the requested method.
    TooLarge {
        /// What exceeded the limit (e.g. "brute-force candidates").
        what: String,
        /// The hard limit.
        limit: usize,
        /// The observed size.
        got: usize,
    },
    /// Two inputs that must describe the same universe disagree.
    Mismatch {
        /// A description of the disagreement.
        what: String,
    },
    /// A filesystem or serialization failure (environment, not user input).
    Io {
        /// What was being read or written.
        what: String,
        /// The underlying error message.
        detail: String,
    },
}

impl OipaError {
    /// Shorthand for an [`OipaError::InvalidConfig`].
    pub fn config(what: impl Into<String>) -> Self {
        OipaError::InvalidConfig { what: what.into() }
    }

    /// The conventional process exit code for this error: `2` for user
    /// errors (bad flags, bad request fields, malformed input files) and
    /// `1` for environment failures (I/O).
    pub fn exit_code(&self) -> i32 {
        match self {
            OipaError::Io { .. } => 1,
            _ => 2,
        }
    }
}

impl std::fmt::Display for OipaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OipaError::InvalidBudget => {
                write!(f, "budget must be at least 1 (set `budget`/`--k` to a positive integer)")
            }
            OipaError::EmptyPromoters => write!(
                f,
                "promoter pool is empty; provide at least one promoter id or a positive promoter fraction"
            ),
            OipaError::PromoterOutOfRange {
                promoter,
                node_count,
            } => write!(
                f,
                "promoter id {promoter} is out of range for a graph with {node_count} nodes (valid ids: 0..{node_count})"
            ),
            OipaError::InvalidConfig { what } => write!(f, "invalid configuration: {what}"),
            OipaError::MissingInput { what, hint } => {
                write!(f, "missing input: {what} ({hint})")
            }
            OipaError::UnknownMethod { got, known } => write!(
                f,
                "unknown method {got:?}; registered solvers: {}",
                known.join(", ")
            ),
            OipaError::TooLarge { what, limit, got } => write!(
                f,
                "{what} exceeds the limit: {got} > {limit}; shrink the instance or pick another method"
            ),
            OipaError::Mismatch { what } => write!(f, "input mismatch: {what}"),
            OipaError::Io { what, detail } => write!(f, "{what}: {detail}"),
        }
    }
}

impl std::error::Error for OipaError {}

impl From<oipa_sampler::PoolBuildError> for OipaError {
    fn from(e: oipa_sampler::PoolBuildError) -> Self {
        match e {
            oipa_sampler::PoolBuildError::TooManyPieces(got) => OipaError::TooLarge {
                what: "campaign piece count ℓ".to_string(),
                limit: oipa_sampler::MAX_PIECES,
                got,
            },
            other => OipaError::Mismatch {
                what: other.to_string(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn user_errors_exit_2_io_exits_1() {
        assert_eq!(OipaError::InvalidBudget.exit_code(), 2);
        assert_eq!(OipaError::EmptyPromoters.exit_code(), 2);
        assert_eq!(
            OipaError::Io {
                what: "reading pool".into(),
                detail: "no such file".into()
            }
            .exit_code(),
            1
        );
    }

    #[test]
    fn messages_are_actionable() {
        let e = OipaError::PromoterOutOfRange {
            promoter: 9,
            node_count: 5,
        };
        let msg = e.to_string();
        assert!(msg.contains('9') && msg.contains("0..5"), "{msg}");
        assert!(OipaError::InvalidBudget.to_string().contains("--k"));
    }
}
