//! # oipa-baselines
//!
//! Classical influence-maximization machinery and the paper's two baseline
//! methods for OIPA (§VI-A, "Compared Methods"):
//!
//! * [`maxcover`] — lazy-greedy (CELF) maximum coverage over a fixed pool
//!   of RR sets: the core subroutine of every RR-set IM algorithm.
//! * [`paper`] — the `IM` and `TIM` baselines exactly as the paper adapts
//!   them to OIPA: run classical IM (topic-oblivious for `IM`,
//!   per-piece for `TIM`), then give the whole budget to the single best
//!   piece.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod maxcover;
pub mod paper;

pub use maxcover::greedy_max_coverage;
pub use paper::{im_baseline, tim_baseline, BaselineResult};
