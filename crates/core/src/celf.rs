//! Shared CELF lazy-greedy machinery: the max-heap entry used by the
//! crate's two CELF loops — the τ-bound greedy of `ComputeBound`
//! ([`greedy`](crate::greedy)) and the served envelope greedy
//! ([`relaxed`](crate::relaxed)) — with one deterministic ordering: gain
//! descending, ties broken toward the smaller `(piece, node)` pair so the
//! pop sequence is a total order independent of heap internals.

use oipa_graph::NodeId;
use std::cmp::Ordering;

/// Round marker for heap entries seeded from a cached gain vector whose
/// values are (inflated) upper bounds rather than exact current gains:
/// never equal to a live CELF round, so such entries are always
/// re-evaluated before they can be committed.
pub(crate) const STALE_ROUND: u32 = u32::MAX;

/// Sentinel for [`CelfEntry::slot`]: the entry has no capture-vector slot.
pub(crate) const NO_SLOT: u32 = u32::MAX;

/// One CELF heap entry: a candidate assignment and the last gain computed
/// for it, tagged with the greedy round of that computation.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CelfEntry {
    /// Last known (upper bound on the) marginal gain.
    pub gain: f64,
    /// Piece index.
    pub j: u32,
    /// Candidate promoter.
    pub v: NodeId,
    /// Round the gain was computed in (`STALE_ROUND` = never fresh).
    pub round: u32,
    /// Back-pointer into the bound's seed-capture vector (`NO_SLOT` when
    /// capture is off), letting pre-commit re-evaluations tighten the
    /// captured upper bounds in place.
    pub slot: u32,
}

impl PartialEq for CelfEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for CelfEntry {}
impl PartialOrd for CelfEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for CelfEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.gain
            .partial_cmp(&other.gain)
            .expect("gains are finite")
            .then_with(|| other.j.cmp(&self.j))
            .then_with(|| other.v.cmp(&self.v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BinaryHeap;

    #[test]
    fn pop_order_is_gain_desc_then_candidate_asc() {
        let mut heap = BinaryHeap::new();
        for (gain, j, v) in [(1.0, 1u32, 7u32), (2.0, 0, 0), (1.0, 0, 9), (1.0, 0, 2)] {
            heap.push(CelfEntry {
                gain,
                j,
                v,
                round: 0,
                slot: NO_SLOT,
            });
        }
        let order: Vec<(u32, u32)> =
            std::iter::from_fn(|| heap.pop().map(|e| (e.j, e.v))).collect();
        assert_eq!(order, vec![(0, 0), (0, 2), (0, 9), (1, 7)]);
    }
}
