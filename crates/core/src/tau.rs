//! The submodular upper bound τ over MRR sets (Definition 6).
//!
//! `TauState` maintains, for every MRR sample `i`:
//!
//! * which pieces are covered (`covered` bitset over `(i, j)`),
//! * the current coverage count `c_i`,
//! * the anchor `c⁰_i` — the coverage under the partial plan `S̄ᵃ`, which
//!   selects the tangent majorant from the [`TangentTable`] (the paper's
//!   per-sample "refinement" of Fig. 2).
//!
//! The struct is a reusable workspace with **two ways to move between
//! partial plans**:
//!
//! * [`TauState::reset_to`] — full re-anchor: clear everything touched and
//!   replay the plan (the original API, still used to (re)synchronize from
//!   scratch);
//! * trail-based push/pop — [`TauState::mark`] records a checkpoint,
//!   [`TauState::assign`] extends the partial plan in place (refining
//!   anchors), [`TauState::add`] applies exploratory greedy assignments on
//!   top, and [`TauState::pop_to`] rewinds to a checkpoint by undoing the
//!   recorded trail. Sibling branch-and-bound nodes that share a plan
//!   prefix pop back to the shared prefix instead of replaying the whole
//!   plan, which keeps per-node cost proportional to the work actually
//!   undone/redone.
//!
//! All bookkeeping mutated by the trail is *integral* (bits, counts,
//! anchors), so a state reached by any interleaving of pushes, pops and
//! resets is exactly — bit for bit — the state a fresh replay of the same
//! plan produces. The floating-point totals `Σ_i τ_i(c_i)` and
//! `Σ_i σ_i(c_i)` (in *sample units*; multiply by `n/θ` for user units)
//! are therefore not maintained incrementally at all: [`TauState::totals`]
//! folds over the touched samples in ascending sample order, an
//! order-independent function of the integer state. That determinism is
//! what lets the incremental branch-and-bound engine promise bitwise
//! identical plans to the reference engine (see `bab.rs`).
//!
//! Marginal gains and commits are O(index row) via the pool's inverted
//! index.

use crate::plan::AssignmentPlan;
use crate::tangent::TangentTable;
use oipa_graph::NodeId;
use oipa_sampler::MrrPool;
use oipa_topics::LogisticAdoption;

/// A checkpoint returned by [`TauState::mark`] and consumed by
/// [`TauState::pop_to`]. Marks are invalidated by [`TauState::reset_to`]
/// (enforced via a generation counter).
#[derive(Debug, Clone, Copy)]
pub struct TrailMark {
    trail_len: usize,
    touched_len: usize,
    generation: u32,
}

/// Trail entry: sample in the high 32 bits, piece in bits 1.., and bit 0
/// set when the entry also bumped the sample's anchor (an [`TauState::assign`]).
const ANCHOR_FLAG: u64 = 1;

/// Incremental τ / σ accounting over an MRR pool.
pub struct TauState<'a> {
    pool: &'a MrrPool,
    table: &'a TangentTable,
    ell: usize,
    /// Bitset over `i·ℓ + j`.
    covered: Vec<u64>,
    /// Current coverage count per sample.
    count: Vec<u8>,
    /// Anchor coverage per sample (coverage under the partial plan).
    anchor: Vec<u8>,
    /// Samples with any state to clear on reset (stack-ordered: trail pops
    /// truncate it).
    touched: Vec<u32>,
    /// Bitset over samples with `count > 0` — drives the index-ordered
    /// totals fold.
    active: Vec<u64>,
    /// Undo trail for `assign`/`add`.
    trail: Vec<u64>,
    /// Bumped by `reset_to`; stale marks are rejected.
    generation: u32,
    /// σ lookup per coverage.
    sigma_by_coverage: Vec<f64>,
    /// τ value of a fully untouched sample (anchor 0, coverage 0).
    tau_floor: f64,
    /// Number of marginal-gain evaluations since construction (the paper's
    /// complexity metric in §V-C).
    pub evaluations: u64,
    /// Trail entries recorded since construction (samples traversed by
    /// `assign`/`add`, including replays inside `reset_to`).
    pub trail_pushed: u64,
    /// Trail entries undone since construction.
    pub trail_popped: u64,
}

impl<'a> TauState<'a> {
    /// Creates a state anchored on the empty plan.
    pub fn new(pool: &'a MrrPool, table: &'a TangentTable, model: LogisticAdoption) -> Self {
        assert_eq!(pool.ell(), table.ell(), "table must match pool piece count");
        let ell = pool.ell();
        let theta = pool.theta();
        let tau_floor = table.value(0, 0);
        let sigma_by_coverage = (0..=ell).map(|c| model.adoption_prob(c)).collect();
        TauState {
            pool,
            table,
            ell,
            covered: vec![0u64; (theta * ell).div_ceil(64)],
            count: vec![0; theta],
            anchor: vec![0; theta],
            touched: Vec::new(),
            active: vec![0u64; theta.div_ceil(64)],
            trail: Vec::new(),
            generation: 0,
            sigma_by_coverage,
            tau_floor,
            evaluations: 0,
            trail_pushed: 0,
            trail_popped: 0,
        }
    }

    #[inline]
    fn bit(&self, i: usize, j: usize) -> bool {
        let idx = i * self.ell + j;
        self.covered[idx / 64] >> (idx % 64) & 1 == 1
    }

    #[inline]
    fn set_bit(&mut self, i: usize, j: usize) {
        let idx = i * self.ell + j;
        self.covered[idx / 64] |= 1 << (idx % 64);
    }

    #[inline]
    fn clear_bit(&mut self, i: usize, j: usize) {
        let idx = i * self.ell + j;
        self.covered[idx / 64] &= !(1 << (idx % 64));
    }

    #[inline]
    fn clear_sample(&mut self, i: usize) {
        for j in 0..self.ell {
            let idx = i * self.ell + j;
            self.covered[idx / 64] &= !(1 << (idx % 64));
        }
        self.count[i] = 0;
        self.anchor[i] = 0;
        self.active[i / 64] &= !(1 << (i % 64));
    }

    /// Re-anchors the state on a partial plan: applies its assignments and
    /// freezes each touched sample's anchor at its coverage — the
    /// refinement step at the top of Algorithms 2 and 3 ("Refine τ(·|S̄ᵃ)").
    ///
    /// Clears the trail and invalidates outstanding [`TrailMark`]s; use it
    /// to (re)synchronize from scratch, and the `mark`/`assign`/`pop_to`
    /// trio to move between nearby plans.
    pub fn reset_to(&mut self, partial: &AssignmentPlan) {
        assert_eq!(partial.ell(), self.ell, "plan piece count must match");
        for ti in std::mem::take(&mut self.touched) {
            self.clear_sample(ti as usize);
        }
        self.trail.clear();
        self.generation = self.generation.wrapping_add(1);
        for (j, v) in partial.assignments() {
            self.assign(j, v);
        }
        // The replay is now the baseline: nothing below it can be popped.
        self.trail.clear();
    }

    /// Extends the partial plan in place: commits `v` to piece `j` *and*
    /// refreezes the anchors of every newly covered sample (the same state
    /// [`TauState::reset_to`] produces for the extended plan). Records the
    /// trail so [`TauState::pop_to`] can rewind.
    ///
    /// Must be called on a partial-plan state (no outstanding
    /// [`TauState::add`]s), where every sample satisfies `anchor == count`.
    pub fn assign(&mut self, j: usize, v: NodeId) {
        let pool = self.pool;
        for &i in pool.samples_containing(j, v) {
            let i = i as usize;
            if self.bit(i, j) {
                continue;
            }
            debug_assert_eq!(
                self.anchor[i], self.count[i],
                "assign on a state with exploratory adds"
            );
            self.set_bit(i, j);
            if self.count[i] == 0 {
                self.touched.push(i as u32);
                self.active[i / 64] |= 1 << (i % 64);
            }
            self.count[i] += 1;
            self.anchor[i] = self.count[i];
            self.trail
                .push((i as u64) << 32 | (j as u64) << 1 | ANCHOR_FLAG);
            self.trail_pushed += 1;
        }
    }

    /// Commits `v` to piece `j` without moving anchors — the exploratory
    /// add used inside bound computations. Trail-recorded like
    /// [`TauState::assign`].
    pub fn add(&mut self, j: usize, v: NodeId) {
        let pool = self.pool;
        for &i in pool.samples_containing(j, v) {
            let i = i as usize;
            if self.bit(i, j) {
                continue;
            }
            self.set_bit(i, j);
            if self.count[i] == 0 {
                self.touched.push(i as u32);
                self.active[i / 64] |= 1 << (i % 64);
            }
            self.count[i] += 1;
            self.trail.push((i as u64) << 32 | (j as u64) << 1);
            self.trail_pushed += 1;
        }
    }

    /// Checkpoints the current state for a later [`TauState::pop_to`].
    #[inline]
    pub fn mark(&self) -> TrailMark {
        TrailMark {
            trail_len: self.trail.len(),
            touched_len: self.touched.len(),
            generation: self.generation,
        }
    }

    /// Rewinds to a checkpoint by undoing every trail entry recorded since
    /// [`TauState::mark`], restoring bits, counts and anchors exactly.
    ///
    /// Panics if the mark predates a [`TauState::reset_to`] or a deeper
    /// pop (stack discipline is required).
    pub fn pop_to(&mut self, mark: TrailMark) {
        assert_eq!(mark.generation, self.generation, "mark predates a reset_to");
        assert!(
            mark.trail_len <= self.trail.len(),
            "mark was already popped"
        );
        while self.trail.len() > mark.trail_len {
            let entry = self.trail.pop().expect("trail length checked");
            let i = (entry >> 32) as usize;
            let j = ((entry >> 1) & 0x7fff_ffff) as usize;
            self.clear_bit(i, j);
            self.count[i] -= 1;
            if entry & ANCHOR_FLAG != 0 {
                self.anchor[i] -= 1;
            }
            if self.count[i] == 0 {
                self.active[i / 64] &= !(1 << (i % 64));
            }
            self.trail_popped += 1;
        }
        self.touched.truncate(mark.touched_len);
    }

    /// The τ marginal gain of adding `v` to piece `j` (sample units).
    pub fn gain(&mut self, j: usize, v: NodeId) -> f64 {
        self.evaluations += 1;
        let mut acc = 0.0f64;
        for &i in self.pool.samples_containing(j, v) {
            let i = i as usize;
            if self.bit(i, j) {
                continue;
            }
            acc += self
                .table
                .marginal(self.anchor[i] as usize, self.count[i] as usize);
        }
        acc
    }

    /// Applies `f` to every active (count > 0) sample in ascending sample
    /// order — the one canonical iteration every total accessor shares,
    /// so their accumulation orders can never diverge.
    #[inline]
    fn for_each_active(&self, mut f: impl FnMut(usize)) {
        for (w, &word) in self.active.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                let i = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                f(i);
            }
        }
    }

    /// Current `(Σ τ_i, Σ σ_i)` in sample units, folded over touched
    /// samples in ascending sample order — a deterministic function of the
    /// integer coverage state, independent of how that state was reached.
    pub fn totals(&self) -> (f64, f64) {
        let mut tau = 0.0f64;
        let mut sigma = 0.0f64;
        self.for_each_active(|i| {
            tau += self
                .table
                .value(self.anchor[i] as usize, self.count[i] as usize);
            sigma += self.sigma_by_coverage[self.count[i] as usize];
        });
        tau += (self.pool.theta() - self.touched.len()) as f64 * self.tau_floor;
        (tau, sigma)
    }

    /// Current Σ τ_i (sample units). Same accumulation order as
    /// [`TauState::totals`] (bit-identical result), without the σ work.
    pub fn tau_total(&self) -> f64 {
        let mut tau = 0.0f64;
        self.for_each_active(|i| {
            tau += self
                .table
                .value(self.anchor[i] as usize, self.count[i] as usize);
        });
        tau + (self.pool.theta() - self.touched.len()) as f64 * self.tau_floor
    }

    /// Current Σ σ_i (sample units). Same accumulation order as
    /// [`TauState::totals`] (bit-identical result), without the τ table
    /// lookups — this is the per-node read the brute-force enumeration
    /// leans on.
    pub fn sigma_total(&self) -> f64 {
        let mut sigma = 0.0f64;
        self.for_each_active(|i| {
            sigma += self.sigma_by_coverage[self.count[i] as usize];
        });
        sigma
    }

    /// Scale factor to user units.
    #[inline]
    pub fn scale(&self) -> f64 {
        self.pool.scale()
    }

    /// The pool under evaluation.
    #[inline]
    pub fn pool(&self) -> &'a MrrPool {
        self.pool
    }

    /// The tangent table in use.
    #[inline]
    pub fn table(&self) -> &'a TangentTable {
        self.table
    }

    /// Number of pieces.
    #[inline]
    pub fn ell(&self) -> usize {
        self.ell
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tangent::TangentTable;
    use oipa_sampler::testkit::fig1;
    use oipa_sampler::MrrPool;
    use oipa_topics::LogisticAdoption;

    fn setup(theta: usize) -> (MrrPool, TangentTable, LogisticAdoption) {
        let (g, table, campaign) = fig1();
        let pool = MrrPool::generate(&g, &table, &campaign, theta, 31);
        let model = LogisticAdoption::example();
        let tt = TangentTable::new(model, campaign.len());
        (pool, tt, model)
    }

    #[test]
    fn tau_dominates_sigma_along_greedy_path() {
        let (pool, tt, model) = setup(20_000);
        let mut state = TauState::new(&pool, &tt, model);
        state.reset_to(&AssignmentPlan::empty(2));
        assert!(state.tau_total() >= state.sigma_total());
        for &(j, v) in &[(0usize, 0u32), (1, 4), (0, 1), (1, 3)] {
            state.add(j, v);
            assert!(
                state.tau_total() + 1e-9 >= state.sigma_total(),
                "τ {} < σ {} after ({j},{v})",
                state.tau_total(),
                state.sigma_total()
            );
        }
    }

    #[test]
    fn gain_matches_commit_delta() {
        let (pool, tt, model) = setup(10_000);
        let mut state = TauState::new(&pool, &tt, model);
        state.reset_to(&AssignmentPlan::empty(2));
        for &(j, v) in &[(0usize, 0u32), (1, 4), (0, 2)] {
            let before = state.tau_total();
            let gain = state.gain(j, v);
            state.add(j, v);
            let delta = state.tau_total() - before;
            assert!(
                (gain - delta).abs() < 1e-9,
                "gain {gain} != delta {delta} for ({j},{v})"
            );
        }
    }

    #[test]
    fn double_add_is_idempotent() {
        let (pool, tt, model) = setup(5_000);
        let mut state = TauState::new(&pool, &tt, model);
        state.reset_to(&AssignmentPlan::empty(2));
        state.add(0, 0);
        let tau1 = state.tau_total();
        let sigma1 = state.sigma_total();
        state.add(0, 0);
        assert_eq!(state.tau_total(), tau1);
        assert_eq!(state.sigma_total(), sigma1);
        assert!((state.gain(0, 0)).abs() < 1e-12);
    }

    #[test]
    fn sigma_matches_estimator() {
        let (pool, tt, model) = setup(30_000);
        let mut state = TauState::new(&pool, &tt, model);
        let plan = AssignmentPlan::from_sets(vec![vec![0], vec![4]]);
        state.reset_to(&AssignmentPlan::empty(2));
        state.add(0, 0);
        state.add(1, 4);
        let mut est = crate::estimator::AuEstimator::new(&pool, model);
        let expect = est.evaluate(&plan);
        let got = state.sigma_total() * state.scale();
        assert!(
            (got - expect).abs() < 1e-9,
            "incremental σ {got} vs estimator {expect}"
        );
    }

    #[test]
    fn reset_refines_anchors_and_tightens_tau() {
        let (pool, tt, model) = setup(20_000);
        // τ of the same final coverage is tighter when anchored at the
        // partial plan than when anchored at ∅ (refinement property).
        let mut fresh = TauState::new(&pool, &tt, model);
        fresh.reset_to(&AssignmentPlan::empty(2));
        fresh.add(0, 0);
        fresh.add(1, 4);
        let tau_unrefined = fresh.tau_total();

        let partial = AssignmentPlan::from_sets(vec![vec![0], vec![4]]);
        let mut refined = TauState::new(&pool, &tt, model);
        refined.reset_to(&partial);
        let tau_refined = refined.tau_total();
        assert!(
            tau_refined <= tau_unrefined + 1e-9,
            "refined τ {tau_refined} must not exceed unrefined {tau_unrefined}"
        );
        // And still dominates σ.
        assert!(tau_refined + 1e-9 >= refined.sigma_total());
    }

    #[test]
    fn reset_clears_previous_state() {
        let (pool, tt, model) = setup(5_000);
        let mut state = TauState::new(&pool, &tt, model);
        state.reset_to(&AssignmentPlan::empty(2));
        let tau_empty = state.tau_total();
        state.add(0, 0);
        state.add(1, 4);
        state.reset_to(&AssignmentPlan::empty(2));
        assert!((state.tau_total() - tau_empty).abs() < 1e-9);
        assert_eq!(state.sigma_total(), 0.0);
        // Re-adding works identically after reset.
        let g1 = state.gain(0, 0);
        assert!(g1 > 0.0);
    }

    #[test]
    fn submodularity_of_gains() {
        // τ gains are nonincreasing as the plan grows (the whole point of
        // the majorant construction).
        let (pool, tt, model) = setup(20_000);
        let mut state = TauState::new(&pool, &tt, model);
        state.reset_to(&AssignmentPlan::empty(2));
        let g_before = state.gain(1, 4);
        state.add(0, 0);
        let g_after = state.gain(1, 4);
        assert!(
            g_after <= g_before + 1e-9,
            "gain grew: {g_before} -> {g_after}"
        );
    }

    #[test]
    fn pop_restores_bitwise_state() {
        let (pool, tt, model) = setup(15_000);
        let mut state = TauState::new(&pool, &tt, model);
        let partial = AssignmentPlan::from_sets(vec![vec![1], vec![]]);
        state.reset_to(&partial);
        let (tau0, sigma0) = state.totals();
        let g0 = state.gain(1, 4);
        let mark = state.mark();
        state.add(0, 0);
        state.add(1, 4);
        assert!(state.sigma_total() > sigma0);
        state.pop_to(mark);
        let (tau1, sigma1) = state.totals();
        assert_eq!(tau0.to_bits(), tau1.to_bits());
        assert_eq!(sigma0.to_bits(), sigma1.to_bits());
        assert_eq!(g0.to_bits(), state.gain(1, 4).to_bits());
    }

    #[test]
    fn assign_path_matches_reset_bitwise() {
        let (pool, tt, model) = setup(15_000);
        // Build {{0,1},{4}} two ways: reset_to, and out-of-order assigns.
        let plan = AssignmentPlan::from_sets(vec![vec![0, 1], vec![4]]);
        let mut by_reset = TauState::new(&pool, &tt, model);
        by_reset.reset_to(&plan);
        let mut by_assign = TauState::new(&pool, &tt, model);
        by_assign.assign(1, 4);
        by_assign.assign(0, 1);
        by_assign.assign(0, 0);
        let (t1, s1) = by_reset.totals();
        let (t2, s2) = by_assign.totals();
        assert_eq!(t1.to_bits(), t2.to_bits());
        assert_eq!(s1.to_bits(), s2.to_bits());
        for j in 0..2usize {
            for v in 0..5u32 {
                assert_eq!(
                    by_reset.gain(j, v).to_bits(),
                    by_assign.gain(j, v).to_bits(),
                    "gain mismatch at ({j},{v})"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "mark predates a reset_to")]
    fn stale_mark_rejected() {
        let (pool, tt, model) = setup(1_000);
        let mut state = TauState::new(&pool, &tt, model);
        state.reset_to(&AssignmentPlan::empty(2));
        let mark = state.mark();
        state.reset_to(&AssignmentPlan::empty(2));
        state.pop_to(mark);
    }

    #[test]
    fn trail_counters_advance() {
        let (pool, tt, model) = setup(2_000);
        let mut state = TauState::new(&pool, &tt, model);
        state.reset_to(&AssignmentPlan::empty(2));
        let mark = state.mark();
        state.add(0, 0);
        assert!(state.trail_pushed > 0);
        let pushed = state.trail_pushed;
        state.pop_to(mark);
        assert_eq!(state.trail_popped, pushed);
    }
}
