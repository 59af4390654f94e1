//! `ComputeBound` — Algorithm 2: greedy maximization of the submodular
//! upper bound τ to estimate the potential of a partial plan.
//!
//! Two implementations share one interface:
//!
//! * [`compute_bound_plain`] — the paper's pseudocode verbatim: every
//!   iteration rescans all available promoters (O(k·n) τ evaluations, the
//!   cost §V-C complains about);
//! * [`compute_bound_celf`] — the same greedy with CELF lazy evaluation
//!   (valid because τ is submodular): stale gains sit in a max-heap and
//!   are only recomputed when popped. Identical output, far fewer
//!   evaluations. This is the default inside branch-and-bound;
//!   `bench_solver`'s `bab-plain` rows, beside its `bab-celf` rows,
//!   quantify the difference.
//!
//! [`compute_bound_celf_with`] additionally supports **cross-node gain
//! caching**: instead of re-evaluating every `(piece, promoter)` singleton
//! gain to seed the heap, a caller may seed it from a [`SeedEntry`] vector
//! captured at an ancestor search node ([`CelfSeeding::Cached`]). As long
//! as the cached values are valid *upper bounds* on the current gains
//! (singleton τ gains only shrink as coverage grows at fixed anchors, and
//! anchor refinement is covered by the certified
//! [`TangentTable::diagonal_inflation`](crate::tangent::TangentTable::diagonal_inflation)
//! factor), CELF provably commits the exact same selections: an entry is
//! only committed once its gain is re-evaluated in the current round, at
//! which point it dominates every other candidate's upper bound, so the
//! commit is the true argmax under the deterministic `(piece, node)`
//! tie-break regardless of what the seed values were.

use crate::celf::{CelfEntry, NO_SLOT, STALE_ROUND};
use crate::plan::AssignmentPlan;
use crate::tau::TauState;
use oipa_graph::hashing::FxHashSet;
use oipa_graph::NodeId;
use std::collections::BinaryHeap;

/// Output of a bound computation (Algorithm 2 line 7 / Algorithm 3 line 16).
#[derive(Debug, Clone)]
pub struct BoundResult {
    /// The completed candidate plan `S̄ ∪ S̄ᵃ`.
    pub plan: AssignmentPlan,
    /// Exact MRR estimate σ̂ of the candidate plan (sample units).
    pub sigma: f64,
    /// The upper bound τ(S̄|S̄ᵃ) (sample units).
    pub tau: f64,
    /// The first greedy selection — used by the branch-and-bound driver as
    /// its branching variable `v*` (the highest-gain available candidate,
    /// matching the power-law prioritization of §V).
    pub first_pick: Option<(usize, NodeId)>,
}

/// A cached singleton gain `(gain, piece, node)` captured during a bound
/// computation's seeding scan, reusable to seed descendant-node bounds.
#[derive(Debug, Clone, Copy)]
pub struct SeedEntry {
    /// The singleton τ gain at the capturing node's partial-plan state.
    pub gain: f64,
    /// Piece index.
    pub j: u32,
    /// Candidate promoter.
    pub v: NodeId,
}

/// How [`compute_bound_celf_with`] seeds its CELF heap.
#[derive(Debug, Clone, Copy)]
pub enum CelfSeeding<'s> {
    /// Evaluate every available candidate's singleton gain (the reference
    /// behavior, O(ℓ·|Vᵖ|) τ evaluations).
    Fresh,
    /// Seed from a gain vector cached at the current node state (for
    /// exclude-branch reuse) or one push away from it (include-branch
    /// reuse), multiplied by `inflate` (≥ 1) to keep the values valid
    /// upper bounds. With `exact` the values are *exactly* what a fresh
    /// scan would compute here, so entries enter the heap "fresh";
    /// otherwise they enter stale, forcing re-evaluation before any
    /// commit — which preserves the committed selections bit for bit.
    Cached {
        /// The cached gains (candidates absent from the slice had zero
        /// gain at the capturing state, hence zero at the current one).
        entries: &'s [SeedEntry],
        /// Certified inflation factor making the values upper bounds at
        /// the current state (1.0 when the vector is already valid here).
        inflate: f64,
        /// Whether the (un-inflated) values are exact at this state.
        exact: bool,
    },
}

/// A candidate assignment `(piece, node)` packed for exclusion sets.
#[inline]
pub(crate) fn pack(j: usize, v: NodeId) -> u64 {
    ((j as u64) << 32) | v as u64
}

/// Candidate availability: not excluded, not already in the plan.
#[inline]
pub(crate) fn available(
    plan: &AssignmentPlan,
    excluded: &FxHashSet<u64>,
    j: usize,
    v: NodeId,
) -> bool {
    !excluded.contains(&pack(j, v)) && !plan.contains(j, v)
}

/// Algorithm 2 with CELF lazy evaluation and a fresh seeding scan.
///
/// `state` must already be anchored on `partial` (via
/// [`TauState::reset_to`] or an equivalent `assign` path). Selects up to
/// `k − |partial|` assignments from `promoters × pieces` excluding
/// `excluded`, maximizing τ.
pub fn compute_bound_celf(
    state: &mut TauState<'_>,
    partial: &AssignmentPlan,
    promoters: &[NodeId],
    excluded: &FxHashSet<u64>,
    k: usize,
) -> BoundResult {
    compute_bound_celf_with(
        state,
        partial,
        promoters,
        excluded,
        k,
        CelfSeeding::Fresh,
        None,
    )
}

/// Algorithm 2 with CELF lazy evaluation, cached-seed support, and
/// optional capture of a seed vector for descendant reuse.
///
/// With [`CelfSeeding::Fresh`], `capture` receives one [`SeedEntry`] per
/// positive-gain candidate — exactly the entries the heap was seeded
/// with (exact gains at this state). With [`CelfSeeding::Cached`],
/// `capture` receives the *effective* seed values (inflated upper
/// bounds), tightened in place by every pre-commit re-evaluation — i.e.
/// the sharpest upper-bound vector known for this state when the bound
/// finishes, which is what descendant nodes re-base their cache on.
pub fn compute_bound_celf_with(
    state: &mut TauState<'_>,
    partial: &AssignmentPlan,
    promoters: &[NodeId],
    excluded: &FxHashSet<u64>,
    k: usize,
    seeding: CelfSeeding<'_>,
    mut capture: Option<&mut Vec<SeedEntry>>,
) -> BoundResult {
    let ell = state.ell();
    let remaining = k.saturating_sub(partial.size());
    let mut plan = partial.clone();
    let mut first_pick = None;
    if remaining == 0 {
        let (tau, sigma) = state.totals();
        return BoundResult {
            plan,
            sigma,
            tau,
            first_pick,
        };
    }
    let mut heap: BinaryHeap<CelfEntry> = BinaryHeap::with_capacity(ell * promoters.len());
    match seeding {
        CelfSeeding::Fresh => {
            for j in 0..ell {
                for &v in promoters {
                    if available(&plan, excluded, j, v) {
                        let gain = state.gain(j, v);
                        if gain > 0.0 {
                            if let Some(cap) = capture.as_deref_mut() {
                                cap.push(SeedEntry {
                                    gain,
                                    j: j as u32,
                                    v,
                                });
                            }
                            heap.push(CelfEntry {
                                gain,
                                j: j as u32,
                                v,
                                round: 0,
                                slot: NO_SLOT,
                            });
                        }
                    }
                }
            }
        }
        CelfSeeding::Cached {
            entries,
            inflate,
            exact,
        } => {
            debug_assert!(inflate >= 1.0, "inflation must not shrink upper bounds");
            debug_assert!(
                !exact || inflate == 1.0,
                "exact seeds cannot carry inflation"
            );
            for e in entries {
                // A zero cached upper bound stays zero at this state (and
                // every descendant), matching the Fresh path's `gain > 0`
                // filter — don't seed it, don't re-capture it.
                if e.gain > 0.0 && available(&plan, excluded, e.j as usize, e.v) {
                    let gain = if inflate == 1.0 {
                        e.gain
                    } else {
                        e.gain * inflate
                    };
                    let slot = match capture.as_deref_mut() {
                        Some(cap) => {
                            cap.push(SeedEntry {
                                gain,
                                j: e.j,
                                v: e.v,
                            });
                            (cap.len() - 1) as u32
                        }
                        None => NO_SLOT,
                    };
                    heap.push(CelfEntry {
                        gain,
                        j: e.j,
                        v: e.v,
                        // Exact seeds behave as a fresh scan's round-0
                        // entries; inflated ones must be re-evaluated
                        // before they can be committed.
                        round: if exact { 0 } else { STALE_ROUND },
                        slot,
                    });
                }
            }
        }
    }
    let mut round = 0u32;
    let mut selected = 0usize;
    while selected < remaining {
        let Some(top) = heap.pop() else { break };
        if top.round == round {
            // Fresh gain: commit.
            let (j, v) = (top.j as usize, top.v);
            state.add(j, v);
            plan.insert(j, v);
            if first_pick.is_none() {
                first_pick = Some((j, v));
            }
            selected += 1;
            round += 1;
        } else {
            // Stale: recompute and reinsert (submodularity ⇒ gain only
            // shrinks, so a fresh top-of-heap value is the true argmax).
            let gain = state.gain(top.j as usize, top.v);
            // A pre-commit (round 0) re-evaluation happens at this very
            // partial-plan state, so it tightens the captured seed.
            if round == 0 && top.slot != NO_SLOT {
                if let Some(cap) = capture.as_deref_mut() {
                    cap[top.slot as usize].gain = gain.max(0.0);
                }
            }
            if gain > 0.0 {
                heap.push(CelfEntry {
                    gain,
                    j: top.j,
                    v: top.v,
                    round,
                    slot: top.slot,
                });
            }
        }
    }
    let (tau, sigma) = state.totals();
    BoundResult {
        plan,
        sigma,
        tau,
        first_pick,
    }
}

/// Algorithm 2 exactly as printed: full rescan of all available promoters
/// in every iteration. Kept for the ablation bench and as a correctness
/// oracle for the CELF variant.
pub fn compute_bound_plain(
    state: &mut TauState<'_>,
    partial: &AssignmentPlan,
    promoters: &[NodeId],
    excluded: &FxHashSet<u64>,
    k: usize,
) -> BoundResult {
    let ell = state.ell();
    let remaining = k.saturating_sub(partial.size());
    let mut plan = partial.clone();
    let mut first_pick = None;
    for _ in 0..remaining {
        let mut best: Option<(f64, usize, NodeId)> = None;
        for j in 0..ell {
            for &v in promoters {
                if !available(&plan, excluded, j, v) {
                    continue;
                }
                let gain = state.gain(j, v);
                let better = match best {
                    None => gain > 0.0,
                    // Strict improvement, ties to smaller (j, v) — matches
                    // the CELF heap's deterministic ordering.
                    Some((bg, bj, bv)) => gain > bg || (gain == bg && (j, v) < (bj, bv)),
                };
                if better {
                    best = Some((gain, j, v));
                }
            }
        }
        let Some((_, j, v)) = best else { break };
        state.add(j, v);
        plan.insert(j, v);
        if first_pick.is_none() {
            first_pick = Some((j, v));
        }
    }
    let (tau, sigma) = state.totals();
    BoundResult {
        plan,
        sigma,
        tau,
        first_pick,
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
        let pool = MrrPool::generate(&g, &table, &campaign, theta, 47);
        let model = LogisticAdoption::example();
        let tt = TangentTable::new(model, campaign.len());
        (pool, tt, model)
    }

    #[test]
    fn greedy_finds_the_optimal_fig1_plan() {
        // At k = 2 the optimal plan of Example 1 is {{a}, {e}}; the greedy
        // on τ should land exactly there.
        let (pool, tt, model) = setup(100_000);
        let mut state = TauState::new(&pool, &tt, model);
        let empty = AssignmentPlan::empty(2);
        state.reset_to(&empty);
        let result =
            compute_bound_celf(&mut state, &empty, &[0, 1, 2, 3, 4], &Default::default(), 2);
        assert_eq!(result.plan.set(0), &[0], "piece t1 should go to a");
        assert_eq!(result.plan.set(1), &[4], "piece t2 should go to e");
        // σ̂ scaled ≈ 1.045; τ ≥ σ.
        let sigma = result.sigma * state.scale();
        assert!((sigma - 1.045).abs() < 0.05, "σ̂ = {sigma}");
        assert!(result.tau + 1e-9 >= result.sigma);
    }

    #[test]
    fn celf_matches_plain() {
        let (pool, tt, model) = setup(30_000);
        let promoters = vec![0, 1, 2, 3, 4];
        let empty = AssignmentPlan::empty(2);

        let mut s1 = TauState::new(&pool, &tt, model);
        s1.reset_to(&empty);
        let a = compute_bound_celf(&mut s1, &empty, &promoters, &Default::default(), 3);

        let mut s2 = TauState::new(&pool, &tt, model);
        s2.reset_to(&empty);
        let b = compute_bound_plain(&mut s2, &empty, &promoters, &Default::default(), 3);

        assert_eq!(a.plan, b.plan, "CELF must replicate plain greedy exactly");
        assert!((a.tau - b.tau).abs() < 1e-9);
        assert!((a.sigma - b.sigma).abs() < 1e-9);
        assert_eq!(a.first_pick, b.first_pick);
        // And strictly fewer τ evaluations.
        assert!(
            s1.evaluations < s2.evaluations,
            "CELF {} vs plain {}",
            s1.evaluations,
            s2.evaluations
        );
    }

    #[test]
    fn cached_seeds_replay_fresh_scan_exactly() {
        let (pool, tt, model) = setup(30_000);
        let promoters = vec![0, 1, 2, 3, 4];
        let empty = AssignmentPlan::empty(2);

        // Fresh run capturing its seeds.
        let mut s1 = TauState::new(&pool, &tt, model);
        s1.reset_to(&empty);
        let mut seeds = Vec::new();
        let a = compute_bound_celf_with(
            &mut s1,
            &empty,
            &promoters,
            &Default::default(),
            3,
            CelfSeeding::Fresh,
            Some(&mut seeds),
        );
        assert!(!seeds.is_empty());

        // Exact cached reuse: identical output, far fewer evaluations.
        let mut s2 = TauState::new(&pool, &tt, model);
        s2.reset_to(&empty);
        let b = compute_bound_celf_with(
            &mut s2,
            &empty,
            &promoters,
            &Default::default(),
            3,
            CelfSeeding::Cached {
                entries: &seeds,
                inflate: 1.0,
                exact: true,
            },
            None,
        );
        assert_eq!(a.plan, b.plan);
        assert_eq!(a.first_pick, b.first_pick);
        assert_eq!(a.tau.to_bits(), b.tau.to_bits());
        assert_eq!(a.sigma.to_bits(), b.sigma.to_bits());
        assert!(
            s2.evaluations < s1.evaluations,
            "cached {} vs fresh {}",
            s2.evaluations,
            s1.evaluations
        );

        // Inflated cached reuse (upper bounds): still identical output.
        let mut s3 = TauState::new(&pool, &tt, model);
        s3.reset_to(&empty);
        let c = compute_bound_celf_with(
            &mut s3,
            &empty,
            &promoters,
            &Default::default(),
            3,
            CelfSeeding::Cached {
                entries: &seeds,
                inflate: 1.5,
                exact: false,
            },
            None,
        );
        assert_eq!(a.plan, c.plan);
        assert_eq!(a.tau.to_bits(), c.tau.to_bits());
    }

    #[test]
    fn respects_exclusions() {
        let (pool, tt, model) = setup(20_000);
        let empty = AssignmentPlan::empty(2);
        let mut excluded: FxHashSet<u64> = Default::default();
        excluded.insert(pack(0, 0)); // forbid assigning a to t1
        let mut state = TauState::new(&pool, &tt, model);
        state.reset_to(&empty);
        let result = compute_bound_celf(&mut state, &empty, &[0, 1, 2, 3, 4], &excluded, 2);
        assert!(!result.plan.contains(0, 0), "excluded candidate selected");
    }

    #[test]
    fn respects_partial_plan() {
        let (pool, tt, model) = setup(20_000);
        let partial = AssignmentPlan::from_sets(vec![vec![1], vec![]]); // b on t1
        let mut state = TauState::new(&pool, &tt, model);
        state.reset_to(&partial);
        let result = compute_bound_celf(
            &mut state,
            &partial,
            &[0, 1, 2, 3, 4],
            &Default::default(),
            2,
        );
        assert!(partial.contained_in(&result.plan));
        assert_eq!(result.plan.size(), 2);
    }

    #[test]
    fn budget_zero_remaining() {
        let (pool, tt, model) = setup(5_000);
        let partial = AssignmentPlan::from_sets(vec![vec![0], vec![4]]);
        let mut state = TauState::new(&pool, &tt, model);
        state.reset_to(&partial);
        let result = compute_bound_celf(
            &mut state,
            &partial,
            &[0, 1, 2, 3, 4],
            &Default::default(),
            2,
        );
        assert_eq!(result.plan, partial);
        assert_eq!(result.first_pick, None);
    }

    #[test]
    fn greedy_value_guarantee_against_brute_force_on_tau() {
        // (1 − 1/e) guarantee of greedy on the submodular τ, checked by
        // enumerating all size-2 plans on the Fig. 1 instance.
        let (pool, tt, model) = setup(40_000);
        let promoters = [0u32, 1, 2, 3, 4];
        let empty = AssignmentPlan::empty(2);
        let mut state = TauState::new(&pool, &tt, model);
        state.reset_to(&empty);
        let greedy = compute_bound_celf(&mut state, &empty, &promoters, &Default::default(), 2);

        let mut best_tau = 0.0f64;
        for j1 in 0..2usize {
            for &v1 in &promoters {
                for j2 in 0..2usize {
                    for &v2 in &promoters {
                        let mut plan = AssignmentPlan::empty(2);
                        plan.insert(j1, v1);
                        plan.insert(j2, v2);
                        let mut s = TauState::new(&pool, &tt, model);
                        s.reset_to(&empty);
                        for (j, v) in plan.assignments() {
                            s.add(j, v);
                        }
                        best_tau = best_tau.max(s.tau_total());
                    }
                }
            }
        }
        assert!(
            greedy.tau + 1e-9 >= (1.0 - 1.0 / std::f64::consts::E) * best_tau,
            "greedy τ {} below (1−1/e)·OPT_τ {}",
            greedy.tau,
            best_tau * (1.0 - 1.0 / std::f64::consts::E)
        );
    }
}
