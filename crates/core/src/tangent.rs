//! Tangent-line construction for the submodular upper bound (paper Fig. 2
//! and the Appendix's `Refine` binary search).
//!
//! For one MRR sample, the contribution to the objective is the logistic
//! `σ(x)` of the coverage logit `x = β·c − α`. The logistic S-curve is
//! convex for `x < 0` and concave for `x > 0`, so it is not concave in the
//! coverage count — which is why σ is not submodular. The paper's fix:
//! replace each sample's logistic with its **concave majorant anchored at
//! the current coverage** `x₀`:
//!
//! * if `x₀ ≥ 0` (already in the concave region), the majorant is the
//!   tangent at `x₀` followed by the curve itself;
//! * if `x₀ < 0`, it is the unique line through `(x₀, σ(x₀))` tangent to
//!   the curve at some `t > 0` (found by `Refine`'s binary search on the
//!   gradient `w ∈ (0, ¼)`), followed by the curve beyond `t`.
//!
//! The majorant is nondecreasing and concave, so composing it with the
//! (submodular) coverage count yields a monotone submodular bound τ, and
//! it dominates the true logistic — Definition 6's requirements. When the
//! branch-and-bound extends the partial plan, coverage anchors move right
//! and the lines are re-picked with steeper gradients (the paper's
//! "refinement", Fig. 2 right).

use oipa_topics::{sigmoid, sigmoid_derivative, LogisticAdoption};

/// A tangent line `y = w·x + b` with its tangency abscissa.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TangentLine {
    /// Gradient `w = σ'(t)`.
    pub w: f64,
    /// Intercept `b`.
    pub b: f64,
    /// Tangency point `t`: the majorant follows the line on `[x₀, t]` and
    /// the logistic beyond.
    pub t: f64,
}

impl TangentLine {
    /// The concave-majorant value at logit `x` (must be ≥ the anchor used
    /// to construct the line). Capped at 1 — a probability bound.
    #[inline]
    pub fn value(&self, x: f64) -> f64 {
        let v = if x <= self.t {
            self.w * x + self.b
        } else {
            sigmoid(x)
        };
        v.min(1.0)
    }
}

/// The `Refine` routine (paper Algorithm 4): finds the gradient `w` of the
/// line through `(x0, σ(x0))` tangent to the logistic at some `t ≥ 0`,
/// by binary search on `w ∈ (0, ¼)`.
///
/// Precondition: `x0 < 0` (otherwise the tangent at `x0` itself is the
/// answer and no search is needed — see [`tangent_at_anchor`]).
pub fn refine(x0: f64, tol: f64) -> TangentLine {
    debug_assert!(x0 < 0.0, "refine is for anchors in the convex region");
    let y0 = sigmoid(x0);
    let mut lo = 0.0f64;
    let mut hi = 0.25f64;
    // 4·(hi−lo) halves each step; 200 iterations are overkill but cheap and
    // keep the loop structure of Algorithm 4 (tolerance-driven exit).
    for _ in 0..200 {
        if hi - lo <= tol {
            break;
        }
        let w = 0.5 * (lo + hi);
        // t ≥ 0 with σ'(t) = w: σ(t) = (1 + √(1−4w))/2, t = ln(σ/(1−σ)).
        let root = (1.0 - 4.0 * w).max(0.0).sqrt();
        let s_t = 0.5 * (1.0 + root);
        let t = (s_t / (1.0 - s_t)).ln();
        // Line value at t vs curve value at t (Algorithm 4 lines 5–8).
        let v = w * (t - x0) + y0;
        if v > s_t {
            hi = w; // line overshoots the curve: gradient too large
        } else {
            lo = w;
        }
    }
    // Use the upper end: guarantees the line lies on or above the curve.
    let w = hi;
    let root = (1.0 - 4.0 * w).max(0.0).sqrt();
    let s_t = 0.5 * (1.0 + root);
    let t = if s_t >= 1.0 {
        f64::INFINITY
    } else {
        (s_t / (1.0 - s_t)).ln()
    };
    TangentLine {
        w,
        b: y0 - w * x0,
        t,
    }
}

/// The tangent line at an anchor already in the concave region (`x0 ≥ 0`):
/// gradient `σ'(x0)`, tangency at `x0` itself.
pub fn tangent_at_anchor(x0: f64) -> TangentLine {
    debug_assert!(x0 >= 0.0);
    let w = sigmoid_derivative(x0);
    TangentLine {
        w,
        b: sigmoid(x0) - w * x0,
        t: x0,
    }
}

/// Precomputed majorants for every possible coverage anchor `c₀ ∈ 0..=ℓ`.
///
/// Coverage is integral, so instead of evaluating the continuous tangent
/// line the table stores the **discrete upper concave envelope** of the
/// true per-coverage objective values
///
/// ```text
/// y(c) = 0           if c = 0      (Eqn. 1's "otherwise" branch)
///      = σ(β·c − α)  if c ≥ 1
/// ```
///
/// restricted to `c ∈ [c₀, ℓ]` and anchored at the *true* value `y(c₀)`.
/// This is the minimal monotone-submodular majorant Definition 6 asks for
/// on the integer domain: it dominates every reachable objective value,
/// its increments are nonincreasing (concavity ⇒ submodularity of τ), and
/// it is tighter than the continuous tangent line — in particular
/// `τ(∅) = 0`, so Algorithm 3's Line-14 stop threshold
/// `τ/k' · e⁻¹/(1−e⁻¹)` scales with actual attainable utility rather than
/// with the `θ·σ(−α)` floor a curve-anchored line would contribute.
/// (In the continuous limit the envelope coincides with the paper's
/// tangent construction; [`refine`] remains available and tested as the
/// paper's Algorithm 4.)
///
/// `value[c0][c]` is the majorant (anchored at `c0`) at coverage `c`;
/// `marginal[c0][c]` its one-step increment.
#[derive(Debug, Clone)]
pub struct TangentTable {
    ell: usize,
    /// Flattened `(ℓ+1) × (ℓ+2)` value table.
    values: Vec<f64>,
    /// Flattened `(ℓ+1) × (ℓ+1)` marginal table.
    marginals: Vec<f64>,
}

/// Upper concave envelope of `ys` over integer abscissae `0..ys.len()`,
/// evaluated back at the integers. O(n).
fn concave_envelope(ys: &[f64]) -> Vec<f64> {
    // Monotone (Andrew) scan keeping strictly decreasing chord slopes.
    let mut hull: Vec<(usize, f64)> = Vec::with_capacity(ys.len());
    for (x, &y) in ys.iter().enumerate() {
        while hull.len() >= 2 {
            let a = hull[hull.len() - 2];
            let b = hull[hull.len() - 1];
            let s_ab = (b.1 - a.1) / (b.0 - a.0) as f64;
            let s_ap = (y - a.1) / (x - a.0) as f64;
            // b lies on/below the chord a→p: drop it.
            if s_ab <= s_ap {
                hull.pop();
            } else {
                break;
            }
        }
        hull.push((x, y));
    }
    let mut out = vec![0.0; ys.len()];
    let mut seg = 0usize;
    #[allow(clippy::needless_range_loop)] // x is the abscissa, not just an index
    for x in 0..ys.len() {
        while seg + 1 < hull.len() && hull[seg + 1].0 <= x {
            seg += 1;
        }
        out[x] = if seg + 1 < hull.len() {
            let a = hull[seg];
            let b = hull[seg + 1];
            a.1 + (b.1 - a.1) * (x - a.0) as f64 / (b.0 - a.0) as f64
        } else {
            hull[seg].1
        };
    }
    out
}

impl TangentTable {
    /// Builds the table for an adoption model and piece count.
    pub fn new(model: LogisticAdoption, ell: usize) -> Self {
        Self::build(model, ell, true)
    }

    /// Ablation variant: every anchor reuses the coverage-0 line, i.e. the
    /// bound is *never refined* as partial plans grow. Still a valid upper
    /// bound (the anchor-0 majorant dominates all logits ≥ −α), just
    /// looser — `bench_solver`'s `refine_anchors: false` rows measure the
    /// pruning it costs.
    pub fn unrefined(model: LogisticAdoption, ell: usize) -> Self {
        Self::build(model, ell, false)
    }

    fn build(model: LogisticAdoption, ell: usize, refine_anchors: bool) -> Self {
        assert!(ell >= 1);
        // True objective values per coverage (Eqn. 1, incl. the zero branch).
        let objective: Vec<f64> = (0..=ell).map(|c| model.adoption_prob(c)).collect();
        let mut values = vec![0.0; (ell + 1) * (ell + 2)];
        for c0 in 0..=ell {
            // Envelope over [anchor_base, ℓ]; the ablation variant always
            // anchors at 0 (never refines).
            let base = if refine_anchors { c0 } else { 0 };
            let env = concave_envelope(&objective[base..=ell]);
            for c in 0..=ell + 1 {
                // Values below the anchor are never queried; clamp them to
                // the anchor value so the table stays monotone. The
                // one-past-the-end column makes marginal[c0][ℓ] = 0.
                let cc = c.clamp(base, ell);
                values[c0 * (ell + 2) + c] = env[cc - base];
            }
        }
        let mut marginals = vec![0.0; (ell + 1) * (ell + 1)];
        for c0 in 0..=ell {
            for c in 0..=ell {
                let lo = values[c0 * (ell + 2) + c];
                let hi = values[c0 * (ell + 2) + c + 1];
                marginals[c0 * (ell + 1) + c] = (hi - lo).max(0.0);
            }
        }
        TangentTable {
            ell,
            values,
            marginals,
        }
    }

    /// Number of pieces ℓ.
    #[inline]
    pub fn ell(&self) -> usize {
        self.ell
    }

    /// τ value for a sample with anchor `c0` at current coverage `c`.
    #[inline]
    pub fn value(&self, c0: usize, c: usize) -> f64 {
        self.values[c0 * (self.ell + 2) + c]
    }

    /// One-step τ increment at coverage `c` for anchor `c0` (zero at `c = ℓ`).
    #[inline]
    pub fn marginal(&self, c0: usize, c: usize) -> f64 {
        self.marginals[c0 * (self.ell + 1) + c]
    }

    /// Certified single-step inflation bound ρ for *diagonal* marginals
    /// under anchor refinement: for every coverage `c`,
    /// `marginal(c+1, c+1) ≤ ρ · marginal(c, c)`.
    ///
    /// Singleton τ gains evaluated at a partial plan are sums of diagonal
    /// marginals (`anchor == count` there), and extending the partial plan
    /// by one assignment moves each affected sample `(c, c) → (c+1, c+1)`
    /// (or out of the sum entirely), so a gain cached at a parent node,
    /// multiplied by ρ per extension step, is a valid upper bound on the
    /// same candidate's gain at any descendant — the invariant the
    /// branch-and-bound seed cache relies on for exactness. In the convex
    /// region of the logistic the refined majorant is *steeper*, so ρ is
    /// genuinely above 1 there; the returned value includes a 1e-9
    /// relative safety margin for the floating-point multiply.
    ///
    /// Returns `None` when no finite ρ exists (a zero diagonal marginal
    /// followed by a positive one), in which case callers must fall back
    /// to fresh gain scans.
    pub fn diagonal_inflation(&self) -> Option<f64> {
        let mut seen_zero = false;
        for c in 0..=self.ell {
            if self.marginal(c, c) <= 0.0 {
                seen_zero = true;
            } else if seen_zero {
                return None;
            }
        }
        let mut rho = 1.0f64;
        for c in 0..self.ell {
            let m0 = self.marginal(c, c);
            let m1 = self.marginal(c + 1, c + 1);
            if m0 > 0.0 {
                rho = rho.max(m1 / m0);
            }
        }
        Some(rho * (1.0 + 1e-9))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oipa_topics::LogisticAdoption;

    #[test]
    fn refine_line_dominates_curve() {
        for &x0 in &[-5.0, -3.0, -1.0, -0.2] {
            let line = refine(x0, 1e-12);
            assert!(line.w > 0.0 && line.w <= 0.25);
            // Dominance on a grid from x0 to far right.
            let mut x = x0;
            while x < 10.0 {
                let v = line.value(x);
                assert!(
                    v + 1e-9 >= sigmoid(x),
                    "majorant {v} below curve {} at x={x} (x0={x0})",
                    sigmoid(x)
                );
                x += 0.05;
            }
            // Anchored: line passes through (x0, σ(x0)).
            assert!((line.w * x0 + line.b - sigmoid(x0)).abs() < 1e-6);
        }
    }

    #[test]
    fn refine_is_tight_at_tangency() {
        let line = refine(-3.0, 1e-13);
        // At the tangency point the line touches the curve.
        let gap = (line.w * line.t + line.b) - sigmoid(line.t);
        assert!(gap.abs() < 1e-5, "tangency gap {gap}");
        // Gradient matches the curve's derivative there.
        assert!((line.w - sigmoid_derivative(line.t)).abs() < 1e-5);
    }

    #[test]
    fn concave_anchor_uses_local_tangent() {
        let line = tangent_at_anchor(1.5);
        assert!((line.t - 1.5).abs() < 1e-12);
        assert!((line.w - sigmoid_derivative(1.5)).abs() < 1e-12);
        for &x in &[1.5, 2.0, 4.0, 9.0] {
            assert!(line.value(x) + 1e-12 >= sigmoid(x));
        }
    }

    #[test]
    fn table_dominates_true_objective_everywhere() {
        let model = LogisticAdoption::new(3.0, 1.0);
        let table = TangentTable::new(model, 5);
        for c0 in 0..=5usize {
            for c in c0..=5usize {
                let tau = table.value(c0, c);
                let objective = model.adoption_prob(c); // 0 at c = 0
                assert!(
                    tau + 1e-9 >= objective,
                    "τ[{c0}][{c}] = {tau} below objective = {objective}"
                );
                assert!(tau <= 1.0 + 1e-12);
            }
        }
        // The empty-coverage anchor is exactly the true zero (no floor).
        assert_eq!(table.value(0, 0), 0.0);
        // At covered anchors the bound is tight at the anchor itself.
        for c0 in 1..=5usize {
            assert!((table.value(c0, c0) - model.adoption_prob(c0)).abs() < 1e-12);
        }
    }

    #[test]
    fn unrefined_table_still_dominates() {
        let model = LogisticAdoption::new(3.0, 1.0);
        let refined = TangentTable::new(model, 4);
        let unrefined = TangentTable::unrefined(model, 4);
        for c0 in 0..=4usize {
            for c in c0..=4usize {
                assert!(unrefined.value(c0, c) + 1e-12 >= model.adoption_prob(c));
                assert!(
                    unrefined.value(c0, c) + 1e-9 >= refined.value(c0, c),
                    "unrefined must be the looser bound at [{c0}][{c}]"
                );
            }
        }
    }

    #[test]
    fn envelope_lifts_convex_region_only() {
        // For an S-shaped objective the envelope is a chord across the
        // convex region and the curve itself in the concave region.
        let model = LogisticAdoption::new(3.0, 1.0);
        let table = TangentTable::new(model, 6);
        // Beyond the inflection the objective is concave, so the envelope
        // is tight there.
        for c in 4..=6usize {
            assert!((table.value(0, c) - model.adoption_prob(c)).abs() < 1e-9);
        }
        // In the convex region it strictly exceeds the objective.
        assert!(table.value(0, 1) > model.adoption_prob(1) + 1e-6);
    }

    #[test]
    fn table_monotone_and_concave_per_anchor() {
        let table = TangentTable::new(LogisticAdoption::new(4.0, 1.0), 5);
        for c0 in 0..=5usize {
            let mut prev_marg = f64::INFINITY;
            for c in c0..5usize {
                let m = table.marginal(c0, c);
                assert!(m >= 0.0, "negative marginal at [{c0}][{c}]");
                assert!(
                    m <= prev_marg + 1e-12,
                    "marginals must be nonincreasing (concavity): [{c0}][{c}]"
                );
                prev_marg = m;
            }
        }
    }

    #[test]
    fn refinement_steepens_gradient() {
        // Paper Fig. 2: when the anchor moves right (a piece got covered),
        // the new line has a larger gradient — while the anchor stays in
        // the convex region.
        let model = LogisticAdoption::new(4.0, 1.0);
        assert!(model.logit(2) < 0.0, "anchors 0..=2 are convex");
        let w = |c0: usize| refine(model.logit(c0), 1e-12).w;
        assert!(w(1) > w(0));
        assert!(w(2) > w(1));
    }

    #[test]
    fn refined_bound_is_tighter() {
        // The anchor-c0 majorant at any c ≥ c0 is ≤ the anchor-(c0−1) one:
        // refinement only shrinks the bound.
        let model = LogisticAdoption::new(3.0, 1.0);
        let table = TangentTable::new(model, 4);
        for c0 in 1..=4usize {
            for c in c0..=4usize {
                assert!(
                    table.value(c0, c) <= table.value(c0 - 1, c) + 1e-9,
                    "refinement must tighten: τ[{c0}][{c}] vs τ[{}][{c}]",
                    c0 - 1
                );
            }
        }
    }

    #[test]
    fn last_marginal_is_zero() {
        let table = TangentTable::new(LogisticAdoption::example(), 3);
        for c0 in 0..=3usize {
            assert_eq!(table.marginal(c0, 3), 0.0);
        }
    }

    #[test]
    fn marginal_sum_telescopes() {
        let table = TangentTable::new(LogisticAdoption::new(2.5, 0.8), 4);
        for c0 in 0..=4usize {
            let mut acc = table.value(c0, c0);
            for c in c0..4 {
                acc += table.marginal(c0, c);
            }
            assert!((acc - table.value(c0, 4)).abs() < 1e-12);
        }
    }
}
