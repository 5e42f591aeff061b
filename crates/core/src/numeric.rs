//! Derivative-free numeric optimization on the **exact** expectations.
//!
//! Theorem 1 works on first-order approximations; this module provides the
//! ground truth it is validated against: golden-section search on the exact
//! overheads of Propositions 2–5, plus a constrained minimizer that
//! reproduces the BiCrit structure (feasible interval + convex objective)
//! without any Taylor truncation. Also used for the mixed-error model
//! (§5), where no closed form exists.

use crate::mixed::MixedModel;
use crate::pattern::SilentModel;
use crate::speed::SpeedSet;

/// Default search interval for pattern sizes (work units).
pub const W_MIN: f64 = 1e-3;
/// Upper bound of the default search interval.
pub const W_MAX: f64 = 1e10;

const GOLDEN_ITERS: usize = 200;
const BISECT_ITERS: usize = 200;

/// Result of a constrained one-dimensional optimization.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConstrainedOptimum {
    /// Optimal pattern size.
    pub w: f64,
    /// Objective (energy overhead) at the optimum.
    pub objective: f64,
    /// Constraint value (time overhead) at the optimum; `≤ ρ`.
    pub constraint: f64,
}

/// Golden-section minimization of a unimodal `f` over `[lo, hi]`,
/// searching in log-space (pattern sizes span many decades).
///
/// Returns `(argmin, min)`.
pub fn golden_section_min(f: impl Fn(f64) -> f64, lo: f64, hi: f64) -> (f64, f64) {
    assert!(lo > 0.0 && hi > lo, "need 0 < lo < hi");
    // Overflowing expectations (e^{λW/σ} at astronomical W) can produce
    // ∞ or NaN (0·∞); both mean "hopeless", so map them to +∞ to keep the
    // bracketing comparisons sound.
    let f = move |w: f64| {
        let v = f(w);
        if v.is_nan() {
            f64::INFINITY
        } else {
            v
        }
    };
    let inv_phi = 0.618_033_988_749_894_9_f64;
    let (mut a, mut b) = (lo.ln(), hi.ln());
    let mut c = b - inv_phi * (b - a);
    let mut d = a + inv_phi * (b - a);
    let mut fc = f(c.exp());
    let mut fd = f(d.exp());
    for _ in 0..GOLDEN_ITERS {
        if fc < fd {
            b = d;
            d = c;
            fd = fc;
            c = b - inv_phi * (b - a);
            fc = f(c.exp());
        } else {
            a = c;
            c = d;
            fc = fd;
            d = a + inv_phi * (b - a);
            fd = f(d.exp());
        }
        if (b - a).abs() < 1e-14 {
            break;
        }
    }
    let x = 0.5 * (a + b);
    (x.exp(), f(x.exp()))
}

/// Bisects for the boundary of `{w : g(w) ≤ level}` on `[lo, hi]`, where
/// `g(lo) > level ≥ g(hi)` or vice versa (`g` monotone on the interval).
/// Returns the `w` where `g` crosses `level`.
fn bisect_crossing(g: impl Fn(f64) -> f64, level: f64, lo: f64, hi: f64) -> f64 {
    // NaN (0·∞ overflow) means "outside the feasible set".
    let g = move |w: f64| {
        let v = g(w);
        if v.is_nan() {
            f64::INFINITY
        } else {
            v
        }
    };
    let (mut a, mut b) = (lo.ln(), hi.ln());
    let fa_in = g(a.exp()) <= level;
    for _ in 0..BISECT_ITERS {
        let mid = 0.5 * (a + b);
        let inside = g(mid.exp()) <= level;
        if inside == fa_in {
            a = mid;
        } else {
            b = mid;
        }
        if (b - a).abs() < 1e-15 {
            break;
        }
    }
    // Return the side that satisfies the constraint.
    let (ea, eb) = (a.exp(), b.exp());
    if g(ea) <= level {
        ea
    } else {
        eb
    }
}

/// Minimizes a unimodal `energy(w)` subject to `time(w) ≤ rho`, where
/// `time` is also unimodal on `[w_lo, w_hi]`. Returns `None` when even the
/// time minimum exceeds `rho` (infeasible).
///
/// This mirrors the Theorem 1 structure (feasible interval ∩ convex
/// objective ⇒ clamp) but on arbitrary exact overhead functions.
pub fn minimize_with_bound(
    energy: impl Fn(f64) -> f64,
    time: impl Fn(f64) -> f64,
    rho: f64,
    w_lo: f64,
    w_hi: f64,
) -> Option<ConstrainedOptimum> {
    let (wt, tmin) = golden_section_min(&time, w_lo, w_hi);
    if tmin > rho {
        return None;
    }
    // Feasible interval [w1, w2] around wt.
    let w1 = if time(w_lo) <= rho {
        w_lo
    } else {
        bisect_crossing(&time, rho, w_lo, wt)
    };
    let w2 = if time(w_hi) <= rho {
        w_hi
    } else {
        bisect_crossing(&time, rho, wt, w_hi)
    };
    let (we, _) = golden_section_min(&energy, w_lo, w_hi);
    let w = we.clamp(w1, w2);
    Some(ConstrainedOptimum {
        w,
        objective: energy(w),
        constraint: time(w),
    })
}

/// Exact constrained optimum for one speed pair under the silent-error
/// model (Propositions 2–3, no Taylor truncation).
pub fn exact_pair_optimum(
    m: &SilentModel,
    s1: f64,
    s2: f64,
    rho: f64,
) -> Option<ConstrainedOptimum> {
    minimize_with_bound(
        |w| m.energy_overhead(w, s1, s2),
        |w| m.time_overhead(w, s1, s2),
        rho,
        W_MIN,
        W_MAX,
    )
}

/// Exact constrained optimum for one speed pair under the mixed-error
/// model (Propositions 4–5 via the recursion; §5 has no closed form).
fn exact_pair_optimum_mixed(
    m: &MixedModel,
    s1: f64,
    s2: f64,
    rho: f64,
) -> Option<ConstrainedOptimum> {
    minimize_with_bound(
        |w| m.energy_overhead(w, s1, s2),
        |w| m.time_overhead(w, s1, s2),
        rho,
        W_MIN,
        W_MAX,
    )
}

/// Exact BiCrit solution over a speed set: enumerates all pairs with
/// [`exact_pair_optimum`]. Returns `(σ₁, σ₂, optimum)`.
pub fn exact_bicrit_solve(
    m: &SilentModel,
    speeds: &SpeedSet,
    rho: f64,
) -> Option<(f64, f64, ConstrainedOptimum)> {
    speeds
        .pairs()
        .filter_map(|(s1, s2)| exact_pair_optimum(m, s1, s2, rho).map(|o| (s1, s2, o)))
        .min_by(|a, b| {
            (a.2.objective, a.0, a.1)
                .partial_cmp(&(b.2.objective, b.0, b.1))
                .expect("finite objectives")
        })
}

/// Exact BiCrit solution for the mixed-error model over a speed set.
pub fn exact_bicrit_solve_mixed(
    m: &MixedModel,
    speeds: &SpeedSet,
    rho: f64,
) -> Option<(f64, f64, ConstrainedOptimum)> {
    speeds
        .pairs()
        .filter_map(|(s1, s2)| exact_pair_optimum_mixed(m, s1, s2, rho).map(|o| (s1, s2, o)))
        .min_by(|a, b| {
            (a.2.objective, a.0, a.1)
                .partial_cmp(&(b.2.objective, b.0, b.1))
                .expect("finite objectives")
        })
}

/// Exact time-only optimum for one speed pair of the mixed model:
/// `argmin_W T(W,σ₁,σ₂)/W`. Used to validate Theorem 2 numerically.
pub fn exact_time_minimizer_mixed(m: &MixedModel, s1: f64, s2: f64) -> (f64, f64) {
    golden_section_min(|w| m.time_overhead(w, s1, s2), W_MIN, W_MAX)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bicrit::BiCritSolver;
    use crate::cost::ResilienceCosts;
    use crate::error_model::ErrorRates;
    use crate::power::PowerModel;
    use crate::theorem2;

    fn hera_xscale() -> SilentModel {
        SilentModel::new(
            3.38e-6,
            ResilienceCosts::symmetric(300.0, 15.4),
            PowerModel::with_default_io(1550.0, 60.0, 0.15).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn golden_section_finds_parabola_minimum() {
        let (x, fx) = golden_section_min(|x| (x - 5.0) * (x - 5.0) + 1.0, 0.1, 100.0);
        assert!((x - 5.0).abs() < 1e-6);
        assert!((fx - 1.0).abs() < 1e-10);
    }

    #[test]
    fn golden_section_handles_boundary_minimum() {
        // Decreasing function: minimum at the right edge.
        let (x, _) = golden_section_min(|x| 1.0 / x, 1.0, 1000.0);
        assert!(x > 999.0);
    }

    #[test]
    fn exact_optimum_close_to_theorem1() {
        // λW is tiny at the optimum, so the exact optimum must be within a
        // fraction of a percent of the first-order Wopt.
        let m = hera_xscale();
        let speeds = SpeedSet::new(vec![0.15, 0.4, 0.6, 0.8, 1.0]).unwrap();
        let solver = BiCritSolver::new(m, speeds.clone());
        for rho in [1.775, 3.0, 8.0] {
            let fo = solver.solve(rho).unwrap();
            let (s1, s2, ex) = exact_bicrit_solve(&m, &speeds, rho).unwrap();
            assert_eq!((s1, s2), (fo.sigma1, fo.sigma2), "ρ={rho}: speed pair");
            // The optimum sits in a flat valley: the first-order Wopt can
            // differ by O(λW) ≈ 1% while the objective differs by far less.
            assert!(
                (ex.w - fo.w_opt).abs() / fo.w_opt < 3e-2,
                "ρ={rho}: exact W {} vs Theorem 1 {}",
                ex.w,
                fo.w_opt
            );
            assert!(
                (ex.objective - fo.energy_overhead).abs() / ex.objective < 1e-2,
                "ρ={rho}: exact E/W {} vs first-order {}",
                ex.objective,
                fo.energy_overhead
            );
        }
    }

    #[test]
    fn constrained_optimum_respects_bound() {
        let m = hera_xscale();
        for rho in [1.775, 2.5, 8.0] {
            for (s1, s2) in [(0.4, 0.4), (0.6, 0.8), (1.0, 0.4)] {
                if let Some(o) = exact_pair_optimum(&m, s1, s2, rho) {
                    assert!(o.constraint <= rho * (1.0 + 1e-9));
                    assert!(o.w > 0.0);
                }
            }
        }
    }

    #[test]
    fn infeasible_bound_returns_none() {
        let m = hera_xscale();
        // σ1 = 0.15 cannot achieve ρ = 3 even exactly.
        assert!(exact_pair_optimum(&m, 0.15, 0.4, 3.0).is_none());
    }

    #[test]
    fn theorem2_validated_against_exact_mixed_minimizer() {
        // Fail-stop only, σ2 = 2σ1: the exact time-optimal W must match
        // (12C/λ²)^{1/3}σ within the approximation error.
        let lambda = 1e-5;
        let mm = MixedModel::new(
            ErrorRates::fail_stop_only(lambda).unwrap(),
            ResilienceCosts::new(300.0, 0.0, 300.0).unwrap(),
            PowerModel::new(1550.0, 60.0, 5.0).unwrap(),
        );
        let sigma = 0.5;
        let (w_num, _) = exact_time_minimizer_mixed(&mm, sigma, 2.0 * sigma);
        let w_thm = theorem2::optimal_work(300.0, lambda, sigma);
        assert!(
            (w_num - w_thm).abs() / w_thm < 0.05,
            "numeric {w_num} vs Theorem 2 {w_thm}"
        );
    }

    #[test]
    fn mixed_exact_bicrit_prefers_feasible_pairs() {
        let mm = MixedModel::new(
            ErrorRates::from_total(1e-5, 0.5).unwrap(),
            ResilienceCosts::symmetric(300.0, 15.4),
            PowerModel::with_default_io(1550.0, 60.0, 0.15).unwrap(),
        );
        let speeds = SpeedSet::new(vec![0.15, 0.4, 0.6, 0.8, 1.0]).unwrap();
        let sol = exact_bicrit_solve_mixed(&mm, &speeds, 3.0);
        let (s1, _s2, o) = sol.expect("rho = 3 feasible for mixed model");
        assert!(s1 >= 0.4, "σ1 = 0.15 cannot meet ρ = 3");
        assert!(o.constraint <= 3.0 + 1e-9);
    }

    #[test]
    fn minimize_with_bound_clamps_to_feasible_interval() {
        // Objective pushes W high; constraint caps it.
        let energy = |w: f64| 1.0 / w; // decreasing: wants W = ∞
        let time = |w: f64| 1.0 + 0.001 * w + 10.0 / w; // convex
        let o = minimize_with_bound(energy, time, 2.0, 1.0, 1e6).unwrap();
        // Constraint boundary: 0.001w + 10/w = 1 → w ≈ 989.89.
        assert!((o.constraint - 2.0).abs() < 1e-6);
        assert!((o.w - 989.898).abs() < 0.5, "w = {}", o.w);
    }
}
