//! First- and second-order overhead approximations.
//!
//! Using the Taylor expansion `e^{λW} = 1 + λW + O(λ²W²)`, the exact
//! overheads of `SilentModel` collapse to the
//! paper's Equations (2) and (3), both of the form
//!
//! ```text
//! overhead(W) = x + y·W + z/W + O(λ²W)
//! ```
//!
//! with positive constants `x`, `y`, `z` — minimized at `W* = √(z/y)`, a
//! Young/Daly-shaped `Θ(λ^{-1/2})` result. The mixed-error model
//! (fail-stop + silent) yields Equations (9) and (10), whose linear
//! coefficient `y` may become *negative* when `σ₂/σ₁ > 2(1 + s/f)`,
//! breaking the first-order approach (paper §5.2). Equation (10) and the
//! second-order expansion of Equation (11) are kept as test oracles.

use crate::mixed::MixedModel;
use crate::pattern::SilentModel;
use serde::{Deserialize, Serialize};

/// Coefficients of an overhead curve `x + y·W + z/W`.
///
/// `x` is the incompressible per-unit cost, `y` the per-unit re-execution
/// risk, `z` the amortized checkpoint/verification cost.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OverheadCoefficients {
    /// Constant term `x`.
    pub constant: f64,
    /// Coefficient `y` of the term linear in `W`.
    pub linear: f64,
    /// Coefficient `z` of the term in `1/W`.
    pub inverse: f64,
}

impl OverheadCoefficients {
    /// Evaluates `x + y·W + z/W`.
    #[inline]
    pub fn eval(&self, w: f64) -> f64 {
        self.constant + self.linear * w + self.inverse / w
    }

    /// Unconstrained minimizer `W* = √(z/y)`.
    ///
    /// Returns `+∞` when `y ≤ 0` (overhead decreases without bound — the
    /// regime where the first-order approximation is invalid, §5.2) and `0`
    /// when `z = 0` with `y > 0`.
    #[inline]
    pub fn minimizer(&self) -> f64 {
        if self.linear <= 0.0 {
            f64::INFINITY
        } else {
            (self.inverse / self.linear).sqrt()
        }
    }

    /// Minimum value `x + 2√(y·z)` (only meaningful when `y > 0`).
    #[inline]
    pub fn min_value(&self) -> f64 {
        self.constant + 2.0 * (self.linear * self.inverse).sqrt()
    }
}

/// First-order (Taylor) approximations — the paper's working model.
pub struct FirstOrder;

impl FirstOrder {
    /// Coefficients of the time overhead `T(W,σ₁,σ₂)/W`, Equation (2):
    ///
    /// ```text
    /// T/W = 1/σ₁ + λW/(σ₁σ₂) + λR/σ₁ + λV/(σ₁σ₂) + (C + V/σ₁)/W
    /// ```
    pub fn time_coefficients(m: &SilentModel, s1: f64, s2: f64) -> OverheadCoefficients {
        let l = m.lambda;
        let (c, v, r) = (m.costs.checkpoint, m.costs.verification, m.costs.recovery);
        OverheadCoefficients {
            constant: 1.0 / s1 + l * r / s1 + l * v / (s1 * s2),
            linear: l / (s1 * s2),
            inverse: c + v / s1,
        }
    }

    /// Coefficients of the energy overhead `E(W,σ₁,σ₂)/W`, Equation (3):
    ///
    /// ```text
    /// E/W = (κσ₁³+Pidle)/σ₁ + λW/(σ₁σ₂)·(κσ₂³+Pidle)
    ///     + λR/σ₁·(Pio+Pidle) + λV/(σ₁σ₂)·(κσ₁³+Pidle)
    ///     + [C(Pio+Pidle) + V(κσ₁³+Pidle)/σ₁]/W
    /// ```
    pub fn energy_coefficients(m: &SilentModel, s1: f64, s2: f64) -> OverheadCoefficients {
        let l = m.lambda;
        let (c, v, r) = (m.costs.checkpoint, m.costs.verification, m.costs.recovery);
        let p1 = m.power.compute_power(s1);
        let p2 = m.power.compute_power(s2);
        let pio = m.power.io_power();
        OverheadCoefficients {
            constant: p1 / s1 + l * r / s1 * pio + l * v / (s1 * s2) * p1,
            linear: l / (s1 * s2) * p2,
            inverse: c * pio + v * p1 / s1,
        }
    }

    /// First-order time overhead (Equation 2) at pattern size `w`.
    #[inline]
    pub fn time_overhead(m: &SilentModel, w: f64, s1: f64, s2: f64) -> f64 {
        Self::time_coefficients(m, s1, s2).eval(w)
    }

    /// First-order energy overhead (Equation 3) at pattern size `w`.
    #[inline]
    pub fn energy_overhead(m: &SilentModel, w: f64, s1: f64, s2: f64) -> f64 {
        Self::energy_coefficients(m, s1, s2).eval(w)
    }

    /// Coefficients of the mixed-error time overhead, Equation (9):
    ///
    /// ```text
    /// T/W = (C + V/σ₁)/W + ((f+s)/(σ₁σ₂) − f/(2σ₁²))·λW
    ///     + [(f+s)λ(R + V/σ₂) + 1 − fλV/σ₁]/σ₁
    /// ```
    ///
    /// The linear coefficient may be negative when `σ₂/σ₁ > 2(1 + s/f)`.
    pub fn time_coefficients_mixed(m: &MixedModel, s1: f64, s2: f64) -> OverheadCoefficients {
        let lam = m.rates.total();
        let lf = m.rates.fail_stop;
        let (c, v, r) = (m.costs.checkpoint, m.costs.verification, m.costs.recovery);
        OverheadCoefficients {
            constant: (lam * (r + v / s2) + 1.0 - lf * v / s1) / s1,
            linear: lam / (s1 * s2) - lf / (2.0 * s1 * s1),
            inverse: c + v / s1,
        }
    }

    /// Validity window of the first-order approximation for mixed errors
    /// (paper §5.2, assuming `Pidle = 0` for the lower bound): the approach
    /// yields a solution iff
    ///
    /// ```text
    /// (2(1 + s/f))^{-1/2}  <  σ₂/σ₁  <  2(1 + s/f)
    /// ```
    ///
    /// Returns `(lower, upper)` bounds on the ratio `σ₂/σ₁`. With `f = 0`
    /// (silent errors only) the window is `(0, ∞)`.
    pub fn validity_window(fail_stop_fraction: f64) -> (f64, f64) {
        if fail_stop_fraction <= 0.0 {
            return (0.0, f64::INFINITY);
        }
        let s = 1.0 - fail_stop_fraction;
        let upper = 2.0 * (1.0 + s / fail_stop_fraction);
        (upper.powf(-0.5), upper)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::ResilienceCosts;
    use crate::error_model::ErrorRates;
    use crate::oracle::{energy_coefficients_mixed, SecondOrder};
    use crate::power::PowerModel;

    fn hera_xscale() -> SilentModel {
        SilentModel::new(
            3.38e-6,
            ResilienceCosts::symmetric(300.0, 15.4),
            PowerModel::with_default_io(1550.0, 60.0, 0.15).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn paper_energy_overhead_hera_xscale_rho3() {
        // Paper §4.2, ρ = 3 table: σ1 = σ2 = 0.4 → Wopt = 2764, E/W = 416.
        let m = hera_xscale();
        let co = FirstOrder::energy_coefficients(&m, 0.4, 0.4);
        let w = co.minimizer();
        assert!((w - 2764.0).abs() < 1.0, "Wopt = {w}");
        assert!((co.eval(w) - 416.0).abs() < 1.0, "E/W = {}", co.eval(w));
    }

    #[test]
    fn paper_energy_overhead_hera_xscale_rho8_slowest() {
        // ρ = 8 table: σ1 = 0.15, σ2 = 0.4 → Wopt = 1711, E/W = 466.
        let m = hera_xscale();
        let co = FirstOrder::energy_coefficients(&m, 0.15, 0.4);
        let w = co.minimizer();
        assert!((w - 1711.0).abs() < 1.0, "Wopt = {w}");
        assert!((co.eval(w) - 466.0).abs() < 1.0, "E/W = {}", co.eval(w));
    }

    #[test]
    fn first_order_matches_exact_as_lambda_vanishes() {
        let m = hera_xscale();
        let (w, s1, s2) = (3000.0, 0.6, 0.8);
        for &lam in &[1e-5, 1e-6, 1e-7, 1e-8] {
            let ml = m.with_lambda(lam);
            let exact_t = ml.time_overhead(w, s1, s2);
            let fo_t = FirstOrder::time_overhead(&ml, w, s1, s2);
            // Error is O(λ²W): relative gap shrinks linearly with λ.
            let tol = 10.0 * lam * lam * w * w;
            assert!(
                (exact_t - fo_t).abs() < tol.max(1e-9),
                "λ={lam}: exact {exact_t} vs fo {fo_t}"
            );
            let exact_e = ml.energy_overhead(w, s1, s2);
            let fo_e = FirstOrder::energy_overhead(&ml, w, s1, s2);
            // Truncation error is O(λ²W²) relative to the O(1) overhead,
            // i.e. the relative gap shrinks like λW as λ → 0.
            assert!(
                (exact_e - fo_e).abs() / exact_e < 0.2 * lam * w,
                "λ={lam}: exact {exact_e} vs fo {fo_e}"
            );
        }
    }

    #[test]
    fn minimizer_is_stationary_point() {
        let m = hera_xscale();
        let co = FirstOrder::energy_coefficients(&m, 0.4, 0.8);
        let w = co.minimizer();
        let eps = w * 1e-4;
        assert!(co.eval(w) <= co.eval(w - eps));
        assert!(co.eval(w) <= co.eval(w + eps));
        assert!((co.min_value() - co.eval(w)).abs() < 1e-9 * co.min_value());
    }

    #[test]
    fn minimizer_edge_cases() {
        let c = OverheadCoefficients {
            constant: 1.0,
            linear: 0.0,
            inverse: 5.0,
        };
        assert!(c.minimizer().is_infinite());
        let n = OverheadCoefficients {
            constant: 1.0,
            linear: -2.0,
            inverse: 5.0,
        };
        assert!(n.minimizer().is_infinite());
        let z = OverheadCoefficients {
            constant: 1.0,
            linear: 2.0,
            inverse: 0.0,
        };
        assert_eq!(z.minimizer(), 0.0);
    }

    #[test]
    fn mixed_coefficients_reduce_to_silent_when_f_is_zero() {
        let m = hera_xscale();
        let mm = MixedModel::new(ErrorRates::silent_only(m.lambda).unwrap(), m.costs, m.power);
        for (s1, s2) in [(0.4, 0.4), (0.4, 0.8), (1.0, 0.6)] {
            let a = FirstOrder::time_coefficients(&m, s1, s2);
            let b = FirstOrder::time_coefficients_mixed(&mm, s1, s2);
            assert!((a.linear - b.linear).abs() < 1e-15);
            assert!((a.inverse - b.inverse).abs() < 1e-12);
            assert!((a.constant - b.constant).abs() < 1e-12);
            let ae = FirstOrder::energy_coefficients(&m, s1, s2);
            let be = energy_coefficients_mixed(&mm, s1, s2);
            assert!((ae.linear - be.linear).abs() < 1e-12);
            assert!((ae.inverse - be.inverse).abs() < 1e-9);
            // Eq (10) evaluates V's re-execution power at σ2 while Eq (3)
            // uses σ1 — a first-order-equivalent difference of order λV.
            assert!((ae.constant - be.constant).abs() / ae.constant < 1e-3);
        }
    }

    #[test]
    fn mixed_linear_coefficient_sign_flips_at_ratio_two_for_fail_stop_only() {
        let mm = MixedModel::new(
            ErrorRates::fail_stop_only(1e-5).unwrap(),
            ResilienceCosts::symmetric(300.0, 0.0),
            PowerModel::new(1550.0, 60.0, 5.0).unwrap(),
        );
        // f = 1, s = 0 ⇒ threshold σ2/σ1 = 2.
        let below = FirstOrder::time_coefficients_mixed(&mm, 0.4, 0.79).linear;
        let at = FirstOrder::time_coefficients_mixed(&mm, 0.4, 0.8).linear;
        let above = FirstOrder::time_coefficients_mixed(&mm, 0.4, 0.81).linear;
        assert!(below > 0.0);
        assert!(at.abs() < 1e-12);
        assert!(above < 0.0);
    }

    #[test]
    fn validity_window_shapes() {
        // f = 1 (fail-stop only): window is (1/√2, 2).
        let (lo, hi) = FirstOrder::validity_window(1.0);
        assert!((hi - 2.0).abs() < 1e-12);
        assert!((lo - 0.5f64.sqrt()).abs() < 1e-12);
        // f = 0.5: 2(1 + 1) = 4.
        let (lo2, hi2) = FirstOrder::validity_window(0.5);
        assert!((hi2 - 4.0).abs() < 1e-12);
        assert!((lo2 - 0.5).abs() < 1e-12);
        // f = 0: unbounded.
        let (lo3, hi3) = FirstOrder::validity_window(0.0);
        assert_eq!(lo3, 0.0);
        assert!(hi3.is_infinite());
        // Window is never empty.
        for f in [0.01, 0.1, 0.3, 0.7, 0.99] {
            let (l, h) = FirstOrder::validity_window(f);
            assert!(l < 1.0 && h > 1.0, "window must contain σ2 = σ1");
        }
    }

    #[test]
    fn second_order_linear_coefficient_vanishes_at_double_speed() {
        assert!(SecondOrder::linear_coefficient(0.5, 1.0).abs() < 1e-15);
        assert!(SecondOrder::linear_coefficient(0.5, 0.9) > 0.0);
        assert!(SecondOrder::linear_coefficient(0.5, 1.1) < 0.0);
    }

    #[test]
    fn second_order_quadratic_coefficient_positive_at_double_speed() {
        // At σ2 = 2σ1: 1/(6σ³) − 1/(4σ³) + 1/(8σ³) = 1/(24σ³) > 0.
        let s = 0.5;
        let q = SecondOrder::quadratic_coefficient(s, 2.0 * s);
        assert!((q - 1.0 / (24.0 * s * s * s)).abs() < 1e-12);
    }

    #[test]
    fn second_order_overhead_evaluates_equation_11() {
        let (c, r, lambda, w, s1, s2) = (300.0, 300.0, 1e-5, 10_000.0, 0.5, 1.0);
        let t = SecondOrder::time_overhead_fail_stop(c, r, lambda, w, s1, s2);
        let manual = 1.0 / s1
            + c / w
            + SecondOrder::linear_coefficient(s1, s2) * lambda * w
            + lambda * r / s1
            + SecondOrder::quadratic_coefficient(s1, s2) * lambda * lambda * w * w;
        assert!((t - manual).abs() < 1e-12);
    }
}
