//! Exact pattern expectations under silent errors (Propositions 1–3).
//!
//! A pattern executes `W` units of work at speed `σ₁`, verifies (`V/σ₁`),
//! and checkpoints (`C`). If the verification detects a silent error, the
//! application recovers (`R`) and re-executes the pattern — at speed `σ₂` —
//! until a verification succeeds.
//!
//! Exact expectations (no Taylor truncation):
//!
//! * Proposition 1 (single speed):
//!   `T(W,σ,σ) = C + e^{λW/σ}·(W+V)/σ + (e^{λW/σ} − 1)·R`
//! * Proposition 2 (two speeds):
//!   `T(W,σ₁,σ₂) = C + (W+V)/σ₁ + (1 − e^{−λW/σ₁})·e^{λW/σ₂}·(R + (W+V)/σ₂)`
//! * Proposition 3 (energy): same structure with each term weighted by the
//!   power drawn while it elapses.
//!
//! These are the instance `λᶠ = 0`, `q = 1`, `retries = [σ₂]` of the
//! [`renewal`](crate::renewal) form, which every method delegates to;
//! the printed formulas survive as test oracles.

use crate::cost::ResilienceCosts;
use crate::error_model::ErrorRates;
use crate::law::ErrorLaw::Exponential;
use crate::mixed::MixedModel;
use crate::power::PowerModel;
use crate::renewal::renewal;
use crate::validate::{non_negative, ModelError};
use serde::{Deserialize, Serialize};

/// Analytic model of a platform subject to **silent errors only**
/// (rate `λ`), with verified checkpoints.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SilentModel {
    /// Silent-error rate `λ` (1/s).
    pub lambda: f64,
    /// Checkpoint / verification / recovery costs.
    pub costs: ResilienceCosts,
    /// Platform power parameters.
    pub power: PowerModel,
}

impl SilentModel {
    /// Creates a validated model.
    ///
    /// # Errors
    /// [`ModelError::NonNegative`] if `lambda` is negative or non-finite.
    pub fn new(lambda: f64, costs: ResilienceCosts, power: PowerModel) -> Result<Self, ModelError> {
        Ok(SilentModel {
            lambda: non_negative("lambda", lambda)?,
            costs,
            power,
        })
    }

    /// Probability that a silent error strikes while executing `w` units of
    /// work at speed `sigma`: `p = 1 − e^{−λw/σ}`.
    #[inline]
    pub fn p_error(&self, w: f64, sigma: f64) -> f64 {
        crate::error_model::strike_probability(self.lambda, w / sigma)
    }

    /// The platform as a [`MixedModel`] with no fail-stop errors: the
    /// parameters of the renewal form this model is an instance of.
    #[inline]
    pub(crate) fn as_mixed(&self) -> MixedModel {
        let rates = ErrorRates {
            silent: self.lambda,
            fail_stop: 0.0,
        };
        MixedModel::new(rates, self.costs, self.power)
    }

    /// Proposition 1 — expected time to execute a pattern of size `w` when
    /// **all** executions (first and re-executions) run at speed `sigma`.
    pub fn expected_time_single(&self, w: f64, sigma: f64) -> f64 {
        renewal(&self.as_mixed(), Exponential, w, 1, sigma, &[sigma]).time
    }

    /// Proposition 2 — expected time to execute a pattern of size `w` with
    /// first execution at `sigma1` and all re-executions at `sigma2`.
    pub fn expected_time(&self, w: f64, sigma1: f64, sigma2: f64) -> f64 {
        renewal(&self.as_mixed(), Exponential, w, 1, sigma1, &[sigma2]).time
    }

    /// Proposition 3 — expected energy to execute a pattern of size `w`
    /// with first execution at `sigma1` and re-executions at `sigma2`.
    pub fn expected_energy(&self, w: f64, sigma1: f64, sigma2: f64) -> f64 {
        renewal(&self.as_mixed(), Exponential, w, 1, sigma1, &[sigma2]).energy
    }

    /// Exact expected time per unit of work, `T(W,σ₁,σ₂)/W`.
    #[inline]
    pub fn time_overhead(&self, w: f64, sigma1: f64, sigma2: f64) -> f64 {
        self.expected_time(w, sigma1, sigma2) / w
    }

    /// Exact expected energy per unit of work, `E(W,σ₁,σ₂)/W`.
    #[inline]
    pub fn energy_overhead(&self, w: f64, sigma1: f64, sigma2: f64) -> f64 {
        self.expected_energy(w, sigma1, sigma2) / w
    }

    /// Expected number of executions of the pattern (first + re-executions)
    /// until the verification succeeds: `1 + p₁·e^{λW/σ₂}`, since the
    /// first execution fails with probability `p₁ = 1 − e^{−λW/σ₁}` and
    /// each re-execution at `σ₂` succeeds with probability `e^{−λW/σ₂}`.
    pub fn expected_executions(&self, w: f64, sigma1: f64, sigma2: f64) -> f64 {
        renewal(&self.as_mixed(), Exponential, w, 1, sigma1, &[sigma2]).executions
    }

    /// Sweep helper: a copy with a different error rate.
    #[must_use]
    pub fn with_lambda(mut self, lambda: f64) -> Self {
        self.lambda = lambda;
        self
    }

    /// Sweep helper: a copy with different costs.
    #[must_use]
    pub fn with_costs(mut self, costs: ResilienceCosts) -> Self {
        self.costs = costs;
        self
    }

    /// Sweep helper: a copy with a different power model.
    #[must_use]
    pub fn with_power(mut self, power: PowerModel) -> Self {
        self.power = power;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hera platform + Intel XScale processor with the paper's default
    /// `Pio = κ·σ_min³` (see DESIGN.md §2).
    pub(crate) fn hera_xscale() -> SilentModel {
        SilentModel::new(
            3.38e-6,
            ResilienceCosts::symmetric(300.0, 15.4),
            PowerModel::with_default_io(1550.0, 60.0, 0.15).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn prop2_reduces_to_prop1_on_diagonal() {
        let m = hera_xscale();
        for &w in &[100.0, 2764.0, 50_000.0] {
            for &s in &[0.15, 0.4, 1.0] {
                let t1 = m.expected_time_single(w, s);
                let t2 = m.expected_time(w, s, s);
                assert!(
                    (t1 - t2).abs() < 1e-9 * t1.max(1.0),
                    "w={w} s={s}: {t1} vs {t2}"
                );
            }
        }
    }

    #[test]
    fn no_errors_means_plain_execution() {
        let m = hera_xscale().with_lambda(0.0);
        let w = 1000.0;
        let t = m.expected_time(w, 0.4, 0.8);
        // C + (W+V)/σ1 only; the re-execution term vanishes.
        let expected = 300.0 + (w + 15.4) / 0.4;
        assert!((t - expected).abs() < 1e-9);
        let e = m.expected_energy(w, 0.4, 0.8);
        let p = m.power;
        let expected_e = 300.0 * p.io_power() + (w + 15.4) / 0.4 * p.compute_power(0.4);
        assert!((e - expected_e).abs() < 1e-9);
        assert!((m.expected_executions(w, 0.4, 0.8) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn time_increases_with_lambda() {
        let m = hera_xscale();
        let w = 5000.0;
        let t_lo = m.with_lambda(1e-7).expected_time(w, 0.4, 0.4);
        let t_mid = m.with_lambda(1e-5).expected_time(w, 0.4, 0.4);
        let t_hi = m.with_lambda(1e-3).expected_time(w, 0.4, 0.4);
        assert!(t_lo < t_mid && t_mid < t_hi);
    }

    #[test]
    fn recursive_equation_fixed_point() {
        // T(W,σ1,σ2) must satisfy its defining recursion:
        // T = (W+V)/σ1 + p1·(R + T(W,σ2,σ2)) + (1−p1)·C.
        let m = hera_xscale().with_lambda(1e-4);
        let (w, s1, s2) = (2000.0, 0.6, 0.9);
        let p1 = m.p_error(w, s1);
        let lhs = m.expected_time(w, s1, s2);
        let rhs = (w + m.costs.verification) / s1
            + p1 * (m.costs.recovery + m.expected_time_single(w, s2))
            + (1.0 - p1) * m.costs.checkpoint;
        assert!((lhs - rhs).abs() < 1e-9 * lhs, "{lhs} vs {rhs}");
    }

    #[test]
    fn single_speed_recursive_equation_fixed_point() {
        // T(W,σ,σ) = (W+V)/σ + p·(R + T) + (1−p)·C.
        let m = hera_xscale().with_lambda(5e-5);
        let (w, s) = (3000.0, 0.8);
        let p = m.p_error(w, s);
        let t = m.expected_time_single(w, s);
        let rhs = (w + m.costs.verification) / s
            + p * (m.costs.recovery + t)
            + (1.0 - p) * m.costs.checkpoint;
        assert!((t - rhs).abs() < 1e-9 * t);
    }

    #[test]
    fn energy_recursive_equation_fixed_point() {
        // E(W,σ1,σ2) = (W+V)/σ1·P(σ1) + p1·(R·Pio + E(W,σ2,σ2)) + (1−p1)·C·Pio.
        let m = hera_xscale().with_lambda(1e-4);
        let (w, s1, s2) = (2000.0, 0.6, 0.9);
        let p1 = m.p_error(w, s1);
        let e_rexec = m.expected_energy(w, s2, s2);
        let lhs = m.expected_energy(w, s1, s2);
        let rhs = (w + m.costs.verification) / s1 * m.power.compute_power(s1)
            + p1 * (m.costs.recovery * m.power.io_power() + e_rexec)
            + (1.0 - p1) * m.costs.checkpoint * m.power.io_power();
        assert!((lhs - rhs).abs() < 1e-9 * lhs, "{lhs} vs {rhs}");
    }

    #[test]
    fn expected_executions_matches_geometric_series() {
        let m = hera_xscale().with_lambda(2e-4);
        let (w, s1, s2) = (4000.0, 0.4, 0.8);
        let p1 = m.p_error(w, s1);
        let p2 = m.p_error(w, s2);
        // 1 + p1·(1 + p2 + p2² + …) = 1 + p1/(1−p2).
        let expected = 1.0 + p1 / (1.0 - p2);
        let got = m.expected_executions(w, s1, s2);
        assert!((got - expected).abs() < 1e-12 * expected);
    }

    #[test]
    fn faster_reexecution_shortens_expected_time_at_high_lambda() {
        let m = hera_xscale().with_lambda(1e-3);
        let w = 3000.0;
        let slow = m.expected_time(w, 0.4, 0.4);
        let fast = m.expected_time(w, 0.4, 1.0);
        assert!(fast < slow);
    }

    #[test]
    fn rejects_invalid_lambda() {
        let c = ResilienceCosts::symmetric(300.0, 15.4);
        let p = PowerModel::new(1550.0, 60.0, 0.0).unwrap();
        assert!(SilentModel::new(-1.0, c, p).is_err());
        assert!(SilentModel::new(f64::NAN, c, p).is_err());
    }

    #[test]
    fn overheads_divide_by_w() {
        let m = hera_xscale();
        let (w, s1, s2) = (2764.0, 0.4, 0.4);
        assert!((m.time_overhead(w, s1, s2) - m.expected_time(w, s1, s2) / w).abs() < 1e-15);
        assert!((m.energy_overhead(w, s1, s2) - m.expected_energy(w, s1, s2) / w).abs() < 1e-12);
    }

    #[test]
    fn builders_replace_fields() {
        let m = hera_xscale()
            .with_costs(ResilienceCosts::symmetric(100.0, 1.0))
            .with_power(PowerModel::new(1.0, 2.0, 3.0).unwrap())
            .with_lambda(9.9e-9);
        assert_eq!(m.costs.checkpoint, 100.0);
        assert_eq!(m.power.kappa, 1.0);
        assert_eq!(m.lambda, 9.9e-9);
    }
}
