//! Error processes (paper §2.1 and §5.1).
//!
//! Both silent and fail-stop errors arrive as independent Poisson processes:
//! the probability that an error of rate `λ` strikes during `t` seconds is
//! `p(t) = 1 − e^(−λt)`.
//!
//! * **Silent errors** (silent data corruptions) strike during computation
//!   and are only detected by the verification at the end of the pattern.
//! * **Fail-stop errors** (crashes) strike during computation *and*
//!   verification and interrupt the execution immediately.
//! * Neither strikes during checkpoint or recovery (paper assumption).

use crate::validate::{non_negative, ModelError};
use serde::{Deserialize, Serialize};

/// Probability that an exponential error of rate `lambda` strikes within
/// `t` seconds: `1 − e^(−λt)`.
///
/// Uses `exp_m1` for accuracy when `λt` is tiny.
#[inline]
pub fn strike_probability(lambda: f64, t: f64) -> f64 {
    -(-lambda * t).exp_m1()
}

/// Expected time lost when a fail-stop error interrupts an execution that
/// would have lasted `t` seconds, conditioned on the error striking within
/// those `t` seconds (paper §5.1, from Hérault & Robert \[14\]):
///
/// `Tlost(t) = 1/λ − t / (e^{λt} − 1)`.
///
/// As `λt → 0` this tends to `t/2` (errors strike uniformly, half the
/// interval is lost on average); the implementation switches to the series
/// expansion for tiny `λt` to avoid catastrophic cancellation.
#[inline]
pub fn expected_time_lost(lambda: f64, t: f64) -> f64 {
    let x = lambda * t;
    if x < 1e-6 {
        // 1/λ − t/(e^x − 1) = t·(1/x − 1/(e^x−1)) ≈ t·(1/2 − x/12 + x³/720)
        t * (0.5 - x / 12.0 + x * x * x / 720.0)
    } else {
        1.0 / lambda - t / x.exp_m1()
    }
}

/// Arrival rates of the two error sources.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ErrorRates {
    /// Silent-error rate `λˢ` (1/s).
    pub silent: f64,
    /// Fail-stop-error rate `λᶠ` (1/s).
    pub fail_stop: f64,
}

impl ErrorRates {
    /// Creates validated rates.
    ///
    /// # Errors
    /// [`ModelError::NonNegative`] on negative/non-finite rates.
    pub fn new(silent: f64, fail_stop: f64) -> Result<Self, ModelError> {
        Ok(ErrorRates {
            silent: non_negative("silent rate", silent)?,
            fail_stop: non_negative("fail-stop rate", fail_stop)?,
        })
    }

    /// Silent errors only (rate `λ`), the paper's main model.
    pub fn silent_only(lambda: f64) -> Result<Self, ModelError> {
        ErrorRates::new(lambda, 0.0)
    }

    /// Fail-stop errors only (rate `λ`), the model of Theorem 2.
    pub fn fail_stop_only(lambda: f64) -> Result<Self, ModelError> {
        ErrorRates::new(0.0, lambda)
    }

    /// Splits a total rate `λ` into a fail-stop fraction `f` and a silent
    /// fraction `s = 1 − f` (paper §5.2): `λᶠ = fλ`, `λˢ = (1−f)λ`.
    ///
    /// # Errors
    /// [`ModelError::InvalidFraction`] if `f ∉ \[0, 1\]`.
    pub fn from_total(lambda: f64, fail_stop_fraction: f64) -> Result<Self, ModelError> {
        let lambda = non_negative("total rate", lambda)?;
        if !(0.0..=1.0).contains(&fail_stop_fraction) || !fail_stop_fraction.is_finite() {
            return Err(ModelError::InvalidFraction {
                value: fail_stop_fraction,
            });
        }
        ErrorRates::new(
            lambda * (1.0 - fail_stop_fraction),
            lambda * fail_stop_fraction,
        )
    }

    /// Total error rate `λ = λˢ + λᶠ`.
    #[inline]
    pub fn total(&self) -> f64 {
        self.silent + self.fail_stop
    }

    /// Platform MTBF `µ = 1/λ` (infinite when both rates are 0).
    #[inline]
    pub fn mtbf(&self) -> f64 {
        1.0 / self.total()
    }

    /// Fail-stop fraction `f = λᶠ/λ` (0 when both rates are 0).
    #[inline]
    pub fn fail_stop_fraction(&self) -> f64 {
        let total = self.total();
        if total == 0.0 {
            0.0
        } else {
            self.fail_stop / total
        }
    }

    /// Probability a silent error strikes within `t` seconds.
    #[inline]
    pub fn p_silent(&self, t: f64) -> f64 {
        strike_probability(self.silent, t)
    }

    /// Probability a fail-stop error strikes within `t` seconds.
    #[inline]
    pub fn p_fail_stop(&self, t: f64) -> f64 {
        strike_probability(self.fail_stop, t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strike_probability_basics() {
        assert_eq!(strike_probability(0.0, 100.0), 0.0);
        assert_eq!(strike_probability(1.0, 0.0), 0.0);
        let p = strike_probability(1e-6, 1e6);
        assert!((p - (1.0 - (-1.0f64).exp())).abs() < 1e-12);
        // Tiny λt: p ≈ λt.
        let p_small = strike_probability(1e-9, 1.0);
        assert!((p_small - 1e-9).abs() < 1e-18);
    }

    #[test]
    fn time_lost_limits() {
        // λt → 0 ⇒ Tlost → t/2.
        let t = 100.0;
        let tl = expected_time_lost(1e-12, t);
        assert!((tl - t / 2.0).abs() < 1e-6);
        // Large λt ⇒ Tlost → 1/λ.
        let tl2 = expected_time_lost(1.0, 1e9);
        assert!((tl2 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn time_lost_series_matches_closed_form_at_crossover() {
        let lambda = 1e-4_f64;
        // Around x = λt = 1e-6, both branches must agree.
        for &t in &[0.009_f64, 0.0099, 0.01, 0.0101, 0.02] {
            let x = lambda * t;
            let series = t * (0.5 - x / 12.0 + x * x * x / 720.0);
            let closed = 1.0 / lambda - t / x.exp_m1();
            // The closed form itself loses ~ε/x relative precision to
            // cancellation near the crossover, which bounds the comparison.
            assert!(
                (series - closed).abs() < 1e-8 * t,
                "mismatch at x = {x}: {series} vs {closed}"
            );
        }
    }

    #[test]
    fn from_total_splits_rates() {
        let r = ErrorRates::from_total(1e-5, 0.25).unwrap();
        assert!((r.fail_stop - 2.5e-6).abs() < 1e-18);
        assert!((r.silent - 7.5e-6).abs() < 1e-18);
        assert!((r.total() - 1e-5).abs() < 1e-18);
        assert!((r.fail_stop_fraction() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn from_total_rejects_bad_fraction() {
        assert!(ErrorRates::from_total(1e-5, -0.1).is_err());
        assert!(ErrorRates::from_total(1e-5, 1.5).is_err());
        assert!(ErrorRates::from_total(1e-5, f64::NAN).is_err());
    }

    #[test]
    fn silent_only_and_fail_stop_only() {
        let s = ErrorRates::silent_only(3.38e-6).unwrap();
        assert_eq!(s.fail_stop, 0.0);
        assert_eq!(s.fail_stop_fraction(), 0.0);
        let f = ErrorRates::fail_stop_only(3.38e-6).unwrap();
        assert_eq!(f.silent, 0.0);
        assert_eq!(f.fail_stop_fraction(), 1.0);
    }

    #[test]
    fn mtbf_is_reciprocal_of_total() {
        let r = ErrorRates::silent_only(2e-6).unwrap();
        assert!((r.mtbf() - 5e5).abs() < 1e-6);
        let none = ErrorRates::new(0.0, 0.0).unwrap();
        assert!(none.mtbf().is_infinite());
        assert_eq!(none.fail_stop_fraction(), 0.0);
    }

    #[test]
    fn probabilities_split_by_source() {
        let r = ErrorRates::new(1e-3, 2e-3).unwrap();
        assert!((r.p_silent(100.0) - strike_probability(1e-3, 100.0)).abs() < 1e-15);
        assert!((r.p_fail_stop(100.0) - strike_probability(2e-3, 100.0)).abs() < 1e-15);
    }
}
