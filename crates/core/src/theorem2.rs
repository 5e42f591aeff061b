//! Theorem 2 — the `Θ(λ^{-2/3})` checkpointing law (paper §5.3).
//!
//! With **fail-stop errors only** (rate `λ`) and a re-execution speed
//! exactly twice the first-execution speed (`σ₂ = 2σ₁ = 2σ`), the linear
//! coefficient of the second-order time overhead (Equation 11) vanishes and
//!
//! ```text
//! T(W,σ,2σ)/W  =  1/σ + C/W + λ²W²/(24σ³) + λR/σ + O(λ³W²)
//! ```
//!
//! which is minimized at
//!
//! ```text
//! Wopt = (12C/λ²)^(1/3) · σ
//! ```
//!
//! — the first resilience framework where the optimal checkpointing period
//! is *not* of the order of the square root of the platform MTBF:
//! `Wopt = Θ(λ^{-2/3})` instead of Young/Daly's `Θ(λ^{-1/2})`.

/// Theorem 2: optimal pattern size `Wopt = (12C/λ²)^{1/3}·σ` for fail-stop
/// errors with `σ₂ = 2σ₁ = 2σ`.
#[inline]
pub fn optimal_work(c: f64, lambda: f64, sigma: f64) -> f64 {
    (12.0 * c / (lambda * lambda)).cbrt() * sigma
}

/// The second-order time overhead along the Theorem 2 line (`σ₂ = 2σ`),
/// after the linear term cancels:
/// `1/σ + C/W + λ²W²/(24σ³) + λR/σ`.
#[inline]
pub fn time_overhead(c: f64, r: f64, lambda: f64, w: f64, sigma: f64) -> f64 {
    1.0 / sigma + c / w + lambda * lambda * w * w / (24.0 * sigma.powi(3)) + lambda * r / sigma
}

/// Fits the slope of `log Wopt` vs `log λ` by least squares over a set of
/// error rates. Theorem 2 predicts `−2/3`; Young/Daly predicts `−1/2`.
///
/// Callers feeding *measured* `Wopt` samples (e.g. the simulated-slope
/// experiment) get their inputs validated here instead of a silent NaN:
/// every coordinate must be strictly positive (the fit runs in log
/// space) and the `λ` values must not all coincide (the slope would be a
/// 0/0).
///
/// # Panics
///
/// * fewer than two points;
/// * any coordinate `≤ 0` or non-finite — its logarithm is undefined;
/// * zero variance in `ln λ` (all abscissae equal), which would divide
///   by zero.
pub fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    let n = points.len() as f64;
    assert!(points.len() >= 2, "need at least two points to fit a slope");
    let (mut sx, mut sy, mut sxx, mut sxy) = (0.0, 0.0, 0.0, 0.0);
    for &(x, y) in points {
        assert!(
            x > 0.0 && x.is_finite() && y > 0.0 && y.is_finite(),
            "log-log fit needs strictly positive finite coordinates, got ({x}, {y})"
        );
        let (lx, ly) = (x.ln(), y.ln());
        sx += lx;
        sy += ly;
        sxx += lx * lx;
        sxy += lx * ly;
    }
    let x_variance = n * sxx - sx * sx;
    // Exact-zero check is not enough: rounding can leave a tiny negative
    // residual when all abscissae are equal, so compare against the
    // magnitude of the sums.
    assert!(
        x_variance > f64::EPSILON * sxx.abs().max(1.0),
        "log-log fit needs at least two distinct abscissae (zero variance in ln x)"
    );
    (n * sxy - sx * sy) / x_variance
}

/// Convenience: `(λ, Wopt(λ))` samples of the Theorem 2 law over
/// logarithmically spaced rates in `[lambda_min, lambda_max]`.
pub fn wopt_samples(
    c: f64,
    sigma: f64,
    lambda_min: f64,
    lambda_max: f64,
    n: usize,
) -> Vec<(f64, f64)> {
    assert!(n >= 2 && lambda_min > 0.0 && lambda_max > lambda_min);
    let ratio = (lambda_max / lambda_min).ln();
    (0..n)
        .map(|i| {
            let lambda = lambda_min * (ratio * i as f64 / (n - 1) as f64).exp();
            (lambda, optimal_work(c, lambda, sigma))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daly;
    use crate::oracle::SecondOrder;

    #[test]
    fn closed_form_minimizes_second_order_overhead() {
        let (c, r, lambda, sigma) = (300.0, 300.0, 1e-5, 0.5);
        let w = optimal_work(c, lambda, sigma);
        let f = |w| time_overhead(c, r, lambda, w, sigma);
        assert!(f(w) <= f(w * 0.999));
        assert!(f(w) <= f(w * 1.001));
        // Analytic check: dT/dW = −C/W² + λ²W/(12σ³) = 0.
        let deriv = -c / (w * w) + lambda * lambda * w / (12.0 * sigma.powi(3));
        assert!(deriv.abs() < 1e-15);
    }

    #[test]
    fn slope_is_minus_two_thirds() {
        let pts = wopt_samples(300.0, 0.5, 1e-7, 1e-3, 25);
        let slope = loglog_slope(&pts);
        assert!((slope + 2.0 / 3.0).abs() < 1e-9, "slope = {slope}");
    }

    #[test]
    fn young_daly_slope_is_minus_half() {
        let pts: Vec<_> = (0..20)
            .map(|i| {
                let lambda = 1e-7 * 10f64.powf(i as f64 / 5.0);
                (lambda, daly::young_daly_work(300.0, lambda, 0.5))
            })
            .collect();
        let slope = loglog_slope(&pts);
        assert!((slope + 0.5).abs() < 1e-9, "slope = {slope}");
    }

    #[test]
    fn matches_second_order_expansion_coefficient() {
        // At σ2 = 2σ the Eq-(11) quadratic coefficient is 1/(24σ³), which is
        // what `time_overhead` hard-codes.
        let sigma = 0.7;
        let q = SecondOrder::quadratic_coefficient(sigma, 2.0 * sigma);
        assert!((q - 1.0 / (24.0 * sigma.powi(3))).abs() < 1e-12);
        // And the linear coefficient is exactly zero.
        assert!(SecondOrder::linear_coefficient(sigma, 2.0 * sigma).abs() < 1e-15);
    }

    #[test]
    fn wopt_grows_with_c_and_sigma() {
        let lambda = 1e-5;
        assert!(optimal_work(600.0, lambda, 0.5) > optimal_work(300.0, lambda, 0.5));
        assert!(optimal_work(300.0, lambda, 1.0) > optimal_work(300.0, lambda, 0.5));
        // Cube-root growth in C: ×8 in C doubles Wopt.
        let r = optimal_work(2400.0, lambda, 0.5) / optimal_work(300.0, lambda, 0.5);
        assert!((r - 2.0).abs() < 1e-12);
    }

    #[test]
    fn wopt_samples_are_log_spaced() {
        let pts = wopt_samples(300.0, 1.0, 1e-6, 1e-2, 5);
        assert_eq!(pts.len(), 5);
        assert!((pts[0].0 - 1e-6).abs() < 1e-18);
        assert!((pts[4].0 - 1e-2).abs() < 1e-10);
        let r1 = pts[1].0 / pts[0].0;
        let r2 = pts[2].0 / pts[1].0;
        assert!((r1 - r2).abs() / r1 < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least two points")]
    fn slope_needs_two_points() {
        loglog_slope(&[(1.0, 1.0)]);
    }

    #[test]
    #[should_panic(expected = "strictly positive finite coordinates")]
    fn slope_rejects_non_positive_coordinates() {
        loglog_slope(&[(1e-6, 1000.0), (1e-5, 0.0)]);
    }

    #[test]
    #[should_panic(expected = "strictly positive finite coordinates")]
    fn slope_rejects_nan_coordinates() {
        loglog_slope(&[(1e-6, 1000.0), (f64::NAN, 500.0)]);
    }

    #[test]
    #[should_panic(expected = "two distinct abscissae")]
    fn slope_rejects_coincident_abscissae() {
        loglog_slope(&[(1e-5, 1000.0), (1e-5, 500.0)]);
    }
}
