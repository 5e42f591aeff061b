//! Classical checkpointing-period baselines (Young \[23\], Daly \[12\], and the
//! silent-error variant of Hérault & Robert \[14\]) referenced in §1.
//!
//! For **fail-stop** errors at rate `λ` with checkpoint cost `C`, the
//! time-optimal period is `T = √(2C/λ)`: errors are detected immediately
//! and lose half the period on average. For **silent** errors with verified
//! checkpoints the error is always detected at the end of the period, the
//! whole period is lost, and the factor 2 disappears: `T = √((V+C)/λ)`.
//!
//! Speed-aware variants express the period as an amount of *work* `W`
//! executed at speed `σ` (so the wall-clock period is `W/σ`).

/// Young/Daly optimal checkpointing *period* (wall-clock seconds) for
/// fail-stop errors: `T = √(2C/λ)`.
#[inline]
pub fn young_daly_period(c: f64, lambda: f64) -> f64 {
    (2.0 * c / lambda).sqrt()
}

/// Young/Daly optimal pattern *size* (work units) when executing at speed
/// `σ` under fail-stop errors: minimizing
/// `T/W = 1/σ + C/W + λW/(2σ²) + λR/σ` gives `W = σ·√(2C/λ)`.
#[inline]
pub fn young_daly_work(c: f64, lambda: f64, sigma: f64) -> f64 {
    sigma * (2.0 * c / lambda).sqrt()
}

/// Optimal pattern *size* (work units) at speed `σ` under silent errors
/// with verified checkpoints: minimizing the first-order
/// `T/W = 1/σ + (C + V/σ)/W + λW/σ² + …` gives `W = σ·√((C + V/σ)/λ)`.
#[inline]
pub fn silent_work(c: f64, v: f64, lambda: f64, sigma: f64) -> f64 {
    sigma * ((c + v / sigma) / lambda).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::approx::FirstOrder;
    use crate::cost::ResilienceCosts;
    use crate::pattern::SilentModel;
    use crate::power::PowerModel;

    /// Optimal checkpointing *period* (wall-clock seconds) for silent errors
    /// with verified checkpoints: `T = √((V + C)/λ)`.
    fn silent_period(c: f64, v: f64, lambda: f64) -> f64 {
        ((v + c) / lambda).sqrt()
    }

    /// First-order time overhead of the fail-stop single-speed model at pattern
    /// size `w`: `1/σ + C/W + λW/(2σ²) + λR/σ`.
    fn fail_stop_time_overhead(c: f64, r: f64, lambda: f64, w: f64, sigma: f64) -> f64 {
        1.0 / sigma + c / w + lambda * w / (2.0 * sigma * sigma) + lambda * r / sigma
    }

    #[test]
    fn young_daly_classic_values() {
        // C = 300 s, MTBF = 1 day: T = √(2·300·86400) ≈ 7200 s.
        let t = young_daly_period(300.0, 1.0 / 86_400.0);
        assert!((t - 7200.0).abs() < 1.0);
    }

    #[test]
    fn silent_period_lacks_factor_two() {
        // With V = 0, the silent period is the fail-stop period / √2.
        let lambda = 1e-5;
        let c = 600.0;
        let ratio = young_daly_period(c, lambda) / silent_period(c, 0.0, lambda);
        assert!((ratio - 2.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn work_scales_linearly_with_speed() {
        let lambda = 1e-6;
        let w1 = young_daly_work(300.0, lambda, 0.5);
        let w2 = young_daly_work(300.0, lambda, 1.0);
        assert!((w2 / w1 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn silent_work_matches_first_order_time_minimizer() {
        // silent_work must equal the minimizer of Equation (2) on σ1=σ2=σ.
        let m = SilentModel::new(
            7.78e-6,
            ResilienceCosts::symmetric(439.0, 9.1),
            PowerModel::new(5756.0, 4.4, 100.0).unwrap(),
        )
        .unwrap();
        for &s in &[0.45, 0.8, 1.0] {
            let co = FirstOrder::time_coefficients(&m, s, s);
            let w_fo = co.minimizer();
            let w_cf = silent_work(m.costs.checkpoint, m.costs.verification, m.lambda, s);
            assert!((w_fo - w_cf).abs() < 1e-9 * w_fo, "σ={s}: {w_fo} vs {w_cf}");
        }
    }

    #[test]
    fn fail_stop_overhead_minimized_at_young_daly_work() {
        let (c, r, lambda, sigma) = (300.0, 300.0, 1e-6, 0.8);
        let w = young_daly_work(c, lambda, sigma);
        let f = |w| fail_stop_time_overhead(c, r, lambda, w, sigma);
        assert!(f(w) <= f(w * 0.99));
        assert!(f(w) <= f(w * 1.01));
    }

    #[test]
    fn periods_scale_as_inverse_sqrt_lambda() {
        let c = 300.0;
        let t1 = young_daly_period(c, 1e-6);
        let t2 = young_daly_period(c, 4e-6);
        assert!((t1 / t2 - 2.0).abs() < 1e-12);
        let s1 = silent_period(c, 10.0, 1e-6);
        let s2 = silent_period(c, 10.0, 4e-6);
        assert!((s1 / s2 - 2.0).abs() < 1e-12);
    }
}
