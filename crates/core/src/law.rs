//! Inter-error time laws beyond the exponential (memoryless) model.
//!
//! The paper assumes Poisson error processes, so inter-error times are
//! exponential and every attempt is a fresh Bernoulli trial — the
//! property the simulator's closed-form fast path is built on. Real
//! platforms also exhibit Weibull- and lognormal-distributed failure
//! inter-arrival times; this module adds those as [`ErrorLaw`]
//! variants, *mean-matched* to a nominal rate `λ` so that every law
//! with the same `λ` has the same expected inter-error time `1/λ` and
//! sweep axes stay comparable across laws.
//!
//! Sampling goes through the survival function: for `u` uniform in
//! `(0, 1]`, `X = S⁻¹(u)` has law `S`. For the exponential law this is
//! exactly `-ln(u)/λ` — bit-identical to the simulator's
//! `SimRng::exponential` when fed the same uniform draw, which is what
//! lets the scenario engine delegate the classical configuration to the
//! same code path without changing a single sampled bit.

use serde::{Deserialize, Serialize};

/// Distribution of silent-error inter-arrival times, mean-matched to a
/// nominal rate `λ` (every law has mean `1/λ`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum ErrorLaw {
    /// Exponential inter-error times (the paper's Poisson model).
    Exponential,
    /// Weibull inter-error times with the given shape `k`; the scale is
    /// chosen so the mean is `1/λ`. `k < 1` models infant mortality
    /// (decreasing hazard), `k > 1` wear-out (increasing hazard),
    /// `k = 1` degenerates to the exponential law.
    Weibull {
        /// Shape parameter `k > 0`.
        shape: f64,
    },
    /// Lognormal inter-error times with log-scale `s`; the log-mean is
    /// chosen so the mean is `1/λ`.
    LogNormal {
        /// Log-scale parameter `s > 0` (standard deviation of `ln X`).
        sigma: f64,
    },
}

impl ErrorLaw {
    /// Canonical lowercase name, as accepted by the CLI/serve `law`
    /// field.
    pub fn name(&self) -> &'static str {
        match self {
            ErrorLaw::Exponential => "exponential",
            ErrorLaw::Weibull { .. } => "weibull",
            ErrorLaw::LogNormal { .. } => "lognormal",
        }
    }

    /// Whether the law is memoryless. Only the exponential law is, and
    /// memorylessness is exactly what the simulator's closed-form fast
    /// path needs: it makes every attempt an i.i.d. Bernoulli trial, so
    /// attempt counts are geometric and run-length batching is valid.
    pub fn is_memoryless(&self) -> bool {
        matches!(self, ErrorLaw::Exponential)
    }

    /// Checks the shape parameter's domain. Returns the violated rule
    /// as a static string (mapped onto typed CLI/serve errors by the
    /// callers that own those error types).
    pub fn validate(&self) -> Result<(), &'static str> {
        match *self {
            ErrorLaw::Exponential => Ok(()),
            ErrorLaw::Weibull { shape } => {
                if shape.is_finite() && shape > 0.0 {
                    Ok(())
                } else {
                    Err("weibull shape must be finite and > 0")
                }
            }
            ErrorLaw::LogNormal { sigma } => {
                if sigma.is_finite() && sigma > 0.0 {
                    Ok(())
                } else {
                    Err("lognormal sigma must be finite and > 0")
                }
            }
        }
    }

    /// Mean inter-error time. All laws are mean-matched, so this is
    /// `1/λ` regardless of the variant.
    pub fn mean(&self, lambda: f64) -> f64 {
        1.0 / lambda
    }

    /// Variance of the inter-error time at nominal rate `lambda`.
    pub fn variance(&self, lambda: f64) -> f64 {
        let mean = 1.0 / lambda;
        match *self {
            ErrorLaw::Exponential => mean * mean,
            ErrorLaw::Weibull { shape } => {
                let eta = weibull_scale(shape, lambda);
                let g1 = ln_gamma(1.0 + 1.0 / shape).exp();
                let g2 = ln_gamma(1.0 + 2.0 / shape).exp();
                eta * eta * (g2 - g1 * g1)
            }
            ErrorLaw::LogNormal { sigma } => (sigma * sigma).exp_m1() * mean * mean,
        }
    }

    /// Cumulative hazard `H(x) = −ln S(x)` at nominal rate `lambda`:
    /// `λ·x` (exponential), `(x/η)^k` (Weibull), `−ln Φ̄(z)` with
    /// `z = (ln x − μ)/s` (lognormal).
    ///
    /// This is the hazard one attempt of `x` seconds accumulates, the
    /// form the [`renewal`](crate::renewal) closed form consumes: its
    /// failure probability `−expm1(−H)` keeps full precision where
    /// `1 − S` would cancel. Returns 0 for `x ≤ 0` and treats
    /// `lambda ≤ 0` as an error source that never fires, mirroring
    /// `SimRng::exponential`'s convention.
    #[inline]
    pub fn cumulative_hazard(&self, x: f64, lambda: f64) -> f64 {
        if lambda <= 0.0 || x <= 0.0 {
            return 0.0;
        }
        match *self {
            ErrorLaw::Exponential => lambda * x,
            ErrorLaw::Weibull { shape } => (x / weibull_scale(shape, lambda)).powf(shape),
            ErrorLaw::LogNormal { sigma } => {
                let z = (x.ln() - lognormal_mu(sigma, lambda)) / sigma;
                // Below the median take `Φ̄(z) = 1 − Φ̄(−z)` through
                // `ln_1p`, so that small hazards do not cancel.
                if z < 0.0 {
                    -(-norm_sf(-z)).ln_1p()
                } else {
                    -norm_sf(z).ln()
                }
            }
        }
    }

    /// Survival function `S(x) = P(X > x) = e^{−H(x)}` at nominal rate
    /// `lambda` (see [`cumulative_hazard`](Self::cumulative_hazard));
    /// 1 for `x ≤ 0` or `lambda ≤ 0`.
    pub fn survival(&self, x: f64, lambda: f64) -> f64 {
        (-self.cumulative_hazard(x, lambda)).exp()
    }

    /// Inverse survival function: maps `u ∈ (0, 1]` to the time `x`
    /// with `S(x) = u`. Feeding a uniform `(0, 1]` draw produces an
    /// inter-error time with this law — the sampling primitive the
    /// scenario engine uses.
    ///
    /// For [`ErrorLaw::Exponential`] — and for `Weibull { shape: 1.0 }`,
    /// which is the same distribution — this is exactly `-ln(u)/λ`,
    /// bit-identical to `SimRng::exponential` on the same draw (pinned
    /// by test; common-random-number validation depends on it).
    pub fn inverse_survival(&self, u: f64, lambda: f64) -> f64 {
        match *self {
            ErrorLaw::Exponential => -u.ln() / lambda,
            ErrorLaw::Weibull { shape } => {
                if shape == 1.0 {
                    -u.ln() / lambda
                } else {
                    weibull_scale(shape, lambda) * (-u.ln()).powf(1.0 / shape)
                }
            }
            ErrorLaw::LogNormal { sigma } => {
                let mu = lognormal_mu(sigma, lambda);
                (mu + sigma * inv_norm_cdf(1.0 - u)).exp()
            }
        }
    }

    /// Quantile function: the time `x` with `P(X ≤ x) = q`, for
    /// `q ∈ [0, 1)`.
    pub fn quantile(&self, q: f64, lambda: f64) -> f64 {
        self.inverse_survival(1.0 - q, lambda)
    }
}

/// Weibull scale `η` such that the mean `η·Γ(1 + 1/k)` equals `1/λ`.
fn weibull_scale(shape: f64, lambda: f64) -> f64 {
    1.0 / (lambda * ln_gamma(1.0 + 1.0 / shape).exp())
}

/// Lognormal log-mean `μ` such that the mean `e^{μ + s²/2}` equals `1/λ`.
fn lognormal_mu(sigma: f64, lambda: f64) -> f64 {
    -lambda.ln() - 0.5 * sigma * sigma
}

/// `ln Γ(x)` for `x > 0` via the Lanczos approximation (g = 7, 9
/// coefficients): relative error below 1e-13 over the domain used here
/// (`x ≥ 1` — the mean-matching arguments `1 + 1/k` and `1 + 2/k`).
fn ln_gamma(x: f64) -> f64 {
    const G: f64 = 7.0;
    const COEFFS: [f64; 9] = [
        0.999_999_999_999_809_9,
        676.520_368_121_885_1,
        -1_259.139_216_722_402_8,
        771.323_428_777_653_1,
        -176.615_029_162_140_6,
        12.507_343_278_686_905,
        -0.138_571_095_265_720_12,
        9.984_369_578_019_572e-6,
        1.505_632_735_149_311_6e-7,
    ];
    // Reflection for x < 0.5 keeps the approximation in its sweet spot.
    if x < 0.5 {
        let pi = std::f64::consts::PI;
        return (pi / (pi * x).sin()).ln() - ln_gamma(1.0 - x);
    }
    let x = x - 1.0;
    let mut a = COEFFS[0];
    for (i, &c) in COEFFS.iter().enumerate().skip(1) {
        a += c / (x + i as f64);
    }
    let t = x + G + 0.5;
    0.5 * (2.0 * std::f64::consts::PI).ln() + (x + 0.5) * t.ln() - t + a.ln()
}

/// Standard normal survival function `Q(z) = P(Z > z)` via the
/// Abramowitz & Stegun 26.2.17 rational approximation (absolute error
/// below 7.5e-8) — the lognormal cumulative hazard and survival, while
/// quantile sampling goes through the sharper [`inv_norm_cdf`].
fn norm_sf(z: f64) -> f64 {
    if z < 0.0 {
        return 1.0 - norm_sf(-z);
    }
    let t = 1.0 / (1.0 + 0.231_641_9 * z);
    let poly = t
        * (0.319_381_530
            + t * (-0.356_563_782
                + t * (1.781_477_937 + t * (-1.821_255_978 + t * 1.330_274_429))));
    let pdf = (-0.5 * z * z).exp() / (2.0 * std::f64::consts::PI).sqrt();
    pdf * poly
}

/// Inverse standard normal CDF via Acklam's rational approximation
/// (relative error below 1.15e-9 over the full open unit interval),
/// with the usual three-region split. `p` must lie in `(0, 1)`;
/// endpoints map to `∓∞`.
fn inv_norm_cdf(p: f64) -> f64 {
    const A: [f64; 6] = [
        -39.696_830_286_653_76,
        220.946_098_424_520_5,
        -275.928_510_446_968_7,
        138.357_751_867_269,
        -30.664_798_066_147_16,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -54.476_098_798_224_06,
        161.585_836_858_040_9,
        -155.698_979_859_886_6,
        66.801_311_887_719_72,
        -13.280_681_552_885_72,
    ];
    const C: [f64; 6] = [
        -0.007_784_894_002_430_293,
        -0.322_396_458_041_136_5,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        0.007_784_695_709_041_462,
        0.322_467_129_070_039_8,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.024_25;

    if p <= 0.0 {
        return f64::NEG_INFINITY;
    }
    if p >= 1.0 {
        return f64::INFINITY;
    }
    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        -inv_norm_cdf(1.0 - p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ln_gamma_matches_known_values() {
        // Γ(0.5) = √π, Γ(1) = 1, Γ(5) = 24.
        assert!((ln_gamma(0.5) - std::f64::consts::PI.sqrt().ln()).abs() < 1e-12);
        assert!(ln_gamma(1.0).abs() < 1e-12);
        assert!((ln_gamma(5.0) - 24.0_f64.ln()).abs() < 1e-12);
        // Recurrence Γ(x+1) = x·Γ(x) at a non-integer point.
        let x = 2.7;
        assert!((ln_gamma(x + 1.0) - (x.ln() + ln_gamma(x))).abs() < 1e-12);
    }

    #[test]
    fn inv_norm_cdf_matches_known_quantiles() {
        assert!(inv_norm_cdf(0.5).abs() < 1e-9);
        assert!((inv_norm_cdf(0.975) - 1.959_963_984_540_054).abs() < 1e-7);
        assert!((inv_norm_cdf(0.025) + 1.959_963_984_540_054).abs() < 1e-7);
        assert!((inv_norm_cdf(0.841_344_746_068_543) - 1.0).abs() < 1e-7);
    }

    #[test]
    fn norm_sf_is_consistent_with_its_inverse() {
        for &p in &[0.9, 0.5, 0.1, 0.01, 1e-3] {
            let z = inv_norm_cdf(1.0 - p);
            assert!((norm_sf(z) - p).abs() < 1e-6, "p={p}");
        }
    }

    #[test]
    fn exponential_inverse_survival_is_minus_ln_over_lambda() {
        let law = ErrorLaw::Exponential;
        for &u in &[1.0, 0.5, 1e-6] {
            let x = law.inverse_survival(u, 2.0e-4);
            assert_eq!(x.to_bits(), (-f64::ln(u) / 2.0e-4).to_bits());
        }
    }

    #[test]
    fn weibull_shape_one_is_bitwise_exponential() {
        let w = ErrorLaw::Weibull { shape: 1.0 };
        let e = ErrorLaw::Exponential;
        for &u in &[1.0, 0.731, 0.1, 3e-9] {
            assert_eq!(
                w.inverse_survival(u, 5e-5).to_bits(),
                e.inverse_survival(u, 5e-5).to_bits()
            );
        }
    }

    #[test]
    fn all_laws_are_mean_matched() {
        // Midpoint rule on X = S⁻¹(u): E[X] = ∫₀¹ S⁻¹(u) du ≈ 1/λ.
        let lambda = 1e-3;
        let n = 200_000;
        for law in [
            ErrorLaw::Exponential,
            ErrorLaw::Weibull { shape: 0.7 },
            ErrorLaw::Weibull { shape: 2.0 },
            ErrorLaw::LogNormal { sigma: 1.0 },
        ] {
            let mean: f64 = (0..n)
                .map(|i| law.inverse_survival((i as f64 + 0.5) / n as f64, lambda))
                .sum::<f64>()
                / n as f64;
            let rel = (mean - 1.0 / lambda).abs() * lambda;
            assert!(rel < 5e-3, "{}: mean {mean}, rel {rel}", law.name());
        }
    }

    #[test]
    fn survival_inverts_quantile() {
        let lambda = 2e-4;
        for law in [
            ErrorLaw::Exponential,
            ErrorLaw::Weibull { shape: 0.5 },
            ErrorLaw::Weibull { shape: 3.0 },
            ErrorLaw::LogNormal { sigma: 0.5 },
            ErrorLaw::LogNormal { sigma: 2.0 },
        ] {
            for &q in &[0.01, 0.5, 0.9, 0.99] {
                let x = law.quantile(q, lambda);
                let s = law.survival(x, lambda);
                assert!(
                    (s - (1.0 - q)).abs() < 1e-6,
                    "{} q={q}: S(x)={s}",
                    law.name()
                );
            }
        }
    }

    #[test]
    fn variance_matches_numeric_second_moment() {
        let lambda = 1e-2;
        let n = 400_000;
        for law in [
            ErrorLaw::Exponential,
            ErrorLaw::Weibull { shape: 1.5 },
            ErrorLaw::LogNormal { sigma: 0.8 },
        ] {
            let (mut m1, mut m2) = (0.0, 0.0);
            for i in 0..n {
                let x = law.inverse_survival((i as f64 + 0.5) / n as f64, lambda);
                m1 += x;
                m2 += x * x;
            }
            m1 /= n as f64;
            m2 /= n as f64;
            let var = m2 - m1 * m1;
            let rel = (var - law.variance(lambda)).abs() / law.variance(lambda);
            assert!(rel < 2e-2, "{}: var {var}, rel {rel}", law.name());
        }
    }

    #[test]
    fn validate_rejects_bad_shapes() {
        assert!(ErrorLaw::Exponential.validate().is_ok());
        assert!(ErrorLaw::Weibull { shape: 0.7 }.validate().is_ok());
        assert!(ErrorLaw::Weibull { shape: 0.0 }.validate().is_err());
        assert!(ErrorLaw::Weibull { shape: f64::NAN }.validate().is_err());
        assert!(ErrorLaw::Weibull {
            shape: f64::INFINITY
        }
        .validate()
        .is_err());
        assert!(ErrorLaw::LogNormal { sigma: 1.0 }.validate().is_ok());
        assert!(ErrorLaw::LogNormal { sigma: -1.0 }.validate().is_err());
        assert!(ErrorLaw::LogNormal { sigma: f64::NAN }.validate().is_err());
    }

    #[test]
    fn only_exponential_is_memoryless() {
        assert!(ErrorLaw::Exponential.is_memoryless());
        assert!(!ErrorLaw::Weibull { shape: 1.0 }.is_memoryless());
        assert!(!ErrorLaw::LogNormal { sigma: 1.0 }.is_memoryless());
    }

    #[test]
    fn zero_rate_never_fires() {
        for law in [
            ErrorLaw::Exponential,
            ErrorLaw::Weibull { shape: 2.0 },
            ErrorLaw::LogNormal { sigma: 1.0 },
        ] {
            assert_eq!(law.survival(1e9, 0.0), 1.0);
            assert_eq!(law.survival(1e9, -1.0), 1.0);
        }
    }

    #[test]
    fn survival_is_exp_of_minus_cumulative_hazard() {
        use crate::renewal::attempt;
        use crate::{ErrorRates, MixedModel, PowerModel, ResilienceCosts};
        let lambda = 2e-4;
        let m = MixedModel::new(
            ErrorRates::silent_only(lambda).unwrap(),
            ResilienceCosts::symmetric(300.0, 15.4),
            PowerModel::with_default_io(1550.0, 60.0, 0.15).unwrap(),
        );
        for law in [
            ErrorLaw::Exponential,
            ErrorLaw::Weibull { shape: 0.7 },
            ErrorLaw::Weibull { shape: 1.5 },
            ErrorLaw::LogNormal { sigma: 1.0 },
        ] {
            for x in [0.0, 1e-3, 1.0, 1e3, 5e3, 1e5] {
                let h = law.cumulative_hazard(x, lambda);
                assert!(h >= 0.0, "{} H({x}) = {h}", law.name());
                assert_eq!(law.survival(x, lambda), (-h).exp(), "{} x={x}", law.name());
            }
            assert_eq!(law.cumulative_hazard(1e3, 0.0), 0.0);
            // One attempt whose hazard is H ≈ 1e-12 (bisected in ln x):
            // renewal's failure probability is H·(1 − H/2) to 1e-15,
            // where `1 − S` is off by up to half an ulp of 1, ~5e-5.
            let (mut lo, mut hi) = (1e-30 / lambda, 1.0 / lambda);
            for _ in 0..200 {
                let mid = (lo * hi).sqrt();
                if law.cumulative_hazard(mid, lambda) < 1e-12 {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            let h = law.cumulative_hazard(hi, lambda);
            assert!((h / 1e-12 - 1.0).abs() < 1e-6, "{} H = {h}", law.name());
            let sigma = 0.5;
            let f = attempt(&m, law, hi * sigma, 1, sigma).fail;
            let want = h * (1.0 - 0.5 * h);
            assert!(
                (f - want).abs() <= 1e-15 * want,
                "{}: f = {f} vs {want}",
                law.name()
            );
        }
    }

    #[test]
    fn names_round_trip() {
        assert_eq!(ErrorLaw::Exponential.name(), "exponential");
        assert_eq!(ErrorLaw::Weibull { shape: 2.0 }.name(), "weibull");
        assert_eq!(ErrorLaw::LogNormal { sigma: 1.0 }.name(), "lognormal");
        assert_eq!(ErrorLaw::Exponential.mean(1e-4), 1e4);
    }
}
