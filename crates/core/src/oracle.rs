//! The paper-literal formulas, kept as test oracles.
//!
//! Propositions 1–5 and the segment-by-segment `q`-verification attempt
//! check the one [`renewal`](crate::renewal) form every model delegates
//! to; Equations (10) and (11) check the first-order coefficients and
//! Theorem 2. Each function transcribes a printed formula term by term
//! and is compiled for tests only.

use crate::approx::OverheadCoefficients;
use crate::mixed::MixedModel;
use crate::pattern::SilentModel;

/// Proposition 1: `T(W,σ,σ) = C + e^{λW/σ}·(W+V)/σ + (e^{λW/σ} − 1)·R`.
pub(crate) fn prop1_time(m: &SilentModel, w: f64, sigma: f64) -> f64 {
    let c = m.costs.checkpoint;
    let r = m.costs.recovery;
    let wv = (w + m.costs.verification) / sigma;
    let growth = (m.lambda * w / sigma).exp();
    c + growth * wv + (growth - 1.0) * r
}

/// Proposition 2:
/// `T(W,σ₁,σ₂) = C + (W+V)/σ₁ + (1 − e^{−λW/σ₁})·e^{λW/σ₂}·(R + (W+V)/σ₂)`.
pub(crate) fn prop2_time(m: &SilentModel, w: f64, sigma1: f64, sigma2: f64) -> f64 {
    let c = m.costs.checkpoint;
    let r = m.costs.recovery;
    let v = m.costs.verification;
    let p1 = m.p_error(w, sigma1);
    let growth2 = (m.lambda * w / sigma2).exp();
    c + (w + v) / sigma1 + p1 * growth2 * (r + (w + v) / sigma2)
}

/// Proposition 3: Proposition 2 with each phase weighted by its power.
pub(crate) fn prop3_energy(m: &SilentModel, w: f64, sigma1: f64, sigma2: f64) -> f64 {
    let c = m.costs.checkpoint;
    let r = m.costs.recovery;
    let v = m.costs.verification;
    let p_io = m.power.io_power();
    let p1 = m.power.compute_power(sigma1);
    let p2 = m.power.compute_power(sigma2);
    let perr1 = m.p_error(w, sigma1);
    let growth2 = (m.lambda * w / sigma2).exp();
    (c + perr1 * growth2 * r) * p_io
        + (w + v) / sigma1 * p1
        + (w + v) / sigma2 * perr1 * growth2 * p2
}

/// Expected executions under Propositions 2–3: `1 + p₁·e^{λW/σ₂}`.
pub(crate) fn prop2_executions(m: &SilentModel, w: f64, sigma1: f64, sigma2: f64) -> f64 {
    1.0 + m.p_error(w, sigma1) * (m.lambda * w / sigma2).exp()
}

/// Proposition 4 as printed (Equation 7). Requires `λᶠ > 0`.
pub(crate) fn prop4_time(m: &MixedModel, w: f64, sigma1: f64, sigma2: f64) -> f64 {
    let lf = m.rates.fail_stop;
    let ls = m.rates.silent;
    let c = m.costs.checkpoint;
    let r = m.costs.recovery;
    let v = m.costs.verification;
    let both1 = (lf * (w + v) + ls * w) / sigma1; // exponent at σ1
    let both2 = (lf * (w + v) + ls * w) / sigma2; // exponent at σ2
    let p1 = -((-both1).exp_m1()); // 1 − e^{−(λf(W+V)+λsW)/σ1}
    c + p1 * both2.exp() * r
        + p1 * (ls * w / sigma2).exp() * v / sigma2
        + (1.0 / lf) * (-((-lf * (w + v) / sigma1).exp_m1()))
        + (1.0 / lf) * p1 * (ls * w / sigma2).exp() * ((lf * (w + v) / sigma2).exp() - 1.0)
}

/// Proposition 5 as printed. Requires `λᶠ > 0`.
pub(crate) fn prop5_energy(m: &MixedModel, w: f64, sigma1: f64, sigma2: f64) -> f64 {
    let lf = m.rates.fail_stop;
    let ls = m.rates.silent;
    let c = m.costs.checkpoint;
    let r = m.costs.recovery;
    let v = m.costs.verification;
    let p_io = m.power.io_power();
    let p1 = m.power.compute_power(sigma1);
    let p2 = m.power.compute_power(sigma2);
    let both1 = (lf * (w + v) + ls * w) / sigma1;
    let both2 = (lf * (w + v) + ls * w) / sigma2;
    let q1 = -((-both1).exp_m1());
    c * p_io
        + q1 * both2.exp() * r * p_io
        + q1 * (ls * w / sigma2).exp() * v / sigma2 * p2
        + (1.0 / lf) * q1 * (ls * w / sigma2).exp() * ((lf * (w + v) / sigma2).exp() - 1.0) * p2
        + (1.0 / lf) * (-((-lf * (w + v) / sigma1).exp_m1())) * p1
}

/// One attempt of a `q`-verification pattern at speed `sigma`, summed
/// segment by segment: the expected attempt time
/// `Σ_{i=1}^q s^{i−1}p·i·t + s^q·q·t` and the failure probability
/// `1 − s^q`, with per-segment success `s = e^{−λW/(qσ)}` and segment
/// time `t = (W/q + V)/σ`.
pub(crate) fn attempt_stats(m: &SilentModel, w: f64, q: u32, sigma: f64) -> (f64, f64) {
    let q_f = f64::from(q);
    let seg_work = w / q_f;
    let seg_time = (seg_work + m.costs.verification) / sigma;
    let p = crate::error_model::strike_probability(m.lambda, seg_work / sigma);
    let s = 1.0 - p;
    let mut time = 0.0;
    let mut s_pow = 1.0; // s^{i-1}
    for i in 1..=q {
        time += s_pow * p * f64::from(i) * seg_time;
        s_pow *= s;
    }
    time += s_pow * q_f * seg_time; // s_pow is now s^q
    (time, 1.0 - s_pow)
}

/// The `q`-verification pattern from [`attempt_stats`], solved as its
/// recursion: `T = a₁ + F₁·(R + T₂) + (1 − F₁)·C` with the re-execution
/// fixed point `T₂ = (a₂ + F₂R + (1 − F₂)C)/(1 − F₂)`. Returns
/// `(time, energy)`.
pub(crate) fn multiverif_expectations(
    m: &SilentModel,
    w: f64,
    q: u32,
    sigma1: f64,
    sigma2: f64,
) -> (f64, f64) {
    let c = m.costs.checkpoint;
    let r = m.costs.recovery;
    let p_io = m.power.io_power();
    let (p1, p2) = (m.power.compute_power(sigma1), m.power.compute_power(sigma2));
    let (a1, f1) = attempt_stats(m, w, q, sigma1);
    let (a2, f2) = attempt_stats(m, w, q, sigma2);
    let t2 = (a2 + f2 * r + (1.0 - f2) * c) / (1.0 - f2);
    let e2 = (a2 * p2 + f2 * r * p_io + (1.0 - f2) * c * p_io) / (1.0 - f2);
    (
        a1 + f1 * (r + t2) + (1.0 - f1) * c,
        a1 * p1 + f1 * (r * p_io + e2) + (1.0 - f1) * c * p_io,
    )
}

/// Coefficients of the mixed-error energy overhead, Equation (10).
pub(crate) fn energy_coefficients_mixed(m: &MixedModel, s1: f64, s2: f64) -> OverheadCoefficients {
    let lam = m.rates.total();
    let lf = m.rates.fail_stop;
    let (c, v, r) = (m.costs.checkpoint, m.costs.verification, m.costs.recovery);
    let p1 = m.power.compute_power(s1);
    let p2 = m.power.compute_power(s2);
    let pio = m.power.io_power();
    OverheadCoefficients {
        constant: lam * (r * pio + v * p2 / s2) / s1 + (1.0 - lf * v / s1) * p1 / s1,
        linear: lam * p2 / (s1 * s2) - lf * p1 / (2.0 * s1 * s1),
        inverse: c * pio + v * p1 / s1,
    }
}

/// Second-order (Taylor) approximations (paper §5.3).
pub(crate) struct SecondOrder;

impl SecondOrder {
    /// Second-order time overhead with **fail-stop errors only**
    /// (Proposition 7, Equation 11):
    ///
    /// ```text
    /// T/W = 1/σ₁ + C/W + (1/(σ₁σ₂) − 1/(2σ₁²))·λW + λR/σ₁
    ///     + (1/(6σ₁³) − 1/(2σ₁²σ₂) + 1/(2σ₁σ₂²))·λ²W²
    /// ```
    pub(crate) fn time_overhead_fail_stop(
        c: f64,
        r: f64,
        lambda: f64,
        w: f64,
        s1: f64,
        s2: f64,
    ) -> f64 {
        let lin = 1.0 / (s1 * s2) - 1.0 / (2.0 * s1 * s1);
        let quad =
            1.0 / (6.0 * s1 * s1 * s1) - 1.0 / (2.0 * s1 * s1 * s2) + 1.0 / (2.0 * s1 * s2 * s2);
        1.0 / s1 + c / w + lin * lambda * w + lambda * r / s1 + quad * lambda * lambda * w * w
    }

    /// Coefficient of the `λ²W²` term in Equation (11).
    pub(crate) fn quadratic_coefficient(s1: f64, s2: f64) -> f64 {
        1.0 / (6.0 * s1 * s1 * s1) - 1.0 / (2.0 * s1 * s1 * s2) + 1.0 / (2.0 * s1 * s2 * s2)
    }

    /// Coefficient of the `λW` term in Equation (11); zero exactly when
    /// `σ₂ = 2σ₁`, the hinge of Theorem 2.
    pub(crate) fn linear_coefficient(s1: f64, s2: f64) -> f64 {
        1.0 / (s1 * s2) - 1.0 / (2.0 * s1 * s1)
    }
}
