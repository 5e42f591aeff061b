//! The renewal closed form behind every exact expectation.
//!
//! A pattern is a run of *attempts*, each ending in success or failure,
//! then one checkpoint `C`. Attempt `0` runs at `σ₁`, attempt `i ≥ 1` at
//! `retries[min(i, len) − 1]`, and every failure costs a recovery `R`.
//! One attempt at speed `σ` splits its `W` work into `q` verified
//! segments; each segment takes `t = (W/q + V)/σ` and survives both
//! error sources — fail-stop (rate `λᶠ`) over all of `t`, silent (rate
//! `λˢ`) over its `W/(qσ)` of work — with probability `e^{−x/q}`, where
//!
//! ```text
//! x = q·λᶠ·t + H(W/σ)                         total hazard of the attempt
//! a = (1 − e^{−λᶠt})/λᶠ · Σ_{k<q} e^{−kx/q}   expected compute time
//! f = 1 − e^{−x}                             failure probability
//! ```
//!
//! (`(1 − e^{−λᶠt})/λᶠ = E[min(Tᶠ, t)]` is a segment's expected length
//! when a fail-stop may cut it short; it is `t` for `λᶠ = 0`.) With
//! `reachᵢ = ∏_{j<i} f_j` the probability that attempt `i` runs,
//!
//! ```text
//! T = C + Σ_{i<len} reachᵢ·(aᵢ + fᵢ·R) + reach_len·e^{x_s}·(a_s + f_s·R)
//! ```
//!
//! where the last term sums the geometric tail at the settled speed `s`:
//! `Σ_k f_s^k = 1/(1 − f_s) = e^{x_s}`. Energy weighs each phase by the
//! power drawn while it elapses (`Pio` during `C` and `R`, `P(σ)`
//! during compute), and the attempt count is the same sum with `1` in
//! place of each phase. Multiplying by `e^{x_s}` rather than dividing by
//! `1 − f_s` keeps the tail finite where `1 − e^{−x}` rounds to 1.
//!
//! `H` is the silent [`ErrorLaw`]'s cumulative hazard at rate `λˢ`,
//! `λˢ·W/σ` for the paper's exponential law. Any law fits one attempt
//! (`q = 1`): a detected error rolls the pattern back, so each attempt
//! draws a fresh inter-error time and fails independently with
//! probability `1 − e^{−H}` — the retry count stays geometric whether
//! or not the law is memoryless. Only segmenting an attempt (`q > 1`)
//! needs the exponential law, whose hazard splits evenly over segments.
//!
//! Every model is an instance:
//!
//! * [`SilentModel`](crate::SilentModel) (Propositions 1–3): `λᶠ = 0`,
//!   `q = 1`, `retries = [σ₂]`;
//! * [`MixedModel`] (Propositions 4–5 via
//!   Equation 8): `q = 1`, `retries = [σ₂]`;
//! * [`multiverif`](crate::multiverif): `λᶠ = 0`, `q ≥ 1`,
//!   `retries = [σ₂]`;
//! * [`ScheduleModel`](crate::ScheduleModel): `λᶠ = 0`, `q = 1`, any
//!   `retries`, any law.

use crate::law::ErrorLaw;
use crate::mixed::MixedModel;

/// Expected time, energy and number of attempts of one pattern.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Renewal {
    /// Expected time from the pattern's start to its checkpoint (s).
    pub time: f64,
    /// Expected energy over the same span (mJ).
    pub energy: f64,
    /// Expected number of attempts, the first one included.
    pub executions: f64,
}

/// One attempt at a single speed.
pub(crate) struct Attempt {
    /// Expected compute time `a`.
    pub(crate) time: f64,
    /// Failure probability `f = 1 − e^{−x}`.
    pub(crate) fail: f64,
    /// Growth factor `e^{x} = 1/(1 − f)`.
    pub(crate) growth: f64,
}

#[inline]
pub(crate) fn attempt(m: &MixedModel, law: ErrorLaw, w: f64, q: u32, sigma: f64) -> Attempt {
    let fail_stop = m.rates.fail_stop;
    let seg = w / f64::from(q);
    let t = (seg + m.costs.verification) / sigma;
    let x_seg = fail_stop * t + law.cumulative_hazard(seg / sigma, m.rates.silent);
    let seg_time = if fail_stop > 0.0 {
        -(-fail_stop * t).exp_m1() / fail_stop
    } else {
        t
    };
    let survive = (-x_seg).exp();
    let (mut reach, mut sum) = (1.0, 0.0);
    for _ in 0..q {
        sum += reach;
        reach *= survive;
    }
    let x = f64::from(q) * x_seg;
    Attempt {
        time: seg_time * sum,
        fail: -(-x).exp_m1(),
        growth: x.exp(),
    }
}

/// Expected time, energy and attempt count of a pattern of `w` work in
/// `q` verified segments, first attempt at `sigma1` and attempt `i ≥ 1`
/// at `retries[min(i, len) − 1]`, silent errors drawn from `law` (see
/// the module docs).
///
/// # Panics
/// If `q == 0`, `retries` is empty, or `q > 1` with a law that is not
/// memoryless.
#[inline]
pub fn renewal(
    m: &MixedModel,
    law: ErrorLaw,
    w: f64,
    q: u32,
    sigma1: f64,
    retries: &[f64],
) -> Renewal {
    assert!(q >= 1, "need at least one verification per pattern");
    assert!(!retries.is_empty(), "need a re-execution speed");
    assert!(
        q == 1 || law.is_memoryless(),
        "segmented attempts need the exponential law"
    );
    let (c, r) = (m.costs.checkpoint, m.costs.recovery);
    let p_io = m.power.io_power();
    let mut out = Renewal {
        time: c,
        energy: c * p_io,
        executions: 0.0,
    };
    let mut reach = 1.0;
    let speeds = std::iter::once(sigma1).chain(retries.iter().copied());
    for (i, s) in speeds.enumerate() {
        // An attempt that is never reached contributes nothing, even
        // where its own tail diverges (0·∞ = 0).
        if reach == 0.0 {
            break;
        }
        let a = attempt(m, law, w, q, s);
        let weight = if i == retries.len() {
            reach * a.growth
        } else {
            reach
        };
        out.time += weight * (a.time + a.fail * r);
        out.energy += weight * (a.time * m.power.compute_power(s) + a.fail * r * p_io);
        out.executions += weight;
        reach *= a.fail;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::ResilienceCosts;
    use crate::error_model::ErrorRates;
    use crate::oracle;
    use crate::pattern::SilentModel;
    use crate::power::PowerModel;
    use crate::schedule::{ScheduleModel, SpeedSchedule};
    use crate::{multiverif, MixedModel};

    /// Hera costs and XScale power at silent-error rate `lambda`.
    fn hera_xscale(lambda: f64) -> SilentModel {
        SilentModel::new(
            lambda,
            ResilienceCosts::symmetric(300.0, 15.4),
            PowerModel::with_default_io(1550.0, 60.0, 0.15).unwrap(),
        )
        .unwrap()
    }

    fn assert_close(label: &str, got: f64, want: f64, rel: f64) {
        assert!(got.is_finite(), "{label}: {got} is not finite");
        assert!(
            (got - want).abs() <= rel * want.abs(),
            "{label}: {got} vs oracle {want} (rel {:e})",
            (got - want).abs() / want.abs()
        );
    }

    /// Every silent-only model against Propositions 1–3.
    fn check_all_models(m: &SilentModel, w: f64, s1: f64, s2: f64, rel: f64) {
        let mixed = MixedModel::new(ErrorRates::silent_only(m.lambda).unwrap(), m.costs, m.power);
        let sched = ScheduleModel::new(*m, SpeedSchedule::two_speed(s1, s2).unwrap());
        let t = oracle::prop2_time(m, w, s1, s2);
        let e = oracle::prop3_energy(m, w, s1, s2);
        let n = oracle::prop2_executions(m, w, s1, s2);
        for (label, got, want) in [
            ("SilentModel T", m.expected_time(w, s1, s2), t),
            ("SilentModel E", m.expected_energy(w, s1, s2), e),
            ("SilentModel N", m.expected_executions(w, s1, s2), n),
            ("MixedModel T", mixed.expected_time(w, s1, s2), t),
            ("MixedModel E", mixed.expected_energy(w, s1, s2), e),
            (
                "multiverif T",
                multiverif::expected_time(m, w, 1, s1, s2),
                t,
            ),
            (
                "multiverif E",
                multiverif::expected_energy(m, w, 1, s1, s2),
                e,
            ),
            ("ScheduleModel T", sched.expected_time(w), t),
            ("ScheduleModel E", sched.expected_energy(w), e),
            ("ScheduleModel N", sched.expected_executions(w), n),
        ] {
            assert_close(&format!("{label} at W={w}, ({s1}, {s2})"), got, want, rel);
        }
        let t1 = oracle::prop1_time(m, w, s2);
        assert_close(
            "SilentModel T single",
            m.expected_time_single(w, s2),
            t1,
            rel,
        );
        assert_close(
            "MixedModel T single",
            mixed.expected_time_single(w, s2),
            t1,
            rel,
        );
    }

    /// `q`-verification patterns against the segment-by-segment
    /// `attempt_stats` oracle (whose tail divides by `1 − F`, so only
    /// away from overflow).
    fn check_multiverif(m: &SilentModel, w: f64, s1: f64, s2: f64, rel: f64) {
        for q in [2, 5] {
            let (tq, eq) = oracle::multiverif_expectations(m, w, q, s1, s2);
            let label = format!("multiverif q={q} at W={w}");
            assert_close(&label, multiverif::expected_time(m, w, q, s1, s2), tq, rel);
            assert_close(
                &label,
                multiverif::expected_energy(m, w, q, s1, s2),
                eq,
                rel,
            );
        }
    }

    #[test]
    fn every_model_matches_the_paper_literal_forms() {
        for lambda in [3.38e-6, 1e-4, 1e-3] {
            let m = hera_xscale(lambda);
            for (w, s1, s2) in [(2764.0, 0.4, 0.4), (5000.0, 0.6, 1.0), (800.0, 1.0, 0.15)] {
                check_all_models(&m, w, s1, s2, 1e-12);
                check_multiverif(&m, w, s1, s2, 1e-12);
            }
        }
    }

    #[test]
    fn tail_stays_finite_where_one_minus_p_rounds_to_one() {
        // λW/σ = 38: 1 − e^{−38} rounds to 1, so a tail computed as
        // `/(1 − p)` is +∞ where Proposition 2 is ~1.2e21; at 30 it is
        // finite but 1.7e-4 off. Multiplying by e^{x} keeps every
        // model on the oracle.
        let m = hera_xscale(1e-3);
        for x in [30.0, 38.0, 100.0] {
            check_all_models(&m, x / m.lambda, 1.0, 1.0, 1e-12);
        }
    }

    #[test]
    fn edge_hazards_match_the_paper_literal_forms() {
        let m = hera_xscale(1e-3);
        for x in [1e-12, 1e-8, 1e-4] {
            // λW = x: the hazard is x at σ = 1 and 2x at σ = 0.5.
            for (s1, s2) in [(1.0, 0.5), (0.5, 1.0)] {
                check_all_models(&m, x / m.lambda, s1, s2, 1e-12);
                check_multiverif(&m, x / m.lambda, s1, s2, 1e-12);
            }
        }
    }

    #[test]
    fn mixed_edge_hazards_match_printed_props_4_5_minus_the_extra_term() {
        // The printed Propositions 4–5 exceed Equation 8 by exactly
        // `q₁·e^{λˢW/σ₂}·V/σ₂` (times `P(σ₂)` for energy); with that
        // term removed they are an oracle for the fail-stop branch.
        let base = hera_xscale(0.0);
        for x in [1e-12, 1e-8, 1e-4, 1.0] {
            let w = 2000.0;
            let rates = ErrorRates::new(0.5 * x / w, 0.5 * x / w).unwrap();
            let m = MixedModel::new(rates, base.costs, base.power);
            for (s1, s2) in [(1.0, 0.5), (0.4, 0.8)] {
                let v = m.costs.verification;
                let both1 = (rates.fail_stop * (w + v) + rates.silent * w) / s1;
                let extra = -(-both1).exp_m1() * (rates.silent * w / s2).exp() * v / s2;
                let t = oracle::prop4_time(&m, w, s1, s2) - extra;
                let e = oracle::prop5_energy(&m, w, s1, s2) - extra * m.power.compute_power(s2);
                let label = format!("x={x} ({s1}, {s2})");
                assert_close(&label, m.expected_time(w, s1, s2), t, 1e-12);
                assert_close(&label, m.expected_energy(w, s1, s2), e, 1e-12);
            }
        }
    }

    #[test]
    fn checkpoint_and_recovery_are_error_free() {
        // With only I/O drawing power, energy counts the time spent in
        // C and R: one checkpoint plus one whole recovery per expected
        // failed attempt, whatever the fail-stop rate.
        let power = PowerModel::new(0.0, 0.0, 1.0).unwrap();
        let costs = ResilienceCosts::symmetric(300.0, 15.4);
        for (silent, fail_stop) in [(0.0, 5e-4), (2e-4, 5e-4)] {
            let m = MixedModel::new(ErrorRates::new(silent, fail_stop).unwrap(), costs, power);
            for q in [1, 3] {
                let out = renewal(&m, ErrorLaw::Exponential, 2764.0, q, 0.4, &[0.8, 1.0]);
                let io = costs.checkpoint + (out.executions - 1.0) * costs.recovery;
                assert_close(&format!("q={q}"), out.energy, io, 1e-12);
            }
        }
    }

    #[test]
    fn unreached_attempts_contribute_nothing() {
        // λ = 0: the first attempt always succeeds, so the tail (here
        // at a settled speed whose own growth factor is 1) is skipped.
        let m = hera_xscale(0.0).as_mixed();
        let out = renewal(&m, ErrorLaw::Exponential, 1000.0, 3, 0.5, &[0.4, 1.0]);
        let t = (1000.0 + 3.0 * m.costs.verification) / 0.5;
        assert_eq!(out.executions, 1.0);
        assert!((out.time - (m.costs.checkpoint + t)).abs() < 1e-9);
    }
}
