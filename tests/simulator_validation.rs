//! Statistical integration tests: the Monte Carlo simulator converges to
//! the analytic expectations (Propositions 1–5) across diverse regimes.

use rexec::core::renewal::{renewal, Renewal};
use rexec::prelude::*;
use rexec::sim::engine::MAX_ATTEMPTS;
use rexec::sim::{ensure_completes, simulate_pattern_scenario, PatternOutcome};

fn hera_xscale_model() -> SilentModel {
    configuration(ConfigId {
        platform: PlatformId::Hera,
        processor: ProcessorId::IntelXScale,
    })
    .silent_model()
    .unwrap()
}

fn validate_silent(lambda: f64, w: f64, s1: f64, s2: f64, trials: u64, seed: u64) {
    let m = hera_xscale_model().with_lambda(lambda);
    let cfg = SimConfig::from_silent_model(&m, w, s1, s2);
    let report = MonteCarlo::new(cfg, trials, seed)
        .validate(
            m.expected_time(w, s1, s2),
            m.expected_energy(w, s1, s2),
            4.0, // 4σ: false-failure probability ~6e-5 per check
        )
        .unwrap();
    assert!(
        report.ok(),
        "λ={lambda} W={w} σ=({s1},{s2}): time rel {:.5} energy rel {:.5}",
        report.time_rel_error(),
        report.energy_rel_error()
    );
}

#[test]
fn silent_low_error_rate() {
    // Errors are rare: ~1 pattern in 43 fails.
    validate_silent(3.38e-6, 2764.0, 0.4, 0.4, 30_000, 101);
}

#[test]
fn silent_high_error_rate_two_speeds() {
    // λW/σ1 ≈ 0.7: heavy re-execution at a faster speed.
    validate_silent(1e-4, 2764.0, 0.4, 0.8, 40_000, 102);
}

#[test]
fn silent_slow_reexecution() {
    // Re-executions *slower* than the first run (σ2 < σ1).
    validate_silent(5e-5, 3000.0, 1.0, 0.4, 40_000, 103);
}

#[test]
fn silent_equal_speeds_matches_proposition_1() {
    let m = hera_xscale_model().with_lambda(8e-5);
    let (w, s) = (4000.0, 0.6);
    let cfg = SimConfig::from_silent_model(&m, w, s, s);
    let summary = MonteCarlo::new(cfg, 40_000, 104).run().unwrap();
    let t1 = m.expected_time_single(w, s);
    assert!(
        summary.time.contains(t1, 4.0),
        "Prop 1: sampled {} vs analytic {t1}",
        summary.time.mean()
    );
}

#[test]
fn mixed_errors_converge_to_recursion_values() {
    let m = hera_xscale_model();
    let mm = MixedModel::new(ErrorRates::new(6e-5, 6e-5).unwrap(), m.costs, m.power);
    let (w, s1, s2) = (2500.0, 0.4, 1.0);
    let cfg = SimConfig::from_mixed_model(&mm, w, s1, s2);
    let report = MonteCarlo::new(cfg, 50_000, 105)
        .validate(
            mm.expected_time(w, s1, s2),
            mm.expected_energy(w, s1, s2),
            4.0,
        )
        .unwrap();
    assert!(
        report.ok(),
        "time rel {:.5} energy rel {:.5}",
        report.time_rel_error(),
        report.energy_rel_error()
    );
}

#[test]
fn fail_stop_only_converges() {
    let m = hera_xscale_model();
    let mm = MixedModel::new(ErrorRates::fail_stop_only(1e-4).unwrap(), m.costs, m.power);
    let (w, s1, s2) = (3000.0, 0.5, 1.0); // σ2 = 2σ1, the Theorem 2 line
    let cfg = SimConfig::from_mixed_model(&mm, w, s1, s2);
    let report = MonteCarlo::new(cfg, 50_000, 106)
        .validate(
            mm.expected_time(w, s1, s2),
            mm.expected_energy(w, s1, s2),
            4.0,
        )
        .unwrap();
    assert!(
        report.ok(),
        "time rel {:.5} energy rel {:.5}",
        report.time_rel_error(),
        report.energy_rel_error()
    );
}

#[test]
fn sampled_error_counts_match_model_probabilities() {
    // The fraction of first attempts hit by a silent error must equal
    // p = 1 − e^{−λW/σ1}.
    let m = hera_xscale_model().with_lambda(2e-4);
    let (w, s1, s2) = (2000.0, 0.4, 1.0);
    let cfg = SimConfig::from_silent_model(&m, w, s1, s2);
    let trials = 60_000u64;
    let mut first_attempt_failures = 0u64;
    for i in 0..trials {
        let mut rng = SimRng::for_trial(777, i);
        let p = rexec::sim::simulate_pattern(&cfg, &mut rng);
        if p.attempts > 1 {
            first_attempt_failures += 1;
        }
    }
    let observed = first_attempt_failures as f64 / trials as f64;
    let expected = m.p_error(w, s1);
    let stderr = (expected * (1.0 - expected) / trials as f64).sqrt();
    assert!(
        (observed - expected).abs() < 4.0 * stderr,
        "observed {observed} vs p = {expected} (4σ = {})",
        4.0 * stderr
    );
}

#[test]
fn application_overhead_converges_to_pattern_overhead() {
    // A long application's makespan/Wbase must approach T(W)/W.
    let m = hera_xscale_model().with_lambda(1e-4);
    let (w, s1, s2) = (2764.0, 0.4, 0.8);
    let cfg = SimConfig::from_silent_model(&m, w, s1, s2);
    // Per-pattern outcomes have heavy relative variance at λW/σ ≈ 0.7
    // (roughly half the patterns re-execute), so use a long application
    // and a 5 % envelope (≈ 3σ of the 2000-pattern mean).
    let w_base = 2000.0 * w;
    let mut rng = SimRng::new(2025);
    let app = rexec::sim::simulate_application(&cfg, w_base, &mut rng);
    let analytic = m.time_overhead(w, s1, s2);
    let got = app.time_overhead(w_base);
    assert!(
        (got - analytic).abs() / analytic < 0.05,
        "application overhead {got} vs pattern model {analytic}"
    );
    let analytic_e = m.energy_overhead(w, s1, s2);
    let got_e = app.energy_overhead(w_base);
    assert!(
        (got_e - analytic_e).abs() / analytic_e < 0.05,
        "energy overhead {got_e} vs {analytic_e}"
    );
}

#[test]
fn expected_executions_matches_over_many_rates() {
    for (i, &lambda) in [1e-5, 5e-5, 2e-4].iter().enumerate() {
        let m = hera_xscale_model().with_lambda(lambda);
        let (w, s1, s2) = (2764.0, 0.4, 0.6);
        let cfg = SimConfig::from_silent_model(&m, w, s1, s2);
        let summary = MonteCarlo::new(cfg, 30_000, 900 + i as u64).run().unwrap();
        let expected = m.expected_executions(w, s1, s2);
        assert!(
            summary.attempts.contains(expected, 4.0),
            "λ={lambda}: sampled {} vs analytic {expected}",
            summary.attempts.mean()
        );
    }
}

/// Monte Carlo mean of time, energy and attempts over `trials` seeded
/// patterns drawn by `sample`.
fn sampled(
    trials: u64,
    seed: u64,
    mut sample: impl FnMut(&mut SimRng) -> PatternOutcome,
) -> Summary {
    let mut s = Summary::default();
    for i in 0..trials {
        let p = sample(&mut SimRng::for_trial(seed, i));
        s.time.push(p.time);
        s.energy.push(p.energy);
        s.attempts.push(f64::from(p.attempts));
    }
    s
}

fn assert_within(label: &str, s: &Summary, expected: &Renewal) {
    for (stat, got, want) in [
        ("time", &s.time, expected.time),
        ("energy", &s.energy, expected.energy),
        ("attempts", &s.attempts, expected.executions),
    ] {
        assert!(
            want.is_finite() && got.contains(want, 4.0),
            "{label}: sampled {stat} {} ± {} vs closed form {want}",
            got.mean(),
            4.0 * got.std_error()
        );
    }
}

/// Seeded random points of the (λˢ, λᶠ, speeds, W) space with a total
/// hazard of at most 2 per attempt at the slowest speed, so attempt
/// counts stay light-tailed enough for a 4σ check.
fn draw_point(rng: &mut SimRng, speeds: usize) -> (ErrorRates, f64, Vec<f64>) {
    const GRID: [f64; 5] = [0.15, 0.4, 0.6, 0.8, 1.0];
    let mut rate = || 1e-6 * 300f64.powf(rng.uniform_open());
    let silent = rate();
    let fail_stop = rate();
    // One point in three is silent-only, the paper's main model.
    let fail_stop = if rng.uniform_open() < 1.0 / 3.0 {
        0.0
    } else {
        fail_stop
    };
    let picks: Vec<f64> = (0..speeds)
        .map(|_| GRID[((rng.uniform_open() * 5.0) as usize).min(4)])
        .collect();
    let slowest = picks.iter().copied().fold(f64::INFINITY, f64::min);
    let w = (0.05 + 1.95 * rng.uniform_open()) * slowest / (silent + fail_stop);
    (
        ErrorRates::new(silent, fail_stop).unwrap(),
        w.min(5e4),
        picks,
    )
}

#[test]
fn renewal_closed_form_matches_the_scenario_engine_over_schedules() {
    // (λˢ, λᶠ, schedule) at q = 1: the per-attempt scenario engine
    // against the one renewal closed form.
    let m = hera_xscale_model();
    let mut draws = SimRng::new(0x5eed_0001);
    for point in 0..8 {
        let depth = 2 + point % 3;
        let (rates, w, speeds) = draw_point(&mut draws, depth);
        let mm = MixedModel::new(rates, m.costs, m.power);
        let schedule = SpeedSchedule::new(speeds[0], speeds[1..].to_vec()).unwrap();
        let cfg = SimConfig::from_mixed_model(&mm, w, speeds[0], schedule.settled());
        ensure_completes(&cfg, ErrorLaw::Exponential, Some(&schedule)).unwrap();
        let s = sampled(20_000, 4000 + point as u64, |rng| {
            simulate_pattern_scenario(&cfg, ErrorLaw::Exponential, Some(&schedule), rng)
        });
        let expected = renewal(&mm, w, 1, speeds[0], &speeds[1..]);
        assert_within(&format!("{rates:?} W={w} {schedule}"), &s, &expected);
    }
}

#[test]
fn renewal_closed_form_matches_the_segmented_engine() {
    // (λˢ, λᶠ, q) with two speeds: q verified segments per attempt.
    let m = hera_xscale_model();
    let mut draws = SimRng::new(0x5eed_0002);
    for point in 0..8 {
        let q = 1 + point % 5;
        let (rates, w, speeds) = draw_point(&mut draws, 2);
        let mm = MixedModel::new(rates, m.costs, m.power);
        let cfg = SimConfig::from_mixed_model(&mm, w, speeds[0], speeds[1]);
        let s = sampled(20_000, 5000 + u64::from(point), |rng| {
            simulate_pattern_segmented(&cfg, q, rng)
        });
        let expected = renewal(&mm, w, q, speeds[0], &speeds[1..]);
        assert_within(&format!("{rates:?} W={w} q={q} {speeds:?}"), &s, &expected);
    }
}

#[test]
fn renewal_closed_form_is_finite_wherever_the_engine_accepts() {
    // Just inside `ensure_completes`' bound (success probability
    // 128/MAX_ATTEMPTS at the settled speed, total hazard ≈ 11.27) the
    // simulator still runs the config, so every closed form must be
    // finite — silent-only and mixed, one and several verifications.
    let m = hera_xscale_model();
    let hazard = (f64::from(MAX_ATTEMPTS) / 128.0).ln() * (1.0 - 1e-9);
    let (s1, s2, w) = (0.4, 1.0, 5000.0);
    let v = m.costs.verification;
    for fail_share in [0.0, 0.5] {
        // λˢ·W/σ₂ + λᶠ·(W+V)/σ₂ = hazard.
        let lambda = hazard * s2 / (w + fail_share * v);
        let rates = ErrorRates::new(lambda * (1.0 - fail_share), lambda * fail_share).unwrap();
        let mm = MixedModel::new(rates, m.costs, m.power);
        let cfg = SimConfig::from_mixed_model(&mm, w, s1, s2);
        ensure_completes(&cfg, ErrorLaw::Exponential, None).unwrap();
        let over = SimConfig {
            w: w * 1.001,
            ..cfg
        };
        assert!(ensure_completes(&over, ErrorLaw::Exponential, None).is_err());
        for q in [1, 4] {
            let r = renewal(&mm, w, q, s1, &[s2]);
            assert!(
                r.time.is_finite() && r.energy.is_finite() && r.executions.is_finite(),
                "fail share {fail_share}, q = {q}: {r:?}"
            );
            assert!(r.executions > 1e4, "{r:?}");
        }
        let t = mm.expected_time(w, s1, s2);
        let e = mm.expected_energy(w, s1, s2);
        assert!(t.is_finite() && e.is_finite(), "{t} {e}");
    }
}
