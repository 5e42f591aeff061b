//! Simulation of patterns with several verifications per checkpoint
//! (validates `rexec_core::multiverif`).
//!
//! The `W` work of a pattern is split into `q` equal segments, each
//! followed by a verification; the checkpoint is taken after the last
//! verification. A silent error is detected by the verification at the
//! end of the segment it struck (earlier segments' verifications cannot
//! see it); a fail-stop error aborts the attempt wherever it strikes.
//! This is the engine's one per-attempt loop with `q` segments, so
//! `q = 1` is exactly [`simulate_pattern`](crate::engine::simulate_pattern).

use crate::engine::{run_pattern, PatternOutcome, SimConfig};
use crate::rng::SimRng;
use rexec_core::ErrorLaw;

/// Simulates one segmented pattern (`q` verifications, one checkpoint)
/// until it checkpoints successfully.
///
/// # Panics
/// If `q == 0`, or after
/// [`MAX_ATTEMPTS`](crate::engine::MAX_ATTEMPTS) failed executions.
pub fn simulate_pattern_segmented(cfg: &SimConfig, q: u32, rng: &mut SimRng) -> PatternOutcome {
    assert!(q >= 1, "need at least one verification per pattern");
    run_pattern(cfg, ErrorLaw::Exponential, None, q, rng, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::simulate_pattern;
    use crate::stats::Stats;
    use rexec_core::{multiverif, ErrorRates, PowerModel, ResilienceCosts, SilentModel};

    fn model(lambda: f64) -> SilentModel {
        SilentModel::new(
            lambda,
            ResilienceCosts::symmetric(300.0, 15.4),
            PowerModel::with_default_io(1550.0, 60.0, 0.15).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn q1_equals_plain_pattern_simulation() {
        // Same RNG consumption order and the same clock arithmetic →
        // identical outcomes, silent-only and mixed. The mixed case
        // covers fail-stops that strike during a verification, whose
        // lost time must round exactly like the reference's single
        // `clock += t_fail`.
        let m = model(1e-4);
        let silent = SimConfig::from_silent_model(&m, 2764.0, 0.4, 0.8);
        let mixed = SimConfig {
            rates: ErrorRates::new(5e-5, 8e-5).unwrap(),
            ..silent
        };
        for (label, cfg, seeds) in [("silent", silent, 50u64), ("mixed", mixed, 4000)] {
            for seed in 0..seeds {
                let a = simulate_pattern_segmented(&cfg, 1, &mut SimRng::new(seed));
                let b = simulate_pattern(&cfg, &mut SimRng::new(seed));
                assert_eq!(a, b, "{label} seed {seed}");
            }
        }
    }

    #[test]
    fn error_free_q4_pays_three_extra_verifications() {
        let m = model(0.0);
        let cfg = SimConfig::from_silent_model(&m, 2000.0, 0.5, 0.5);
        let p1 = simulate_pattern_segmented(&cfg, 1, &mut SimRng::new(1));
        let p4 = simulate_pattern_segmented(&cfg, 4, &mut SimRng::new(1));
        let extra = 3.0 * m.costs.verification / 0.5;
        assert!((p4.time - p1.time - extra).abs() < 1e-9);
    }

    #[test]
    fn sampled_mean_matches_multiverif_expectations() {
        // Validates the analytic extension against the simulator, two
        // speeds, q = 3, frequent errors.
        let m = model(1e-4);
        let (w, q, s1, s2) = (3000.0, 3u32, 0.4, 0.8);
        let cfg = SimConfig::from_silent_model(&m, w, s1, s2);
        let trials = 40_000u64;
        let mut time = Stats::new();
        let mut energy = Stats::new();
        for i in 0..trials {
            let mut rng = SimRng::for_trial(31337, i);
            let p = simulate_pattern_segmented(&cfg, q, &mut rng);
            time.push(p.time);
            energy.push(p.energy);
        }
        let t_expect = multiverif::expected_time(&m, w, q, s1, s2);
        let e_expect = multiverif::expected_energy(&m, w, q, s1, s2);
        assert!(
            time.contains(t_expect, 4.0),
            "time: sampled {} vs analytic {t_expect}",
            time.mean()
        );
        assert!(
            energy.contains(e_expect, 4.0),
            "energy: sampled {} vs analytic {e_expect}",
            energy.mean()
        );
    }

    #[test]
    fn detection_happens_at_segment_granularity() {
        // With huge q and frequent errors, failed attempts must be much
        // shorter on average than the full phase.
        let m = model(3e-4);
        let (w, s) = (4000.0, 0.5);
        let cfg = SimConfig::from_silent_model(&m, w, s, s);
        let full_phase = (w + m.costs.verification) / s;
        let mut saw_short_failure = false;
        for seed in 0..300 {
            let mut rng = SimRng::new(seed);
            let p = simulate_pattern_segmented(&cfg, 8, &mut rng);
            if p.silent_errors > 0 {
                // Time of a detected attempt is at most i/8 of the work +
                // verifications; the first attempt is shorter than the
                // full single-verification phase whenever i < 8.
                let _ = p;
                saw_short_failure = true;
            }
        }
        assert!(saw_short_failure);
        // Statistical check: mean time with q = 8 under frequent errors is
        // smaller than with q = 1 (earlier detection wins over extra V).
        let n = 5000u64;
        let avg = |q: u32| {
            let mut s = Stats::new();
            for i in 0..n {
                let mut rng = SimRng::for_trial(99, i);
                s.push(simulate_pattern_segmented(&cfg, q, &mut rng).time);
            }
            s.mean()
        };
        assert!(avg(8) < avg(1), "q=8 {} vs q=1 {}", avg(8), avg(1));
        let _ = full_phase;
    }

    #[test]
    fn fail_stop_interrupts_segmented_attempts() {
        let m = model(0.0);
        let mut cfg = SimConfig::from_silent_model(&m, 3000.0, 0.5, 1.0);
        cfg.rates = ErrorRates::fail_stop_only(2e-4).unwrap();
        let mut saw = false;
        for seed in 0..200 {
            let p = simulate_pattern_segmented(&cfg, 4, &mut SimRng::new(seed));
            if p.fail_stop_errors > 0 {
                saw = true;
            }
            assert_eq!(p.silent_errors, 0);
        }
        assert!(saw);
    }

    #[test]
    #[should_panic(expected = "at least one verification")]
    fn q_zero_panics() {
        let m = model(0.0);
        let cfg = SimConfig::from_silent_model(&m, 100.0, 1.0, 1.0);
        simulate_pattern_segmented(&cfg, 0, &mut SimRng::new(1));
    }
}
