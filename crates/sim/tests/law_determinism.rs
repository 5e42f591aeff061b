//! The determinism contract, pinned for *every* sampler — not just the
//! closed-form fast path.
//!
//! Any attempt law the runner can drive (the fast path on silent-only
//! and mixed configs, and the per-attempt loop under Weibull,
//! lognormal, or a re-execution speed schedule) must keep `run` and
//! any chunk-respecting composition of `run_with` ranges
//! **byte-identical** regardless of the rayon pool size.
//! The scenario samplers draw per-trial ChaCha streams where the fast
//! path draws per-chunk ones, but both fold on the same absolute chunk
//! grid, so the same gluing rules apply; this test is what keeps that
//! true as new laws are added.
//!
//! Everything lives in one `#[test]` because `RAYON_NUM_THREADS` is
//! process-global state — parallel test functions mutating it would
//! race. The vendored rayon re-reads the variable on every parallel
//! call, so setting it between runs takes effect immediately.

use rexec_core::{
    ErrorLaw, ErrorRates, MixedModel, PowerModel, ResilienceCosts, SilentModel, SpeedSchedule,
};
use rexec_sim::engine::SimConfig;
use rexec_sim::runner::{outcome_sketches, MonteCarlo, Sinks, Summary};

fn silent_cfg() -> SimConfig {
    let model = SilentModel::new(
        1e-4,
        ResilienceCosts::symmetric(300.0, 15.4),
        PowerModel::with_default_io(1550.0, 60.0, 0.15).unwrap(),
    )
    .unwrap();
    SimConfig::from_silent_model(&model, 2764.0, 0.4, 0.8)
}

fn mixed_cfg() -> SimConfig {
    let mm = MixedModel::new(
        ErrorRates::new(8e-5, 5e-5).unwrap(),
        ResilienceCosts::symmetric(300.0, 15.4),
        PowerModel::with_default_io(1550.0, 60.0, 0.15).unwrap(),
    );
    SimConfig::from_mixed_model(&mm, 3000.0, 0.6, 1.0)
}

/// Serializes a summary to its exact JSON byte string — equality of
/// these strings is equality of every `f64` bit pattern in the summary.
fn bytes(s: &Summary) -> String {
    serde_json::to_string(s).unwrap()
}

/// Asserts the full determinism contract for one configured driver:
/// width-1 baseline == parallel run at 1/2/7 threads == chunk-aligned
/// `run_with` range glue, all at the byte level, and a run with outcome
/// histograms (per-worker sketches folded into one pair) returns the same summary
/// and the same sketches at every thread count. Generic over however
/// the `MonteCarlo` was built, so every sampler and law (and any future
/// one) is checked by the same code path.
fn assert_determinism_contract(label: &str, mc: &MonteCarlo) {
    const TRIALS: u64 = 5000;
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let baseline = bytes(&mc.run().unwrap());
    let mut histograms = None;

    for threads in ["1", "2", "7"] {
        std::env::set_var("RAYON_NUM_THREADS", threads);

        let sketches = outcome_sketches();
        let sinks = Sinks {
            histograms: Some(&sketches),
            ..Sinks::default()
        };
        let summary = mc.run_with(0..TRIALS, sinks).unwrap();
        let [time, energy] = sketches;
        assert_eq!(time.count(), TRIALS);
        let this = (bytes(&summary), time, energy);
        match &histograms {
            None => histograms = Some(this),
            Some((s, t, e)) => {
                assert_eq!(
                    &this.0, s,
                    "[{label}] histogram-run summary at {threads} threads"
                );
                for (got, want) in [(&this.1, t), (&this.2, e)] {
                    assert!(got == want, "[{label}] sketch buckets at {threads} threads");
                    assert_eq!(got.min().to_bits(), want.min().to_bits());
                    assert_eq!(got.max().to_bits(), want.max().to_bits());
                }
            }
        }

        let parallel = bytes(&mc.run().unwrap());
        assert_eq!(
            parallel, baseline,
            "[{label}] run() diverged from the width-1 run at {threads} threads"
        );

        // Chunk-aligned left-to-right glue: every range after the first
        // is chunk-sized, so the merge replays run()'s exact left-fold.
        let glued = mc
            .run_with(0..4608, Sinks::default())
            .unwrap()
            .merge(mc.run_with(4608..4864, Sinks::default()).unwrap())
            .merge(mc.run_with(4864..TRIALS, Sinks::default()).unwrap());
        assert_eq!(
            bytes(&glued),
            baseline,
            "[{label}] chunk-aligned range glue diverged at {threads} threads"
        );
    }
    std::env::remove_var("RAYON_NUM_THREADS");
}

#[test]
fn every_attempt_law_keeps_the_byte_determinism_contract() {
    const TRIALS: u64 = 5000;
    const SEED: u64 = 2024;

    let drivers: Vec<(&str, MonteCarlo)> = vec![
        (
            "silent fast path",
            MonteCarlo::new(silent_cfg(), TRIALS, SEED),
        ),
        (
            "mixed fast path",
            MonteCarlo::new(mixed_cfg(), TRIALS, SEED),
        ),
        (
            "weibull scenario",
            MonteCarlo::new(silent_cfg(), TRIALS, SEED).with_law(ErrorLaw::Weibull { shape: 0.7 }),
        ),
        (
            "lognormal scenario",
            MonteCarlo::new(silent_cfg(), TRIALS, SEED)
                .with_law(ErrorLaw::LogNormal { sigma: 1.0 }),
        ),
        (
            "schedule scenario",
            MonteCarlo::new(silent_cfg(), TRIALS, SEED)
                .with_schedule(SpeedSchedule::new(0.4, vec![0.6, 1.0]).unwrap()),
        ),
    ];

    for (label, mc) in &drivers {
        assert_determinism_contract(label, mc);
    }
}
