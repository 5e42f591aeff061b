//! The per-attempt loop against its plain-loop oracle: one
//! `SimRng::for_trial` stream per trial, pushed into a `Summary` per
//! 256-trial grid chunk, the chunks merged in order — and, for a run
//! with outcome histograms, every trial recorded with
//! `HistogramSketch::record`. The runner derives its trial streams
//! sixteen at a time and records into worker-local sketches without
//! atomics; neither may change a single bit of any result, at any
//! thread count or range partition.
//!
//! The width sweep lives in one `#[test]` because `RAYON_NUM_THREADS`
//! is process-global state — parallel test functions mutating it would
//! race. A traced run maps its chunks on the calling thread whatever the
//! width, so its own test is free to run beside it.

use rexec_core::{
    ErrorLaw, ErrorRates, MixedModel, PowerModel, ResilienceCosts, SilentModel, SpeedSchedule,
};
use rexec_obs::HistogramSketch;
use rexec_sim::engine::{simulate_pattern_scenario, simulate_pattern_traced, SimConfig};
use rexec_sim::runner::{outcome_sketches, Engine, MonteCarlo, Sinks, Summary};
use rexec_sim::{SimRng, TraceRecorder};

const TRIALS: u64 = 1200;
const SEED: u64 = 2024;
/// The runner's chunk size: the reduction granule the oracle mirrors.
const CHUNK: u64 = 256;

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

/// Exact JSON bytes of a summary: equal strings mean equal `f64` bits.
fn bytes(s: &Summary) -> String {
    serde_json::to_string(s).unwrap()
}

/// The oracle for trials `[start, end)`: one fresh stream per trial,
/// per-chunk summaries merged in chunk order, every outcome recorded
/// into `sketches` through the shared-access `record`.
fn oracle(mc: &MonteCarlo, start: u64, end: u64, sketches: &[HistogramSketch; 2]) -> Summary {
    let mut total = Summary::default();
    let mut lo = start;
    while lo < end {
        let hi = (lo - lo % CHUNK + CHUNK).min(end);
        let mut chunk = Summary::default();
        for i in lo..hi {
            let mut rng = SimRng::for_trial(mc.seed, i);
            let p = simulate_pattern_scenario(&mc.config, mc.law, mc.schedule.as_ref(), &mut rng);
            chunk.time.push(p.time);
            chunk.energy.push(p.energy);
            chunk.attempts.push(f64::from(p.attempts));
            sketches[0].record(p.time);
            sketches[1].record(p.energy);
        }
        total = total.merge(chunk);
        lo = hi;
    }
    total
}

/// The outcome sketches a run with histograms records into.
fn outcome_sketch() -> HistogramSketch {
    HistogramSketch::new(1e-3, 0.01, 1e12)
}

fn assert_same_sketch(label: &str, got: &HistogramSketch, want: &HistogramSketch) {
    assert!(got == want, "[{label}] sketch buckets or totals differ");
    assert_eq!(got.count(), want.count(), "[{label}] sketch total");
    assert_eq!(got.min().to_bits(), want.min().to_bits(), "[{label}] min");
    assert_eq!(got.max().to_bits(), want.max().to_bits(), "[{label}] max");
}

#[test]
fn per_attempt_loop_replays_one_stream_per_trial_bit_for_bit() {
    let drivers: Vec<(&str, MonteCarlo)> = vec![
        (
            "reference silent",
            MonteCarlo::new(silent_cfg(), TRIALS, SEED).with_engine(Engine::Reference),
        ),
        (
            "reference mixed",
            MonteCarlo::new(mixed_cfg(), TRIALS, SEED).with_engine(Engine::Reference),
        ),
        (
            "weibull 0.7",
            MonteCarlo::new(silent_cfg(), TRIALS, SEED).with_law(ErrorLaw::Weibull { shape: 0.7 }),
        ),
        (
            "lognormal 1",
            MonteCarlo::new(silent_cfg(), TRIALS, SEED)
                .with_law(ErrorLaw::LogNormal { sigma: 1.0 }),
        ),
        (
            "3-speed schedule",
            MonteCarlo::new(silent_cfg(), TRIALS, SEED)
                .with_schedule(SpeedSchedule::new(0.4, vec![0.6, 0.8, 1.0]).unwrap()),
        ),
    ];

    for (label, mc) in &drivers {
        let sketches = [outcome_sketch(), outcome_sketch()];
        let whole = bytes(&oracle(mc, 0, TRIALS, &sketches));
        let unused = [outcome_sketch(), outcome_sketch()];
        // Starts in the middle of a 16-trial group and of a chunk.
        let partial = bytes(&oracle(mc, 5, 1003, &unused));

        std::env::set_var("RAYON_NUM_THREADS", "1");
        assert_eq!(bytes(&mc.run().unwrap()), whole, "[{label}] width-1 run");
        for threads in ["1", "2", "3"] {
            std::env::set_var("RAYON_NUM_THREADS", threads);
            let at = format!("{label} at {threads} threads");
            assert_eq!(bytes(&mc.run().unwrap()), whole, "[{at}] run");
            assert_eq!(
                bytes(&mc.run_with(5..1003, Sinks::default()).unwrap()),
                partial,
                "[{at}] run_with(5..1003)"
            );
            let recorded = outcome_sketches();
            let sinks = Sinks {
                histograms: Some(&recorded),
                ..Sinks::default()
            };
            let summary = mc.run_with(0..TRIALS, sinks).unwrap();
            let [time, energy] = recorded;
            assert_eq!(bytes(&summary), whole, "[{at}] run with histograms");
            assert_same_sketch(&format!("{at} time"), &time, &sketches[0]);
            assert_same_sketch(&format!("{at} energy"), &energy, &sketches[1]);
        }
        std::env::remove_var("RAYON_NUM_THREADS");
    }
}

#[test]
fn a_traced_run_truncates_like_one_recorder_over_the_trials_in_order() {
    // 600 trials: two full chunks and a partial one, so truncation has
    // to carry across chunk boundaries.
    const TRACED: u64 = 600;
    let mc = MonteCarlo::new(mixed_cfg(), TRACED, SEED);
    let oracle = |capacity: usize| {
        let mut recorder = TraceRecorder::new(capacity);
        for i in 0..TRACED {
            let mut rng = SimRng::for_trial(SEED, i);
            simulate_pattern_traced(&mc.config, &mut rng, Some(&mut recorder));
        }
        recorder
    };
    let capacity = oracle(usize::MAX).events().len() / 2;
    let want = oracle(capacity);
    assert!(want.dropped() > 0, "the capacity must truncate");

    let mut recorder = TraceRecorder::new(capacity);
    let sinks = Sinks {
        trace: Some(&mut recorder),
        ..Sinks::default()
    };
    let summary = mc.run_with(0..TRACED, sinks).unwrap();
    assert_eq!(recorder.events(), want.events());
    assert_eq!(recorder.dropped(), want.dropped());
    assert_eq!(summary.dropped_events, want.dropped() as u64);
    // The trace changes nothing else: the summary is a reference run's.
    let reference = mc.with_engine(Engine::Reference).run().unwrap();
    assert_eq!(
        bytes(&Summary {
            dropped_events: 0,
            ..summary
        }),
        bytes(&reference)
    );
}
