//! Byte-level determinism of the batched fast paths across thread
//! counts and range partitions.
//!
//! The fast path draws through chunked, buffered RNG streams with
//! batched log transforms; this test pins the contract that none of
//! that batching is observable: `run`, `run_with` with a progress sink
//! and any chunk-respecting composition of `run_with` ranges produce
//! **byte-identical serialized summaries** (and identical flushed
//! counter aggregates) whether the pool has 1, 2, or 7 workers.
//!
//! Everything lives in one `#[test]` because `RAYON_NUM_THREADS` is
//! process-global state — parallel test functions mutating it would
//! race. The vendored rayon re-reads the variable on every parallel
//! call, so setting it between runs takes effect immediately.

use rexec_core::{ErrorRates, MixedModel, PowerModel, ResilienceCosts, SilentModel};
use rexec_sim::engine::SimConfig;
use rexec_sim::runner::{Engine, MonteCarlo, Sinks};

fn silent_cfg() -> SimConfig {
    let model = SilentModel::new(
        3.38e-6,
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
fn bytes(s: &rexec_sim::runner::Summary) -> String {
    serde_json::to_string(s).unwrap()
}

#[test]
fn summaries_are_byte_identical_across_thread_counts() {
    // 5000 trials: 19 full chunks plus a partial, so both the chunk
    // interior and the tail replay paths run.
    const TRIALS: u64 = 5000;
    for cfg in [silent_cfg(), mixed_cfg()] {
        let mc = MonteCarlo::new(cfg, TRIALS, 2024).with_engine(Engine::FastPath);

        // Width-1 baseline: the pool maps every chunk in order on the
        // calling thread.
        std::env::set_var("RAYON_NUM_THREADS", "1");
        let full = mc.run().unwrap();
        let baseline = bytes(&full);

        for threads in ["1", "2", "7"] {
            std::env::set_var("RAYON_NUM_THREADS", threads);

            let parallel = bytes(&mc.run().unwrap());
            assert_eq!(
                parallel, baseline,
                "run() diverged from the width-1 run at {threads} threads"
            );

            // Progress slices (512 trials here) fold each chunk into the
            // running summary, so `--verbose` reports run()'s numbers on
            // either sampler.
            for engine in [Engine::FastPath, Engine::Reference] {
                let mc = MonteCarlo::new(cfg, TRIALS, 2024).with_engine(engine);
                let mut last = 0;
                let progress = mc.run_with(
                    0..TRIALS,
                    Sinks {
                        progress: Some(&mut |done, total| {
                            assert!(done > last && total == TRIALS);
                            last = done;
                        }),
                        ..Sinks::default()
                    },
                );
                assert_eq!(last, TRIALS);
                assert_eq!(
                    bytes(&progress.unwrap()),
                    bytes(&mc.run().unwrap()),
                    "{engine:?} progress run diverged at {threads} threads"
                );
            }

            // Chunk-aligned left-to-right glue: bit-identical to a
            // single run by the runner's contract, which asks that
            // every range after the first be one 256-trial chunk (the
            // glue then replays `run`'s exact left-fold).
            let glued = mc
                .run_with(0..4608, Sinks::default())
                .unwrap()
                .merge(mc.run_with(4608..4864, Sinks::default()).unwrap())
                .merge(mc.run_with(4864..TRIALS, Sinks::default()).unwrap());
            assert_eq!(
                bytes(&glued),
                baseline,
                "chunk-aligned range glue diverged at {threads} threads"
            );

            // A partition that splits *inside* chunks still covers the
            // same trials with the same per-chunk streams; its moments
            // merge in a different tree shape, so check the exact
            // fields: counts and extremes are bit-exact, means agree to
            // a relative 1e-9 (the runner's documented bound).
            let a = mc.run_with(0..777, Sinks::default()).unwrap();
            let b = mc.run_with(777..TRIALS, Sinks::default()).unwrap();
            let split = a.merge(b);
            assert_eq!(split.time.count(), full.time.count());
            assert_eq!(split.time.min().to_bits(), full.time.min().to_bits());
            assert_eq!(split.time.max().to_bits(), full.time.max().to_bits());
            for (got, want) in [
                (split.time.mean(), full.time.mean()),
                (split.energy.mean(), full.energy.mean()),
                (split.attempts.mean(), full.attempts.mean()),
            ] {
                assert!(
                    (got - want).abs() <= 1e-9 * want.abs(),
                    "mid-chunk split mean {got} vs {want} at {threads} threads"
                );
            }
        }
        std::env::remove_var("RAYON_NUM_THREADS");
    }
}

#[test]
fn fastpath_summary_matches_itself_from_clean_process_state() {
    // Guard against accidental global-state coupling: two identically
    // seeded drivers must serialize identically even when other tests
    // in this binary have already exercised the obs registry.
    let mc = MonteCarlo::new(mixed_cfg(), 1024, 7).with_engine(Engine::FastPath);
    assert_eq!(bytes(&mc.run().unwrap()), bytes(&mc.run().unwrap()));
}
