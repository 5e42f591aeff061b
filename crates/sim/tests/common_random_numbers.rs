//! `MonteCarlo::run_common` against separate runs, bit for bit.
//!
//! The common-random-numbers entry point generates each trial chunk's
//! stream once and replays it for every config. That must not be
//! observable: summary `j` serializes byte-identically to a separate
//! fast-path `run()` of config `j` with the same seed, at any worker
//! count, and the flushed `runner.*`/`sim.*` registry aggregates equal
//! those of the separate runs. A config the fast path rejects fails the
//! whole call before any trial runs.
//!
//! Everything lives in one `#[test]` because `RAYON_NUM_THREADS` and
//! the metrics registry are process-global state — parallel test
//! functions would race on both. The vendored rayon re-reads the
//! variable on every parallel call, so setting it between runs takes
//! effect immediately.

use rexec_core::{ErrorRates, MixedModel, PowerModel, ResilienceCosts, SilentModel};
use rexec_sim::engine::SimConfig;
use rexec_sim::runner::{Engine, MonteCarlo, Summary};
use serde::Value;

/// Silent-only configs (`λᶠ = 0`) on a W grid around Hera/XScale's
/// optimum.
fn silent_configs() -> Vec<SimConfig> {
    let model = SilentModel::new(
        3.38e-6,
        ResilienceCosts::symmetric(300.0, 15.4),
        PowerModel::with_default_io(1550.0, 60.0, 0.15).unwrap(),
    )
    .unwrap();
    [1500.0, 2764.0, 6000.0]
        .map(|w| SimConfig::from_silent_model(&model, w, 0.4, 0.8))
        .to_vec()
}

/// Mixed fail-stop + silent configs at inflated rates, so chunks see
/// many failed trials and the configs read different stream prefixes.
fn mixed_configs() -> Vec<SimConfig> {
    let mm = MixedModel::new(
        ErrorRates::new(8e-5, 5e-5).unwrap(),
        ResilienceCosts::symmetric(300.0, 15.4),
        PowerModel::with_default_io(1550.0, 60.0, 0.15).unwrap(),
    );
    [800.0, 3000.0, 9000.0]
        .map(|w| SimConfig::from_mixed_model(&mm, w, 0.6, 1.0))
        .to_vec()
}

/// Exact JSON bytes: equal strings mean equal `f64` bit patterns.
fn bytes(s: &Summary) -> String {
    serde_json::to_string(s).unwrap()
}

/// The registry's deterministic sections (counters and histograms)
/// after `work`, starting from an empty registry.
fn registry_after(work: impl FnOnce()) -> Value {
    rexec_obs::global().reset();
    work();
    rexec_obs::global().deterministic_value()
}

#[test]
fn run_common_is_bit_identical_to_separate_runs() {
    const SEED: u64 = 2024;
    for configs in [silent_configs(), mixed_configs()] {
        // 0 trials; 100 (less than one 256-trial chunk); 100 000 (391
        // chunks, a partial last one, and several waves).
        for trials in [0, 100, 100_000] {
            for threads in ["1", "4"] {
                std::env::set_var("RAYON_NUM_THREADS", threads);
                let mut separate = Vec::new();
                let separate_registry = registry_after(|| {
                    separate = configs
                        .iter()
                        .map(|&cfg| {
                            let mc = MonteCarlo::new(cfg, trials, SEED);
                            bytes(&mc.with_engine(Engine::FastPath).run().unwrap())
                        })
                        .collect();
                });
                let mut common = Vec::new();
                let common_registry = registry_after(|| {
                    common = MonteCarlo::run_common(&configs, trials, SEED)
                        .unwrap()
                        .iter()
                        .map(bytes)
                        .collect();
                });
                assert_eq!(
                    common, separate,
                    "summaries diverged: {trials} trials, {threads} threads"
                );
                assert_eq!(
                    common_registry, separate_registry,
                    "registry totals diverged: {trials} trials, {threads} threads"
                );
            }
        }
    }
    std::env::remove_var("RAYON_NUM_THREADS");

    // A degenerate config anywhere in the list (hazard ≫ 1 at both
    // speeds) fails the call with a typed error before any trial runs:
    // the registry stays empty.
    let mut bad = mixed_configs()[0];
    bad.rates = ErrorRates::new(0.5, 0.5).unwrap();
    let mut configs = mixed_configs();
    configs.insert(1, bad);
    let empty = registry_after(|| {});
    let after_error = registry_after(|| {
        assert!(MonteCarlo::run_common(&configs, 1000, SEED).is_err());
    });
    assert_eq!(after_error, empty);
}
