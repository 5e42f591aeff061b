//! Thread-count independence of the metrics aggregates: the same seed
//! must produce byte-identical counter and histogram sections of the
//! registry snapshot whatever `RAYON_NUM_THREADS` says, because workers
//! fill plain-integer accumulators that merge exactly along the
//! reduction and flush into the registry once per run.
//!
//! Everything lives in a single `#[test]` because the scenarios mutate
//! process-global state (the metrics registry and `RAYON_NUM_THREADS`),
//! which must not race with a concurrently running sibling test.

use rexec::obs;
use rexec::sim::{Engine, MonteCarlo, SimConfig, Sinks, TraceRecorder};
use rexec_cli::args::Args;
use rexec_cli::run::execute;

fn sim_config() -> SimConfig {
    use rexec::core::{ErrorRates, PowerModel, ResilienceCosts};
    SimConfig {
        w: 2764.0,
        sigma1: 0.4,
        sigma2: 0.8,
        rates: ErrorRates::new(1e-4, 5e-5).unwrap(),
        costs: ResilienceCosts::symmetric(300.0, 15.4),
        power: PowerModel::new(1550.0, 60.0, 5.0).unwrap(),
    }
}

/// Runs `work` under the given thread count with a clean registry and
/// returns the deterministic (counters + histograms) snapshot JSON.
fn deterministic_snapshot(threads: &str, work: impl FnOnce()) -> String {
    std::env::set_var("RAYON_NUM_THREADS", threads);
    obs::reset();
    work();
    serde_json::to_string_pretty(&obs::global().deterministic_value()).unwrap()
}

#[test]
fn aggregates_are_byte_identical_across_thread_counts() {
    // Monte Carlo runner: accumulators merge along the parallel reduction.
    let run_mc = || {
        let s = MonteCarlo::new(sim_config(), 4096, 42).run().unwrap();
        assert_eq!(s.time.count(), 4096);
    };
    let one = deterministic_snapshot("1", run_mc);
    assert!(one.contains("runner.trials"));
    assert!(one.contains("runner.attempts_per_trial"));
    for threads in ["2", "4", "13"] {
        let n = deterministic_snapshot(threads, run_mc);
        assert_eq!(one, n, "MonteCarlo aggregates differ at {threads} threads");
    }

    // Full CLI path (solver + validation), as in the acceptance check:
    // `rexec-plan --config hera --processor xscale --metrics ...`.
    let run_cli = || {
        let args = Args::parse(
            [
                "--config",
                "hera",
                "--processor",
                "xscale",
                "--validate",
                "3000",
                "--metrics",
                "unused.json",
            ]
            .map(String::from),
        )
        .unwrap();
        assert!(execute(&args).unwrap().feasible);
    };
    let one = deterministic_snapshot("1", run_cli);
    assert!(one.contains("bicrit.pairs_evaluated"));
    for threads in ["4", "16"] {
        let n = deterministic_snapshot(threads, run_cli);
        assert_eq!(one, n, "CLI aggregates differ at {threads} threads");
    }

    // Progress-sliced runs flush the same totals as plain runs.
    let run_progress = || {
        let mut ticks = 0;
        let sinks = Sinks {
            progress: Some(&mut |_, _| ticks += 1),
            ..Sinks::default()
        };
        MonteCarlo::new(sim_config(), 4096, 42)
            .run_with(0..4096, sinks)
            .unwrap();
        assert!(ticks > 0);
    };
    let plain = deterministic_snapshot("4", run_mc);
    let sliced = deterministic_snapshot("4", run_progress);
    assert_eq!(
        plain, sliced,
        "progress runs must flush identical aggregates"
    );

    // The runner now flushes the `sim.*` counters once per trial chunk
    // instead of the engine bumping them per pattern; the batched adds
    // must preserve the exact totals. Every attempt ends in success, a
    // detected silent error, or a fail-stop interrupt, so
    // `sim.attempts = sim.patterns + sim.silent_errors +
    // sim.fail_stop_errors` holds exactly, and `sim.patterns` counts
    // every trial.
    let sim_totals = |engine: Engine, cfg: SimConfig| {
        std::env::set_var("RAYON_NUM_THREADS", "4");
        obs::reset();
        MonteCarlo::new(cfg, 4096, 42)
            .with_engine(engine)
            .run()
            .unwrap();
        let g = obs::global();
        (
            g.counter("sim.patterns").get(),
            g.counter("sim.attempts").get(),
            g.counter("sim.silent_errors").get(),
            g.counter("sim.fail_stop_errors").get(),
        )
    };
    let (patterns, attempts, silent, fail_stop) = sim_totals(Engine::Reference, sim_config());
    assert_eq!(patterns, 4096);
    assert!(silent > 0 && fail_stop > 0, "mixed config must hit errors");
    assert_eq!(
        attempts,
        patterns + silent + fail_stop,
        "batched counter flush lost attempts"
    );

    // Same invariant on the fast path at λᶠ = 0 (silent-only config),
    // where it degenerates to attempts = patterns + silent errors.
    let silent_cfg = SimConfig {
        rates: rexec::core::ErrorRates::silent_only(1e-4).unwrap(),
        ..sim_config()
    };
    let (patterns, attempts, silent, fail_stop) = sim_totals(Engine::FastPath, silent_cfg);
    assert_eq!(patterns, 4096);
    assert_eq!(fail_stop, 0);
    assert!(silent > 0, "inflated λ must produce retries");
    assert_eq!(attempts, patterns + silent);

    // A traced run flushes like every other run: `runner.trials` and the
    // attempts histogram move with `sim.patterns`, not just the `sim.*`
    // totals.
    obs::reset();
    let mut recorder = TraceRecorder::new(64);
    let sinks = Sinks {
        trace: Some(&mut recorder),
        ..Sinks::default()
    };
    MonteCarlo::new(sim_config(), 600, 9)
        .run_with(0..600, sinks)
        .unwrap();
    let g = obs::global();
    assert_eq!(g.counter("sim.patterns").get(), 600);
    assert_eq!(g.counter("runner.trials").get(), 600);
    assert_eq!(g.sketch("runner.attempts_per_trial").count(), 600);
}
