//! End-to-end Prometheus exposition: the text the real pipelines emit
//! (CLI `--metrics-prom`, experiments `--metrics-prom`) must pass the
//! strict in-repo format checker, carry the expected metric families,
//! and agree with the registry it was rendered from. Complements the
//! unit tests in `crates/obs/src/export.rs`, which pin the grammar on
//! hand-built registries.
//!
//! Everything that touches the process-global registry lives in one
//! `#[test]` so scenarios cannot race each other's metrics.

use rexec::obs::{self, check_prometheus_text, prometheus_text};
use rexec_cli::args::Args;
use rexec_cli::run::execute;
use rexec_harness::{FaultPlan, RetryPolicy};
use rexec_sweep::experiments::{quick_experiment_ids, DEFAULT_SEED};
use rexec_sweep::pipeline::{run, PipelineConfig};
use std::fs;
use std::io;

#[test]
fn real_pipelines_emit_checker_clean_expositions() {
    // --- CLI path: solve + validate, then render the global registry.
    obs::reset();
    let args = Args::parse(
        [
            "--config",
            "hera",
            "--processor",
            "xscale",
            "--validate",
            "2000",
            "--metrics-prom",
            "unused.prom",
        ]
        .map(String::from),
    )
    .unwrap();
    let outcome = execute(&args).unwrap();
    let text = outcome
        .metrics_prom
        .expect("--metrics-prom must produce an exposition");
    check_prometheus_text(&text).expect("CLI exposition must pass the strict checker");
    assert!(text.contains("# TYPE rexec_bicrit_pairs_evaluated_total counter"));
    assert!(text.contains("# TYPE rexec_runner_trials_total counter"));
    assert!(
        text.contains("rexec_runner_attempts_per_trial{quantile=\"0.5\"}"),
        "sketches must export as quantile summaries"
    );

    // The exposition must agree with the registry it was rendered from:
    // the trials counter line carries the exact trial count.
    let trials = obs::global().counter("runner.trials").get();
    assert_eq!(trials, 2000);
    assert!(
        text.contains(&format!("rexec_runner_trials_total {trials}")),
        "counter line must match the registry value"
    );

    // Re-rendering an unchanged registry is byte-stable.
    assert_eq!(
        prometheus_text(obs::global()),
        prometheus_text(obs::global())
    );

    // --- experiments pipeline: the --metrics-prom artifact on disk.
    let dir = std::env::temp_dir().join(format!("rexec-prom-fmt-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let prom_path = dir.join("metrics.prom");
    let cfg = PipelineConfig {
        out_dir: dir.clone(),
        seed: DEFAULT_SEED,
        resume: false,
        ids: quick_experiment_ids(),
        fault: FaultPlan::default(),
        retry: RetryPolicy::immediate(3),
        metrics_prom: Some(prom_path.clone()),
        trace_chrome: None,
    };
    run(&cfg, &mut io::sink()).expect("quick pipeline run");
    let written = fs::read_to_string(&prom_path).expect("exposition file written");
    check_prometheus_text(&written).expect("pipeline exposition must pass the strict checker");
    assert!(
        written.contains("rexec_sweep_points_total"),
        "sweep counters must be present in the pipeline exposition"
    );
    assert!(
        written.contains("_seconds_sum"),
        "span timings must export as *_seconds summaries"
    );
    let _ = fs::remove_dir_all(&dir);
}
