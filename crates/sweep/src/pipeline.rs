//! Crash-tolerant experiment pipeline — the glue binding the paper's
//! experiments to the verified-checkpoint lifecycle behind the
//! `experiments` binary.
//!
//! Every experiment is one *work unit* registered in a [`RunManifest`]
//! (`<out>/manifest.json`). The checkpoint state machine itself —
//! verify-or-compute, seal artifacts atomically (temp file + sync +
//! rename + parent-dir fsync), rewrite the manifest after every unit —
//! lives in [`rexec_harness::run_units`], generic over the
//! [`rexec_harness::Storage`] alphabet. This module runs its two halves
//! on the real filesystem ([`StdFs`]): [`plan_units`] decides every
//! unit, then [`seal_units`] seals the experiments, supplied as
//! [`UnitPlan`]s, while the units to compute are computed ahead of the
//! sealing thread (`crate::ahead`). It prints progress and writes the
//! wall-clock-bearing `metrics.json`. The `rexec-check` model checker
//! drives the *same* lifecycle against a crash-simulating in-memory
//! filesystem, exhaustively crashing between every pair of storage
//! operations (DESIGN.md §10).
//!
//! On `--resume` the lifecycle re-verifies the digests of every sealed
//! unit (the paper's verification step `V` applied to the runner
//! itself): intact units are skipped, missing or silently-corrupted ones
//! are detected and recomputed. Transient I/O failures are retried under
//! capped exponential backoff, and `--fault-plan` injects deterministic
//! faults (fail the Nth write, corrupt the Nth artifact, kill after unit
//! K) so the recovery paths are exercised in-tree.

use crate::ahead;
use crate::experiments::{
    all_experiment_ids, id_string, parse_id, quick_experiment_ids, run_experiment_seeded,
    ExperimentId, DEFAULT_SEED,
};
use rexec_harness::{
    atomic_write, plan_units, seal_units, FaultInjector, FaultPlan, HarnessError, LifecycleConfig,
    LifecycleEvent, RetryPolicy, RunManifest, StdFs, UnitOutput, UnitPlan, MANIFEST_NAME,
};
use serde::Value;
use std::collections::BTreeMap;
use std::fmt;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// What happened to one unit during a pipeline run (re-exported from the
/// lifecycle so existing `pipeline::UnitOutcome` call sites keep
/// working).
pub use rexec_harness::UnitDisposition as UnitOutcome;

/// Tool name recorded in manifests (resume refuses to cross tools).
pub const TOOL_NAME: &str = "experiments";

/// Filename of the end-of-run metrics/run report inside the output
/// directory. Unlike the manifest it contains wall-clock data and is not
/// part of the resumable state.
pub const METRICS_NAME: &str = "metrics.json";

/// A parsed `experiments` invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineConfig {
    /// Output directory for artifacts, manifest and metrics.
    pub out_dir: PathBuf,
    /// Base Monte Carlo seed.
    pub seed: u64,
    /// Re-verify sealed units from an existing manifest and skip them.
    pub resume: bool,
    /// Experiments to run, in order.
    pub ids: Vec<ExperimentId>,
    /// Deterministic fault schedule (defaults to no faults).
    pub fault: FaultPlan,
    /// Retry policy for artifact/manifest writes.
    pub retry: RetryPolicy,
    /// Also write the metrics snapshot in Prometheus text exposition
    /// format to this path (`--metrics-prom`).
    pub metrics_prom: Option<PathBuf>,
    /// Record a span timeline for the run and write it as Chrome
    /// trace-event JSON to this path (`--trace-chrome`; open in
    /// Perfetto).
    pub trace_chrome: Option<PathBuf>,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            out_dir: PathBuf::from("results"),
            seed: DEFAULT_SEED,
            resume: false,
            ids: all_experiment_ids(),
            fault: FaultPlan::default(),
            retry: RetryPolicy::default(),
            metrics_prom: None,
            trace_chrome: None,
        }
    }
}

/// Per-run outcome summary, keyed by unit id in execution order.
#[derive(Debug, Clone, PartialEq)]
pub struct PipelineSummary {
    /// `(unit id, outcome)` in execution order.
    pub units: Vec<(String, UnitOutcome)>,
    /// Path of the run manifest.
    pub manifest_path: PathBuf,
    /// Path of the metrics report.
    pub metrics_path: PathBuf,
}

/// Usage text of the `experiments` binary.
pub const USAGE: &str = "\
usage: experiments [--out DIR] [--seed N] [--resume] [--quick]
                   [--fault-plan SPEC] [--metrics-prom PATH]
                   [--trace-chrome PATH] [IDS...]

  IDS          experiment ids to run (default: all), e.g.
               T-rho8 T-rho3 T-rho1.775 T-rho1.4 F1..F14 X-thm2 X-validity
               X-mc X-mc-mixed X-ablation X-pairs X-robust X-pareto
               X-multiverif X-continuous X-heatmap X-laws
  --out        directory for artifacts + run manifest (default: results/)
  --seed       base seed for Monte Carlo experiments (default: 2024)
  --quick      fast subset (tables, F4, X-thm2, X-validity, X-laws) for
               smoke runs
  --resume     re-verify sealed units from <out>/manifest.json, skip the
               intact ones and recompute only what is missing or corrupt
  --fault-plan deterministic fault injection, comma-separated:
               fail-write=N, corrupt-artifact=N, kill-after-unit=K, seed=S
  --metrics-prom PATH  also write the metrics snapshot in Prometheus
               text exposition format
  --trace-chrome PATH  record a span timeline and write it as Chrome
               trace-event JSON (open in Perfetto / chrome://tracing)
";

/// Result of parsing the command line: run, or print help.
#[derive(Debug, Clone, PartialEq)]
pub enum CliCommand {
    /// Execute the pipeline.
    Run(Box<PipelineConfig>),
    /// Print [`USAGE`] and exit 0.
    Help,
}

fn invalid(what: &str, reason: String) -> HarnessError {
    HarnessError::InvalidArg {
        what: what.into(),
        reason,
    }
}

/// Parses the `experiments` command line (without the program name).
/// Numeric inputs are validated up front: a malformed or overflowing
/// `--seed` is rejected here with a clear message rather than surfacing
/// as downstream misbehavior.
pub fn parse_cli<I: IntoIterator<Item = String>>(raw: I) -> Result<CliCommand, HarnessError> {
    let mut cfg = PipelineConfig::default();
    let mut explicit_ids: Vec<ExperimentId> = vec![];
    let mut quick = false;
    let mut it = raw.into_iter().collect::<Vec<_>>().into_iter();
    let take = |opt: &str, it: &mut std::vec::IntoIter<String>| {
        it.next()
            .ok_or_else(|| invalid(opt, "requires a value".into()))
    };
    while let Some(a) = it.next() {
        match a.as_str() {
            "--help" | "-h" => return Ok(CliCommand::Help),
            "--resume" => cfg.resume = true,
            "--quick" => quick = true,
            "--out" => cfg.out_dir = PathBuf::from(take(&a, &mut it)?),
            "--seed" => {
                let v = take(&a, &mut it)?;
                cfg.seed = v.parse::<u64>().map_err(|_| {
                    invalid(
                        "--seed",
                        format!(
                            "`{v}` is not an unsigned 64-bit integer \
                             (0 ..= {}, no sign, no decimals)",
                            u64::MAX
                        ),
                    )
                })?;
            }
            "--fault-plan" => cfg.fault = FaultPlan::parse(&take(&a, &mut it)?)?,
            "--metrics-prom" => cfg.metrics_prom = Some(PathBuf::from(take(&a, &mut it)?)),
            "--trace-chrome" => cfg.trace_chrome = Some(PathBuf::from(take(&a, &mut it)?)),
            other if other.starts_with('-') => return Err(invalid(other, "unknown option".into())),
            other => match parse_id(other) {
                Some(id) => explicit_ids.push(id),
                None => return Err(HarnessError::UnknownExperiment(other.to_string())),
            },
        }
    }
    cfg.ids = match (quick, explicit_ids.is_empty()) {
        (true, false) => {
            return Err(invalid(
                "--quick",
                "cannot be combined with explicit experiment ids".into(),
            ))
        }
        (true, true) => quick_experiment_ids(),
        (false, false) => explicit_ids,
        (false, true) => all_experiment_ids(),
    };
    Ok(CliCommand::Run(Box::new(cfg)))
}

/// FNV-1a digest of every published configuration's parameters, so a
/// manifest records exactly which model constants produced its numbers
/// (and `--resume` refuses to mix numbers from different constants).
pub fn config_digest() -> String {
    let mut d = rexec_harness::Digest::new();
    for cfg in rexec_platforms::all_configurations() {
        d.update(format!("{cfg:?}").as_bytes());
    }
    d.finish()
}

/// The rule above and below each unit's header line.
const RULE: &str = "================================================================";

/// Progress lines, written through a fallible writer. The first failed
/// write — say, the reader of a stdout pipe went away — is kept and
/// later lines are dropped; [`Progress::check`] then ends the run with
/// that error at the next unit boundary, so the sealed prefix stays
/// resumable.
struct Progress<'w> {
    out: Mutex<&'w mut (dyn Write + Send)>,
    failed: OnceLock<HarnessError>,
}

impl Progress<'_> {
    fn line(&self, text: fmt::Arguments<'_>) {
        if self.failed.get().is_none() {
            let mut out = self.out.lock().unwrap_or_else(PoisonError::into_inner);
            if let Err(e) = writeln!(out, "{text}") {
                let _ =
                    self.failed
                        .set(HarnessError::io("write progress", Path::new("stdout"), &e));
            }
        }
    }

    fn check(&self) -> Result<(), HarnessError> {
        self.failed.get().map_or(Ok(()), |e| Err(e.clone()))
    }
}

fn unix_secs() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// Runs the pipeline: executes (or, on resume, verifies and skips) every
/// unit in `cfg.ids` through the storage-generic lifecycle
/// ([`plan_units`], then [`seal_units`]) on the real filesystem, then
/// writes the metrics report. Progress and unit reports go to `out`
/// (stdout in the `experiments` binary).
///
/// Units are computed ahead of the thread that seals them, on the
/// process-wide `rayon` thread budget (`RAYON_NUM_THREADS`); storage
/// operations, progress lines and seals stay on the calling thread in
/// unit order, so artifacts, manifest and output are those of a serial
/// run.
///
/// The fault plan's `kill-after-unit=K` aborts with
/// [`HarnessError::KilledByFaultPlan`] after the K-th unit of *this
/// invocation* is sealed or skipped — the manifest is already on disk,
/// so a subsequent `--resume` continues from unit K+1. A failed
/// progress write (a closed stdout) ends the run with
/// [`HarnessError::Io`] at the next unit boundary.
pub fn run(
    cfg: &PipelineConfig,
    out: &mut (dyn Write + Send),
) -> Result<PipelineSummary, HarnessError> {
    // Span timing feeds the `spans` section of metrics.json (the
    // manifest's `wall_secs` come from an `Instant`, not from spans).
    rexec_obs::set_spans_enabled(true);
    if cfg.trace_chrome.is_some() {
        // A Chrome trace was requested: record every span as a timeline
        // event (with parent nesting) on top of the aggregate timings.
        rexec_obs::set_timeline_enabled(true);
    }
    let injector = cfg.fault.injector();
    let started_unix = unix_secs();
    let run_started = Instant::now();

    let lifecycle_cfg = LifecycleConfig {
        out_dir: cfg.out_dir.clone(),
        tool: TOOL_NAME.into(),
        tool_version: env!("CARGO_PKG_VERSION").into(),
        seed: cfg.seed,
        config_digest: config_digest(),
        resume: cfg.resume,
        retry: cfg.retry,
    };
    let progress = Progress {
        out: Mutex::new(out),
        failed: OnceLock::new(),
    };
    let mut observe = |event: LifecycleEvent<'_>| match event {
        LifecycleEvent::ResumeLoaded { sealed_units } => progress.line(format_args!(
            "resuming: manifest seals {sealed_units} unit(s), re-verifying digests"
        )),
        LifecycleEvent::UnitDecided { id, disposition } => match disposition {
            UnitOutcome::SkippedVerified => progress.line(format_args!(
                "[{id}] verified intact, skipping (sealed by an earlier run)"
            )),
            UnitOutcome::Recomputed(reason) => progress.line(format_args!(
                "[{id}] re-verification failed ({reason}); recomputing"
            )),
            UnitOutcome::Computed => {}
        },
        LifecycleEvent::UnitSealed { unit, .. } => {
            for a in &unit.artifacts {
                if a.name.ends_with(".csv") {
                    progress.line(format_args!(
                        "  dataset written: {}",
                        cfg.out_dir.join(&a.name).display()
                    ));
                }
            }
            progress.line(format_args!(""));
        }
    };
    let ids = cfg.ids.iter().map(|&id| id_string(id));
    let plan = plan_units(&StdFs, &lifecycle_cfg, ids, &mut observe)?;
    let todo = (0..cfg.ids.len())
        .filter(|&i| plan.units()[i].1 != UnitOutcome::SkippedVerified)
        .collect();
    let compute = |i: usize| {
        let started = Instant::now();
        let result = run_experiment_seeded(cfg.ids[i], cfg.seed);
        (result, started.elapsed().as_secs_f64())
    };
    let outcome = ahead::run(todo, &compute, |ahead| {
        let mut units: Vec<UnitPlan<'_>> = plan
            .units()
            .iter()
            .enumerate()
            .map(|(i, (key, _))| {
                let key = key.clone();
                let progress = &progress;
                UnitPlan {
                    id: key.clone(),
                    compute: Box::new(move || {
                        progress.check()?;
                        let (result, wall_secs) = ahead.take(i);
                        let r = result?;
                        progress.line(format_args!(
                            "{RULE}\n[{key}] {}  ({wall_secs:.2}s, {} points)\n{RULE}\n{}",
                            r.title,
                            r.point_count(),
                            r.report
                        ));
                        progress.check()?;
                        let points = r.point_count() as u64;
                        let mut artifacts: Vec<(String, Vec<u8>)> = r
                            .datasets
                            .into_iter()
                            .map(|(name, csv)| (format!("{name}.csv"), csv.into_bytes()))
                            .collect();
                        artifacts.push((format!("report_{key}.txt"), r.report.into_bytes()));
                        Ok(UnitOutput {
                            title: r.title,
                            points,
                            wall_secs,
                            artifacts,
                        })
                    }),
                }
            })
            .collect();
        seal_units(
            &StdFs,
            &lifecycle_cfg,
            plan,
            &mut units,
            &injector,
            &mut observe,
        )
    })?;
    progress.check()?;

    let manifest_path = cfg.out_dir.join(MANIFEST_NAME);
    let metrics_path = cfg.out_dir.join(METRICS_NAME);
    let summary = PipelineSummary {
        units: outcome.units,
        manifest_path: manifest_path.clone(),
        metrics_path: metrics_path.clone(),
    };
    write_metrics(cfg, &outcome.manifest, started_unix, run_started, &injector)?;
    progress.line(format_args!(
        "run manifest written: {}",
        manifest_path.display()
    ));
    progress.line(format_args!(
        "run metrics written: {}",
        metrics_path.display()
    ));
    if let Some(path) = &cfg.metrics_prom {
        let text = rexec_obs::prometheus_text(rexec_obs::global());
        atomic_write(path, text.as_bytes(), &cfg.retry, &injector)?;
        progress.line(format_args!(
            "prometheus metrics written: {}",
            path.display()
        ));
    }
    if let Some(path) = &cfg.trace_chrome {
        let json = rexec_obs::chrome_trace_json();
        atomic_write(path, json.as_bytes(), &cfg.retry, &injector)?;
        progress.line(format_args!("chrome trace written: {}", path.display()));
    }
    progress.check()?;
    Ok(summary)
}

/// Writes `<out>/metrics.json`: run metadata, per-unit manifest entries
/// and the full metrics-registry snapshot. Wall-clock values live here —
/// not in the resumable manifest state.
fn write_metrics(
    cfg: &PipelineConfig,
    manifest: &RunManifest,
    started_unix: u64,
    run_started: Instant,
    injector: &FaultInjector,
) -> Result<(), HarnessError> {
    use serde::Serialize as _;
    let mut run = BTreeMap::new();
    run.insert("tool".to_string(), TOOL_NAME.to_value());
    run.insert("version".to_string(), env!("CARGO_PKG_VERSION").to_value());
    run.insert("seed".to_string(), cfg.seed.to_value());
    run.insert(
        "config_digest".to_string(),
        manifest.config_digest.to_value(),
    );
    run.insert("resumed".to_string(), cfg.resume.to_value());
    run.insert("started_unix_secs".to_string(), started_unix.to_value());
    run.insert("finished_unix_secs".to_string(), unix_secs().to_value());
    run.insert(
        "wall_secs".to_string(),
        run_started.elapsed().as_secs_f64().to_value(),
    );

    let experiments: Vec<Value> = manifest
        .units
        .iter()
        .map(|u| {
            let mut entry = BTreeMap::new();
            entry.insert("id".to_string(), u.id.to_value());
            entry.insert("title".to_string(), u.title.to_value());
            entry.insert("wall_secs".to_string(), u.wall_secs.to_value());
            entry.insert("points".to_string(), u.points.to_value());
            entry.insert(
                "artifacts".to_string(),
                Value::Array(u.artifacts.iter().map(|a| a.name.to_value()).collect()),
            );
            Value::Object(entry)
        })
        .collect();

    let mut doc = BTreeMap::new();
    doc.insert("run".to_string(), Value::Object(run));
    doc.insert("experiments".to_string(), Value::Array(experiments));
    doc.insert("metrics".to_string(), rexec_obs::global().snapshot_value());

    let json = serde_json::to_string_pretty(&Value::Object(doc))
        .expect("metrics document serializes infallibly");
    atomic_write(
        &cfg.out_dir.join(METRICS_NAME),
        json.as_bytes(),
        &cfg.retry,
        injector,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<CliCommand, HarnessError> {
        parse_cli(args.iter().map(|s| s.to_string()))
    }

    fn parsed_cfg(args: &[&str]) -> PipelineConfig {
        match parse(args).unwrap() {
            CliCommand::Run(cfg) => *cfg,
            CliCommand::Help => panic!("expected a run command"),
        }
    }

    #[test]
    fn defaults_cover_the_full_suite() {
        let cfg = parsed_cfg(&[]);
        assert_eq!(cfg.out_dir, PathBuf::from("results"));
        assert_eq!(cfg.seed, DEFAULT_SEED);
        assert!(!cfg.resume);
        assert_eq!(cfg.ids, all_experiment_ids());
        assert_eq!(cfg.fault, FaultPlan::default());
    }

    #[test]
    fn quick_resume_and_fault_plan_parse() {
        let cfg = parsed_cfg(&[
            "--quick",
            "--resume",
            "--out",
            "/tmp/r",
            "--seed",
            "7",
            "--fault-plan",
            "kill-after-unit=2,seed=3",
        ]);
        assert!(cfg.resume);
        assert_eq!(cfg.seed, 7);
        let ids: Vec<String> = cfg.ids.into_iter().map(id_string).collect();
        assert_eq!(
            ids,
            ["T-rho8", "T-rho3", "X-validity", "F4", "X-thm2", "X-laws"]
        );
        assert_eq!(cfg.fault.kill_after_unit, Some(2));
        assert_eq!(cfg.fault.seed, 3);
    }

    #[test]
    fn exporter_paths_parse() {
        let cfg = parsed_cfg(&[
            "--metrics-prom",
            "/tmp/m.prom",
            "--trace-chrome",
            "/tmp/t.trace.json",
        ]);
        assert_eq!(cfg.metrics_prom, Some(PathBuf::from("/tmp/m.prom")));
        assert_eq!(cfg.trace_chrome, Some(PathBuf::from("/tmp/t.trace.json")));
        assert!(parse(&["--trace-chrome"]).is_err());
        assert!(USAGE.contains("--metrics-prom") && USAGE.contains("--trace-chrome"));
    }

    #[test]
    fn explicit_ids_accept_both_spellings() {
        let cfg = parsed_cfg(&["T-rho1.775", "T-rho1_4", "F9", "X-heatmap"]);
        let ids: Vec<String> = cfg.ids.into_iter().map(id_string).collect();
        assert_eq!(ids, ["T-rho1_775", "T-rho1_4", "F9", "X-heatmap"]);
    }

    #[test]
    fn seed_overflow_is_rejected_up_front_with_a_clear_message() {
        for bad in ["18446744073709551616", "-1", "1.5", "0x10", "abc"] {
            let err = parse(&["--seed", bad]).unwrap_err();
            match err {
                HarnessError::InvalidArg { what, reason } => {
                    assert_eq!(what, "--seed");
                    assert!(reason.contains(bad), "reason must quote `{bad}`: {reason}");
                }
                other => panic!("expected InvalidArg for seed `{bad}`, got {other:?}"),
            }
        }
    }

    #[test]
    fn unknown_ids_and_options_are_typed_errors() {
        for bad in ["F99", "F0", "F04", "T-rho2", "x-mc", ""] {
            assert!(matches!(
                parse(&[bad]),
                Err(HarnessError::UnknownExperiment(id)) if id == bad
            ));
        }
        assert!(matches!(
            parse(&["--frobnicate"]),
            Err(HarnessError::InvalidArg { .. })
        ));
        assert!(matches!(
            parse(&["--quick", "F4"]),
            Err(HarnessError::InvalidArg { what, .. }) if what == "--quick"
        ));
        assert!(matches!(
            parse(&["--fault-plan", "explode=1"]),
            Err(HarnessError::InvalidArg { .. })
        ));
    }

    #[test]
    fn help_short_circuits() {
        assert_eq!(parse(&["--help"]).unwrap(), CliCommand::Help);
        assert_eq!(parse(&["-h"]).unwrap(), CliCommand::Help);
        assert!(USAGE.contains("--fault-plan") && USAGE.contains("--resume"));
    }

    #[test]
    fn id_string_round_trips_through_parse_id() {
        for id in all_experiment_ids() {
            let s = id_string(id);
            assert_eq!(parse_id(&s), Some(id), "{s} must round-trip");
        }
    }

    #[test]
    fn config_digest_is_stable_within_a_build() {
        assert_eq!(config_digest(), config_digest());
        assert!(config_digest().starts_with("fnv1a:"));
    }
}
