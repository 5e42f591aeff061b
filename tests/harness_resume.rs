//! Crash-recovery guarantees of the experiments pipeline: an injected
//! kill followed by `--resume` must reproduce the uninterrupted run
//! byte-for-byte, a silently corrupted sealed artifact must be detected
//! by digest re-verification and recomputed (and only it), and
//! transient write failures must be absorbed by the retry policy.

use rexec_harness::{FaultPlan, HarnessError, RetryPolicy};
use rexec_sweep::experiments::{quick_experiment_ids, DEFAULT_SEED};
use rexec_sweep::pipeline::{run, PipelineConfig, UnitOutcome};
use std::collections::BTreeMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Holds the tests of this file to one at a time, so the process-wide
/// `sweep.experiments_run` counter sees only the running test's units.
fn serial() -> MutexGuard<'static, ()> {
    static SERIAL: Mutex<()> = Mutex::new(());
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// What `run` returns, and the experiments computed while it ran.
fn experiments_computed<R>(run: impl FnOnce() -> R) -> (R, u64) {
    let computed = rexec_obs::global().counter("sweep.experiments_run");
    let before = computed.get();
    let out = run();
    (out, computed.get() - before)
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rexec-resume-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn quick_config(out_dir: PathBuf) -> PipelineConfig {
    PipelineConfig {
        out_dir,
        seed: DEFAULT_SEED,
        resume: false,
        ids: quick_experiment_ids(),
        fault: FaultPlan::default(),
        retry: RetryPolicy::immediate(3),
        ..PipelineConfig::default()
    }
}

/// Every deterministic artifact (CSV datasets + rendered reports) in
/// `dir`, by file name. `manifest.json` and `metrics.json` are excluded:
/// they carry wall-clock timings.
fn artifacts(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    for entry in fs::read_dir(dir).expect("read artifact dir") {
        let entry = entry.unwrap();
        let name = entry.file_name().into_string().unwrap();
        if name.ends_with(".csv") || name.ends_with(".txt") {
            out.insert(name, fs::read(entry.path()).unwrap());
        }
    }
    out
}

fn assert_identical_artifacts(a: &Path, b: &Path) {
    let (fa, fb) = (artifacts(a), artifacts(b));
    assert!(!fa.is_empty(), "baseline run produced no artifacts");
    assert_eq!(
        fa.keys().collect::<Vec<_>>(),
        fb.keys().collect::<Vec<_>>(),
        "artifact sets differ"
    );
    for (name, bytes) in &fa {
        assert_eq!(
            bytes, &fb[name],
            "artifact {name} differs between the two runs"
        );
    }
}

#[test]
fn kill_then_resume_matches_uninterrupted_run() {
    let _serial = serial();
    let clean = fresh_dir("kill-clean");
    let faulty = fresh_dir("kill-faulty");
    run(&quick_config(clean.clone()), &mut io::sink()).expect("uninterrupted run");

    // Killed after the 2nd unit: typed error, exit code 137, and a
    // manifest that seals exactly the completed prefix.
    let mut cfg = quick_config(faulty.clone());
    cfg.fault = FaultPlan::parse("kill-after-unit=2").unwrap();
    let err = run(&cfg, &mut io::sink()).expect_err("fault plan must kill the run");
    assert!(
        matches!(err, HarnessError::KilledByFaultPlan { after_unit: 2 }),
        "unexpected error: {err:?}"
    );
    assert_eq!(err.exit_code(), 137);
    assert!(faulty.join("manifest.json").exists());
    assert!(
        !faulty.join("metrics.json").exists(),
        "a killed run must not claim completion"
    );

    // Resume: the sealed prefix is re-verified and skipped, the rest is
    // recomputed, and the result is byte-identical to the clean run.
    cfg.fault = FaultPlan::default();
    cfg.resume = true;
    let summary = run(&cfg, &mut io::sink()).expect("resumed run");
    let outcomes: Vec<&UnitOutcome> = summary.units.iter().map(|(_, o)| o).collect();
    assert_eq!(outcomes[0], &UnitOutcome::SkippedVerified);
    assert_eq!(outcomes[1], &UnitOutcome::SkippedVerified);
    for o in &outcomes[2..] {
        assert!(
            matches!(o, UnitOutcome::Recomputed(r) if r.contains("not previously sealed")),
            "units after the kill point must be recomputed, got {o:?}"
        );
    }
    assert!(faulty.join("metrics.json").exists());
    assert_identical_artifacts(&clean, &faulty);

    let _ = fs::remove_dir_all(&clean);
    let _ = fs::remove_dir_all(&faulty);
}

#[test]
fn corrupted_sealed_artifact_is_flagged_and_recomputed() {
    let _serial = serial();
    let clean = fresh_dir("corrupt-clean");
    let faulty = fresh_dir("corrupt-faulty");
    run(&quick_config(clean.clone()), &mut io::sink()).expect("uninterrupted run");

    // In the quick set the 4th sealed artifact is F4's CSV dataset
    // (artifacts 1-3 are the T-rho8 / T-rho3 / X-validity reports).
    // The injector flips one byte on disk; the manifest keeps the
    // intended digest, so this models silent corruption.
    let mut cfg = quick_config(faulty.clone());
    cfg.fault = FaultPlan::parse("corrupt-artifact=4,seed=11").unwrap();
    run(&cfg, &mut io::sink()).expect("corrupting run still completes");

    let f4_key = "F4";
    let corrupted: Vec<String> = artifacts(&faulty)
        .into_iter()
        .filter(|(name, bytes)| artifacts(&clean).get(name) != Some(bytes))
        .map(|(name, _)| name)
        .collect();
    assert_eq!(corrupted.len(), 1, "exactly one artifact must be corrupt");
    assert!(
        corrupted[0].starts_with("fig4_") && corrupted[0].ends_with(".csv"),
        "expected F4's CSV to be the corrupted artifact, got {corrupted:?}"
    );

    // A resume over the intact tree computes nothing.
    let mut intact = quick_config(clean.clone());
    intact.resume = true;
    let (_, computed) = experiments_computed(|| run(&intact, &mut io::sink()));
    assert_eq!(computed, 0, "an intact tree computes no unit");

    // Resume re-verifies every digest: only F4 fails and is recomputed,
    // and it is the one unit computed.
    cfg.fault = FaultPlan::default();
    cfg.resume = true;
    let (summary, computed) = experiments_computed(|| run(&cfg, &mut io::sink()));
    let summary = summary.expect("resumed run");
    assert_eq!(computed, 1, "only the corrupt unit is computed");
    for (id, outcome) in &summary.units {
        if id == f4_key {
            assert!(
                matches!(outcome, UnitOutcome::Recomputed(r) if r.contains("digest mismatch")),
                "corrupt unit must be flagged by digest, got {outcome:?}"
            );
        } else {
            assert_eq!(
                outcome,
                &UnitOutcome::SkippedVerified,
                "intact unit {id} must be skipped"
            );
        }
    }
    assert_identical_artifacts(&clean, &faulty);

    let _ = fs::remove_dir_all(&clean);
    let _ = fs::remove_dir_all(&faulty);
}

#[test]
fn transient_write_failure_is_retried_to_success() {
    let _serial = serial();
    let clean = fresh_dir("retry-clean");
    let flaky = fresh_dir("retry-flaky");
    run(&quick_config(clean.clone()), &mut io::sink()).expect("uninterrupted run");

    // The 2nd write attempt fails once; the retry policy re-issues it
    // and the run completes with identical outputs.
    let mut cfg = quick_config(flaky.clone());
    cfg.fault = FaultPlan::parse("fail-write=2").unwrap();
    run(&cfg, &mut io::sink()).expect("retries must absorb a single transient failure");
    assert_identical_artifacts(&clean, &flaky);

    let _ = fs::remove_dir_all(&clean);
    let _ = fs::remove_dir_all(&flaky);
}
