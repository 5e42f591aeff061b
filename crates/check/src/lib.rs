//! # rexec-check
//!
//! A std-only, in-repo crash-consistency model checker for the
//! manifest/checkpoint/resume lifecycle (`rexec_harness::run_units` —
//! the *same* code the `experiments` binary runs, not a re-model of it).
//!
//! The checker runs a small deterministic multi-unit fixture against
//! [`SimFs`], which records every storage operation the lifecycle
//! performs. It then explores, exhaustively:
//!
//! * **every crash prefix** — for each boundary between two storage
//!   operations, and for each [`CrashMode`] (process kill keeps the page
//!   cache; power loss drops un-fsynced file data *and* un-fsynced
//!   directory entries), it materializes the surviving state, drives a
//!   resume to completion, and asserts the lifecycle's contract;
//! * **every single-byte corruption** — for each byte of each sealed
//!   artifact in a completed run, it flips that byte at rest and drives
//!   a resume.
//!
//! Two invariants (DESIGN.md §10) are asserted in every explored state:
//!
//! 1. **Recovery is exact** — the resumed run's `results/` tree is
//!    byte-identical to an uninterrupted run's, and any unit whose
//!    checkpoint was acknowledged (its manifest rewrite completed)
//!    before the crash is *verified and skipped*, never silently lost.
//!    The skip requirement is the durability half: it is what the
//!    missing parent-directory fsync used to violate under power loss
//!    (see [`NoDirSync`] and the regression test in
//!    `tests/model_check.rs`).
//! 2. **Corruption is always detected** — a corrupt sealed artifact is
//!    flagged (`digest mismatch`) and recomputed, never served as
//!    intact.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use rexec_harness::{
    run_units, CrashMode, FaultInjector, HarnessError, LifecycleConfig, LifecycleEvent,
    RetryPolicy, SimFs, Storage, StorageOp, UnitDisposition, UnitOutput, UnitPlan,
};
use std::collections::BTreeMap;
use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

/// Output directory the model runs use inside [`SimFs`].
pub const MODEL_OUT_DIR: &str = "results";

/// A [`Storage`] adapter that silently drops `sync_dir`, modeling the
/// pre-fix atomic writer (file fsync only, no parent-directory fsync).
/// Under [`CrashMode::PowerLoss`] the explorer then demonstrates the
/// durability gap: renames never become durable, so sealed units vanish
/// and invariant 1 is violated at every post-seal crash point.
pub struct NoDirSync<'a>(pub &'a dyn Storage);

impl Storage for NoDirSync<'_> {
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.0.create_dir_all(path)
    }
    fn write_file(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.0.write_file(path, bytes)
    }
    fn sync_file(&self, path: &Path) -> io::Result<()> {
        self.0.sync_file(path)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.0.rename(from, to)
    }
    fn sync_dir(&self, _path: &Path) -> io::Result<()> {
        Ok(())
    }
    fn read_file(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.0.read_file(path)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.0.remove_file(path)
    }
    fn exists(&self, path: &Path) -> bool {
        self.0.exists(path)
    }
    fn list_dir(&self, path: &Path) -> io::Result<Vec<String>> {
        self.0.list_dir(path)
    }
}

/// What to explore.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckConfig {
    /// Fixture size: number of work units in the model run.
    pub units: usize,
    /// `false` models the pre-fix writer (no parent-directory fsync).
    pub dir_sync: bool,
    /// Crash modes to explore at every prefix.
    pub modes: Vec<CrashMode>,
    /// Also run the single-byte corruption sweep over sealed artifacts.
    pub corruption: bool,
}

impl Default for CheckConfig {
    fn default() -> Self {
        CheckConfig {
            units: 4,
            dir_sync: true,
            modes: CrashMode::ALL.to_vec(),
            corruption: true,
        }
    }
}

/// One invariant violation found by the explorer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which explored state, e.g.
    /// `power-loss crash after op 17 (rename(...))`.
    pub scenario: String,
    /// What broke, e.g. `lost sealed work: unit U1 ... was recomputed`.
    pub detail: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.scenario, self.detail)
    }
}

/// Exploration summary: counts of explored states plus every violation.
#[derive(Debug, Clone, Default)]
pub struct ExploreReport {
    /// Fixture units in the model run.
    pub units: usize,
    /// Storage operations the uninterrupted run performed.
    pub ops: usize,
    /// Crash states explored (prefixes × modes).
    pub crash_states: usize,
    /// Corruption states explored (one per byte per sealed artifact).
    pub corruption_states: usize,
    /// Every invariant violation found.
    pub violations: Vec<Violation>,
}

impl ExploreReport {
    /// Total states the explorer drove a resume from.
    pub fn states_explored(&self) -> usize {
        self.crash_states + self.corruption_states
    }

    /// Whether both invariants held in every explored state.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

impl fmt::Display for ExploreReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "model check: {} fixture units, {} storage ops in the uninterrupted run",
            self.units, self.ops
        )?;
        writeln!(
            f,
            "explored {} states: {} crash states ({} prefixes x modes), {} corruption states",
            self.states_explored(),
            self.crash_states,
            self.ops + 1,
            self.corruption_states
        )?;
        if self.ok() {
            write!(
                f,
                "OK: resume byte-identical and no sealed work lost in every crash state; \
                 every injected corruption detected"
            )
        } else {
            writeln!(f, "{} VIOLATION(S):", self.violations.len())?;
            const SHOWN: usize = 20;
            for v in self.violations.iter().take(SHOWN) {
                writeln!(f, "  - {v}")?;
            }
            if self.violations.len() > SHOWN {
                writeln!(f, "  ... and {} more", self.violations.len() - SHOWN)?;
            }
            write!(f, "the checkpoint/resume lifecycle is NOT crash-consistent")
        }
    }
}

/// Deterministic fixture: `n` units, each sealing a small CSV dataset
/// and a report, with contents that are a pure function of the unit
/// index (so recomputation is exact restoration, as in the real
/// pipeline — DESIGN.md §9).
pub fn fixture_units(n: usize) -> Vec<UnitPlan<'static>> {
    (0..n)
        .map(|i| UnitPlan {
            id: format!("U{i}"),
            compute: Box::new(move || {
                let mut csv = String::from("w,sigma,energy\n");
                for row in 0..3 {
                    let w = 100 * (i + 1) + row;
                    csv.push_str(&format!("{w},{}.{},{}\n", (i + row) % 4, i, w * 2));
                }
                Ok(UnitOutput {
                    title: format!("fixture unit {i}"),
                    points: 3,
                    wall_secs: 0.0,
                    artifacts: vec![
                        (format!("u{i}_data.csv"), csv.into_bytes()),
                        (
                            format!("report_U{i}.txt"),
                            format!("fixture unit {i}: 3 points, deterministic\n").into_bytes(),
                        ),
                    ],
                })
            }),
        })
        .collect()
}

fn model_cfg(resume: bool) -> LifecycleConfig {
    LifecycleConfig {
        out_dir: PathBuf::from(MODEL_OUT_DIR),
        tool: "rexec-check".into(),
        tool_version: "model".into(),
        seed: 42,
        config_digest: "fnv1a:fixture".into(),
        resume,
        retry: RetryPolicy::immediate(1),
    }
}

/// Runs the lifecycle over the fixture on `sim`, optionally through the
/// [`NoDirSync`] shim, returning the dispositions (and recording seal
/// points when `seal_points` is given).
fn drive(
    sim: &SimFs,
    dir_sync: bool,
    units: usize,
    resume: bool,
    mut seal_points: Option<&mut Vec<(String, usize)>>,
) -> Result<Vec<(String, UnitDisposition)>, HarnessError> {
    let shim;
    let storage: &dyn Storage = if dir_sync {
        sim
    } else {
        shim = NoDirSync(sim);
        &shim
    };
    let mut plans = fixture_units(units);
    let outcome = run_units(
        storage,
        &model_cfg(resume),
        &mut plans,
        &FaultInjector::none(),
        &mut |event| {
            if let LifecycleEvent::UnitSealed { id, .. } = event {
                if let Some(points) = seal_points.as_deref_mut() {
                    points.push((id.to_string(), sim.op_count()));
                }
            }
        },
    )?;
    Ok(outcome.units)
}

/// Compares two trees and renders the first difference, if any.
fn first_diff(
    expected: &BTreeMap<PathBuf, Vec<u8>>,
    actual: &BTreeMap<PathBuf, Vec<u8>>,
) -> Option<String> {
    for (path, bytes) in expected {
        match actual.get(path) {
            None => return Some(format!("missing file {}", path.display())),
            Some(other) if other != bytes => {
                return Some(format!(
                    "{} differs ({} vs {} bytes)",
                    path.display(),
                    other.len(),
                    bytes.len()
                ))
            }
            Some(_) => {}
        }
    }
    actual
        .keys()
        .find(|p| !expected.contains_key(*p))
        .map(|p| format!("unexpected file {}", p.display()))
}

/// Resumes from `state` and asserts both invariants, appending any
/// violations. `sealed_before` lists units whose checkpoints were
/// acknowledged before the crash — they must verify and be skipped.
fn check_resume(
    state: SimFs,
    cfg: &CheckConfig,
    scenario: &str,
    expected: &BTreeMap<PathBuf, Vec<u8>>,
    sealed_before: &[&str],
    must_recompute: Option<(&str, &str)>,
    violations: &mut Vec<Violation>,
) {
    let violate = |violations: &mut Vec<Violation>, detail: String| {
        violations.push(Violation {
            scenario: scenario.to_string(),
            detail,
        })
    };
    let dispositions = match drive(&state, cfg.dir_sync, cfg.units, true, None) {
        Ok(d) => d,
        Err(e) => {
            violate(violations, format!("resume failed: {e}"));
            return;
        }
    };
    for &id in sealed_before {
        match dispositions.iter().find(|(uid, _)| uid == id) {
            Some((_, UnitDisposition::SkippedVerified)) => {}
            Some((_, other)) => violate(
                violations,
                format!("lost sealed work: unit {id} was checkpointed before the crash but resume saw {other:?}"),
            ),
            None => violate(violations, format!("unit {id} missing from resume")),
        }
    }
    if let Some((id, reason_fragment)) = must_recompute {
        match dispositions.iter().find(|(uid, _)| uid == id) {
            Some((_, UnitDisposition::Recomputed(reason))) if reason.contains(reason_fragment) => {}
            Some((_, other)) => violate(
                violations,
                format!(
                    "corruption not detected: unit {id} should recompute with `{reason_fragment}`, \
                     resume saw {other:?}"
                ),
            ),
            None => violate(violations, format!("unit {id} missing from resume")),
        }
    }
    if let Some(diff) = first_diff(expected, &state.tree()) {
        violate(
            violations,
            format!("resumed tree not byte-identical: {diff}"),
        );
    }
}

/// Exhaustively explores the crash (and optionally corruption) state
/// space of the checkpoint/resume lifecycle for an `cfg.units`-unit
/// fixture run. Never panics on a violation — everything found is
/// reported in the returned [`ExploreReport`].
pub fn explore(cfg: &CheckConfig) -> ExploreReport {
    let mut report = ExploreReport {
        units: cfg.units,
        ..ExploreReport::default()
    };

    // Uninterrupted reference run: the op log to crash into, the seal
    // points (checkpoint-acknowledged boundaries), and the expected
    // final tree.
    let baseline = SimFs::new();
    let mut seal_points: Vec<(String, usize)> = vec![];
    drive(
        &baseline,
        cfg.dir_sync,
        cfg.units,
        false,
        Some(&mut seal_points),
    )
    .expect("the uninterrupted fixture run cannot fail");
    let ops: Vec<StorageOp> = baseline.ops();
    let expected = baseline.tree();
    report.ops = ops.len();

    // Phase 1: a crash between every pair of storage operations, in
    // every mode.
    for k in 0..=ops.len() {
        let after = match k {
            0 => "before any storage op".to_string(),
            _ => format!("after op {k}/{} ({})", ops.len(), ops[k - 1].describe()),
        };
        let sealed_before: Vec<&str> = seal_points
            .iter()
            .filter(|(_, seal_op)| *seal_op <= k)
            .map(|(id, _)| id.as_str())
            .collect();
        for &mode in &cfg.modes {
            let state = SimFs::replay(&ops[..k]).crash(mode);
            let scenario = format!("{} crash {after}", mode.label());
            check_resume(
                state,
                cfg,
                &scenario,
                &expected,
                &sealed_before,
                None,
                &mut report.violations,
            );
            report.crash_states += 1;
        }
    }

    // Phase 2: flip every byte of every sealed artifact of the
    // completed run, one state per byte.
    if cfg.corruption {
        let manifest = rexec_harness::RunManifest::load_from(
            &baseline,
            &PathBuf::from(MODEL_OUT_DIR).join(rexec_harness::MANIFEST_NAME),
        )
        .expect("the completed fixture run seals a loadable manifest");
        for unit in &manifest.units {
            for artifact in &unit.artifacts {
                let path = PathBuf::from(MODEL_OUT_DIR).join(&artifact.name);
                for index in 0..artifact.bytes as usize {
                    let state = baseline.clone();
                    state.corrupt_byte(&path, index, 0xA5);
                    let scenario = format!(
                        "byte {index} of sealed artifact {} corrupted",
                        artifact.name
                    );
                    let sealed: Vec<&str> = manifest
                        .units
                        .iter()
                        .map(|u| u.id.as_str())
                        .filter(|id| *id != unit.id)
                        .collect();
                    check_resume(
                        state,
                        cfg,
                        &scenario,
                        &expected,
                        &sealed,
                        Some((&unit.id, "digest mismatch")),
                        &mut report.violations,
                    );
                    report.corruption_states += 1;
                }
            }
        }
    }

    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_is_deterministic() {
        fn run(i: usize) -> UnitOutput {
            let mut units = fixture_units(3);
            (units[i].compute)().unwrap()
        }
        assert_eq!(run(1), run(1));
        assert_ne!(run(0).artifacts, run(2).artifacts);
    }

    #[test]
    fn two_unit_exploration_is_green_and_counts_states() {
        let report = explore(&CheckConfig {
            units: 2,
            ..CheckConfig::default()
        });
        assert!(report.ok(), "violations: {:?}", report.violations);
        // create_dir + 2 units x (2 artifacts + manifest) x 4 ops +
        // final manifest save.
        assert_eq!(report.ops, 1 + 2 * 3 * 4 + 4);
        assert_eq!(report.crash_states, (report.ops + 1) * 2);
        assert!(report.corruption_states > 100);
    }

    #[test]
    fn no_dir_sync_power_loss_loses_sealed_units() {
        let report = explore(&CheckConfig {
            units: 2,
            dir_sync: false,
            modes: vec![CrashMode::PowerLoss],
            corruption: false,
        });
        assert!(!report.ok());
        assert!(report
            .violations
            .iter()
            .any(|v| v.detail.contains("lost sealed work")));
    }
}
