//! The checkpoint/resume lifecycle, generic over [`Storage`].
//!
//! This is the one state machine both worlds execute: the `experiments`
//! binary drives it against the real filesystem ([`StdFs`]), and the
//! `rexec-check` model checker drives the *same code* against a
//! crash-simulating [`crate::SimFs`] — which is what makes the
//! exhaustive crash exploration meaningful: there is no separate "model"
//! that could drift from the production path.
//!
//! Per run: sweep stale temp droppings, load (on resume) or create the
//! [`RunManifest`] and decide every unit's disposition — on resume by
//! re-verifying its digests; then, for each unit not skipped, compute
//! it, seal its artifacts (digest the intended bytes, write atomically
//! with parent-dir fsync), and atomically rewrite the manifest so the
//! on-disk checkpoint always describes exactly the sealed prefix. The
//! caller observes progress through [`LifecycleEvent`]s — the model
//! checker uses [`UnitSealed`] (`LifecycleEvent::UnitSealed`) to mark
//! the storage-op index at which each unit's checkpoint was
//! acknowledged, the boundary after which losing that unit is a
//! durability violation.

use crate::atomic::{atomic_write_in, is_temp_name};
use crate::digest::digest_bytes;
use crate::error::HarnessError;
use crate::fault::FaultInjector;
use crate::manifest::{ArtifactRecord, RunManifest, UnitRecord, VerifyOutcome, MANIFEST_NAME};
use crate::retry::RetryPolicy;
use crate::storage::Storage;
use std::path::{Path, PathBuf};

/// What a unit's computation produced: metadata plus the artifact bytes
/// to seal, in write order.
#[derive(Debug, Clone, PartialEq)]
pub struct UnitOutput {
    /// Human-readable title recorded in the manifest.
    pub title: String,
    /// Data points the unit produced.
    pub points: u64,
    /// Wall time of the computation, seconds (0.0 for model fixtures —
    /// the manifest must then be byte-reproducible).
    pub wall_secs: f64,
    /// `(file name, contents)` pairs, sealed in this order.
    pub artifacts: Vec<(String, Vec<u8>)>,
}

/// One schedulable work unit: a stable id plus the computation that
/// produces its artifacts when the unit is not skippable.
pub struct UnitPlan<'a> {
    /// Stable unit id, e.g. `F4` or `U2`.
    pub id: String,
    /// Produces the unit's output; only called when the unit must be
    /// (re)computed.
    pub compute: Box<dyn FnMut() -> Result<UnitOutput, HarnessError> + 'a>,
}

/// What happened to one unit during a lifecycle run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UnitDisposition {
    /// Computed fresh (no resume, or not sealed before).
    Computed,
    /// Sealed by an earlier run, re-verified intact, skipped.
    SkippedVerified,
    /// Sealed before but failed re-verification; recomputed. The string
    /// says why, e.g. `digest mismatch on fig4_... .csv`.
    Recomputed(String),
}

/// Progress callbacks out of [`run_units`].
#[derive(Debug, Clone, PartialEq)]
pub enum LifecycleEvent<'a> {
    /// A resume found an existing manifest sealing `sealed_units` units.
    ResumeLoaded {
        /// Units the loaded manifest seals.
        sealed_units: usize,
    },
    /// A unit's disposition is decided ([`plan_units`]). Every unit is
    /// decided, in order, before the first is computed; units are then
    /// computed and sealed in the same order ([`seal_units`]).
    UnitDecided {
        /// Unit id.
        id: &'a str,
        /// Skip / compute / recompute decision for the unit.
        disposition: &'a UnitDisposition,
    },
    /// A unit's artifacts and manifest entry are on storage; the
    /// checkpoint for this unit is acknowledged from here on.
    UnitSealed {
        /// Unit id.
        id: &'a str,
        /// The sealed manifest record (artifact names and digests).
        unit: &'a UnitRecord,
    },
}

/// Parameters of one lifecycle run (the storage-independent subset of
/// the `experiments` CLI).
#[derive(Debug, Clone, PartialEq)]
pub struct LifecycleConfig {
    /// Output directory for artifacts and the manifest.
    pub out_dir: PathBuf,
    /// Tool name recorded in manifests (resume refuses to cross tools).
    pub tool: String,
    /// Tool version recorded in manifests.
    pub tool_version: String,
    /// Base seed recorded in manifests (resume refuses a mismatch).
    pub seed: u64,
    /// Configuration digest recorded in manifests (likewise).
    pub config_digest: String,
    /// Re-verify sealed units from an existing manifest and skip them.
    pub resume: bool,
    /// Retry policy for artifact/manifest writes.
    pub retry: RetryPolicy,
}

/// Result of a completed lifecycle run.
#[derive(Debug, Clone, PartialEq)]
pub struct LifecycleOutcome {
    /// The final manifest (also sealed on storage), `complete = true`.
    pub manifest: RunManifest,
    /// `(unit id, disposition)` in execution order.
    pub units: Vec<(String, UnitDisposition)>,
}

/// Reason string for a failed verification (the unit will be
/// recomputed).
pub fn verify_reason(outcome: &VerifyOutcome) -> String {
    match outcome {
        VerifyOutcome::Verified => unreachable!("verified units are skipped, not recomputed"),
        VerifyOutcome::NotRecorded => "not previously sealed".into(),
        VerifyOutcome::MissingArtifact(name) => format!("missing artifact {name}"),
        VerifyOutcome::DigestMismatch { name, .. } => format!("digest mismatch on {name}"),
    }
}

/// Removes staging files (`.{name}.tmp-{pid}-{seq}`) a crashed run left
/// in `dir`, returning how many were swept. The output directory is
/// single-writer by contract (the manifest is one checkpoint, not a
/// lock), so any temp file present at run start is a stale dropping —
/// without this sweep, a resumed run's tree would differ from an
/// uninterrupted run's by exactly those droppings (found by the model
/// checker's byte-identity invariant).
pub fn sweep_stale_temps(storage: &dyn Storage, dir: &Path) -> usize {
    let Ok(names) = storage.list_dir(dir) else {
        return 0;
    };
    let mut swept = 0;
    for name in names {
        if is_temp_name(&name) && storage.remove_file(&dir.join(&name)).is_ok() {
            swept += 1;
            rexec_obs::counter!("harness.stale_temps_swept").incr();
        }
    }
    swept
}

/// Seals one artifact: digests the intended bytes, lets the fault plan
/// corrupt what actually lands on storage (a *silent* error: the
/// manifest keeps the intended digest), then writes atomically under
/// retry.
fn seal_artifact(
    storage: &dyn Storage,
    dir: &Path,
    name: &str,
    bytes: &[u8],
    retry: &RetryPolicy,
    injector: &FaultInjector,
) -> Result<ArtifactRecord, HarnessError> {
    let record = ArtifactRecord {
        name: name.to_string(),
        bytes: bytes.len() as u64,
        digest: digest_bytes(bytes),
    };
    let corrupt = injector.corrupt_artifact(bytes);
    let on_disk = corrupt.as_deref().unwrap_or(bytes);
    atomic_write_in(storage, &dir.join(name), on_disk, retry, injector)?;
    Ok(record)
}

/// Every unit's disposition, decided before the lifecycle's first
/// write: what [`plan_units`] hands to [`seal_units`].
#[derive(Debug, Clone, PartialEq)]
pub struct LifecyclePlan {
    manifest: RunManifest,
    units: Vec<(String, UnitDisposition)>,
}

impl LifecyclePlan {
    /// `(unit id, disposition)` in unit order.
    pub fn units(&self) -> &[(String, UnitDisposition)] {
        &self.units
    }
}

/// Runs the verified-checkpoint lifecycle over `units` on `storage`:
/// [`plan_units`], then [`seal_units`].
///
/// The fault plan's `kill-after-unit=K` aborts with
/// [`HarnessError::KilledByFaultPlan`] after the K-th unit of *this
/// invocation* is sealed or skipped — the manifest is already on
/// storage, so a subsequent resume continues from unit K+1.
pub fn run_units(
    storage: &dyn Storage,
    cfg: &LifecycleConfig,
    units: &mut [UnitPlan<'_>],
    injector: &FaultInjector,
    observe: &mut dyn FnMut(LifecycleEvent<'_>),
) -> Result<LifecycleOutcome, HarnessError> {
    let ids = units.iter().map(|u| u.id.clone());
    let plan = plan_units(storage, cfg, ids, observe)?;
    seal_units(storage, cfg, plan, units, injector, observe)
}

/// The first half of [`run_units`]: creates the output directory and
/// sweeps stale temp droppings from it, then loads (on resume) or
/// creates the manifest and decides each unit's disposition in order —
/// on resume by re-verifying its digests — announcing each as
/// [`LifecycleEvent::UnitDecided`]. No unit is computed or written
/// yet, so a caller may hand the units to compute to other threads
/// before the first of them is sealed.
pub fn plan_units(
    storage: &dyn Storage,
    cfg: &LifecycleConfig,
    ids: impl IntoIterator<Item = String>,
    observe: &mut dyn FnMut(LifecycleEvent<'_>),
) -> Result<LifecyclePlan, HarnessError> {
    storage
        .create_dir_all(&cfg.out_dir)
        .map_err(|e| HarnessError::io("create output directory", &cfg.out_dir, &e))?;
    sweep_stale_temps(storage, &cfg.out_dir);
    let manifest_path = cfg.out_dir.join(MANIFEST_NAME);
    let manifest = if cfg.resume && storage.exists(&manifest_path) {
        let mut m = RunManifest::load_from(storage, &manifest_path)?;
        m.check_resumable(&cfg.tool, cfg.seed, &cfg.config_digest)?;
        // The manifest claims completion only once *this* run's last
        // unit is sealed.
        m.complete = false;
        observe(LifecycleEvent::ResumeLoaded {
            sealed_units: m.units.len(),
        });
        m
    } else {
        RunManifest::new(
            &cfg.tool,
            &cfg.tool_version,
            cfg.seed,
            cfg.config_digest.clone(),
        )
    };
    let units = ids
        .into_iter()
        .map(|id| {
            let disposition = if cfg.resume {
                match manifest.verify_unit_in(storage, &cfg.out_dir, &id) {
                    VerifyOutcome::Verified => UnitDisposition::SkippedVerified,
                    other => UnitDisposition::Recomputed(verify_reason(&other)),
                }
            } else {
                UnitDisposition::Computed
            };
            observe(LifecycleEvent::UnitDecided {
                id: &id,
                disposition: &disposition,
            });
            (id, disposition)
        })
        .collect();
    Ok(LifecyclePlan { manifest, units })
}

/// The second half of [`run_units`]: computes each unit `plan` does not
/// skip, in order, seals its artifacts and atomically rewrites the
/// manifest after each one. Every storage operation runs on the calling
/// thread, in this order.
///
/// # Panics
/// If `units` are not the units `plan` decided, in the same order.
pub fn seal_units(
    storage: &dyn Storage,
    cfg: &LifecycleConfig,
    plan: LifecyclePlan,
    units: &mut [UnitPlan<'_>],
    injector: &FaultInjector,
    observe: &mut dyn FnMut(LifecycleEvent<'_>),
) -> Result<LifecycleOutcome, HarnessError> {
    assert!(
        plan.units
            .iter()
            .map(|(id, _)| id)
            .eq(units.iter().map(|u| &u.id)),
        "the plan decides exactly these units"
    );
    let LifecyclePlan {
        mut manifest,
        units: dispositions,
    } = plan;
    let manifest_path = cfg.out_dir.join(MANIFEST_NAME);
    for (idx, (unit, (key, disposition))) in units.iter_mut().zip(&dispositions).enumerate() {
        if *disposition == UnitDisposition::SkippedVerified {
            rexec_obs::counter!("harness.units_skipped").incr();
        } else {
            if matches!(disposition, UnitDisposition::Recomputed(_)) {
                rexec_obs::counter!("harness.units_recomputed").incr();
            }
            let output = (unit.compute)()?;
            let mut artifacts = vec![];
            for (name, bytes) in &output.artifacts {
                artifacts.push(seal_artifact(
                    storage,
                    &cfg.out_dir,
                    name,
                    bytes,
                    &cfg.retry,
                    injector,
                )?);
            }
            manifest.record_unit(UnitRecord {
                id: key.clone(),
                title: output.title,
                points: output.points,
                wall_secs: output.wall_secs,
                artifacts,
            });
            // Checkpoint: the manifest on storage always describes
            // exactly the sealed prefix.
            manifest.save_in(storage, &manifest_path, &cfg.retry, injector)?;
            rexec_obs::counter!("harness.units_sealed").incr();
            observe(LifecycleEvent::UnitSealed {
                id: key,
                unit: manifest.unit(key).expect("just recorded"),
            });
        }

        if injector.should_kill_after_unit(idx as u64 + 1) {
            return Err(HarnessError::KilledByFaultPlan {
                after_unit: idx as u64 + 1,
            });
        }
    }

    manifest.complete = true;
    manifest.save_in(storage, &manifest_path, &cfg.retry, injector)?;
    Ok(LifecycleOutcome {
        manifest,
        units: dispositions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simfs::{SimFs, StorageOp};
    use crate::FaultPlan;

    fn fixture_cfg(resume: bool) -> LifecycleConfig {
        LifecycleConfig {
            out_dir: PathBuf::from("results"),
            tool: "lifecycle-test".into(),
            tool_version: "0.0.0".into(),
            seed: 7,
            config_digest: "fnv1a:0".into(),
            resume,
            retry: RetryPolicy::immediate(1),
        }
    }

    fn two_units<'a>() -> Vec<UnitPlan<'a>> {
        (0..2)
            .map(|i| UnitPlan {
                id: format!("U{i}"),
                compute: Box::new(move || {
                    Ok(UnitOutput {
                        title: format!("unit {i}"),
                        points: i + 1,
                        wall_secs: 0.0,
                        artifacts: vec![(format!("u{i}.csv"), format!("x,{i}\n").into_bytes())],
                    })
                }),
            })
            .collect()
    }

    #[test]
    fn fresh_run_seals_all_units_and_completes() {
        let fs = SimFs::new();
        let mut sealed = vec![];
        let out = run_units(
            &fs,
            &fixture_cfg(false),
            &mut two_units(),
            &FaultInjector::none(),
            &mut |e| {
                if let LifecycleEvent::UnitSealed { id, .. } = e {
                    sealed.push(id.to_string());
                }
            },
        )
        .unwrap();
        assert!(out.manifest.complete);
        assert_eq!(sealed, vec!["U0", "U1"]);
        assert!(fs.exists(Path::new("results/manifest.json")));
        assert!(fs.exists(Path::new("results/u0.csv")));
        assert_eq!(
            out.units,
            vec![
                ("U0".into(), UnitDisposition::Computed),
                ("U1".into(), UnitDisposition::Computed),
            ]
        );
    }

    #[test]
    fn resume_skips_verified_units_and_is_byte_identical() {
        let fs = SimFs::new();
        run_units(
            &fs,
            &fixture_cfg(false),
            &mut two_units(),
            &FaultInjector::none(),
            &mut |_| {},
        )
        .unwrap();
        let clean = fs.tree();
        let out = run_units(
            &fs,
            &fixture_cfg(true),
            &mut two_units(),
            &FaultInjector::none(),
            &mut |_| {},
        )
        .unwrap();
        assert_eq!(
            out.units,
            vec![
                ("U0".into(), UnitDisposition::SkippedVerified),
                ("U1".into(), UnitDisposition::SkippedVerified),
            ]
        );
        assert_eq!(fs.tree(), clean);
    }

    #[test]
    fn every_disposition_is_decided_before_any_unit_is_written() {
        let fs = SimFs::new();
        let none = FaultInjector::none();
        run_units(
            &fs,
            &fixture_cfg(false),
            &mut two_units(),
            &none,
            &mut |_| {},
        )
        .unwrap();
        for resume in [false, true] {
            let start = fs.op_count();
            let mut decided_at = vec![];
            run_units(
                &fs,
                &fixture_cfg(resume),
                &mut two_units(),
                &none,
                &mut |e| {
                    if let LifecycleEvent::UnitDecided { .. } = e {
                        decided_at.push(fs.op_count());
                    }
                },
            )
            .unwrap();
            let first_write = start
                + fs.ops()[start..]
                    .iter()
                    .position(|op| matches!(op, StorageOp::WriteFile { .. }))
                    .expect("every run rewrites its manifest");
            assert_eq!(decided_at.len(), 2);
            assert!(
                decided_at.iter().all(|&at| at <= first_write),
                "resume = {resume}: decided at {decided_at:?}, first write at op {first_write}"
            );
        }
    }

    #[test]
    fn kill_after_unit_leaves_a_resumable_checkpoint() {
        let fs = SimFs::new();
        let err = run_units(
            &fs,
            &fixture_cfg(false),
            &mut two_units(),
            &FaultPlan::parse("kill-after-unit=1").unwrap().injector(),
            &mut |_| {},
        )
        .unwrap_err();
        assert!(matches!(
            err,
            HarnessError::KilledByFaultPlan { after_unit: 1 }
        ));
        let m = RunManifest::load_from(&fs, Path::new("results/manifest.json")).unwrap();
        assert!(!m.complete);
        assert_eq!(m.units.len(), 1);
    }

    #[test]
    fn stale_temps_are_swept_at_run_start() {
        let fs = SimFs::new();
        fs.create_dir_all(Path::new("results")).unwrap();
        fs.write_file(Path::new("results/.u0.csv.tmp-99-0"), b"dropping")
            .unwrap();
        run_units(
            &fs,
            &fixture_cfg(false),
            &mut two_units(),
            &FaultInjector::none(),
            &mut |_| {},
        )
        .unwrap();
        assert!(!fs.exists(Path::new("results/.u0.csv.tmp-99-0")));
    }
}
