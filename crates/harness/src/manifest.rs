//! The run manifest: the checkpoint state of an experiment pipeline.
//!
//! One JSON file per output directory records which work units have been
//! executed and sealed, and — per artifact — the content digest of the
//! bytes that were *intended* to land on disk. The manifest is rewritten
//! atomically after every sealed unit, so a crash at any instant leaves a
//! loadable manifest describing exactly the completed prefix. On
//! `--resume` each recorded unit is re-verified against the files on
//! disk (the paper's `V` step applied to the runner itself): verified
//! units are skipped, missing or corrupted ones are recomputed.

use crate::atomic::atomic_write_in;
use crate::digest::digest_file_in;
use crate::error::HarnessError;
use crate::fault::FaultInjector;
use crate::retry::RetryPolicy;
use crate::storage::{StdFs, Storage};
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Manifest layout version; bump on incompatible changes.
pub const MANIFEST_VERSION: u32 = 1;

/// Default manifest filename inside an output directory.
pub const MANIFEST_NAME: &str = "manifest.json";

/// One sealed artifact of a unit.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArtifactRecord {
    /// Filename relative to the output directory.
    pub name: String,
    /// Size of the sealed content in bytes.
    pub bytes: u64,
    /// `fnv1a:<hex>` digest of the sealed content.
    pub digest: String,
}

/// One completed work unit (an experiment) and its sealed artifacts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UnitRecord {
    /// Stable unit id, e.g. `F4` or `T-rho3`.
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// Data points the unit produced.
    pub points: u64,
    /// Wall time of the (last) computation of this unit, seconds.
    pub wall_secs: f64,
    /// Sealed artifacts, including the unit's rendered report.
    pub artifacts: Vec<ArtifactRecord>,
}

/// The resumable state of one experiments run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunManifest {
    /// Manifest layout version (`MANIFEST_VERSION`).
    pub format_version: u32,
    /// Producing tool, e.g. `experiments`.
    pub tool: String,
    /// Producing tool version.
    pub tool_version: String,
    /// Monte Carlo base seed of the run.
    pub seed: u64,
    /// Digest of the model constants (detects planning-input drift).
    pub config_digest: String,
    /// Whether the run sealed every requested unit.
    pub complete: bool,
    /// Sealed units, in execution order.
    pub units: Vec<UnitRecord>,
}

/// Result of re-verifying one recorded unit against the files on disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerifyOutcome {
    /// Every artifact exists and matches its sealed digest.
    Verified,
    /// The unit was never sealed in this manifest.
    NotRecorded,
    /// An artifact file is missing.
    MissingArtifact(String),
    /// An artifact's bytes no longer match the sealed digest — a silent
    /// corruption, detected.
    DigestMismatch {
        /// Artifact filename.
        name: String,
        /// Digest sealed in the manifest.
        expected: String,
        /// Digest of the bytes currently on disk.
        actual: String,
    },
}

impl RunManifest {
    /// A fresh, empty manifest.
    pub fn new(tool: &str, tool_version: &str, seed: u64, config_digest: String) -> Self {
        RunManifest {
            format_version: MANIFEST_VERSION,
            tool: tool.into(),
            tool_version: tool_version.into(),
            seed,
            config_digest,
            complete: false,
            units: vec![],
        }
    }

    /// Loads and validates a manifest from `path` on the real
    /// filesystem.
    pub fn load(path: &Path) -> Result<RunManifest, HarnessError> {
        Self::load_from(&StdFs, path)
    }

    /// Loads and validates a manifest from `path` on `storage`.
    pub fn load_from(storage: &dyn Storage, path: &Path) -> Result<RunManifest, HarnessError> {
        let bytes = storage
            .read_file(path)
            .map_err(|e| HarnessError::io("read run manifest", path, &e))?;
        let text = String::from_utf8(bytes)
            .map_err(|e| HarnessError::Manifest(format!("{}: {e}", path.display())))?;
        let manifest: RunManifest = serde_json::from_str(&text)
            .map_err(|e| HarnessError::Manifest(format!("{}: {e}", path.display())))?;
        if manifest.format_version != MANIFEST_VERSION {
            return Err(HarnessError::Manifest(format!(
                "unsupported format_version {} (this build reads {MANIFEST_VERSION})",
                manifest.format_version
            )));
        }
        Ok(manifest)
    }

    /// Atomically writes the manifest to `path` on the real filesystem.
    pub fn save(
        &self,
        path: &Path,
        policy: &RetryPolicy,
        injector: &FaultInjector,
    ) -> Result<(), HarnessError> {
        self.save_in(&StdFs, path, policy, injector)
    }

    /// Atomically writes the manifest to `path` on `storage` — temp
    /// file, file sync, rename, parent-directory sync, so the rewritten
    /// checkpoint survives power loss (DESIGN.md §10).
    pub fn save_in(
        &self,
        storage: &dyn Storage,
        path: &Path,
        policy: &RetryPolicy,
        injector: &FaultInjector,
    ) -> Result<(), HarnessError> {
        let json = serde_json::to_string_pretty(self).expect("manifest serializes infallibly");
        atomic_write_in(storage, path, json.as_bytes(), policy, injector)
    }

    /// The sealed record for `id`, if any.
    pub fn unit(&self, id: &str) -> Option<&UnitRecord> {
        self.units.iter().find(|u| u.id == id)
    }

    /// Inserts or replaces the record for `unit.id`, preserving order of
    /// first insertion.
    pub fn record_unit(&mut self, unit: UnitRecord) {
        match self.units.iter_mut().find(|u| u.id == unit.id) {
            Some(slot) => *slot = unit,
            None => self.units.push(unit),
        }
    }

    /// Checks that `--resume` is continuing the same run: seed, config
    /// digest and tool must match what the manifest recorded.
    pub fn check_resumable(
        &self,
        tool: &str,
        seed: u64,
        config_digest: &str,
    ) -> Result<(), HarnessError> {
        let mismatch = |field: &str, recorded: String, current: String| {
            Err(HarnessError::ResumeMismatch {
                field: field.into(),
                recorded,
                current,
            })
        };
        if self.tool != tool {
            return mismatch("tool", self.tool.clone(), tool.into());
        }
        if self.seed != seed {
            return mismatch("seed", self.seed.to_string(), seed.to_string());
        }
        if self.config_digest != config_digest {
            return mismatch(
                "config_digest",
                self.config_digest.clone(),
                config_digest.into(),
            );
        }
        Ok(())
    }

    /// Re-verifies the sealed unit `id` against the artifacts in `dir`
    /// on the real filesystem.
    pub fn verify_unit(&self, dir: &Path, id: &str) -> VerifyOutcome {
        self.verify_unit_in(&StdFs, dir, id)
    }

    /// Re-verifies the sealed unit `id` against the artifacts in `dir`
    /// on `storage`. Timed under the `harness.verify` span; every digest
    /// check increments `harness.artifacts_verified`.
    pub fn verify_unit_in(&self, storage: &dyn Storage, dir: &Path, id: &str) -> VerifyOutcome {
        let _timer = rexec_obs::span!("harness.verify");
        let Some(unit) = self.unit(id) else {
            return VerifyOutcome::NotRecorded;
        };
        for a in &unit.artifacts {
            let path = dir.join(&a.name);
            let actual = match digest_file_in(storage, &path) {
                Ok(d) => d,
                Err(_) => return VerifyOutcome::MissingArtifact(a.name.clone()),
            };
            rexec_obs::counter!("harness.artifacts_verified").incr();
            if actual != a.digest {
                rexec_obs::counter!("harness.corrupt_artifacts_detected").incr();
                return VerifyOutcome::DigestMismatch {
                    name: a.name.clone(),
                    expected: a.digest.clone(),
                    actual,
                };
            }
        }
        VerifyOutcome::Verified
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::digest_bytes;

    fn tmpdir(name: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("rexec-manifest-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sealed_manifest(dir: &Path, content: &[u8]) -> RunManifest {
        std::fs::write(dir.join("f.csv"), content).unwrap();
        let mut m = RunManifest::new("experiments", "0.1.0", 7, "fnv1a:0".into());
        m.record_unit(UnitRecord {
            id: "F4".into(),
            title: "Figure 4".into(),
            points: 49,
            wall_secs: 0.1,
            artifacts: vec![ArtifactRecord {
                name: "f.csv".into(),
                bytes: content.len() as u64,
                digest: digest_bytes(content),
            }],
        });
        m
    }

    #[test]
    fn round_trips_through_json() {
        let dir = tmpdir("roundtrip");
        let m = sealed_manifest(&dir, b"x,y\n1,2\n");
        let path = dir.join(MANIFEST_NAME);
        m.save(&path, &RetryPolicy::immediate(1), &FaultInjector::none())
            .unwrap();
        let back = RunManifest::load(&path).unwrap();
        assert_eq!(m, back);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn verify_flags_intact_missing_and_corrupted_artifacts() {
        let dir = tmpdir("verify");
        let m = sealed_manifest(&dir, b"x,y\n1,2\n");
        assert_eq!(m.verify_unit(&dir, "F4"), VerifyOutcome::Verified);
        assert_eq!(m.verify_unit(&dir, "F9"), VerifyOutcome::NotRecorded);

        std::fs::write(dir.join("f.csv"), b"x,y\n1,3\n").unwrap();
        assert!(matches!(
            m.verify_unit(&dir, "F4"),
            VerifyOutcome::DigestMismatch { name, .. } if name == "f.csv"
        ));

        std::fs::remove_file(dir.join("f.csv")).unwrap();
        assert_eq!(
            m.verify_unit(&dir, "F4"),
            VerifyOutcome::MissingArtifact("f.csv".into())
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn record_unit_replaces_in_place() {
        let dir = tmpdir("replace");
        let mut m = sealed_manifest(&dir, b"a");
        m.record_unit(UnitRecord {
            id: "T-rho3".into(),
            title: "table".into(),
            points: 5,
            wall_secs: 0.0,
            artifacts: vec![],
        });
        let mut updated = m.unit("F4").unwrap().clone();
        updated.points = 50;
        m.record_unit(updated);
        assert_eq!(m.units.len(), 2);
        assert_eq!(m.units[0].id, "F4", "replacement keeps position");
        assert_eq!(m.units[0].points, 50);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn resume_guard_rejects_parameter_drift() {
        let dir = tmpdir("guard");
        let m = sealed_manifest(&dir, b"a");
        assert!(m.check_resumable("experiments", 7, "fnv1a:0").is_ok());
        assert!(matches!(
            m.check_resumable("experiments", 8, "fnv1a:0"),
            Err(HarnessError::ResumeMismatch { field, .. }) if field == "seed"
        ));
        assert!(matches!(
            m.check_resumable("experiments", 7, "fnv1a:1"),
            Err(HarnessError::ResumeMismatch { field, .. }) if field == "config_digest"
        ));
        assert!(m.check_resumable("bench", 7, "fnv1a:0").is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_rejects_garbage_and_wrong_versions() {
        let dir = tmpdir("load");
        let path = dir.join(MANIFEST_NAME);
        std::fs::write(&path, b"{ not json").unwrap();
        assert!(matches!(
            RunManifest::load(&path),
            Err(HarnessError::Manifest(_))
        ));
        let mut m = sealed_manifest(&dir, b"a");
        m.format_version = 99;
        m.save(&path, &RetryPolicy::immediate(1), &FaultInjector::none())
            .unwrap();
        assert!(matches!(
            RunManifest::load(&path),
            Err(HarnessError::Manifest(msg)) if msg.contains("format_version")
        ));
        std::fs::remove_dir_all(&dir).ok();
    }
}
