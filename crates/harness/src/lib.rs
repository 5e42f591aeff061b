//! # rexec-harness
//!
//! Crash-tolerant robustness layer for the rexec experiment pipeline —
//! the runner practicing what the solver preaches. The paper's premise
//! is that silent errors are survivable when every unit of work is
//! *verified* before it is *checkpointed*; this crate applies the same
//! discipline to the experiments that reproduce it:
//!
//! * [`Storage`] / [`StdFs`] / [`SimFs`] — the narrow storage-operation
//!   alphabet every durable effect goes through: `std::fs` in
//!   production, a crash-simulating in-memory filesystem under the
//!   `rexec-check` model checker (op log, prefix replay, process-kill
//!   and power-loss semantics);
//! * [`atomic_write`] / [`atomic_write_simple`] / [`atomic_write_in`] —
//!   artifacts land via temp-file + sync + atomic rename + parent-dir
//!   fsync, never truncated under a crash and never lost to power loss;
//! * [`run_units`] — the checkpoint/resume lifecycle itself, generic
//!   over [`Storage`], shared verbatim by the `experiments` pipeline and
//!   the model checker;
//! * [`Digest`] / [`digest_bytes`] / [`digest_file`] — FNV-1a content
//!   digests seal each artifact (the runner's verification step `V`);
//! * [`RunManifest`] — the per-run checkpoint state: which units are
//!   sealed, with which artifact digests; rewritten atomically after
//!   every unit so any crash leaves a resumable prefix;
//! * [`RetryPolicy`] — capped exponential backoff for transient I/O;
//! * [`FaultPlan`] / [`FaultInjector`] — deterministic, seeded fault
//!   injection (fail the Nth write, corrupt the Nth artifact, kill after
//!   unit K) so crash/corrupt/resume paths are exercised in-tree;
//! * [`HarnessError`] — the typed error surface, with a process exit
//!   code convention.
//!
//! Std-only, like `rexec-obs`; observability counters emitted here:
//! `harness.atomic_writes`, `harness.write_retries`,
//! `harness.injected_write_failures`, `harness.injected_corruptions`,
//! `harness.artifacts_verified`, `harness.corrupt_artifacts_detected`,
//! plus the `harness.verify` span.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod atomic;
mod digest;
mod error;
mod fault;
mod lifecycle;
mod manifest;
mod retry;
mod simfs;
mod storage;

pub use atomic::{atomic_write, atomic_write_in, atomic_write_simple, is_temp_name};
pub use digest::{digest_bytes, digest_file, digest_file_in, Digest};
pub use error::HarnessError;
pub use fault::{FaultInjector, FaultPlan};
pub use lifecycle::{
    run_units, sweep_stale_temps, verify_reason, LifecycleConfig, LifecycleEvent, LifecycleOutcome,
    UnitDisposition, UnitOutput, UnitPlan,
};
pub use manifest::{ArtifactRecord, RunManifest, UnitRecord, VerifyOutcome, MANIFEST_NAME};
pub use retry::RetryPolicy;
pub use simfs::{CrashMode, SimFs, StorageOp};
pub use storage::{StdFs, Storage};
