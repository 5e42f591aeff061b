//! # rexec — a different re-execution speed can help
//!
//! Umbrella crate re-exporting the full `rexec` workspace: a reproduction
//! of Benoit, Cavelan, Le Fèvre, Robert & Sun, *“A different re-execution
//! speed can help”* (INRIA RR-8888 / ICPP 2016).
//!
//! * [`core`] — exact expectations, first/second-order approximations,
//!   Theorem 1 and the BiCrit solver, Theorem 2, baselines.
//! * [`platforms`] — the paper's published platform and processor
//!   configurations (Hera, Atlas, Coastal, Coastal SSD × XScale, Crusoe).
//! * [`sim`] — a discrete-event Monte Carlo simulator of the execution
//!   model (silent + fail-stop error injection, DVFS, verified
//!   checkpoints, energy metering).
//! * [`sweep`] — the experiment harness regenerating every table and
//!   figure of the paper's evaluation section.
//! * [`obs`] — lightweight observability: counters, histogram sketches,
//!   RAII span timers and a registry with deterministic JSON snapshots.
//! * [`serve`] — the batching, plan-caching planning daemon
//!   (`rexec-serve`) answering plan queries over newline-delimited JSON.
//!
//! See `examples/quickstart.rs` for a five-line tour.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
pub use rexec_core as core;
pub use rexec_obs as obs;
pub use rexec_platforms as platforms;
pub use rexec_serve as serve;
pub use rexec_sim as sim;
pub use rexec_sweep as sweep;

/// One-stop prelude: the analytic core prelude plus the catalog of paper
/// configurations and the simulator entry points.
pub mod prelude {
    pub use rexec_core::prelude::*;
    pub use rexec_platforms::prelude::*;
    pub use rexec_sim::prelude::*;
}
