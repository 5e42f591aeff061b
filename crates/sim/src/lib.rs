//! # rexec-sim
//!
//! Discrete-event Monte Carlo simulator of the paper's execution model:
//! divisible-load patterns (`W` work → verification → checkpoint) executed
//! at DVFS speed `σ₁`, re-executed at `σ₂` after every detected error,
//! under exponential silent and fail-stop error injection, with full
//! time and energy metering.
//!
//! The simulator replays exactly the state machine the analytic
//! expectations of `rexec-core` describe:
//!
//! * **silent errors** strike during the `W/σ` computation phase and stay
//!   latent until the verification at the end of the pattern detects them;
//! * **fail-stop errors** strike anywhere in the `(W+V)/σ` computation +
//!   verification phase and interrupt the execution immediately;
//! * checkpoints (`C`) and recoveries (`R`) are error-free;
//! * power: `κσ³ + Pidle` while computing/verifying at `σ`,
//!   `Pio + Pidle` during checkpoint/recovery.
//!
//! Sampled mean time/energy per pattern converge to Propositions 2–5,
//! which is asserted by the statistical test-suite. Replications fan out
//! in parallel with rayon; every run is reproducible from a `u64` seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
pub mod energy;
pub mod engine;
pub mod events;
pub mod fastmath;
pub mod rng;
pub mod runner;
pub mod segmented;
pub mod stats;
pub mod trace;

pub use energy::EnergyMeter;
pub use engine::{
    ensure_completes, simulate_application, simulate_pattern, simulate_pattern_scenario,
    AppOutcome, EngineError, FastPattern, PatternOutcome, SimConfig,
};
pub use events::{Event, EventKind};
pub use rng::{Draws, SimRng, UniformStream};
pub use runner::{Engine, MonteCarlo, Sinks, Summary, ValidationReport};
pub use segmented::simulate_pattern_segmented;
pub use stats::Stats;
pub use trace::{events_from_jsonl, events_to_jsonl, render_timeline, TraceRecorder};

/// Common re-exports.
pub mod prelude {
    pub use crate::energy::EnergyMeter;
    pub use crate::engine::{
        ensure_completes, simulate_application, simulate_pattern, simulate_pattern_scenario,
        AppOutcome, EngineError, FastPattern, PatternOutcome, SimConfig,
    };
    pub use crate::events::{Event, EventKind};
    pub use crate::rng::{Draws, SimRng, UniformStream};
    pub use crate::runner::{Engine, MonteCarlo, Sinks, Summary, ValidationReport};
    pub use crate::segmented::simulate_pattern_segmented;
    pub use crate::stats::Stats;
    pub use crate::trace::{events_from_jsonl, events_to_jsonl, render_timeline, TraceRecorder};
}
