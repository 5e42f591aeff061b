//! # rexec-core
//!
//! Analytic core of `rexec`, a reproduction of *“A different re-execution
//! speed can help”* (Benoit, Cavelan, Le Fèvre, Robert, Sun — INRIA RR-8888 /
//! ICPP 2016).
//!
//! A divisible-load application executes on a platform subject to **silent
//! errors** (and, in the extended model, fail-stop errors). The execution is
//! divided into periodic *patterns*: `W` units of work, a verification, and a
//! checkpoint. The first execution of a pattern runs at DVFS speed `σ₁`; if
//! the verification detects an error the pattern is re-executed — at a
//! possibly *different* speed `σ₂` — until it succeeds.
//!
//! This crate provides:
//!
//! * exact expected time and energy of a pattern, all from one renewal
//!   closed form ([`renewal`]: a checkpoint, a prefix of attempts and a
//!   geometric tail of re-executions) of which each model is an instance:
//!   [`SilentModel`] (Propositions 1–3), [`MixedModel`] (Propositions
//!   4–5 via Equation 8), [`multiverif`] (`q` verifications per
//!   checkpoint) and [`ScheduleModel`] (per-attempt speed schedules),
//! * first-order overhead approximations ([`approx`], Equations 2–3 and
//!   9),
//! * the closed-form optimal pattern size of **Theorem 1** ([`theorem1`])
//!   together with the per-pair feasibility bound `ρᵢⱼ` (Equation 6),
//! * the `O(K²)` **BiCrit** solver ([`bicrit`]) that minimizes the expected
//!   energy per unit of work subject to a bound `ρ` on the expected time per
//!   unit of work, over a discrete set of speeds,
//! * the classical time-only optimizer ([`daly`]) used as a baseline
//!   (the time-only optimum over speed pairs is
//!   [`BiCritSolver::min_feasible_rho`]), and **Theorem 2** ([`theorem2`]):
//!   with fail-stop errors only and `σ₂ = 2σ₁`, the optimal pattern size
//!   scales as `Θ(λ^{-2/3})` instead of Young/Daly’s `Θ(λ^{-1/2})`,
//! * derivative-free numeric optimizers ([`numeric`]) used to cross-check
//!   every closed form against the exact expectations.
//!
//! ## Conventions
//!
//! * Work `W` is measured in seconds-at-full-speed: executing `W` work at
//!   speed `σ` takes `W/σ` seconds. Speeds are normalized to the fastest
//!   available speed (`σ = 1`).
//! * The verification cost `V` is given at full speed; at speed `σ` it takes
//!   `V/σ` seconds. Checkpoint `C` and recovery `R` are I/O bound and do not
//!   scale with CPU speed.
//! * Power is expressed in milliwatts and energy in millijoules, matching
//!   the processor tables of the paper; any consistent unit system works.
//!
//! ## Quick example
//!
//! ```
//! use rexec_core::prelude::*;
//!
//! // Hera platform, Intel XScale processor (paper §4.1).
//! let model = SilentModel::new(
//!     3.38e-6,
//!     ResilienceCosts::symmetric(300.0, 15.4),
//!     PowerModel::new(1550.0, 60.0, 1550.0 * 0.15f64.powi(3)).unwrap(),
//! )
//! .unwrap();
//! let speeds = SpeedSet::new(vec![0.15, 0.4, 0.6, 0.8, 1.0]).unwrap();
//! let solver = BiCritSolver::new(model, speeds);
//! let best = solver.solve(3.0).expect("rho = 3 is feasible");
//! assert_eq!((best.sigma1, best.sigma2), (0.4, 0.4));
//! assert!((best.w_opt - 2764.0).abs() < 1.0);
//! assert!((best.energy_overhead - 416.0).abs() < 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
pub mod approx;
pub mod bicrit;
pub mod continuous;
pub mod cost;
pub mod daly;
pub mod error_model;
pub mod law;
pub mod mixed;
pub mod multiverif;
pub mod numeric;
pub mod pareto;
pub mod pattern;
pub mod plan;
pub mod power;
pub mod quadratic;
pub mod renewal;
pub mod schedule;
pub mod speed;
pub mod theorem1;
pub mod theorem2;

#[cfg(test)]
mod oracle;
mod validate;

pub use crate::bicrit::{BiCritSolution, BiCritSolver, SpeedPairReport};
pub use crate::cost::ResilienceCosts;
pub use crate::error_model::ErrorRates;
pub use crate::law::{ErrorLaw, PreparedLaw};
pub use crate::mixed::MixedModel;
pub use crate::multiverif::MultiVerifSolution;
pub use crate::pareto::{ParetoFrontier, ParetoPoint};
pub use crate::pattern::SilentModel;
pub use crate::plan::ExecutionPlan;
pub use crate::power::PowerModel;
pub use crate::schedule::{
    solve_quantile, solve_schedule, ScheduleModel, ScheduleSolution, SpeedSchedule,
};
pub use crate::speed::{Speed, SpeedSet};
pub use crate::validate::ModelError;

/// Convenient glob import of the most common types.
pub mod prelude {
    pub use crate::approx::FirstOrder;
    pub use crate::bicrit::{BiCritSolution, BiCritSolver, SpeedPairReport};
    pub use crate::continuous;
    pub use crate::cost::ResilienceCosts;
    pub use crate::daly;
    pub use crate::error_model::ErrorRates;
    pub use crate::law::{ErrorLaw, PreparedLaw};
    pub use crate::mixed::MixedModel;
    pub use crate::multiverif;
    pub use crate::numeric;
    pub use crate::pareto::{ParetoFrontier, ParetoPoint};
    pub use crate::pattern::SilentModel;
    pub use crate::plan::ExecutionPlan;
    pub use crate::power::PowerModel;
    pub use crate::schedule::{
        solve_quantile, solve_schedule, ScheduleModel, ScheduleSolution, SpeedSchedule,
    };
    pub use crate::speed::{Speed, SpeedSet};
    pub use crate::theorem1;
    pub use crate::theorem2;
    pub use crate::validate::ModelError;
}
