//! # rexec-cli
//!
//! The `rexec-plan` command-line planner: describe a platform (either one
//! of the paper's published configurations or fully custom parameters),
//! and get the energy-optimal two-speed checkpointing plan — optionally
//! cross-validated by Monte Carlo simulation.
//!
//! ```text
//! rexec-plan --platform hera --processor xscale --rho 3
//! rexec-plan --lambda 1e-5 --checkpoint 600 --verification 30 \
//!            --kappa 2000 --pidle 50 --speeds 0.25,0.5,0.75,1.0 \
//!            --rho 2.5 --wbase 1e8 --validate 20000
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
pub mod args;
pub mod run;
pub mod spec;

pub use args::{Args, ParseError};
pub use run::{execute, Outcome};
pub use spec::{PlanSpec, ResolvedPlan, SpecError};
