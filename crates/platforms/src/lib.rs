//! # rexec-platforms
//!
//! The published configurations used in the paper's evaluation (§4.1):
//!
//! * **Platforms** (Table 1, from Moody et al. \[18\]): Hera, Atlas, Coastal
//!   and Coastal SSD — each defined by a silent-error rate `λ`, a
//!   checkpoint time `C` and a verification time `V`.
//! * **Processors** (Table 2, from Rizvandi et al. \[20\]): Intel XScale and
//!   Transmeta Crusoe — each defined by a set of normalized speeds and a
//!   power law `P(σ) = κσ³ + Pidle`.
//!
//! A [`Configuration`] pairs one platform with one
//! processor; [`catalog`] enumerates the eight virtual configurations of
//! the paper with its default settings (`R = C`, `Pio = κσ_min³`, `ρ = 3`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
pub mod catalog;
pub mod config;
pub mod platform;
pub mod processor;

pub use catalog::{all_configurations, configuration, ConfigId};
pub use config::Configuration;
pub use platform::{Platform, PlatformId};
pub use processor::{Processor, ProcessorId};

/// Common re-exports.
pub mod prelude {
    pub use crate::catalog::{all_configurations, configuration, ConfigId};
    pub use crate::config::Configuration;
    pub use crate::platform::{Platform, PlatformId};
    pub use crate::processor::{Processor, ProcessorId};
}
