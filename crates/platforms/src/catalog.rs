//! Catalog of the paper's eight virtual configurations.

use crate::config::Configuration;
use crate::platform::{Platform, PlatformId};
use crate::processor::{Processor, ProcessorId};
use serde::{Deserialize, Serialize};

/// Identifier of a virtual configuration (platform × processor);
/// [`ConfigId::ALL`] lists the eight in the paper's figure order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ConfigId {
    /// The platform half.
    pub platform: PlatformId,
    /// The processor half.
    pub processor: ProcessorId,
}

impl ConfigId {
    /// The eight configurations in the order the paper presents them:
    /// Atlas/Crusoe first (Figures 2–7), then the XScale column (Figures
    /// 8–11), then the remaining Crusoe rows (Figures 12–14): Figure `n`
    /// for `n ≥ 8` shows `ALL[n − 7]`.
    pub const ALL: [ConfigId; 8] = [
        ConfigId {
            platform: PlatformId::Atlas,
            processor: ProcessorId::TransmetaCrusoe,
        },
        ConfigId {
            platform: PlatformId::Hera,
            processor: ProcessorId::IntelXScale,
        },
        ConfigId {
            platform: PlatformId::Atlas,
            processor: ProcessorId::IntelXScale,
        },
        ConfigId {
            platform: PlatformId::Coastal,
            processor: ProcessorId::IntelXScale,
        },
        ConfigId {
            platform: PlatformId::CoastalSsd,
            processor: ProcessorId::IntelXScale,
        },
        ConfigId {
            platform: PlatformId::Hera,
            processor: ProcessorId::TransmetaCrusoe,
        },
        ConfigId {
            platform: PlatformId::Coastal,
            processor: ProcessorId::TransmetaCrusoe,
        },
        ConfigId {
            platform: PlatformId::CoastalSsd,
            processor: ProcessorId::TransmetaCrusoe,
        },
    ];
}

impl std::fmt::Display for ConfigId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}/{}",
            self.platform.name(),
            self.processor.short_name()
        )
    }
}

/// Builds the configuration for an id, with paper defaults.
pub fn configuration(id: ConfigId) -> Configuration {
    Configuration::new(Platform::get(id.platform), Processor::get(id.processor))
}

/// All eight virtual configurations, in paper order.
pub fn all_configurations() -> Vec<Configuration> {
    ConfigId::ALL.iter().map(|&id| configuration(id)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eight_distinct_configurations() {
        let all = all_configurations();
        assert_eq!(all.len(), 8);
        let mut names: Vec<String> = all.iter().map(|c| c.name()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 8);
    }

    #[test]
    fn atlas_crusoe_is_first() {
        assert_eq!(all_configurations()[0].name(), "Atlas/Crusoe");
    }

    #[test]
    fn every_configuration_solves_at_default_rho() {
        for c in all_configurations() {
            let solver = c.solver().unwrap();
            let best = solver.solve(Configuration::DEFAULT_RHO);
            assert!(best.is_some(), "{} must be feasible at ρ = 3", c.name());
        }
    }

    #[test]
    fn display_matches_name() {
        for id in ConfigId::ALL {
            assert_eq!(id.to_string(), configuration(id).name());
        }
    }
}
