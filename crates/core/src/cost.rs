//! Resilience costs: checkpoint, verification, recovery (paper §2.1).

use crate::validate::{non_negative, ModelError};
use serde::{Deserialize, Serialize};

/// Checkpoint / verification / recovery costs of a platform.
///
/// * `checkpoint` (`C`, seconds) and `recovery` (`R`, seconds) are I/O bound
///   and do not scale with the CPU speed.
/// * `verification` (`V`, seconds **at full speed**) is a computation: at
///   speed `σ` it takes `V/σ` seconds.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ResilienceCosts {
    /// Checkpoint time `C` (s).
    pub checkpoint: f64,
    /// Verification time `V` at full speed (s).
    pub verification: f64,
    /// Recovery time `R` (s).
    pub recovery: f64,
}

impl ResilienceCosts {
    /// Creates validated costs.
    ///
    /// # Errors
    /// [`ModelError::NonNegative`] on negative or non-finite inputs.
    pub fn new(checkpoint: f64, verification: f64, recovery: f64) -> Result<Self, ModelError> {
        Ok(ResilienceCosts {
            checkpoint: non_negative("checkpoint", checkpoint)?,
            verification: non_negative("verification", verification)?,
            recovery: non_negative("recovery", recovery)?,
        })
    }

    /// Costs with `R = C` — the paper's default (§4.1: a read takes as long
    /// as a write).
    pub fn symmetric(checkpoint: f64, verification: f64) -> Self {
        ResilienceCosts {
            checkpoint: checkpoint.max(0.0),
            verification: verification.max(0.0),
            recovery: checkpoint.max(0.0),
        }
    }

    /// Returns a copy with a different checkpoint cost, keeping `R = C` if
    /// the costs were symmetric (sweep helper mirroring the paper's
    /// experiments, which keep `R = C` while varying `C`).
    #[must_use]
    pub fn with_checkpoint(mut self, checkpoint: f64) -> Self {
        let was_symmetric = self.recovery == self.checkpoint;
        self.checkpoint = checkpoint;
        if was_symmetric {
            self.recovery = checkpoint;
        }
        self
    }

    /// Returns a copy with a different verification cost (sweep helper).
    #[must_use]
    pub fn with_verification(mut self, verification: f64) -> Self {
        self.verification = verification;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symmetric_sets_recovery_to_checkpoint() {
        let c = ResilienceCosts::symmetric(300.0, 15.4);
        assert_eq!(c.checkpoint, 300.0);
        assert_eq!(c.recovery, 300.0);
        assert_eq!(c.verification, 15.4);
    }

    #[test]
    fn with_checkpoint_preserves_symmetry() {
        let c = ResilienceCosts::symmetric(300.0, 15.4).with_checkpoint(1000.0);
        assert_eq!(c.recovery, 1000.0);
        let asym = ResilienceCosts::new(300.0, 15.4, 100.0)
            .unwrap()
            .with_checkpoint(1000.0);
        assert_eq!(asym.recovery, 100.0);
    }

    #[test]
    fn rejects_invalid() {
        assert!(ResilienceCosts::new(-1.0, 0.0, 0.0).is_err());
        assert!(ResilienceCosts::new(0.0, f64::NAN, 0.0).is_err());
        assert!(ResilienceCosts::new(0.0, 0.0, -5.0).is_err());
    }

    #[test]
    fn zero_costs_are_valid() {
        let c = ResilienceCosts::new(0.0, 0.0, 0.0).unwrap();
        assert_eq!((c.checkpoint, c.verification, c.recovery), (0.0, 0.0, 0.0));
    }

    #[test]
    fn with_verification_replaces_only_v() {
        let c = ResilienceCosts::symmetric(300.0, 15.4).with_verification(99.0);
        assert_eq!(c.verification, 99.0);
        assert_eq!(c.checkpoint, 300.0);
        assert_eq!(c.recovery, 300.0);
    }
}
