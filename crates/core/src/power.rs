//! Platform power model (paper §2.1).
//!
//! * `Pcpu(σ) = κσ³` — dynamic power of computing at speed `σ`
//!   (cube law, Yao/Demers/Shenker \[22\], Bansal/Kimbrel/Pruhs \[3\]);
//! * `Pidle` — static power, paid whenever the platform is on;
//! * `Pio` — dynamic power of I/O transfers, paid during checkpoints and
//!   recoveries on top of `Pidle`.

use crate::validate::{non_negative, ModelError};
use serde::{Deserialize, Serialize};

/// Power parameters of a platform.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerModel {
    /// Cube-law coefficient `κ` of the dynamic CPU power `κσ³` (mW).
    pub kappa: f64,
    /// Static (idle) power `Pidle` (mW).
    pub p_idle: f64,
    /// Dynamic I/O power `Pio` (mW).
    pub p_io: f64,
}

impl PowerModel {
    /// Creates a validated power model.
    ///
    /// # Errors
    /// [`ModelError::NonNegative`] if any parameter is negative or not finite.
    pub fn new(kappa: f64, p_idle: f64, p_io: f64) -> Result<Self, ModelError> {
        Ok(PowerModel {
            kappa: non_negative("kappa", kappa)?,
            p_idle: non_negative("p_idle", p_idle)?,
            p_io: non_negative("p_io", p_io)?,
        })
    }

    /// Creates a power model using the paper's default I/O power:
    /// `Pio = κ·σ_min³`, the dynamic power of the CPU at the slowest speed
    /// (paper §4.1: "the default value of Pio is set to be equivalent to the
    /// power used when the CPU runs at the lowest speed").
    pub fn with_default_io(kappa: f64, p_idle: f64, sigma_min: f64) -> Result<Self, ModelError> {
        let s = non_negative("sigma_min", sigma_min)?;
        PowerModel::new(kappa, p_idle, kappa * s * s * s)
    }

    /// Dynamic CPU power `Pcpu(σ) = κσ³` (mW).
    #[inline]
    fn cpu_power(&self, sigma: f64) -> f64 {
        self.kappa * sigma * sigma * sigma
    }

    /// Total power while computing at speed `σ`: `κσ³ + Pidle` (mW).
    #[inline]
    pub fn compute_power(&self, sigma: f64) -> f64 {
        self.cpu_power(sigma) + self.p_idle
    }

    /// Total power during checkpoint/recovery: `Pio + Pidle` (mW).
    #[inline]
    pub fn io_power(&self) -> f64 {
        self.p_io + self.p_idle
    }

    /// Energy of executing `w` units of work at speed `σ` (error-free):
    /// `(w/σ)·(κσ³ + Pidle)` (mJ).
    #[inline]
    pub fn compute_energy(&self, w: f64, sigma: f64) -> f64 {
        w / sigma * self.compute_power(sigma)
    }

    /// Energy of an I/O operation lasting `t` seconds: `t·(Pio + Pidle)` (mJ).
    #[inline]
    pub fn io_energy(&self, t: f64) -> f64 {
        t * self.io_power()
    }

    /// Returns a copy with a different idle power (sweep helper).
    #[must_use]
    pub fn with_p_idle(mut self, p_idle: f64) -> Self {
        self.p_idle = p_idle;
        self
    }

    /// Returns a copy with a different I/O power (sweep helper).
    #[must_use]
    pub fn with_p_io(mut self, p_io: f64) -> Self {
        self.p_io = p_io;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xscale() -> PowerModel {
        // Intel XScale: P(σ) = 1550σ³ + 60 (paper Table 2).
        PowerModel::new(1550.0, 60.0, 1550.0 * 0.15f64.powi(3)).unwrap()
    }

    #[test]
    fn cube_law() {
        let p = xscale();
        assert!((p.cpu_power(1.0) - 1550.0).abs() < 1e-12);
        assert!((p.cpu_power(0.5) - 1550.0 / 8.0).abs() < 1e-12);
        assert!((p.compute_power(1.0) - 1610.0).abs() < 1e-12);
    }

    #[test]
    fn default_io_is_dynamic_power_at_min_speed() {
        let p = PowerModel::with_default_io(1550.0, 60.0, 0.15).unwrap();
        assert!((p.p_io - 5.23125).abs() < 1e-9);
        assert!((p.io_power() - 65.23125).abs() < 1e-9);
    }

    #[test]
    fn compute_energy_scales_as_sigma_squared_without_idle() {
        // With Pidle = 0: E = (w/σ)·κσ³ = wκσ², the classical DVFS result.
        let p = PowerModel::new(100.0, 0.0, 0.0).unwrap();
        let w = 10.0;
        let e_half = p.compute_energy(w, 0.5);
        let e_full = p.compute_energy(w, 1.0);
        assert!((e_full / e_half - 4.0).abs() < 1e-12);
    }

    #[test]
    fn io_energy_uses_io_power() {
        let p = xscale();
        assert!((p.io_energy(2.0) - 2.0 * p.io_power()).abs() < 1e-12);
    }

    #[test]
    fn rejects_negative_parameters() {
        assert!(PowerModel::new(-1.0, 0.0, 0.0).is_err());
        assert!(PowerModel::new(1.0, -0.1, 0.0).is_err());
        assert!(PowerModel::new(1.0, 0.0, f64::NAN).is_err());
    }

    #[test]
    fn sweep_helpers_replace_fields() {
        let p = xscale().with_p_idle(500.0).with_p_io(123.0);
        assert_eq!(p.p_idle, 500.0);
        assert_eq!(p.p_io, 123.0);
        assert_eq!(p.kappa, 1550.0);
    }

    #[test]
    fn zero_power_model_is_valid() {
        let p = PowerModel::new(0.0, 0.0, 0.0).unwrap();
        assert_eq!(p.compute_energy(100.0, 0.5), 0.0);
        assert_eq!(p.io_energy(10.0), 0.0);
    }
}
