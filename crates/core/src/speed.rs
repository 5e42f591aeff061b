//! Discrete DVFS speed sets.
//!
//! The platform can be operated at any speed from a finite set
//! `S = {σ₁, …, σ_K}` (paper §2.1). Speeds are normalized so that the
//! fastest speed is `1`; they are *aggregate* platform speeds, i.e. the
//! combined speed of all processors.

use crate::validate::{positive, ModelError};
use serde::{Deserialize, Serialize};

/// A single normalized DVFS speed.
///
/// Thin validated wrapper around `f64`: finite and strictly positive.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Serialize, Deserialize)]
#[serde(transparent)]
pub struct Speed(f64);

impl Speed {
    /// Creates a validated speed.
    ///
    /// # Errors
    /// Returns [`ModelError::Positive`] if `value` is not finite and `> 0`.
    pub fn new(value: f64) -> Result<Self, ModelError> {
        positive("speed", value).map(Speed)
    }

    /// Raw value of the speed.
    #[inline]
    pub fn value(self) -> f64 {
        self.0
    }
}

impl From<Speed> for f64 {
    fn from(s: Speed) -> f64 {
        s.0
    }
}

impl std::fmt::Display for Speed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A validated, ascending, duplicate-free set of available speeds.
///
/// ```
/// use rexec_core::SpeedSet;
/// let s = SpeedSet::new(vec![1.0, 0.4, 0.4, 0.15]).unwrap();
/// assert_eq!(s.values(), &[0.15, 0.4, 1.0]);
/// assert_eq!(s.min(), 0.15);
/// assert_eq!(s.max(), 1.0);
/// assert_eq!(s.len(), 3);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpeedSet {
    speeds: Vec<f64>,
}

impl SpeedSet {
    /// Builds a speed set from raw values: validates, sorts ascending and
    /// removes exact duplicates.
    ///
    /// # Errors
    /// [`ModelError::Positive`] if any speed is invalid,
    /// [`ModelError::EmptySpeedSet`] if no speed remains.
    pub fn new(values: Vec<f64>) -> Result<Self, ModelError> {
        let mut speeds = Vec::with_capacity(values.len());
        for v in values {
            speeds.push(positive("speed", v)?);
        }
        speeds.sort_by(|a, b| a.partial_cmp(b).expect("validated speeds are comparable"));
        speeds.dedup();
        if speeds.is_empty() {
            return Err(ModelError::EmptySpeedSet);
        }
        Ok(SpeedSet { speeds })
    }

    /// Sorted raw speed values.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.speeds
    }

    /// Number of distinct speeds `K`.
    #[inline]
    pub fn len(&self) -> usize {
        self.speeds.len()
    }

    /// Whether the set is empty (never true for a constructed set).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.speeds.is_empty()
    }

    /// Slowest available speed `σ_min`.
    #[inline]
    pub fn min(&self) -> f64 {
        self.speeds[0]
    }

    /// Fastest available speed `σ_max`.
    #[inline]
    pub fn max(&self) -> f64 {
        *self.speeds.last().expect("non-empty by construction")
    }

    /// Iterator over speeds, ascending.
    pub fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        self.speeds.iter().copied()
    }

    /// Iterator over all `K²` ordered speed pairs `(σᵢ, σⱼ)`:
    /// first-execution speed × re-execution speed.
    pub fn pairs(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.speeds
            .iter()
            .flat_map(move |&s1| self.speeds.iter().map(move |&s2| (s1, s2)))
    }

    /// Iterator over the `K` diagonal pairs `(σ, σ)` (one-speed executions).
    pub fn diagonal_pairs(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        self.speeds.iter().map(|&s| (s, s))
    }

    /// Whether `speed` is a member of the set (exact comparison).
    pub fn contains(&self, speed: f64) -> bool {
        self.speeds.contains(&speed)
    }
}

impl<'a> IntoIterator for &'a SpeedSet {
    type Item = f64;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, f64>>;

    fn into_iter(self) -> Self::IntoIter {
        self.speeds.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_rejects_invalid() {
        assert!(Speed::new(0.0).is_err());
        assert!(Speed::new(-0.4).is_err());
        assert!(Speed::new(f64::NAN).is_err());
        assert_eq!(Speed::new(0.4).unwrap().value(), 0.4);
    }

    #[test]
    fn speed_display_and_into() {
        let s = Speed::new(0.8).unwrap();
        assert_eq!(s.to_string(), "0.8");
        let raw: f64 = s.into();
        assert_eq!(raw, 0.8);
    }

    #[test]
    fn set_sorts_and_dedups() {
        let s = SpeedSet::new(vec![0.8, 0.15, 0.8, 1.0, 0.4, 0.6]).unwrap();
        assert_eq!(s.values(), &[0.15, 0.4, 0.6, 0.8, 1.0]);
        assert_eq!(s.len(), 5);
    }

    #[test]
    fn set_rejects_empty_and_bad() {
        assert!(SpeedSet::new(vec![]).is_err());
        assert!(SpeedSet::new(vec![0.5, -1.0]).is_err());
    }

    #[test]
    fn pairs_enumerates_k_squared() {
        let s = SpeedSet::new(vec![0.5, 1.0]).unwrap();
        let pairs: Vec<_> = s.pairs().collect();
        assert_eq!(pairs, vec![(0.5, 0.5), (0.5, 1.0), (1.0, 0.5), (1.0, 1.0)]);
    }

    #[test]
    fn diagonal_pairs_enumerates_k() {
        let s = SpeedSet::new(vec![0.5, 1.0]).unwrap();
        let pairs: Vec<_> = s.diagonal_pairs().collect();
        assert_eq!(pairs, vec![(0.5, 0.5), (1.0, 1.0)]);
    }

    #[test]
    fn contains_and_minmax() {
        let s = SpeedSet::new(vec![0.45, 0.6, 0.8, 0.9, 1.0]).unwrap();
        assert!(s.contains(0.9));
        assert!(!s.contains(0.5));
        assert_eq!(s.min(), 0.45);
        assert_eq!(s.max(), 1.0);
        assert!(!s.is_empty());
    }

    #[test]
    fn iterators_agree() {
        let s = SpeedSet::new(vec![0.2, 0.9]).unwrap();
        let a: Vec<_> = s.iter().collect();
        let b: Vec<_> = (&s).into_iter().collect();
        assert_eq!(a, b);
    }
}
