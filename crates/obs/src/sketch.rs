//! Log-bucketed histogram sketch with lock-free recording.
//!
//! Geometrically spaced buckets (constant relative resolution, like
//! HdrHistogram's log-linear scheme but simpler) in a fixed array of
//! atomics, so concurrent recorders never lock, plus explicit
//! underflow/overflow buckets. The simulator's outcome distributions
//! (`MonteCarlo::run_with` with a histogram sink) and the metrics
//! registry share it.
//! Bucket counts are exact `u64`s, so aggregates are byte-identical for a
//! given multiset of recorded values regardless of thread count.

use serde::{Serialize, Value};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Atomic geometric-bucket histogram over `[0, +∞)`.
///
/// Bucket 0 holds values `≤ min_value` (underflow); the last bucket holds
/// values past the configured range (overflow). Non-finite values are
/// ignored and counted separately.
#[derive(Debug)]
pub struct HistogramSketch {
    min_value: f64,
    resolution: f64,
    /// `ln(1 + resolution)`, cached.
    log_base: f64,
    buckets: Box<[AtomicU64]>,
    total: AtomicU64,
    ignored: AtomicU64,
    /// Exact extremes, stored as `f64` bits and updated by CAS.
    min_bits: AtomicU64,
    max_bits: AtomicU64,
}

impl HistogramSketch {
    /// Creates a sketch with `resolution` relative accuracy (in `(0, 1]`)
    /// covering `[min_value, max_value]`; values outside clamp into the
    /// underflow/overflow buckets.
    pub fn new(min_value: f64, resolution: f64, max_value: f64) -> Self {
        assert!(min_value > 0.0, "min_value must be positive");
        assert!(
            resolution > 0.0 && resolution <= 1.0,
            "resolution must be in (0, 1]"
        );
        assert!(max_value > min_value, "max_value must exceed min_value");
        let log_base = (1.0 + resolution).ln();
        let spans = ((max_value / min_value).ln() / log_base).ceil() as usize;
        // +1 for the underflow bucket, +1 for the overflow bucket.
        HistogramSketch::with_bucket_count(min_value, resolution, spans + 2)
    }

    fn with_bucket_count(min_value: f64, resolution: f64, len: usize) -> Self {
        let log_base = (1.0 + resolution).ln();
        let buckets = (0..len).map(|_| AtomicU64::new(0)).collect();
        HistogramSketch {
            min_value,
            resolution,
            log_base,
            buckets,
            total: AtomicU64::new(0),
            ignored: AtomicU64::new(0),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }
    }

    /// Default sketch: 2 % relative resolution over `[1 ns, 10⁶ s]` (in
    /// seconds) — wide enough for span durations and most model values.
    pub fn with_default_resolution() -> Self {
        HistogramSketch::new(1e-9, 0.02, 1e6)
    }

    /// An empty sketch sharing this one's parameters (merge-compatible).
    pub fn empty_like(&self) -> Self {
        HistogramSketch::with_bucket_count(self.min_value, self.resolution, self.buckets.len())
    }

    fn bucket_of(&self, value: f64) -> usize {
        if value <= self.min_value {
            return 0;
        }
        let idx = ((value / self.min_value).ln() / self.log_base) as usize + 1;
        idx.min(self.buckets.len() - 1)
    }

    /// Lower edge of a bucket (0 for the underflow bucket).
    fn bucket_low(&self, index: usize) -> f64 {
        if index == 0 {
            0.0
        } else {
            self.min_value * (self.log_base * (index - 1) as f64).exp()
        }
    }

    /// Records one value. Negative values clamp to the underflow bucket;
    /// non-finite values are counted as ignored.
    pub fn record(&self, value: f64) {
        if !value.is_finite() {
            self.ignored.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let value = value.max(0.0);
        let b = self.bucket_of(value);
        self.buckets[b].fetch_add(1, Ordering::Relaxed);
        self.total.fetch_add(1, Ordering::Relaxed);
        update_extreme(&self.min_bits, value, |new, cur| new < cur);
        update_extreme(&self.max_bits, value, |new, cur| new > cur);
    }

    /// [`record`](Self::record) through exclusive access: plain adds and
    /// compares instead of atomic read-modify-writes, byte-identical in
    /// effect. For a sketch one thread owns, like a worker's local copy.
    pub fn record_mut(&mut self, value: f64) {
        if !value.is_finite() {
            *self.ignored.get_mut() += 1;
            return;
        }
        let value = value.max(0.0);
        let b = self.bucket_of(value);
        *self.buckets[b].get_mut() += 1;
        *self.total.get_mut() += 1;
        set_extreme(self.min_bits.get_mut(), value, |new, cur| new < cur);
        set_extreme(self.max_bits.get_mut(), value, |new, cur| new > cur);
    }

    /// Records `n` copies of one value in O(1) — byte-identical to `n`
    /// successive [`record`](Self::record) calls, but the bucket index is
    /// computed (and the extremes CAS'd) once. Hot loops that see long
    /// runs of an identical value (e.g. the simulator fast path, where
    /// most patterns take exactly one attempt) batch them through here.
    pub fn record_n(&self, value: f64, n: u64) {
        if n == 0 {
            return;
        }
        if !value.is_finite() {
            self.ignored.fetch_add(n, Ordering::Relaxed);
            return;
        }
        let value = value.max(0.0);
        let b = self.bucket_of(value);
        self.buckets[b].fetch_add(n, Ordering::Relaxed);
        self.total.fetch_add(n, Ordering::Relaxed);
        update_extreme(&self.min_bits, value, |new, cur| new < cur);
        update_extreme(&self.max_bits, value, |new, cur| new > cur);
    }

    /// Merges another sketch's counts (must share parameters and range).
    pub fn merge_from(&self, other: &HistogramSketch) {
        assert_eq!(self.min_value, other.min_value, "parameter mismatch");
        assert_eq!(self.resolution, other.resolution, "parameter mismatch");
        assert_eq!(
            self.buckets.len(),
            other.buckets.len(),
            "parameter mismatch"
        );
        for (mine, theirs) in self.buckets.iter().zip(other.buckets.iter()) {
            mine.fetch_add(theirs.load(Ordering::Relaxed), Ordering::Relaxed);
        }
        self.total
            .fetch_add(other.total.load(Ordering::Relaxed), Ordering::Relaxed);
        self.ignored
            .fetch_add(other.ignored.load(Ordering::Relaxed), Ordering::Relaxed);
        let omin = other.min();
        let omax = other.max();
        if omin.is_finite() {
            update_extreme(&self.min_bits, omin, |new, cur| new < cur);
        }
        if omax.is_finite() {
            update_extreme(&self.max_bits, omax, |new, cur| new > cur);
        }
    }

    /// Number of recorded (finite) values.
    pub fn count(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Number of non-finite values that were ignored.
    pub fn ignored(&self) -> u64 {
        self.ignored.load(Ordering::Relaxed)
    }

    /// Count in the overflow bucket (values beyond the configured range).
    pub fn overflow_count(&self) -> u64 {
        self.buckets[self.buckets.len() - 1].load(Ordering::Relaxed)
    }

    /// Exact smallest recorded value (`+∞` when empty).
    pub fn min(&self) -> f64 {
        f64::from_bits(self.min_bits.load(Ordering::Relaxed))
    }

    /// Exact largest recorded value (`−∞` when empty).
    pub fn max(&self) -> f64 {
        f64::from_bits(self.max_bits.load(Ordering::Relaxed))
    }

    /// Value at quantile `q` (within the relative resolution).
    ///
    /// Edge cases, in order of precedence:
    /// - empty sketch (no finite values recorded) → `None`, for every `q`;
    /// - `q` is NaN → `None` (NaN would otherwise defeat the clamp below
    ///   and silently resolve to rank 0);
    /// - `q ≤ 0` → the exact observed minimum; `q ≥ 1` → the exact
    ///   observed maximum (out-of-range `q` clamps into `[0, 1]`);
    /// - the rank lands in the overflow bucket (values beyond the
    ///   configured range) → the exact observed maximum, since that
    ///   bucket has no upper edge to interpolate against. A sketch whose
    ///   samples are *all* overflowed therefore reports `max()` for every
    ///   positive quantile.
    ///
    /// Interior quantiles report the bucket midpoint, clamped to
    /// `[min(), max()]` so a single-sample sketch returns that sample
    /// exactly at every `q`.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        let total = self.count();
        if total == 0 || q.is_nan() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        if q <= 0.0 {
            return Some(self.min());
        }
        if q >= 1.0 {
            return Some(self.max());
        }
        let rank = (q * total as f64).ceil() as u64;
        let mut acc = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            acc += bucket.load(Ordering::Relaxed);
            if acc >= rank {
                if i == self.buckets.len() - 1 {
                    // Overflow bucket has no upper edge; report the exact
                    // observed maximum.
                    return Some(self.max());
                }
                let mid = 0.5 * (self.bucket_low(i) + self.bucket_low(i + 1));
                return Some(mid.clamp(self.min(), self.max()));
            }
        }
        Some(self.max())
    }

    /// Zeroes all counts, keeping the configuration.
    pub fn reset(&self) {
        for b in self.buckets.iter() {
            b.store(0, Ordering::Relaxed);
        }
        self.total.store(0, Ordering::Relaxed);
        self.ignored.store(0, Ordering::Relaxed);
        self.min_bits
            .store(f64::INFINITY.to_bits(), Ordering::Relaxed);
        self.max_bits
            .store(f64::NEG_INFINITY.to_bits(), Ordering::Relaxed);
    }

    /// Deterministic JSON summary: exact counts plus key quantiles.
    pub fn summary_value(&self) -> Value {
        let mut map = BTreeMap::new();
        map.insert("count".to_string(), self.count().to_value());
        map.insert("ignored".to_string(), self.ignored().to_value());
        map.insert("overflow".to_string(), self.overflow_count().to_value());
        if self.count() > 0 {
            map.insert("min".to_string(), self.min().to_value());
            map.insert("max".to_string(), self.max().to_value());
            for (label, q) in [("p50", 0.5), ("p90", 0.9), ("p99", 0.99)] {
                if let Some(v) = self.quantile(q) {
                    map.insert(label.to_string(), v.to_value());
                }
            }
        }
        Value::Object(map)
    }
}

impl Clone for HistogramSketch {
    fn clone(&self) -> Self {
        let clone =
            HistogramSketch::with_bucket_count(self.min_value, self.resolution, self.buckets.len());
        clone.merge_from(self);
        clone
    }
}

impl PartialEq for HistogramSketch {
    fn eq(&self, other: &Self) -> bool {
        self.min_value == other.min_value
            && self.resolution == other.resolution
            && self.buckets.len() == other.buckets.len()
            && self.count() == other.count()
            && self.ignored() == other.ignored()
            && self
                .buckets
                .iter()
                .zip(other.buckets.iter())
                .all(|(a, b)| a.load(Ordering::Relaxed) == b.load(Ordering::Relaxed))
    }
}

impl Serialize for HistogramSketch {
    fn to_value(&self) -> Value {
        self.summary_value()
    }
}

/// [`update_extreme`] on an exclusively held cell.
fn set_extreme(cell: &mut u64, value: f64, better: impl Fn(f64, f64) -> bool) {
    if better(value, f64::from_bits(*cell)) {
        *cell = value.to_bits();
    }
}

/// CAS loop updating an atomic `f64`-bits cell when `better(new, current)`.
fn update_extreme(cell: &AtomicU64, value: f64, better: impl Fn(f64, f64) -> bool) {
    let mut current = cell.load(Ordering::Relaxed);
    while better(value, f64::from_bits(current)) {
        match cell.compare_exchange_weak(
            current,
            value.to_bits(),
            Ordering::Relaxed,
            Ordering::Relaxed,
        ) {
            Ok(_) => return,
            Err(seen) => current = seen,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_sketch_has_no_quantiles() {
        let h = HistogramSketch::with_default_resolution();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.quantile(0.0), None);
        assert_eq!(h.quantile(1.0), None);
    }

    #[test]
    fn single_sample_is_every_quantile() {
        let h = HistogramSketch::with_default_resolution();
        h.record(42.5);
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), Some(42.5), "q = {q}");
        }
    }

    #[test]
    fn overflow_values_clamp_and_report_exact_max() {
        let h = HistogramSketch::new(1.0, 0.1, 100.0);
        h.record(1e12);
        h.record(2e12);
        assert_eq!(h.overflow_count(), 2);
        assert_eq!(h.count(), 2);
        assert_eq!(h.quantile(0.5), Some(2e12));
        assert_eq!(h.quantile(1.0), Some(2e12));
    }

    #[test]
    fn nan_quantile_is_none_even_when_populated() {
        let h = HistogramSketch::with_default_resolution();
        h.record(1.0);
        h.record(2.0);
        assert_eq!(h.quantile(f64::NAN), None);
        // Out-of-range (but finite) q clamps instead.
        assert_eq!(h.quantile(-0.5), Some(1.0));
        assert_eq!(h.quantile(7.0), Some(2.0));
    }

    #[test]
    fn all_overflow_sketch_reports_max_for_every_positive_quantile() {
        let h = HistogramSketch::new(1.0, 0.1, 10.0);
        for v in [1e6, 2e6, 3e6] {
            h.record(v);
        }
        assert_eq!(h.overflow_count(), 3);
        for q in [0.01, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), Some(3e6), "q = {q}");
        }
        assert_eq!(h.quantile(0.0), Some(1e6));
    }

    #[test]
    fn underflow_and_negative_values_land_in_bucket_zero() {
        let h = HistogramSketch::new(1.0, 0.1, 100.0);
        h.record(0.0);
        h.record(-5.0);
        h.record(0.5);
        assert_eq!(h.count(), 3);
        assert_eq!(h.min(), 0.0);
        assert!(h.quantile(0.5).unwrap() <= 1.0);
    }

    #[test]
    fn non_finite_values_are_ignored_not_counted() {
        let h = HistogramSketch::with_default_resolution();
        h.record(f64::NAN);
        h.record(f64::INFINITY);
        assert_eq!(h.count(), 0);
        assert_eq!(h.ignored(), 2);
        assert_eq!(h.quantile(0.5), None);
    }

    #[test]
    fn quantiles_track_a_uniform_grid() {
        let h = HistogramSketch::new(1.0, 0.01, 1e6);
        for i in 1..=1000 {
            h.record(i as f64);
        }
        let p50 = h.quantile(0.5).unwrap();
        assert!((p50 - 500.0).abs() / 500.0 < 0.02, "p50 = {p50}");
        let p99 = h.quantile(0.99).unwrap();
        assert!((p99 - 990.0).abs() / 990.0 < 0.02, "p99 = {p99}");
        assert_eq!(h.quantile(0.0), Some(1.0));
        assert_eq!(h.quantile(1.0), Some(1000.0));
    }

    #[test]
    fn exponential_quantiles_match_theory() {
        // Exp(λ) through its inverse CDF on a stratified uniform grid:
        // the q-quantile is −ln(1−q)/λ, within the 1% resolution.
        let lambda = 1e-4;
        let h = HistogramSketch::new(1e-2, 0.01, 1e9);
        let n = 200_000;
        for i in 0..n {
            let u = (f64::from(i) + 0.5) / f64::from(n);
            h.record(-(1.0 - u).ln() / lambda);
        }
        for q in [0.5, 0.9, 0.99] {
            let expect = -(1.0f64 - q).ln() / lambda;
            let got = h.quantile(q).unwrap();
            assert!(
                (got - expect).abs() / expect < 0.03,
                "q = {q}: {got} vs {expect}"
            );
        }
    }

    #[test]
    fn merge_equals_combined_recording() {
        let a = HistogramSketch::with_default_resolution();
        let b = HistogramSketch::with_default_resolution();
        let all = HistogramSketch::with_default_resolution();
        for i in 0..500 {
            let v = 1.0 + (i as f64) * 13.7 % 997.0;
            if i % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
            all.record(v);
        }
        a.merge_from(&b);
        assert_eq!(a, all);
        assert_eq!(a.quantile(0.9), all.quantile(0.9));
    }

    #[test]
    fn record_mut_matches_record() {
        let mut owned = HistogramSketch::new(1.0, 0.1, 100.0);
        let shared = owned.empty_like();
        let edges: Vec<f64> = (0..owned.buckets.len())
            .map(|b| shared.bucket_low(b))
            .collect();
        let values = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -3.0,
            -0.0,
            0.0,
            0.5,
            1.0,
            1.1,
            7.25,
            99.9,
            100.0,
            1e9,
        ];
        for v in values.into_iter().chain(edges) {
            owned.record_mut(v);
            shared.record(v);
        }
        assert_eq!(owned, shared);
        assert_eq!(
            (owned.count(), owned.ignored(), owned.overflow_count()),
            (shared.count(), shared.ignored(), shared.overflow_count())
        );
        assert_eq!(owned.min().to_bits(), shared.min().to_bits());
        assert_eq!(owned.max().to_bits(), shared.max().to_bits());
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(owned.quantile(q), shared.quantile(q), "q = {q}");
        }
        assert_eq!(owned.summary_value(), shared.summary_value());
    }

    #[test]
    fn clone_preserves_counts_and_shape() {
        let h = HistogramSketch::new(0.5, 0.05, 1e3);
        for v in [0.1, 1.0, 10.0, 100.0, 1e9] {
            h.record(v);
        }
        let c = h.clone();
        assert_eq!(c, h);
        assert_eq!(c.overflow_count(), h.overflow_count());
    }

    #[test]
    fn concurrent_recording_is_exact() {
        let h = HistogramSketch::with_default_resolution();
        std::thread::scope(|s| {
            for t in 0..8 {
                let h = &h;
                s.spawn(move || {
                    for i in 0..1000 {
                        h.record(1.0 + (t * 1000 + i) as f64);
                    }
                });
            }
        });
        assert_eq!(h.count(), 8000);
        assert_eq!(h.min(), 1.0);
        assert_eq!(h.max(), 8000.0);
    }

    #[test]
    #[should_panic(expected = "parameter mismatch")]
    fn merge_rejects_mismatched_parameters() {
        // Same resolution, different range: zipping the buckets would
        // drop the short sketch's overflow into an ordinary bucket.
        let short = HistogramSketch::new(1.0, 0.1, 10.0);
        let long = HistogramSketch::new(1.0, 0.1, 1000.0);
        short.record(1e6);
        assert!(std::panic::catch_unwind(|| long.merge_from(&short)).is_err());
        assert_eq!(long.count(), 0);
        assert_ne!(long, short.empty_like());

        let a = HistogramSketch::new(1.0, 0.01, 100.0);
        let b = HistogramSketch::new(1.0, 0.02, 100.0);
        a.merge_from(&b);
    }
}
