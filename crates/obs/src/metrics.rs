//! Scalar metrics: monotone counters, last-value gauges, and span timers.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Monotone event counter.
///
/// Additions are exact (`u64`, wrapping is ~585 years of nanosecond
/// events) and commutative, so the aggregate value is identical no matter
/// how many threads contributed or in which order — the same argument
/// that makes `sim::stats::Stats::merge` thread-count-independent, but
/// without any floating-point slack.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    pub const fn new() -> Self {
        Counter {
            value: AtomicU64::new(0),
        }
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }
}

/// Last-value gauge for quantities that are *observed*, not accumulated
/// (throughput, queue depth). Gauges carry wall-clock-dependent values and
/// are therefore excluded from the determinism guarantee that counters and
/// histogram sketches provide.
#[derive(Debug)]
pub struct Gauge {
    bits: AtomicU64,
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge {
            bits: AtomicU64::new(0f64.to_bits()),
        }
    }
}

impl Gauge {
    pub fn new() -> Self {
        Gauge::default()
    }

    #[inline]
    pub fn set(&self, value: f64) {
        self.bits.store(value.to_bits(), Ordering::Relaxed);
    }

    pub fn get(&self) -> f64 {
        f64::from_bits(self.bits.load(Ordering::Relaxed))
    }

    pub fn reset(&self) {
        self.set(0.0);
    }
}

/// Aggregated timings of one named span: how many times it ran, total and
/// maximum duration. Nanosecond `u64` totals keep merging exact.
#[derive(Debug, Default)]
pub struct SpanStat {
    count: AtomicU64,
    total_nanos: AtomicU64,
    max_nanos: AtomicU64,
}

impl SpanStat {
    pub const fn new() -> Self {
        SpanStat {
            count: AtomicU64::new(0),
            total_nanos: AtomicU64::new(0),
            max_nanos: AtomicU64::new(0),
        }
    }

    #[inline]
    pub fn record_nanos(&self, nanos: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_nanos.fetch_add(nanos, Ordering::Relaxed);
        self.max_nanos.fetch_max(nanos, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn total_nanos(&self) -> u64 {
        self.total_nanos.load(Ordering::Relaxed)
    }

    pub fn max_nanos(&self) -> u64 {
        self.max_nanos.load(Ordering::Relaxed)
    }

    pub fn mean_nanos(&self) -> u64 {
        self.total_nanos().checked_div(self.count()).unwrap_or(0)
    }

    pub fn reset(&self) {
        self.count.store(0, Ordering::Relaxed);
        self.total_nanos.store(0, Ordering::Relaxed);
        self.max_nanos.store(0, Ordering::Relaxed);
    }
}

/// RAII timer: measures from construction to drop and records into a
/// [`SpanStat`], and — when the timeline is enabled (see
/// [`crate::set_timeline_enabled`]) — also records a complete event on
/// the span timeline with parent nesting. When both are disabled the
/// span is a no-op that never reads the clock, so the disabled path
/// costs two branches.
#[derive(Debug)]
pub struct Span {
    active: Option<(Arc<SpanStat>, Instant)>,
    timeline: Option<crate::timeline::TimelineSpan>,
}

impl Span {
    /// Starts a span with an optional aggregate stat and an optional
    /// timeline half-event (used by the registry entry points).
    pub(crate) fn with_timeline(
        stat: Option<&Arc<SpanStat>>,
        timeline: Option<crate::timeline::TimelineSpan>,
    ) -> Span {
        Span {
            active: stat.map(|s| (Arc::clone(s), Instant::now())),
            timeline,
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((stat, started)) = self.active.take() {
            let nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            stat.record_nanos(nanos);
        }
        if let Some(timeline) = self.timeline.take() {
            timeline.finish();
        }
    }
}

/// On/off switch for span timing and the span timeline.
#[derive(Debug, Default)]
pub(crate) struct Toggle {
    on: AtomicBool,
}

impl Toggle {
    pub(crate) const fn new(initial: bool) -> Self {
        Toggle {
            on: AtomicBool::new(initial),
        }
    }

    #[inline]
    pub(crate) fn get(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    pub(crate) fn set(&self, value: bool) {
        self.on.store(value, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn counter_accumulates_exactly_across_threads() {
        let c = Arc::new(Counter::new());
        std::thread::scope(|s| {
            for _ in 0..8 {
                let c = Arc::clone(&c);
                s.spawn(move || {
                    for _ in 0..10_000 {
                        c.incr();
                    }
                });
            }
        });
        assert_eq!(c.get(), 80_000);
    }

    #[test]
    fn gauge_stores_last_value() {
        let g = Gauge::new();
        g.set(1.5);
        g.set(-2.25);
        assert_eq!(g.get(), -2.25);
        g.reset();
        assert_eq!(g.get(), 0.0);
    }

    #[test]
    fn span_records_only_when_enabled() {
        let stat = Arc::new(SpanStat::new());
        {
            let _s = Span::with_timeline(None, None);
        }
        assert_eq!(stat.count(), 0);
        {
            let _s = Span::with_timeline(Some(&stat), None);
        }
        assert_eq!(stat.count(), 1);
        assert!(stat.max_nanos() >= stat.mean_nanos());
    }

    #[test]
    fn span_stat_mean_of_zero_runs_is_zero() {
        assert_eq!(SpanStat::new().mean_nanos(), 0);
    }
}
