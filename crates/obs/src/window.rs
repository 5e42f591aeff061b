//! Rolling-window aggregation over [`HistogramSketch`]: the latency /
//! QPS primitive a serving path mounts on its request loop.
//!
//! A [`RollingWindow`] keeps a ring of per-window *shards* (one
//! [`HistogramSketch`] plus an event count per fixed-length time
//! window). Recording touches only the shard of the current window;
//! reading merges the live shards on demand (`merge-on-read`), so the
//! write path stays cheap and the read path sees exactly the events of
//! the last `windows × window_secs` seconds, quantized to whole
//! windows.
//!
//! Time is explicit: `record_at` / `stats_at` take a timestamp in
//! seconds, which makes the combinator fully deterministic and
//! testable. The `record` / `stats` conveniences feed in wall-clock
//! time from a per-instance epoch. All reported values derive from
//! exact per-window `u64` counts, so for a fixed sequence of
//! `(timestamp, value)` pairs the outputs are reproducible.

use crate::registry::Registry;
use crate::sketch::HistogramSketch;
use std::sync::Mutex;
use std::time::Instant;

/// One time-window's worth of recorded events.
struct WindowShard {
    /// Window index (`floor(t / window_secs)`); `u64::MAX` = empty slot.
    index: u64,
    count: u64,
    sketch: HistogramSketch,
}

struct Inner {
    shards: Vec<WindowShard>,
}

/// Merged view over the live windows at some instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowStats {
    /// Events inside the covered windows.
    pub count: u64,
    /// Events per second over the full covered span
    /// (`windows × window_secs`), the steady-state throughput gauge.
    pub events_per_sec: f64,
    /// Median of the covered events (`None` when empty).
    pub p50: Option<f64>,
    /// 99th percentile of the covered events (`None` when empty).
    pub p99: Option<f64>,
    /// Exact smallest covered value (`None` when empty).
    pub min: Option<f64>,
    /// Exact largest covered value (`None` when empty).
    pub max: Option<f64>,
}

/// Fixed-capacity ring of per-window histogram shards with merge-on-read
/// aggregation.
pub struct RollingWindow {
    window_secs: f64,
    windows: usize,
    template: HistogramSketch,
    epoch: Instant,
    inner: Mutex<Inner>,
}

impl RollingWindow {
    /// A rolling window of `windows` consecutive spans of `window_secs`
    /// seconds each, with the default sketch resolution. Panics if
    /// `windows` is 0 or `window_secs` is not strictly positive.
    pub fn new(windows: usize, window_secs: f64) -> Self {
        assert!(windows > 0, "need at least one window");
        assert!(
            window_secs > 0.0 && window_secs.is_finite(),
            "window length must be positive"
        );
        let template = HistogramSketch::with_default_resolution();
        let shards = (0..windows)
            .map(|_| WindowShard {
                index: u64::MAX,
                count: 0,
                sketch: template.empty_like(),
            })
            .collect();
        RollingWindow {
            window_secs,
            windows,
            template,
            epoch: Instant::now(),
            inner: Mutex::new(Inner { shards }),
        }
    }

    fn window_index(&self, t_secs: f64) -> u64 {
        if t_secs <= 0.0 {
            0
        } else {
            (t_secs / self.window_secs) as u64
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Records `value` at explicit time `t_secs` (seconds on the
    /// caller's clock); see [`record_n_at`](Self::record_n_at).
    pub fn record_at(&self, t_secs: f64, value: f64) {
        self.record_n_at(t_secs, value, 1);
    }

    /// Records `n` copies of `value` at `t_secs` under one lock —
    /// identical to `n` [`record_at`](Self::record_at) calls. Reuses or
    /// recycles the ring slot for that window: a slot holding an older
    /// window is reset before reuse, and a record older than the slot's
    /// window (its own window has already scrolled out) is dropped.
    /// Timestamps may arrive slightly out of order: any window still in
    /// the ring accepts records.
    pub fn record_n_at(&self, t_secs: f64, value: f64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = self.window_index(t_secs);
        let slot = (idx % self.windows as u64) as usize;
        let mut inner = self.lock();
        let shard = &mut inner.shards[slot];
        if shard.index != idx {
            if shard.index != u64::MAX && idx < shard.index {
                return;
            }
            shard.index = idx;
            shard.count = 0;
            shard.sketch.reset();
        }
        shard.count += n;
        shard.sketch.record_n(value, n);
    }

    /// Merged statistics over the windows still live at `t_secs`: the
    /// current window and the `windows − 1` before it.
    pub fn stats_at(&self, t_secs: f64) -> WindowStats {
        let now = self.window_index(t_secs);
        let oldest = now.saturating_sub(self.windows as u64 - 1);
        let merged = self.template.empty_like();
        let mut count = 0;
        let inner = self.lock();
        for shard in &inner.shards {
            if shard.index != u64::MAX && shard.index >= oldest && shard.index <= now {
                merged.merge_from(&shard.sketch);
                count += shard.count;
            }
        }
        drop(inner);
        WindowStats {
            count,
            events_per_sec: count as f64 / (self.windows as f64 * self.window_secs),
            p50: merged.quantile(0.5),
            p99: merged.quantile(0.99),
            min: (merged.count() > 0).then(|| merged.min()),
            max: (merged.count() > 0).then(|| merged.max()),
        }
    }

    /// Wall-clock convenience: records at seconds since this instance
    /// was created.
    pub fn record(&self, value: f64) {
        self.record_at(self.epoch.elapsed().as_secs_f64(), value);
    }

    /// Wall-clock convenience: stats as of now.
    pub fn stats(&self) -> WindowStats {
        self.stats_at(self.epoch.elapsed().as_secs_f64())
    }

    /// Publishes the current window stats as gauges `<prefix>.p50`,
    /// `<prefix>.p99` and `<prefix>.per_sec` into `registry` — the
    /// shape the ROADMAP's `rexec-serve` latency/QPS endpoint mounts.
    /// Empty windows publish 0.
    pub fn publish_at(&self, registry: &Registry, prefix: &str, t_secs: f64) -> WindowStats {
        let stats = self.stats_at(t_secs);
        registry
            .gauge(&format!("{prefix}.p50"))
            .set(stats.p50.unwrap_or(0.0));
        registry
            .gauge(&format!("{prefix}.p99"))
            .set(stats.p99.unwrap_or(0.0));
        registry
            .gauge(&format!("{prefix}.per_sec"))
            .set(stats.events_per_sec);
        stats
    }

    /// Wall-clock convenience for [`publish_at`](Self::publish_at).
    pub fn publish(&self, registry: &Registry, prefix: &str) -> WindowStats {
        self.publish_at(registry, prefix, self.epoch.elapsed().as_secs_f64())
    }
}

impl std::fmt::Debug for RollingWindow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RollingWindow")
            .field("windows", &self.windows)
            .field("window_secs", &self.window_secs)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merges_only_live_windows() {
        // 3 windows of 1 s.
        let w = RollingWindow::new(3, 1.0);
        w.record_at(0.5, 10.0);
        w.record_at(1.5, 20.0);
        w.record_at(2.5, 30.0);

        let s = w.stats_at(2.9);
        assert_eq!(s.count, 3);
        assert_eq!(s.min, Some(10.0));
        assert_eq!(s.max, Some(30.0));
        assert_eq!(s.events_per_sec, 1.0);

        // At t = 3.x the 0.x window has scrolled out.
        let s = w.stats_at(3.1);
        assert_eq!(s.count, 2);
        assert_eq!(s.min, Some(20.0));

        // At t = 10 everything has expired.
        let s = w.stats_at(10.0);
        assert_eq!(s.count, 0);
        assert_eq!(s.p50, None);
        assert_eq!(s.p99, None);
        assert_eq!(s.min, None);
    }

    #[test]
    fn slot_reuse_resets_stale_shards() {
        let w = RollingWindow::new(2, 1.0);
        w.record_at(0.1, 1.0);
        w.record_at(0.2, 1.0);
        // Window 4 maps to the same slot as window 0 (4 % 2 == 0): the
        // stale shard must reset, not accumulate.
        w.record_at(4.5, 99.0);
        let s = w.stats_at(4.9);
        assert_eq!(s.count, 1);
        assert_eq!(s.min, Some(99.0));
    }

    #[test]
    fn stale_record_does_not_wipe_a_live_window() {
        // Window 92 (t = 46 s) shares slot 4 with the live window 100
        // (t = 50 s) but scrolled out long ago: its record is dropped.
        let w = RollingWindow::new(8, 0.5);
        w.record_at(50.0, 1.0);
        w.record_at(46.0, 2.0);
        let s = w.stats_at(50.0);
        assert_eq!(s.count, 1);
        assert_eq!(s.max, Some(1.0));
    }

    #[test]
    fn counted_record_equals_repeated_single_records() {
        let (counted, single) = (RollingWindow::new(8, 0.5), RollingWindow::new(8, 0.5));
        for (t, value, n) in [
            (0.1, 2.5e-4, 3),
            (0.7, 1e-3, 1),
            (1.2, 4e-5, 7),
            (1.3, 0.0, 0),
        ] {
            counted.record_n_at(t, value, n);
            for _ in 0..n {
                single.record_at(t, value);
            }
        }
        assert_eq!(counted.stats_at(1.4), single.stats_at(1.4));
        assert_eq!(counted.stats_at(1.4).count, 11);
    }

    #[test]
    fn quantiles_track_the_covered_population() {
        let w = RollingWindow::new(4, 0.25);
        for i in 0..1000 {
            // All within the covered 1 s span.
            w.record_at(0.999 * (i as f64) / 1000.0, (i + 1) as f64);
        }
        let s = w.stats_at(0.999);
        assert_eq!(s.count, 1000);
        let p50 = s.p50.unwrap();
        assert!((p50 - 500.0).abs() / 500.0 < 0.05, "p50 = {p50}");
        let p99 = s.p99.unwrap();
        assert!((p99 - 990.0).abs() / 990.0 < 0.05, "p99 = {p99}");
        assert_eq!(s.events_per_sec, 1000.0);
    }

    #[test]
    fn deterministic_for_a_fixed_input_sequence() {
        let run = || {
            let w = RollingWindow::new(5, 2.0);
            for i in 0..500u64 {
                w.record_at(i as f64 * 0.01, (i % 37) as f64 + 0.5);
            }
            let s = w.stats_at(5.0);
            (s.count, s.p50, s.p99, s.min, s.max)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn publish_sets_prefixed_gauges() {
        let r = Registry::new();
        let w = RollingWindow::new(2, 1.0);
        w.record_at(0.1, 4.0);
        w.record_at(0.2, 8.0);
        let s = w.publish_at(&r, "serve.latency", 0.5);
        assert_eq!(s.count, 2);
        assert_eq!(r.gauge("serve.latency.p50").get(), s.p50.unwrap());
        assert_eq!(r.gauge("serve.latency.p99").get(), s.p99.unwrap());
        assert_eq!(r.gauge("serve.latency.per_sec").get(), 1.0);

        // Empty window → zeros, not stale values.
        w.publish_at(&r, "serve.latency", 100.0);
        assert_eq!(r.gauge("serve.latency.p50").get(), 0.0);
        assert_eq!(r.gauge("serve.latency.per_sec").get(), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least one window")]
    fn zero_windows_is_rejected() {
        RollingWindow::new(0, 1.0);
    }
}
