//! Named-metric registry with a deterministic JSON snapshot.
//!
//! The registry hands out `Arc` handles keyed by name; the `Mutex` is only
//! taken on the registration path, so hot loops that cache their handle
//! (see the `counter!` / `span!` macros) never contend. Snapshots iterate
//! `BTreeMap`s, so key order — and therefore the serialized form — is
//! stable across runs and thread counts.

use crate::metrics::{Counter, Gauge, Span, SpanStat, Toggle};
use crate::sketch::HistogramSketch;
use serde::{Serialize, Value};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, OnceLock};

#[derive(Default)]
struct Tables {
    counters: BTreeMap<String, Arc<Counter>>,
    gauges: BTreeMap<String, Arc<Gauge>>,
    sketches: BTreeMap<String, Arc<HistogramSketch>>,
    spans: BTreeMap<String, Arc<SpanStat>>,
}

/// Process- or scope-wide collection of named metrics.
///
/// Counters and histogram sketches hold exact `u64` counts and are
/// thread-count-independent; gauges and span timings carry wall-clock
/// values and are reported in separate snapshot sections so deterministic
/// consumers can ignore them.
pub struct Registry {
    spans_enabled: Toggle,
    tables: Mutex<Tables>,
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl Registry {
    /// An empty registry with span timing disabled (the cheap default;
    /// counters and sketches always record).
    pub fn new() -> Self {
        Registry {
            spans_enabled: Toggle::new(false),
            tables: Mutex::new(Tables::default()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Tables> {
        self.tables.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Registers (or finds) the named counter.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut t = self.lock();
        if let Some(c) = t.counters.get(name) {
            return Arc::clone(c);
        }
        let c = Arc::new(Counter::new());
        t.counters.insert(name.to_string(), Arc::clone(&c));
        c
    }

    /// Registers (or finds) the named gauge.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut t = self.lock();
        if let Some(g) = t.gauges.get(name) {
            return Arc::clone(g);
        }
        let g = Arc::new(Gauge::new());
        t.gauges.insert(name.to_string(), Arc::clone(&g));
        g
    }

    /// Registers (or finds) the named histogram sketch, created with the
    /// default resolution on first use.
    pub fn sketch(&self, name: &str) -> Arc<HistogramSketch> {
        let mut t = self.lock();
        if let Some(s) = t.sketches.get(name) {
            return Arc::clone(s);
        }
        let s = Arc::new(HistogramSketch::with_default_resolution());
        t.sketches.insert(name.to_string(), Arc::clone(&s));
        s
    }

    /// Registers (or finds) the named span statistic.
    pub fn span_stat(&self, name: &str) -> Arc<SpanStat> {
        let mut t = self.lock();
        if let Some(s) = t.spans.get(name) {
            return Arc::clone(s);
        }
        let s = Arc::new(SpanStat::new());
        t.spans.insert(name.to_string(), Arc::clone(&s));
        s
    }

    /// Starts a named RAII span: aggregate timing when span timing is
    /// enabled, a timeline event when the timeline is enabled, a no-op
    /// when both are off.
    pub fn span(&self, name: &str) -> Span {
        let timeline = crate::timeline::timeline_begin(name);
        if self.spans_enabled() {
            Span::with_timeline(Some(&self.span_stat(name)), timeline)
        } else {
            Span::with_timeline(None, timeline)
        }
    }

    /// Starts a span into an already-registered stat, honouring the
    /// span-timing and timeline toggles. Preferred in hot loops via the
    /// `span!` macro (which supplies the call site's constant name).
    pub fn span_for(&self, stat: &Arc<SpanStat>, name: &str) -> Span {
        Span::with_timeline(
            self.spans_enabled().then_some(stat),
            crate::timeline::timeline_begin(name),
        )
    }

    /// Whether span timing is on.
    pub fn spans_enabled(&self) -> bool {
        self.spans_enabled.get()
    }

    /// Turns span timing on or off (counters and sketches are unaffected).
    pub fn set_spans_enabled(&self, on: bool) {
        self.spans_enabled.set(on);
    }

    /// Sorted snapshot of every counter as `(name, value)`.
    pub fn counters(&self) -> Vec<(String, u64)> {
        let t = self.lock();
        t.counters
            .iter()
            .map(|(k, c)| (k.clone(), c.get()))
            .collect()
    }

    /// Sorted snapshot of every gauge as `(name, value)`.
    pub fn gauges(&self) -> Vec<(String, f64)> {
        let t = self.lock();
        t.gauges.iter().map(|(k, g)| (k.clone(), g.get())).collect()
    }

    /// Sorted handles to every histogram sketch as `(name, sketch)`.
    pub fn sketches(&self) -> Vec<(String, Arc<HistogramSketch>)> {
        let t = self.lock();
        t.sketches
            .iter()
            .map(|(k, s)| (k.clone(), Arc::clone(s)))
            .collect()
    }

    /// Sorted handles to every span statistic as `(name, stat)`.
    pub fn span_stats(&self) -> Vec<(String, Arc<SpanStat>)> {
        let t = self.lock();
        t.spans
            .iter()
            .map(|(k, s)| (k.clone(), Arc::clone(s)))
            .collect()
    }

    /// Zeroes every registered metric, keeping the registrations.
    pub fn reset(&self) {
        let t = self.lock();
        for c in t.counters.values() {
            c.reset();
        }
        for g in t.gauges.values() {
            g.reset();
        }
        for s in t.sketches.values() {
            s.reset();
        }
        for s in t.spans.values() {
            s.reset();
        }
    }

    /// Deterministic slice of the snapshot: exact counters and histogram
    /// summaries only — byte-identical across thread counts for the same
    /// logical run.
    pub fn deterministic_value(&self) -> Value {
        let t = self.lock();
        let counters: BTreeMap<String, Value> = t
            .counters
            .iter()
            .map(|(k, c)| (k.clone(), c.get().to_value()))
            .collect();
        let histograms: BTreeMap<String, Value> = t
            .sketches
            .iter()
            .map(|(k, s)| (k.clone(), s.summary_value()))
            .collect();
        let mut map = BTreeMap::new();
        map.insert("counters".to_string(), Value::Object(counters));
        map.insert("histograms".to_string(), Value::Object(histograms));
        Value::Object(map)
    }

    /// Full snapshot: the deterministic sections plus wall-clock gauges
    /// and span timings.
    pub fn snapshot_value(&self) -> Value {
        let deterministic = self.deterministic_value();
        let t = self.lock();
        let gauges: BTreeMap<String, Value> = t
            .gauges
            .iter()
            .map(|(k, g)| (k.clone(), g.get().to_value()))
            .collect();
        let spans: BTreeMap<String, Value> = t
            .spans
            .iter()
            .map(|(k, s)| {
                let mut span = BTreeMap::new();
                span.insert("count".to_string(), s.count().to_value());
                span.insert("total_nanos".to_string(), s.total_nanos().to_value());
                span.insert("mean_nanos".to_string(), s.mean_nanos().to_value());
                span.insert("max_nanos".to_string(), s.max_nanos().to_value());
                (k.clone(), Value::Object(span))
            })
            .collect();
        let mut map = match deterministic {
            Value::Object(map) => map,
            _ => unreachable!("deterministic_value is always an object"),
        };
        map.insert("gauges".to_string(), Value::Object(gauges));
        map.insert("spans".to_string(), Value::Object(spans));
        Value::Object(map)
    }
}

impl Serialize for Registry {
    fn to_value(&self) -> Value {
        self.snapshot_value()
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let t = self.lock();
        f.debug_struct("Registry")
            .field("spans_enabled", &self.spans_enabled.get())
            .field("counters", &t.counters.len())
            .field("gauges", &t.gauges.len())
            .field("sketches", &t.sketches.len())
            .field("spans", &t.spans.len())
            .finish()
    }
}

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// The process-wide registry used by the `counter!` / `gauge!` /
/// `sketch!` / `span!` macros.
pub fn global() -> &'static Registry {
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_handles_are_shared_by_name() {
        let r = Registry::new();
        r.counter("a").add(3);
        r.counter("a").add(4);
        r.counter("b").incr();
        assert_eq!(r.counter("a").get(), 7);
        assert_eq!(r.counter("b").get(), 1);
    }

    #[test]
    fn span_gating_follows_the_toggle() {
        let r = Registry::new();
        {
            let _s = r.span("work");
        }
        assert_eq!(r.span_stat("work").count(), 0);
        r.set_spans_enabled(true);
        {
            let _s = r.span("work");
        }
        assert_eq!(r.span_stat("work").count(), 1);
    }

    #[test]
    fn snapshot_sections_are_complete_and_sorted() {
        let r = Registry::new();
        r.counter("z.last").incr();
        r.counter("a.first").add(2);
        r.gauge("speed").set(1.5);
        r.sketch("lat").record(0.25);
        r.set_spans_enabled(true);
        drop(r.span("step"));

        let json = serde_json::to_string(&r).unwrap();
        // BTreeMap ordering: "a.first" serializes before "z.last".
        let a = json.find("a.first").unwrap();
        let z = json.find("z.last").unwrap();
        assert!(a < z);
        for key in ["counters", "gauges", "histograms", "spans"] {
            assert!(json.contains(key), "missing section {key}");
        }

        let det = serde_json::to_string(&r.deterministic_value()).unwrap();
        assert!(!det.contains("spans"));
        assert!(!det.contains("gauges"));
    }

    #[test]
    fn reset_zeroes_but_keeps_registrations() {
        let r = Registry::new();
        r.counter("c").add(9);
        r.sketch("h").record(2.0);
        r.reset();
        assert_eq!(r.counter("c").get(), 0);
        assert_eq!(r.sketch("h").count(), 0);
    }
}
