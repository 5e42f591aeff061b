//! `rexec-obs` — lightweight observability for the rexec workspace.
//!
//! Zero external dependencies beyond the workspace's serde stack: RAII
//! [`Span`] timers, [`Counter`]s and [`Gauge`]s, a log-bucketed
//! [`HistogramSketch`], and a [`Registry`] whose snapshots serialize in a
//! stable order. Every metric records straight into its registry
//! handle; parallel callers accumulate plain integers along their own
//! reduction and flush the totals once (as `MonteCarlo` does), so
//! counter and histogram aggregates are byte-identical for a fixed seed
//! regardless of `RAYON_NUM_THREADS`.
//!
//! Determinism contract:
//! - **Counters, histogram sketches** — exact `u64` counts, commutative
//!   additions and merges: identical across thread counts and orders.
//! - **Gauges, span timings** — wall-clock values, reported in separate
//!   snapshot sections and *excluded* from the guarantee.
//!
//! Hot-path usage goes through the caching macros, which register once
//! per call site and then touch only a relaxed atomic:
//!
//! ```
//! rexec_obs::counter!("solver.pairs_evaluated").incr();
//! let _timer = rexec_obs::span!("solver.solve"); // no-op unless enabled
//! ```
//!
//! Span timing is off by default (`Span` never reads the clock when
//! disabled); enable it with [`set_spans_enabled`] when timings are
//! wanted, e.g. when the CLI is asked for a `--metrics` snapshot.

#![forbid(unsafe_code)]

mod export;
mod metrics;
mod registry;
mod sketch;
mod timeline;
mod window;

pub use export::{check_prometheus_text, prometheus_text};
pub use metrics::{Counter, Gauge, Span, SpanStat};
pub use registry::{global, Registry};
pub use sketch::HistogramSketch;
pub use timeline::{
    chrome_trace_from_events, chrome_trace_json, set_timeline_enabled, timeline_drain,
    validate_chrome_trace, TimelineEvent, TraceError,
};
pub use window::{RollingWindow, WindowStats};

/// Turns span timing on or off in the [`global`] registry.
pub fn set_spans_enabled(on: bool) {
    global().set_spans_enabled(on);
}

/// Zeroes every metric in the [`global`] registry (registrations remain).
pub fn reset() {
    global().reset();
}

/// Serializes the [`global`] registry's full snapshot as pretty JSON.
pub fn snapshot_json() -> String {
    serde_json::to_string_pretty(&global().snapshot_value())
        .expect("registry snapshot serializes infallibly")
}

/// Global counter handle, registered once per call site.
///
/// `$name` must be constant at the call site: the handle is cached in a
/// `static`, so a varying name would keep reusing the first registration.
/// For dynamic names call [`global()`]`.counter(name)` directly.
#[macro_export]
macro_rules! counter {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::Counter>> =
            ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::global().counter($name))
    }};
}

/// Global gauge handle, registered once per call site (constant `$name`;
/// see [`counter!`]).
#[macro_export]
macro_rules! gauge {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::Gauge>> =
            ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::global().gauge($name))
    }};
}

/// Global histogram-sketch handle, registered once per call site
/// (constant `$name`; see [`counter!`]).
#[macro_export]
macro_rules! sketch {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::HistogramSketch>> =
            ::std::sync::OnceLock::new();
        HANDLE.get_or_init(|| $crate::global().sketch($name))
    }};
}

/// RAII span timer over the rest of the scope (constant `$name`; see
/// [`counter!`]). No-op — never reads the clock — while span timing is
/// disabled.
#[macro_export]
macro_rules! span {
    ($name:expr) => {{
        static HANDLE: ::std::sync::OnceLock<::std::sync::Arc<$crate::SpanStat>> =
            ::std::sync::OnceLock::new();
        $crate::global().span_for(
            HANDLE.get_or_init(|| $crate::global().span_stat($name)),
            $name,
        )
    }};
}

#[cfg(test)]
mod tests {
    #[test]
    fn macros_register_and_record_in_the_global_registry() {
        counter!("obs.test.counter").add(2);
        counter!("obs.test.counter").incr();
        assert_eq!(crate::global().counter("obs.test.counter").get(), 3);

        gauge!("obs.test.gauge").set(0.5);
        assert_eq!(crate::global().gauge("obs.test.gauge").get(), 0.5);

        sketch!("obs.test.sketch").record(1.0);
        assert_eq!(crate::global().sketch("obs.test.sketch").count(), 1);
    }

    #[test]
    fn span_macro_honours_the_global_toggle() {
        {
            let _s = span!("obs.test.span");
        }
        assert_eq!(crate::global().span_stat("obs.test.span").count(), 0);
    }

    #[test]
    fn snapshot_json_is_valid_json() {
        counter!("obs.test.snapshot").incr();
        let json = crate::snapshot_json();
        let value: serde::Value = serde_json::from_str(&json).unwrap();
        assert!(matches!(value, serde::Value::Object(_)));
    }
}
