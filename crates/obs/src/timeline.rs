//! Span timeline profiler: per-thread bounded event buffers with a
//! Chrome trace-event JSON exporter.
//!
//! When the timeline is enabled (see [`crate::set_timeline_enabled`]),
//! every RAII [`Span`](crate::Span) additionally records one *complete
//! event* — name, thread, begin/end wall timestamps, a per-thread logical
//! sequence number, and the ID of the enclosing span — into its thread's
//! `EventBuffer`: a `Mutex<Vec<_>>` that only its owning thread appends
//! to. A drain swaps the whole `Vec` out, so a producer waits at most for
//! that pointer swap. A full buffer drops the newest events and counts
//! them (`dropped_events` in the export, `obs.timeline.dropped` in the
//! registry) instead of blocking the traced code or silently losing data.
//!
//! Determinism contract: wall timestamps (`ts`/`dur`) are wall-clock and
//! excluded from any byte-identity guarantee. Everything *structural* is
//! deterministic for a deterministic run on a fixed thread count: events
//! export sorted by `(tid, seq)`, the logical sequence is a per-thread
//! monotone counter, and parent links reproduce the nesting exactly.
//! [`chrome_trace_from_events`] is a pure function of the event list, so
//! the serialized form of a hand-built timeline is byte-stable (the
//! golden test in `tests/chrome_trace.rs` pins it).

use crate::metrics::Toggle;
use serde::{Serialize, Value};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// One finished span on the timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct TimelineEvent {
    /// Span name (the `span!` site name, or a dynamic `Registry::span`
    /// name such as `experiment.F4`).
    pub name: String,
    /// Timeline-assigned thread ID (registration order, starting at 0).
    pub tid: u64,
    /// Unique span ID (process-wide).
    pub id: u64,
    /// Enclosing span's ID on the same thread, if any.
    pub parent: Option<u64>,
    /// Begin timestamp, nanoseconds since the process trace epoch.
    pub begin_ns: u64,
    /// End timestamp, nanoseconds since the process trace epoch.
    pub end_ns: u64,
    /// Per-thread logical sequence number (begin order): deterministic
    /// for a deterministic run, unlike the wall timestamps.
    pub seq: u64,
}

/// One thread's bounded event buffer, in push (FIFO) order.
///
/// The owning thread is the only producer; any thread may drain. A full
/// buffer counts the rejected event in `dropped` rather than
/// overwriting history — the oldest (outermost, usually most
/// interesting) spans survive.
struct EventBuffer {
    capacity: usize,
    events: Mutex<Vec<TimelineEvent>>,
    dropped: AtomicU64,
}

impl EventBuffer {
    fn new(capacity: usize) -> Self {
        EventBuffer {
            capacity,
            events: Mutex::new(vec![]),
            dropped: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Vec<TimelineEvent>> {
        self.events.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Appends `event`, or counts it as dropped when the buffer is full.
    fn push(&self, event: TimelineEvent) {
        let mut events = self.lock();
        if events.len() < self.capacity {
            events.push(event);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Takes every event recorded since the last drain.
    fn drain(&self) -> Vec<TimelineEvent> {
        std::mem::take(&mut *self.lock())
    }

    /// Events rejected because the buffer was full.
    fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

/// Per-thread timeline state: the event buffer plus the open-span stack
/// that provides parent IDs and the logical sequence counter.
struct ThreadState {
    tid: u64,
    buffer: Arc<EventBuffer>,
    /// IDs of the currently open spans, innermost last.
    stack: std::cell::RefCell<Vec<u64>>,
    seq: std::cell::Cell<u64>,
}

/// Process-wide timeline: the toggle, the trace epoch, and every
/// thread's buffer in registration order.
struct Timeline {
    enabled: Toggle,
    epoch: OnceLock<Instant>,
    next_tid: AtomicU64,
    next_span_id: AtomicU64,
    buffers: Mutex<Vec<Arc<EventBuffer>>>,
}

/// Per-thread buffer capacity (events). At ~100 bytes per event this is
/// ~1.6 MiB per traced thread.
const BUFFER_CAPACITY: usize = 16_384;

static TIMELINE: OnceLock<Timeline> = OnceLock::new();

fn timeline() -> &'static Timeline {
    TIMELINE.get_or_init(|| Timeline {
        enabled: Toggle::new(false),
        epoch: OnceLock::new(),
        next_tid: AtomicU64::new(0),
        next_span_id: AtomicU64::new(0),
        buffers: Mutex::new(vec![]),
    })
}

thread_local! {
    static THREAD_STATE: ThreadState = {
        let tl = timeline();
        let buffer = Arc::new(EventBuffer::new(BUFFER_CAPACITY));
        let tid = tl.next_tid.fetch_add(1, Ordering::Relaxed);
        tl.buffers
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(Arc::clone(&buffer));
        ThreadState {
            tid,
            buffer,
            stack: std::cell::RefCell::new(vec![]),
            seq: std::cell::Cell::new(0),
        }
    };
}

/// Turns timeline recording on or off. Enabling pins the trace epoch on
/// first use; disabling stops recording but keeps already-captured
/// events for export.
pub fn set_timeline_enabled(on: bool) {
    let tl = timeline();
    if on {
        tl.epoch.get_or_init(Instant::now);
    }
    tl.enabled.set(on);
}

/// Nanoseconds since the trace epoch (0 before the timeline was first
/// enabled).
fn now_ns() -> u64 {
    match timeline().epoch.get() {
        Some(epoch) => u64::try_from(epoch.elapsed().as_nanos()).unwrap_or(u64::MAX),
        None => 0,
    }
}

/// The begin half of a timeline span, carried inside the RAII
/// [`Span`](crate::Span); [`finish`](Self::finish) records the complete
/// event on drop.
#[derive(Debug)]
pub struct TimelineSpan {
    name: String,
    tid: u64,
    id: u64,
    parent: Option<u64>,
    begin_ns: u64,
    seq: u64,
}

/// Begins a timeline span, if the timeline is enabled. The returned
/// half-event must be [`finish`](TimelineSpan::finish)ed on the *same
/// thread* (RAII span usage guarantees this; a span moved across threads
/// records on the destination thread and is dropped from the origin's
/// open-span stack on its next pop).
pub fn timeline_begin(name: &str) -> Option<TimelineSpan> {
    if !timeline().enabled.get() {
        return None;
    }
    let id = timeline().next_span_id.fetch_add(1, Ordering::Relaxed);
    THREAD_STATE.with(|ts| {
        let parent = ts.stack.borrow().last().copied();
        ts.stack.borrow_mut().push(id);
        let seq = ts.seq.get();
        ts.seq.set(seq + 1);
        Some(TimelineSpan {
            name: name.to_string(),
            tid: ts.tid,
            id,
            parent,
            begin_ns: now_ns(),
            seq,
        })
    })
}

impl TimelineSpan {
    /// Ends the span: pops it from the open-span stack and pushes the
    /// complete event into the current thread's buffer.
    pub fn finish(self) {
        let end_ns = now_ns();
        THREAD_STATE.with(|ts| {
            let mut stack = ts.stack.borrow_mut();
            // RAII scoping makes this a plain pop; be tolerant of spans
            // that were moved across threads or dropped out of order.
            if stack.last() == Some(&self.id) {
                stack.pop();
            } else {
                stack.retain(|&open| open != self.id);
            }
            drop(stack);
            ts.buffer.push(TimelineEvent {
                name: self.name,
                tid: self.tid,
                id: self.id,
                parent: self.parent,
                begin_ns: self.begin_ns,
                end_ns,
                seq: self.seq,
            });
        });
    }
}

/// Drains every thread's buffer: all completed events recorded since
/// the last drain, sorted by `(tid, seq)`, plus the total number of
/// dropped events (cumulative over the process).
pub fn timeline_drain() -> (Vec<TimelineEvent>, u64) {
    let buffers = timeline().buffers.lock().unwrap_or_else(|e| e.into_inner());
    let mut events = vec![];
    let mut dropped = 0;
    for buffer in buffers.iter() {
        events.extend(buffer.drain());
        dropped += buffer.dropped();
    }
    drop(buffers);
    events.sort_by_key(|e| (e.tid, e.seq));
    if dropped > 0 {
        // Surface buffer overflow in the metrics snapshot too.
        let c = crate::global().counter("obs.timeline.dropped");
        let cur = c.get();
        if dropped > cur {
            c.add(dropped - cur);
        }
    }
    (events, dropped)
}

/// Renders the current timeline as Chrome trace-event JSON (drains the
/// buffers): the object form `{"traceEvents": [...], ...}` that
/// `chrome://tracing` and Perfetto load directly.
pub fn chrome_trace_json() -> String {
    let (events, dropped) = timeline_drain();
    chrome_trace_from_events(&events, dropped)
}

/// Pure renderer: Chrome trace-event JSON for an explicit event list.
/// Byte-stable for a fixed input — the JSON depends only on `events`
/// (already in the desired order) and `dropped`.
///
/// Each event becomes a complete (`"ph":"X"`) slice with microsecond
/// `ts`/`dur` (3 decimal places preserve the nanosecond grid) and the
/// structural fields (`id`, `parent`, `seq`) under `args`.
pub fn chrome_trace_from_events(events: &[TimelineEvent], dropped: u64) -> String {
    let traced: Vec<Value> = events
        .iter()
        .map(|e| {
            let mut args = BTreeMap::new();
            args.insert("id".to_string(), e.id.to_value());
            if let Some(parent) = e.parent {
                args.insert("parent".to_string(), parent.to_value());
            }
            args.insert("seq".to_string(), e.seq.to_value());
            let mut m = BTreeMap::new();
            m.insert("name".to_string(), e.name.to_value());
            m.insert("cat".to_string(), "span".to_value());
            m.insert("ph".to_string(), "X".to_value());
            m.insert("ts".to_string(), micros_value(e.begin_ns));
            m.insert(
                "dur".to_string(),
                micros_value(e.end_ns.saturating_sub(e.begin_ns)),
            );
            m.insert("pid".to_string(), 1u64.to_value());
            m.insert("tid".to_string(), e.tid.to_value());
            m.insert("args".to_string(), Value::Object(args));
            Value::Object(m)
        })
        .collect();

    let mut other = BTreeMap::new();
    other.insert("dropped_events".to_string(), dropped.to_value());
    other.insert("tool".to_string(), "rexec-obs".to_value());

    let mut doc = BTreeMap::new();
    doc.insert("displayTimeUnit".to_string(), "ms".to_value());
    doc.insert("otherData".to_string(), Value::Object(other));
    doc.insert("traceEvents".to_string(), Value::Array(traced));
    serde_json::to_string_pretty(&Value::Object(doc)).expect("trace serializes infallibly")
}

/// Nanoseconds as a microsecond `Value` on a fixed 3-decimal grid, so
/// serialization is stable (`1234` ns → `1.234`).
fn micros_value(ns: u64) -> Value {
    if ns.is_multiple_of(1000) {
        (ns / 1000).to_value()
    } else {
        (ns as f64 / 1000.0).to_value()
    }
}

/// A structural problem found by [`validate_chrome_trace`].
#[derive(Debug, Clone, PartialEq)]
pub struct TraceError(pub String);

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for TraceError {}

/// Strict structural validator for exported traces: parses the JSON,
/// checks every event is a well-formed `"X"` slice, and checks the
/// nesting invariants — every `parent` refers to an event on the same
/// thread whose `[ts, ts+dur]` interval contains the child's. Returns
/// the number of events.
pub fn validate_chrome_trace(json: &str) -> Result<usize, TraceError> {
    let doc: Value =
        serde_json::from_str(json).map_err(|e| TraceError(format!("invalid JSON: {e}")))?;
    let events = match doc.get("traceEvents") {
        Some(Value::Array(a)) => a,
        _ => return Err(TraceError("missing traceEvents array".into())),
    };
    struct Ev {
        tid: u64,
        begin: f64,
        end: f64,
    }
    let mut by_id: BTreeMap<u64, Ev> = BTreeMap::new();
    let mut parents: Vec<(u64, u64)> = vec![];
    for (i, ev) in events.iter().enumerate() {
        let field = |key: &str| {
            ev.get(key)
                .ok_or_else(|| TraceError(format!("event {i}: missing {key}")))
        };
        let num = |key: &str| -> Result<f64, TraceError> {
            match field(key)? {
                Value::Number(n) => Ok(n.as_f64()),
                _ => Err(TraceError(format!("event {i}: {key} is not a number"))),
            }
        };
        match field("ph")? {
            Value::String(ph) if ph == "X" => {}
            other => return Err(TraceError(format!("event {i}: ph is {other:?}, not \"X\""))),
        }
        match field("name")? {
            Value::String(name) if !name.is_empty() => {}
            _ => return Err(TraceError(format!("event {i}: empty or missing name"))),
        }
        let ts = num("ts")?;
        let dur = num("dur")?;
        if !(ts.is_finite() && dur.is_finite() && ts >= 0.0 && dur >= 0.0) {
            return Err(TraceError(format!("event {i}: bad ts/dur {ts}/{dur}")));
        }
        let tid = num("tid")? as u64;
        let args = field("args")?;
        let arg_u64 = |key: &str| match args.get(key) {
            Some(Value::Number(n)) => n.as_u64(),
            _ => None,
        };
        let id = arg_u64("id").ok_or_else(|| TraceError(format!("event {i}: missing args.id")))?;
        if by_id
            .insert(
                id,
                Ev {
                    tid,
                    begin: ts,
                    end: ts + dur,
                },
            )
            .is_some()
        {
            return Err(TraceError(format!("event {i}: duplicate span id {id}")));
        }
        if let Some(parent) = arg_u64("parent") {
            parents.push((id, parent));
        }
    }
    for (child, parent) in parents {
        let c = &by_id[&child];
        let p = by_id
            .get(&parent)
            .ok_or_else(|| TraceError(format!("span {child}: parent {parent} not in trace")))?;
        if p.tid != c.tid {
            return Err(TraceError(format!(
                "span {child}: parent {parent} is on tid {}, child on tid {}",
                p.tid, c.tid
            )));
        }
        if c.begin < p.begin || c.end > p.end {
            return Err(TraceError(format!(
                "span {child} [{}, {}] not nested inside parent {parent} [{}, {}]",
                c.begin, c.end, p.begin, p.end
            )));
        }
    }
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes the tests that flip the process-wide timeline toggle.
    static TOGGLE: Mutex<()> = Mutex::new(());

    fn ev(name: &str, tid: u64, id: u64, parent: Option<u64>, range: (u64, u64)) -> TimelineEvent {
        TimelineEvent {
            name: name.to_string(),
            tid,
            id,
            parent,
            begin_ns: range.0,
            end_ns: range.1,
            seq: id,
        }
    }

    #[test]
    fn ring_preserves_fifo_and_counts_drops() {
        let buffer = EventBuffer::new(3);
        for i in 0..5 {
            buffer.push(ev("e", 0, i, None, (i, i + 1)));
        }
        assert_eq!(buffer.dropped(), 2);
        let drained = buffer.drain();
        assert_eq!(
            drained.iter().map(|e| e.id).collect::<Vec<_>>(),
            vec![0, 1, 2],
            "oldest events survive, newest are dropped"
        );
        // The buffer is reusable after a drain.
        buffer.push(ev("e", 0, 9, None, (9, 10)));
        assert_eq!(buffer.drain().len(), 1);
        assert_eq!(buffer.dropped(), 2);
    }

    #[test]
    fn ring_drains_concurrently_with_production() {
        let buffer = Arc::new(EventBuffer::new(1024));
        let producer = Arc::clone(&buffer);
        let handle = std::thread::spawn(move || {
            for i in 0..10_000u64 {
                producer.push(ev("e", 0, i, None, (i, i + 1)));
            }
        });
        let mut seen = vec![];
        loop {
            seen.extend(buffer.drain());
            if handle.is_finished() {
                break;
            }
        }
        handle.join().unwrap();
        seen.extend(buffer.drain());
        assert_eq!(seen.len() as u64 + buffer.dropped(), 10_000);
        // FIFO per producer: ids strictly increase.
        assert!(seen.windows(2).all(|w| w[0].id < w[1].id));
    }

    #[test]
    fn chrome_export_is_byte_stable_and_validates() {
        let events = vec![
            ev("outer", 0, 0, None, (0, 5000)),
            ev("inner", 0, 1, Some(0), (1000, 2500)),
            ev("other-thread", 1, 2, None, (0, 1234)),
        ];
        let a = chrome_trace_from_events(&events, 7);
        let b = chrome_trace_from_events(&events, 7);
        assert_eq!(a, b, "pure renderer must be byte-stable");
        assert_eq!(validate_chrome_trace(&a).unwrap(), 3);
        assert!(a.contains("\"dropped_events\": 7"));
        assert!(a.contains("\"ph\": \"X\""));
        // 1234 ns = 1.234 us: the fractional grid is preserved.
        assert!(a.contains("1.234"));
    }

    #[test]
    fn validator_rejects_broken_nesting() {
        let ok = chrome_trace_from_events(&[ev("a", 0, 0, None, (0, 10))], 0);
        assert!(validate_chrome_trace(&ok).is_ok());

        // Child extends past its parent.
        let bad = chrome_trace_from_events(
            &[
                ev("outer", 0, 0, None, (0, 1000)),
                ev("inner", 0, 1, Some(0), (500, 2000)),
            ],
            0,
        );
        assert!(validate_chrome_trace(&bad)
            .unwrap_err()
            .0
            .contains("nested"));

        // Parent on a different thread.
        let cross = chrome_trace_from_events(
            &[
                ev("outer", 0, 0, None, (0, 1000)),
                ev("inner", 1, 1, Some(0), (100, 200)),
            ],
            0,
        );
        assert!(validate_chrome_trace(&cross).unwrap_err().0.contains("tid"));

        // Dangling parent reference.
        let dangling = chrome_trace_from_events(&[ev("a", 0, 1, Some(99), (0, 10))], 0);
        assert!(validate_chrome_trace(&dangling)
            .unwrap_err()
            .0
            .contains("not in trace"));

        assert!(validate_chrome_trace("{not json").is_err());
        assert!(validate_chrome_trace("{}").is_err());
    }

    #[test]
    fn begin_finish_records_nesting_on_this_thread() {
        let _toggle = TOGGLE.lock().unwrap_or_else(|e| e.into_inner());
        set_timeline_enabled(true);
        let outer = timeline_begin("test.outer").unwrap();
        let inner = timeline_begin("test.inner").unwrap();
        let inner_id = inner.id;
        let outer_id = outer.id;
        inner.finish();
        outer.finish();
        set_timeline_enabled(false);
        let (events, _) = timeline_drain();
        let inner_ev = events.iter().find(|e| e.id == inner_id).unwrap();
        let outer_ev = events.iter().find(|e| e.id == outer_id).unwrap();
        assert_eq!(inner_ev.parent, Some(outer_id));
        assert_eq!(outer_ev.parent, None);
        assert_eq!(inner_ev.tid, outer_ev.tid);
        assert!(inner_ev.begin_ns >= outer_ev.begin_ns);
        assert!(inner_ev.end_ns <= outer_ev.end_ns);
        assert!(inner_ev.seq > outer_ev.seq);
    }

    #[test]
    fn disabled_timeline_records_nothing() {
        let _toggle = TOGGLE.lock().unwrap_or_else(|e| e.into_inner());
        set_timeline_enabled(false);
        assert!(timeline_begin("test.disabled").is_none());
    }
}
