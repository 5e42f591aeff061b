//! Chrome trace-event export: a golden test pinning the exact bytes the
//! pure renderer produces for a hand-built timeline, and an end-to-end
//! run of the experiments pipeline with `--trace-chrome` whose exported
//! trace must pass the strict structural validator.
//!
//! The golden bytes are part of the exporter's contract: Perfetto and
//! `chrome://tracing` consume this format as-is, and downstream diffing
//! of traces relies on the serialization being byte-stable. Wall-clock
//! timestamps are obviously run-dependent, so the golden test feeds the
//! renderer a fixed event list; the pipeline test checks structure only.

use rexec::obs::{chrome_trace_from_events, validate_chrome_trace, TimelineEvent};
use rexec_harness::{FaultPlan, RetryPolicy};
use rexec_sweep::experiments::{quick_experiment_ids, DEFAULT_SEED};
use rexec_sweep::pipeline::{run, PipelineConfig};
use std::fs;
use std::io;

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
fn golden_chrome_trace_bytes() {
    let events = vec![
        ev("pipeline.run", 0, 0, None, (0, 10_000)),
        ev("experiment.F4", 0, 1, Some(0), (1_000, 4_500)),
        ev("solver.solve", 1, 2, None, (2_000, 2_750)),
    ];
    let json = chrome_trace_from_events(&events, 3);

    let expected = r#"{
  "displayTimeUnit": "ms",
  "otherData": {
    "dropped_events": 3,
    "tool": "rexec-obs"
  },
  "traceEvents": [
    {
      "args": {
        "id": 0,
        "seq": 0
      },
      "cat": "span",
      "dur": 10,
      "name": "pipeline.run",
      "ph": "X",
      "pid": 1,
      "tid": 0,
      "ts": 0
    },
    {
      "args": {
        "id": 1,
        "parent": 0,
        "seq": 1
      },
      "cat": "span",
      "dur": 3.5,
      "name": "experiment.F4",
      "ph": "X",
      "pid": 1,
      "tid": 0,
      "ts": 1
    },
    {
      "args": {
        "id": 2,
        "seq": 2
      },
      "cat": "span",
      "dur": 0.75,
      "name": "solver.solve",
      "ph": "X",
      "pid": 1,
      "tid": 1,
      "ts": 2
    }
  ]
}"#;
    assert_eq!(
        json, expected,
        "chrome_trace_from_events must be byte-stable; \
         an intentional format change must update this golden"
    );
    assert_eq!(validate_chrome_trace(&json).unwrap(), 3);
}

#[test]
fn sub_microsecond_durations_keep_the_nanosecond_grid() {
    let json = chrome_trace_from_events(&[ev("tiny", 0, 0, None, (1, 1235))], 0);
    // 1 ns begin → ts 0.001 us; 1234 ns duration → 1.234 us.
    assert!(json.contains("\"ts\": 0.001"), "{json}");
    assert!(json.contains("\"dur\": 1.234"), "{json}");
    assert_eq!(validate_chrome_trace(&json).unwrap(), 1);
}

/// A full (quick) experiments-pipeline run with `trace_chrome` set must
/// write a trace that parses, validates structurally — every event a
/// well-formed "X" slice, parents on the same thread with containing
/// intervals — and covers the pipeline's own spans.
#[test]
fn experiments_pipeline_trace_validates() {
    let dir = std::env::temp_dir().join(format!("rexec-chrome-trace-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let trace_path = dir.join("trace.json");
    let cfg = PipelineConfig {
        out_dir: dir.clone(),
        seed: DEFAULT_SEED,
        resume: false,
        ids: quick_experiment_ids(),
        fault: FaultPlan::default(),
        retry: RetryPolicy::immediate(3),
        metrics_prom: None,
        trace_chrome: Some(trace_path.clone()),
    };
    run(&cfg, &mut io::sink()).expect("quick pipeline run");

    let json = fs::read_to_string(&trace_path).expect("trace file written");
    let n = validate_chrome_trace(&json).expect("exported trace must validate");
    assert!(n > 0, "a pipeline run must record timeline events");
    assert!(
        json.contains("experiment."),
        "per-experiment spans should appear on the timeline"
    );

    let _ = fs::remove_dir_all(&dir);
}
