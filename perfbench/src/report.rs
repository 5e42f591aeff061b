//! The run's result: metrics by name with units, attempted and failed
//! operation counts, and detail lines (stream digests, sample counts,
//! flags) printed before the final JSON line.

use std::fmt::Write as _;

/// End-to-end metrics and units, as declared in `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("qps_max", "1/s"),
    ("p50_ms.light", "ms"),
    ("p50_ms.busy", "ms"),
    ("rss_mb", "MB"),
    ("pipeline_s", "s"),
    ("resume_s", "s"),
];

/// Per-layer metrics and units, as declared in `BENCHMARK.json`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("wire.parse_us", "us"),
    ("wire.parse_us.p99", "us"),
    ("wire.parse_us.count", "count"),
    ("spec.resolve_us", "us"),
    ("spec.resolve_us.p99", "us"),
    ("spec.resolve_us.count", "count"),
    ("quant.key_us", "us"),
    ("quant.key_us.p99", "us"),
    ("quant.key_us.count", "count"),
    ("cache.get_us", "us"),
    ("cache.get_us.p99", "us"),
    ("cache.get_us.count", "count"),
    ("cache.insert_us", "us"),
    ("cache.insert_us.p99", "us"),
    ("cache.insert_us.count", "count"),
    ("cache.hit_frac", "frac"),
    ("cache.evictions", "count"),
    ("bicrit.build_us", "us"),
    ("bicrit.build_us.p99", "us"),
    ("bicrit.build_us.count", "count"),
    ("bicrit.solve_ns_per_rho", "ns"),
    ("bicrit.solve_ns_per_rho.p99", "ns"),
    ("bicrit.solve_ns_per_rho.count", "count"),
    ("bicrit.rhos_per_call", "count"),
    ("service.plan_batch_us", "us"),
    ("service.plan_batch_us.p99", "us"),
    ("service.plan_batch_us.count", "count"),
    ("service.batch_size", "count"),
    ("wire.render_us", "us"),
    ("wire.render_us.p99", "us"),
    ("wire.render_us.count", "count"),
    ("server.batch_occupancy.p50.light", "count"),
    ("server.batch_occupancy.p50.busy", "count"),
    ("server.latency_p50_ms.light", "ms"),
    ("server.latency_p50_ms.busy", "ms"),
    ("server.latency_p99_ms.light", "ms"),
    ("server.latency_p99_ms.busy", "ms"),
    ("server.latency_count.light", "count"),
    ("server.latency_count.busy", "count"),
    ("server.outside_ms.light", "ms"),
    ("server.outside_ms.busy", "ms"),
    ("transport.residual_us.light", "us"),
    ("transport.residual_us.busy", "us"),
    ("client.p99_ms.light", "ms"),
    ("client.p99_ms.busy", "ms"),
    ("client.count.light", "count"),
    ("client.count.busy", "count"),
    ("client.behind.light", "flag"),
    ("client.behind.busy", "flag"),
    ("client.lag_p99_ms", "ms"),
    ("client.lag_count", "count"),
    ("client.sent", "count"),
    ("sim.compute_s", "s"),
    ("sweep.compute_s", "s"),
    ("exp.X-mc-mixed_s", "s"),
    ("exp.X-laws_s", "s"),
    ("harness.seal_s", "s"),
    ("harness.sync_s", "s"),
    ("harness.syncs", "count"),
    ("harness.bytes_written", "B"),
    ("harness.verify_s", "s"),
    ("pipeline.residual_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.overhead_pct.reproduce", "%"),
    ("selftest.parse_shift_us", "us"),
    ("selftest.other_shift_us", "us"),
    ("selftest.pass", "flag"),
    ("failed_frac", "frac"),
];

/// Accumulates one run's result.
#[derive(Debug, Default)]
pub struct Report {
    metrics: Vec<(String, f64)>,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Report {
    /// Records a declared metric.
    pub fn put(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    /// Counts `n` attempted operations.
    pub fn attempt(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts `n` failed operations (no-op for 0), noting why.
    pub fn fail(&mut self, n: u64, why: &str) {
        if n > 0 {
            self.failed += n;
            self.notes.push(format!("FAILED x{n}: {why}"));
            eprintln!("perfbench: FAILED x{n}: {why}");
        }
    }

    /// Adds a detail line to the printed report.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Failed over attempted operations so far.
    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Checks that exactly the `declared` metrics were produced, each
    /// once and finite, counting a failure otherwise.
    pub fn check_names(&mut self, declared: &[(&str, &str)]) {
        let mut produced: Vec<&str> = self.metrics.iter().map(|m| m.0.as_str()).collect();
        produced.sort_unstable();
        let mut want: Vec<&str> = declared.iter().map(|d| d.0).collect();
        want.sort_unstable();
        let bad_values = self.metrics.iter().filter(|m| !m.1.is_finite()).count();
        let mismatch = produced != want;
        self.attempt(1);
        self.fail(
            u64::from(mismatch || bad_values > 0),
            "metric set differs from BENCHMARK.json",
        );
    }

    /// The detail lines followed by the final one-line JSON result.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for note in &self.notes {
            let _ = writeln!(out, "# {note}");
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value)| {
                let unit = END_TO_END
                    .iter()
                    .chain(PER_LAYER)
                    .find(|d| d.0 == name)
                    .map_or("?", |d| d.1);
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        let _ = writeln!(
            out,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    fn declared(doc: &Value, key: &str) -> Vec<(String, String)> {
        match doc.get(key) {
            Some(Value::Array(items)) => items
                .iter()
                .map(|m| match (m.get("name"), m.get("unit")) {
                    (Some(Value::String(n)), Some(Value::String(u))) => (n.clone(), u.clone()),
                    other => panic!("malformed metric entry {other:?}"),
                })
                .collect(),
            other => panic!("BENCHMARK.json `{key}` is not an array: {other:?}"),
        }
    }

    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc: Value = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let ours: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(declared(&doc, key), ours, "{key}");
        }
    }

    #[test]
    fn result_line_is_json_with_the_contract_keys() {
        let mut r = Report::default();
        r.put("setup_s", 0.25);
        r.attempt(3);
        r.fail(1, "one failure");
        r.note("detail".into());
        let out = r.render();
        let last = out.lines().last().unwrap();
        let v: Value = serde_json::from_str(last).unwrap();
        assert_eq!(v.get("correct"), Some(&Value::Bool(false)));
        let metric = v.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(metric.get("unit"), Some(&Value::String("s".into())));
        assert!(out.starts_with("# FAILED x1: one failure\n# detail\n"));
        assert!((r.failed_frac() - 1.0 / 3.0).abs() < 1e-12);
    }
}
