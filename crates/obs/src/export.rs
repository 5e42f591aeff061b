//! Exporters over the registry snapshot: Prometheus text exposition and
//! a strict in-repo format checker for it.
//!
//! The exposition is rendered straight from the live [`Registry`] in a
//! fixed section order (counters, gauges, histogram summaries, span
//! summaries), each section alphabetical, with label sets sorted — so
//! the output is stable across runs for identical metric values, and
//! the counter/histogram lines inherit the registry's thread-count
//! byte-identity guarantee.

use crate::metrics::SpanStat;
use crate::registry::Registry;
use crate::sketch::HistogramSketch;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Prometheus metric-name prefix for everything this workspace exports.
const NAMESPACE: &str = "rexec_";

/// Maps a dotted registry name to a Prometheus metric name:
/// `bicrit.pairs_evaluated` → `rexec_bicrit_pairs_evaluated`. Any
/// character outside `[a-zA-Z0-9_:]` becomes `_`; a leading digit gets
/// an underscore prefix. Registry names must stay collision-free under
/// this mapping (they are: the workspace uses `[a-z0-9_.]` names).
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(NAMESPACE.len() + name.len());
    out.push_str(NAMESPACE);
    for (i, ch) in name.chars().enumerate() {
        if ch.is_ascii_alphanumeric() || ch == '_' || ch == ':' {
            if i == 0 && ch.is_ascii_digit() {
                out.push('_');
            }
            out.push(ch);
        } else {
            out.push('_');
        }
    }
    out
}

/// A float in Prometheus sample syntax (`+Inf` / `-Inf` / `NaN`
/// spellings; integers render without a fraction).
fn prom_value(v: f64) -> String {
    if v.is_nan() {
        "NaN".to_string()
    } else if v == f64::INFINITY {
        "+Inf".to_string()
    } else if v == f64::NEG_INFINITY {
        "-Inf".to_string()
    } else {
        format!("{v}")
    }
}

fn sketch_family(out: &mut String, name: &str, sketch: &HistogramSketch) {
    let fam = prom_name(name);
    let _ = writeln!(out, "# TYPE {fam} summary");
    if sketch.count() > 0 {
        // Label sets carry exactly one label here; keys within a set and
        // the quantile values themselves are emitted in sorted order.
        for q in [0.5, 0.9, 0.99] {
            if let Some(v) = sketch.quantile(q) {
                let _ = writeln!(out, "{fam}{{quantile=\"{q}\"}} {}", prom_value(v));
            }
        }
    }
    let _ = writeln!(out, "{fam}_count {}", sketch.count());
    if sketch.count() > 0 {
        let _ = writeln!(out, "# TYPE {fam}_min gauge");
        let _ = writeln!(out, "{fam}_min {}", prom_value(sketch.min()));
        let _ = writeln!(out, "# TYPE {fam}_max gauge");
        let _ = writeln!(out, "{fam}_max {}", prom_value(sketch.max()));
    }
}

fn span_family(out: &mut String, name: &str, stat: &SpanStat) {
    let fam = format!("{}_seconds", prom_name(name));
    let _ = writeln!(out, "# TYPE {fam} summary");
    let _ = writeln!(
        out,
        "{fam}_sum {}",
        prom_value(stat.total_nanos() as f64 / 1e9)
    );
    let _ = writeln!(out, "{fam}_count {}", stat.count());
    let _ = writeln!(out, "# TYPE {fam}_max gauge");
    let _ = writeln!(
        out,
        "{fam}_max {}",
        prom_value(stat.max_nanos() as f64 / 1e9)
    );
}

/// Renders the registry as Prometheus text exposition (format 0.0.4).
///
/// Counters become `<name>_total` counter families; gauges map
/// directly; histogram sketches become summaries (`quantile` labels
/// 0.5/0.9/0.99, plus `_count` and separate `_min`/`_max` gauges); span
/// stats become `<name>_seconds` summaries with `_sum`/`_count` and a
/// `_max` gauge. Output always passes [`check_prometheus_text`].
pub fn prometheus_text(registry: &Registry) -> String {
    let mut out = String::new();
    for (name, value) in registry.counters() {
        let fam = format!("{}_total", prom_name(&name));
        let _ = writeln!(out, "# TYPE {fam} counter");
        let _ = writeln!(out, "{fam} {value}");
    }
    for (name, value) in registry.gauges() {
        let fam = prom_name(&name);
        let _ = writeln!(out, "# TYPE {fam} gauge");
        let _ = writeln!(out, "{fam} {}", prom_value(value));
    }
    for (name, sketch) in registry.sketches() {
        sketch_family(&mut out, &name, &sketch);
    }
    for (name, stat) in registry.span_stats() {
        span_family(&mut out, &name, &stat);
    }
    out
}

// ---------------------------------------------------------------------
// Strict format checker
// ---------------------------------------------------------------------

fn is_metric_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_' || c == ':')
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn is_label_name(s: &str) -> bool {
    !s.is_empty()
        && s.chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphabetic() || c == '_')
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

fn is_sample_value(s: &str) -> bool {
    matches!(s, "+Inf" | "-Inf" | "NaN") || s.parse::<f64>().is_ok()
}

/// Splits `name{a="x",b="y"}` into the name and its sorted label names,
/// validating label syntax, escaping, uniqueness and sort order.
fn parse_sample_name(s: &str, line_no: usize) -> Result<(String, Vec<String>), String> {
    let Some(brace) = s.find('{') else {
        if !is_metric_name(s) {
            return Err(format!("line {line_no}: invalid metric name `{s}`"));
        }
        return Ok((s.to_string(), vec![]));
    };
    let (name, rest) = s.split_at(brace);
    if !is_metric_name(name) {
        return Err(format!("line {line_no}: invalid metric name `{name}`"));
    }
    let Some(body) = rest.strip_prefix('{').and_then(|r| r.strip_suffix('}')) else {
        return Err(format!("line {line_no}: unbalanced label braces in `{s}`"));
    };
    let mut labels = vec![];
    let mut chars = body.chars().peekable();
    while chars.peek().is_some() {
        let label: String = chars.by_ref().take_while(|&c| c != '=').collect();
        if !is_label_name(&label) {
            return Err(format!("line {line_no}: invalid label name `{label}`"));
        }
        if chars.next() != Some('"') {
            return Err(format!("line {line_no}: label `{label}` value not quoted"));
        }
        let mut closed = false;
        while let Some(c) = chars.next() {
            match c {
                '"' => {
                    closed = true;
                    break;
                }
                '\\' => match chars.next() {
                    Some('"' | '\\' | 'n') => {}
                    other => {
                        return Err(format!(
                            "line {line_no}: bad escape {other:?} in label `{label}`"
                        ))
                    }
                },
                '\n' => {
                    return Err(format!("line {line_no}: newline in label `{label}`"));
                }
                _ => {}
            }
        }
        if !closed {
            return Err(format!("line {line_no}: unterminated value for `{label}`"));
        }
        labels.push(label);
        match chars.next() {
            None => break,
            Some(',') => {}
            Some(other) => {
                return Err(format!(
                    "line {line_no}: expected `,` between labels, found {other:?}"
                ))
            }
        }
    }
    for pair in labels.windows(2) {
        if pair[0] >= pair[1] {
            return Err(format!(
                "line {line_no}: label set not sorted/unique: `{}` before `{}`",
                pair[0], pair[1]
            ));
        }
    }
    Ok((name.to_string(), labels))
}

/// The metric family a sample belongs to: strips the conventional
/// `_total` / `_sum` / `_count` / `_bucket` suffixes.
fn family_of(sample_name: &str, declared: &BTreeMap<String, String>) -> String {
    if declared.contains_key(sample_name) {
        return sample_name.to_string();
    }
    for suffix in ["_sum", "_count", "_bucket"] {
        if let Some(stem) = sample_name.strip_suffix(suffix) {
            if declared.contains_key(stem) {
                return stem.to_string();
            }
        }
    }
    sample_name.to_string()
}

/// Strict validator for Prometheus text exposition (format 0.0.4).
///
/// Enforces, beyond what lenient scrapers accept:
/// * every sample's family is declared by a preceding `# TYPE` line,
///   exactly one `# TYPE` per family, no family interleaving;
/// * `counter` samples use the `_total` suffix convention and have
///   non-negative values; `summary` families contain only `quantile`d
///   base samples, `_sum` and `_count`; `histogram` families require a
///   `+Inf` `_bucket`;
/// * metric and label names match the Prometheus grammar, label sets
///   are sorted and duplicate-free, values parse (`+Inf`/`-Inf`/`NaN`
///   allowed), and the text ends with a newline.
pub fn check_prometheus_text(text: &str) -> Result<(), String> {
    if text.is_empty() {
        return Err("empty exposition".to_string());
    }
    if !text.ends_with('\n') {
        return Err("exposition must end with a newline".to_string());
    }
    let mut types: BTreeMap<String, String> = BTreeMap::new();
    let mut finished: Vec<String> = vec![];
    let mut current: Option<String> = None;
    let mut saw_inf_bucket = false;

    let close_family = |current: &mut Option<String>,
                        finished: &mut Vec<String>,
                        saw_inf: &mut bool,
                        types: &BTreeMap<String, String>|
     -> Result<(), String> {
        if let Some(prev) = current.take() {
            if types.get(&prev).map(String::as_str) == Some("histogram") && !*saw_inf {
                return Err(format!("histogram `{prev}` has no +Inf bucket"));
            }
            finished.push(prev);
        }
        *saw_inf = false;
        Ok(())
    };

    for (i, line) in text.lines().enumerate() {
        let line_no = i + 1;
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let mut parts = comment.trim_start().splitn(3, ' ');
            match parts.next() {
                Some("TYPE") => {
                    let name = parts
                        .next()
                        .ok_or_else(|| format!("line {line_no}: TYPE without a name"))?;
                    let kind = parts
                        .next()
                        .ok_or_else(|| format!("line {line_no}: TYPE without a type"))?;
                    if !is_metric_name(name) {
                        return Err(format!("line {line_no}: invalid TYPE name `{name}`"));
                    }
                    if !matches!(
                        kind,
                        "counter" | "gauge" | "summary" | "histogram" | "untyped"
                    ) {
                        return Err(format!("line {line_no}: unknown type `{kind}`"));
                    }
                    if types.insert(name.to_string(), kind.to_string()).is_some() {
                        return Err(format!("line {line_no}: duplicate TYPE for `{name}`"));
                    }
                    close_family(&mut current, &mut finished, &mut saw_inf_bucket, &types)?;
                    current = Some(name.to_string());
                }
                Some("HELP") => {
                    if parts.next().filter(|n| is_metric_name(n)).is_none() {
                        return Err(format!("line {line_no}: HELP without a valid name"));
                    }
                }
                _ => return Err(format!("line {line_no}: unknown comment directive")),
            }
            continue;
        }

        // Sample line: name[{labels}] value [timestamp]
        let mut fields = line.split_whitespace();
        let name_part = fields
            .next()
            .ok_or_else(|| format!("line {line_no}: empty sample"))?;
        let value = fields
            .next()
            .ok_or_else(|| format!("line {line_no}: sample without a value"))?;
        if !is_sample_value(value) {
            return Err(format!("line {line_no}: unparsable value `{value}`"));
        }
        if let Some(ts) = fields.next() {
            if ts.parse::<i64>().is_err() {
                return Err(format!("line {line_no}: unparsable timestamp `{ts}`"));
            }
        }
        if fields.next().is_some() {
            return Err(format!("line {line_no}: trailing fields"));
        }

        let (name, labels) = parse_sample_name(name_part, line_no)?;
        let family = family_of(&name, &types);
        let Some(kind) = types.get(&family) else {
            return Err(format!(
                "line {line_no}: sample `{name}` has no preceding TYPE"
            ));
        };
        if current.as_deref() != Some(family.as_str()) {
            let msg = if finished.contains(&family) {
                format!("line {line_no}: family `{family}` is interleaved")
            } else {
                format!("line {line_no}: sample `{name}` outside its TYPE block")
            };
            return Err(msg);
        }
        match kind.as_str() {
            "counter" => {
                if !name.ends_with("_total") {
                    return Err(format!(
                        "line {line_no}: counter sample `{name}` lacks the _total suffix"
                    ));
                }
                if value.parse::<f64>().is_ok_and(|v| v < 0.0) {
                    return Err(format!("line {line_no}: negative counter `{name}`"));
                }
            }
            "summary" => {
                if name == family {
                    if labels != ["quantile"] {
                        return Err(format!(
                            "line {line_no}: summary sample `{name}` needs exactly a quantile label"
                        ));
                    }
                } else if name != format!("{family}_sum") && name != format!("{family}_count") {
                    return Err(format!(
                        "line {line_no}: `{name}` is not a valid summary series of `{family}`"
                    ));
                }
            }
            "histogram" if name == format!("{family}_bucket") => {
                if !labels.contains(&"le".to_string()) {
                    return Err(format!("line {line_no}: bucket without an `le` label"));
                }
                if name_part.contains("le=\"+Inf\"") {
                    saw_inf_bucket = true;
                }
            }
            _ => {}
        }
    }
    close_family(&mut current, &mut finished, &mut saw_inf_bucket, &types)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exposition_of_a_populated_registry_passes_the_checker() {
        let r = Registry::new();
        r.counter("bicrit.pairs_evaluated").add(25);
        r.counter("sweep.point_errors").incr();
        r.gauge("runner.trials_per_sec").set(1.25e6);
        r.gauge("weird.value").set(f64::INFINITY);
        r.sketch("runner.attempts_per_trial").record(1.0);
        r.sketch("runner.attempts_per_trial").record(3.0);
        r.sketch("empty.sketch"); // registered, never recorded
        r.set_spans_enabled(true);
        drop(r.span("bicrit.solve"));

        let text = prometheus_text(&r);
        check_prometheus_text(&text).expect("strict checker must accept our own exposition");
        assert!(text.contains("# TYPE rexec_bicrit_pairs_evaluated_total counter"));
        assert!(text.contains("rexec_bicrit_pairs_evaluated_total 25"));
        assert!(text.contains("rexec_runner_trials_per_sec 1250000"));
        assert!(text.contains("rexec_weird_value +Inf"));
        assert!(text.contains("rexec_runner_attempts_per_trial{quantile=\"0.5\"}"));
        assert!(text.contains("rexec_runner_attempts_per_trial_count 2"));
        assert!(text.contains("rexec_empty_sketch_count 0"));
        assert!(!text.contains("rexec_empty_sketch_min"));
        assert!(text.contains("rexec_bicrit_solve_seconds_sum"));
        assert!(text.contains("rexec_bicrit_solve_seconds_count 1"));
    }

    #[test]
    fn exposition_is_stable_across_renders() {
        let r = Registry::new();
        r.counter("z.second").add(2);
        r.counter("a.first").add(1);
        r.sketch("lat").record(0.5);
        let a = prometheus_text(&r);
        let b = prometheus_text(&r);
        assert_eq!(a, b);
        let first = a.find("rexec_a_first_total").unwrap();
        let second = a.find("rexec_z_second_total").unwrap();
        assert!(first < second, "families must be alphabetical");
    }

    #[test]
    fn checker_rejects_malformed_expositions() {
        let cases: &[(&str, &str)] = &[
            ("", "empty"),
            ("rexec_x_total 1", "newline"),
            ("rexec_x_total 1\n", "no preceding TYPE"),
            ("# TYPE rexec_x wibble\nrexec_x 1\n", "unknown type"),
            (
                "# TYPE rexec_x counter\nrexec_x 1\n",
                "lacks the _total suffix",
            ),
            (
                "# TYPE rexec_x_total counter\nrexec_x_total -1\n",
                "negative counter",
            ),
            (
                "# TYPE rexec_x_total counter\nrexec_x_total abc\n",
                "unparsable value",
            ),
            (
                "# TYPE rexec_x gauge\n# TYPE rexec_x gauge\nrexec_x 1\n",
                "duplicate TYPE",
            ),
            (
                "# TYPE rexec_a gauge\nrexec_a 1\n# TYPE rexec_b gauge\nrexec_b 2\nrexec_a 3\n",
                "is interleaved",
            ),
            (
                "# TYPE rexec_s summary\nrexec_s{quantile=\"0.9\",aaa=\"x\"} 1\n",
                "not sorted",
            ),
            (
                "# TYPE rexec_s summary\nrexec_s{q=\"0.9\"} 1\n",
                "quantile label",
            ),
            ("# TYPE 9bad gauge\n9bad 1\n", "invalid TYPE name"),
            (
                "# TYPE rexec_h histogram\nrexec_h_bucket{le=\"1\"} 1\n",
                "+Inf bucket",
            ),
        ];
        for (text, want) in cases {
            let err = check_prometheus_text(text).expect_err(text);
            assert!(
                err.contains(want),
                "`{text}` should fail with `{want}`, got `{err}`"
            );
        }
    }

    #[test]
    fn checker_accepts_labels_escapes_and_timestamps() {
        let text = "\
# HELP rexec_g a gauge with labels
# TYPE rexec_g gauge
rexec_g{a=\"x\\\"y\",b=\"z\"} 1.5 1700000000
# TYPE rexec_h histogram
rexec_h_bucket{le=\"0.1\"} 1
rexec_h_bucket{le=\"+Inf\"} 2
rexec_h_sum 0.3
rexec_h_count 2
";
        check_prometheus_text(text).unwrap();
    }
}
