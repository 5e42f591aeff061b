//! The newline-delimited JSON wire protocol.
//!
//! One request per line, one response line per request, in request
//! order per connection. Every failure mode — malformed JSON, a
//! non-object, unknown fields, wrong field types, domain violations —
//! produces a structured `{"err": ...}` response on the same
//! connection; the server never answers a request by dropping the
//! socket. Domain rules are not re-implemented here: a parsed request
//! becomes a [`PlanSpec`] and goes through exactly the validation the
//! `rexec-plan` CLI uses.
//!
//! Responses are rendered with Rust's shortest-roundtrip float
//! formatting and a fixed field order, so a response is a deterministic
//! byte string of the (quantized) answer — the property the
//! determinism test pins across batch shapes, worker counts and cache
//! states.

use crate::service::PlanAnswer;
use rexec_cli::spec::{PlanSpec, SpecError};
use serde::Value;
use std::fmt::Write as _;

/// Machine-readable error kinds carried in `{"err":{"kind": ...}}`.
pub mod kind {
    /// The line is not valid JSON.
    pub const PARSE: &str = "parse";
    /// The line is valid JSON but not a usable request object.
    pub const BAD_REQUEST: &str = "bad_request";
    /// The request object carries a field this protocol doesn't know.
    pub const UNKNOWN_FIELD: &str = "unknown_field";
    /// A parameter fails its domain rule (NaN, sign, zero).
    pub const INVALID_VALUE: &str = "invalid_value";
    /// Bad platform/processor name.
    pub const UNKNOWN_NAME: &str = "unknown_name";
    /// Not enough parameters to determine a model.
    pub const UNDERSPECIFIED: &str = "underspecified";
    /// Parameters pass field rules but form no valid model.
    pub const MODEL: &str = "model";
    /// A recognized, well-formed parameter names a capability this
    /// service does not provide (non-exponential laws, schedule search,
    /// quantile bounds — all CLI/simulator-only).
    pub const UNSUPPORTED: &str = "unsupported";
}

/// A wire-level request failure: what to tell the client.
#[derive(Debug, Clone, PartialEq)]
pub struct WireError {
    /// One of the [`kind`] constants.
    pub kind: &'static str,
    /// Human-readable detail.
    pub msg: String,
}

impl WireError {
    fn new(kind: &'static str, msg: impl Into<String>) -> WireError {
        WireError {
            kind,
            msg: msg.into(),
        }
    }
}

/// Maps a shared-validator failure onto its wire kind + message.
pub fn wire_error_from_spec(e: &SpecError) -> WireError {
    let kind = match e {
        SpecError::Invalid { .. } | SpecError::EmptySpeeds => kind::INVALID_VALUE,
        SpecError::UnknownName(_) => kind::UNKNOWN_NAME,
        SpecError::Underspecified(_) => kind::UNDERSPECIFIED,
        SpecError::Model(_) => kind::MODEL,
        SpecError::Unsupported { .. } => kind::UNSUPPORTED,
    };
    WireError::new(kind, e.to_string())
}

fn want_f64(field: &str, v: &Value) -> Result<f64, WireError> {
    match v {
        Value::Number(n) => Ok(n.as_f64()),
        _ => Err(WireError::new(
            kind::BAD_REQUEST,
            format!("field `{field}` must be a number"),
        )),
    }
}

fn want_string(field: &str, v: &Value) -> Result<String, WireError> {
    match v {
        Value::String(s) => Ok(s.clone()),
        _ => Err(WireError::new(
            kind::BAD_REQUEST,
            format!("field `{field}` must be a string"),
        )),
    }
}

/// Parses one request line. Returns the request id (echoed in the
/// response whenever it could be recovered, even for failed requests)
/// and either the spec to plan or the error to report.
pub fn parse_request(line: &str) -> (Option<u64>, Result<PlanSpec, WireError>) {
    let value: Value = match serde_json::from_str(line) {
        Ok(v) => v,
        Err(e) => {
            return (
                None,
                Err(WireError::new(kind::PARSE, format!("malformed JSON: {e}"))),
            )
        }
    };
    let Value::Object(fields) = value else {
        return (
            None,
            Err(WireError::new(
                kind::BAD_REQUEST,
                "request must be a JSON object",
            )),
        );
    };
    // Recover the id first so even failed requests echo it.
    let id = match fields.get("id") {
        None => None,
        Some(Value::Number(n)) => match n.as_u64() {
            Some(id) => Some(id),
            None => {
                return (
                    None,
                    Err(WireError::new(
                        kind::BAD_REQUEST,
                        "field `id` must be a non-negative integer",
                    )),
                )
            }
        },
        Some(_) => {
            return (
                None,
                Err(WireError::new(
                    kind::BAD_REQUEST,
                    "field `id` must be a non-negative integer",
                )),
            )
        }
    };
    let mut spec = PlanSpec::default();
    for (key, v) in &fields {
        let result = match key.as_str() {
            "id" => Ok(()),
            "platform" => want_string(key, v).map(|s| spec.platform = Some(s)),
            "processor" => want_string(key, v).map(|s| spec.processor = Some(s)),
            "lambda" => want_f64(key, v).map(|x| spec.lambda = Some(x)),
            "checkpoint" => want_f64(key, v).map(|x| spec.checkpoint = Some(x)),
            "verification" => want_f64(key, v).map(|x| spec.verification = Some(x)),
            "recovery" => want_f64(key, v).map(|x| spec.recovery = Some(x)),
            "kappa" => want_f64(key, v).map(|x| spec.kappa = Some(x)),
            "pidle" => want_f64(key, v).map(|x| spec.pidle = Some(x)),
            "pio" => want_f64(key, v).map(|x| spec.pio = Some(x)),
            "rho" => want_f64(key, v).map(|x| spec.rho = Some(x)),
            "law" => want_string(key, v).map(|s| spec.law = Some(s)),
            "shape" => want_f64(key, v).map(|x| spec.shape = Some(x)),
            "quantile" => want_f64(key, v).map(|x| spec.quantile = Some(x)),
            "schedule_depth" => match v {
                Value::Number(n) => match n.as_u64().and_then(|d| u32::try_from(d).ok()) {
                    Some(d) => {
                        spec.schedule_depth = Some(d);
                        Ok(())
                    }
                    None => Err(WireError::new(
                        kind::BAD_REQUEST,
                        "field `schedule_depth` must be a small non-negative integer",
                    )),
                },
                _ => Err(WireError::new(
                    kind::BAD_REQUEST,
                    "field `schedule_depth` must be a small non-negative integer",
                )),
            },
            "speeds" => match v {
                Value::Array(items) => items
                    .iter()
                    .map(|item| want_f64(key, item))
                    .collect::<Result<Vec<f64>, WireError>>()
                    .map(|s| spec.speeds = Some(s)),
                _ => Err(WireError::new(
                    kind::BAD_REQUEST,
                    "field `speeds` must be an array of numbers",
                )),
            },
            unknown => Err(WireError::new(
                kind::UNKNOWN_FIELD,
                format!("unknown field `{unknown}`"),
            )),
        };
        if let Err(e) = result {
            return (id, Err(e));
        }
    }
    (id, Ok(spec))
}

fn push_id(out: &mut String, id: Option<u64>) {
    if let Some(id) = id {
        let _ = write!(out, "\"id\":{id},");
    }
}

fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Renders a successful answer as one response line (no trailing
/// newline; the transport adds it). Fixed field order, shortest-
/// roundtrip floats: the same answer always renders to the same bytes.
pub fn render_answer(out: &mut String, id: Option<u64>, answer: &PlanAnswer) {
    out.push('{');
    push_id(out, id);
    out.push_str("\"digest\":");
    push_json_string(out, &answer.digest);
    let _ = write!(out, ",\"rho\":{}", answer.rho);
    match &answer.solution {
        Some(s) => {
            let _ = write!(
                out,
                ",\"feasible\":true,\"sigma1\":{},\"sigma2\":{},\"wopt\":{},\
                 \"energy_overhead\":{},\"time_overhead\":{}",
                s.sigma1, s.sigma2, s.w_opt, s.energy_overhead, s.time_overhead
            );
        }
        None => {
            out.push_str(",\"feasible\":false");
            if let Some(floor) = answer.min_rho {
                let _ = write!(out, ",\"min_rho\":{floor}");
            }
        }
    }
    out.push('}');
}

/// Renders an error response line.
pub fn render_error(out: &mut String, id: Option<u64>, err: &WireError) {
    out.push('{');
    push_id(out, id);
    out.push_str("\"err\":{\"kind\":");
    push_json_string(out, err.kind);
    out.push_str(",\"msg\":");
    push_json_string(out, &err.msg);
    out.push_str("}}");
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn round_trips_a_full_request() {
        let (id, spec) = parse_request(
            r#"{"id":7,"platform":"hera","processor":"xscale","rho":1.775,"lambda":1e-5,"speeds":[0.25,0.5,1.0]}"#,
        );
        assert_eq!(id, Some(7));
        let spec = spec.unwrap();
        assert_eq!(spec.platform.as_deref(), Some("hera"));
        assert_eq!(spec.rho, Some(1.775));
        assert_eq!(spec.lambda, Some(1e-5));
        assert_eq!(spec.speeds, Some(vec![0.25, 0.5, 1.0]));
    }

    #[test]
    fn malformed_json_is_a_parse_error() {
        let (id, r) = parse_request("{not json");
        assert_eq!(id, None);
        assert_eq!(r.unwrap_err().kind, kind::PARSE);
    }

    #[test]
    fn non_objects_and_bad_ids_are_bad_requests() {
        assert_eq!(
            parse_request("[1,2]").1.unwrap_err().kind,
            kind::BAD_REQUEST
        );
        assert_eq!(parse_request("42").1.unwrap_err().kind, kind::BAD_REQUEST);
        let (id, r) = parse_request(r#"{"id":-3,"platform":"hera"}"#);
        assert_eq!(id, None);
        assert_eq!(r.unwrap_err().kind, kind::BAD_REQUEST);
    }

    #[test]
    fn unknown_fields_are_rejected_but_keep_the_id() {
        let (id, r) = parse_request(r#"{"id":9,"platform":"hera","turbo":true}"#);
        assert_eq!(id, Some(9));
        let e = r.unwrap_err();
        assert_eq!(e.kind, kind::UNKNOWN_FIELD);
        assert!(e.msg.contains("turbo"));
    }

    #[test]
    fn wrong_types_are_rejected_with_the_field_name() {
        let (_, r) = parse_request(r#"{"lambda":"fast"}"#);
        let e = r.unwrap_err();
        assert_eq!(e.kind, kind::BAD_REQUEST);
        assert!(e.msg.contains("lambda"));
        let (_, r) = parse_request(r#"{"speeds":[0.5,"x"]}"#);
        assert_eq!(r.unwrap_err().kind, kind::BAD_REQUEST);
    }

    #[test]
    fn scenario_fields_parse_into_the_spec() {
        let (_, spec) = parse_request(
            r#"{"platform":"hera","law":"weibull","shape":0.7,"schedule_depth":2,"quantile":0.99}"#,
        );
        let spec = spec.unwrap();
        assert_eq!(spec.law.as_deref(), Some("weibull"));
        assert_eq!(spec.shape, Some(0.7));
        assert_eq!(spec.schedule_depth, Some(2));
        assert_eq!(spec.quantile, Some(0.99));
        // Wrong types are named bad requests, not silent drops.
        let (_, r) = parse_request(r#"{"law":7}"#);
        assert_eq!(r.unwrap_err().kind, kind::BAD_REQUEST);
        let (_, r) = parse_request(r#"{"schedule_depth":1.5}"#);
        let e = r.unwrap_err();
        assert_eq!(e.kind, kind::BAD_REQUEST);
        assert!(e.msg.contains("schedule_depth"));
        let (_, r) = parse_request(r#"{"schedule_depth":-1}"#);
        assert_eq!(r.unwrap_err().kind, kind::BAD_REQUEST);
    }

    #[test]
    fn spec_errors_map_to_stable_kinds() {
        let invalid = SpecError::Invalid {
            field: "lambda",
            value: -1.0,
            reason: "must be strictly positive",
        };
        assert_eq!(wire_error_from_spec(&invalid).kind, kind::INVALID_VALUE);
        assert_eq!(
            wire_error_from_spec(&SpecError::UnknownName("jupiter".into())).kind,
            kind::UNKNOWN_NAME
        );
        assert_eq!(
            wire_error_from_spec(&SpecError::Underspecified("lambda")).kind,
            kind::UNDERSPECIFIED
        );
        let unsupported = SpecError::Unsupported {
            field: "law",
            reason: "memorylessness required",
        };
        let w = wire_error_from_spec(&unsupported);
        assert_eq!(w.kind, kind::UNSUPPORTED);
        assert!(w.msg.contains("law"));
    }

    #[test]
    fn rendering_is_deterministic_and_valid_json() {
        let answer = PlanAnswer {
            digest: Arc::from("fnv1a:00ff00ff00ff00ff"),
            rho: 3.0,
            solution: None,
            min_rho: Some(1.4203125),
        };
        let mut a = String::new();
        render_answer(&mut a, Some(3), &answer);
        let mut b = String::new();
        render_answer(&mut b, Some(3), &answer);
        assert_eq!(a, b);
        let v: Value = serde_json::from_str(&a).expect("response is valid JSON");
        assert_eq!(v.get("feasible"), Some(&Value::Bool(false)));
        assert!(a.contains("\"min_rho\":1.4203125"));
        assert!(a.starts_with("{\"id\":3,"));
    }

    #[test]
    fn error_rendering_escapes_messages() {
        let mut out = String::new();
        render_error(
            &mut out,
            None,
            &WireError::new(kind::PARSE, "bad \"quote\"\nline"),
        );
        let v: Value = serde_json::from_str(&out).expect("error response is valid JSON");
        let err = v.get("err").expect("err object");
        assert_eq!(err.get("kind"), Some(&Value::String("parse".into())));
        assert!(!out.contains('\n'), "newlines escaped: {out}");
    }
}
