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
//! [`parse_request`] reads a line in one pass over its bytes, straight
//! into a [`PlanSpec`], without building a JSON value tree. It accepts
//! exactly what the vendored `serde_json` parser accepts, and a line's
//! outcome is decided in this order:
//!
//! 1. a line that is not valid JSON gets `parse`, with the vendored
//!    parser's message and byte offset. Nesting arrays and objects more
//!    than 128 levels deep counts as invalid JSON;
//! 2. valid JSON that is not an object gets `bad_request`;
//! 3. an `id` that is not a non-negative integer gets `bad_request`,
//!    and no id is echoed;
//! 4. otherwise the first failing key in ascending byte order, after
//!    unescaping, decides: a mistyped field gets `bad_request`, an
//!    unknown key gets `unknown_field`.
//!
//! The keys and the [`PlanSpec`] slot each fills come from
//! [`FIELDS`], the field table `rexec-plan`'s argument parser also
//! reads; `id` is the only key of the wire alone. The scanner dispatches
//! on a row's value kind, never on a field, so a new table row needs no
//! change here.
//!
//! A key given twice takes its last value. Numbers go through
//! `serde::Number` (`as_f64`, `as_u64`) like every other JSON number in
//! the workspace. `tests/wire_differential.rs` holds all of this against
//! the value-tree parser this one replaced.
//!
//! Responses are rendered in a fixed field order, without `core::fmt`:
//! numbers go through the crate's own decimal writer, whose `f64` text
//! is the shortest round-trip digits laid out byte for byte as `{}`
//! lays them out (Ryu with ties rounded half up, tables built at
//! compile time), and strings with nothing to escape are copied whole.
//! A response is a deterministic byte string of the (quantized) answer
//! — the property the determinism test pins across batch shapes,
//! worker counts and cache states.

use crate::decimal;
use crate::service::PlanAnswer;
use rexec_cli::spec::{Field, PlanSpec, Slot, SpecError, FIELDS};
use serde::Number;
use std::borrow::Cow;

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
        SpecError::UnknownName { .. } => kind::UNKNOWN_NAME,
        SpecError::Underspecified(_) => kind::UNDERSPECIFIED,
        SpecError::Model(_) => kind::MODEL,
        SpecError::Unsupported { .. } => kind::UNSUPPORTED,
    };
    WireError::new(kind, e.to_string())
}

/// Deepest nesting of arrays and objects a request line may carry: the
/// vendored `serde_json` parser's bound (upstream `serde_json`'s
/// recursion limit), so a deep line is a `parse` error, not a stack
/// overflow.
const MAX_DEPTH: usize = 128;

/// The error for a value of the wrong type; `in_array` marks a speed
/// list holding a non-number.
fn type_error(field: &Field, in_array: bool) -> WireError {
    let key = field.key;
    let msg = match field.slot {
        Slot::Depth(_) => format!("field `{key}` must be a small non-negative integer"),
        Slot::Speeds(_) if !in_array => format!("field `{key}` must be an array of numbers"),
        Slot::Text(_) => format!("field `{key}` must be a string"),
        _ => format!("field `{key}` must be a number"),
    };
    WireError::new(kind::BAD_REQUEST, msg)
}

// One bit of `Request::wrong` per field.
const _: () = assert!(FIELDS.len() <= u32::BITS as usize);

/// What one scan of a request line collected. Duplicate keys overwrite
/// earlier ones, so the last occurrence of a field wins.
#[derive(Default)]
struct Request<'a> {
    /// The line's value is an object.
    is_object: bool,
    /// The last `id`, if it was a non-negative integer.
    id: Option<u64>,
    /// The last `id` was not a non-negative integer.
    bad_id: bool,
    /// Every well-typed field's last value.
    spec: PlanSpec,
    /// Bit `i` is set when the last value of [`FIELDS`]`[i]` had the
    /// wrong type.
    wrong: u32,
    /// Bit `i` is set when that wrong value was an array holding a
    /// non-number.
    in_array: u32,
    /// The least unknown key.
    unknown: Option<Cow<'a, str>>,
}

impl Request<'_> {
    /// Applies the request rules to a line that is valid JSON: a
    /// non-object is a bad request, then a bad `id`, then the first
    /// failing key in byte order (a mistyped field or an unknown key).
    fn finish(self) -> (Option<u64>, Result<PlanSpec, WireError>) {
        if !self.is_object {
            return (
                None,
                Err(WireError::new(
                    kind::BAD_REQUEST,
                    "request must be a JSON object",
                )),
            );
        }
        if self.bad_id {
            let msg = "field `id` must be a non-negative integer";
            return (None, Err(WireError::new(kind::BAD_REQUEST, msg)));
        }
        let unknown =
            |key: &str| WireError::new(kind::UNKNOWN_FIELD, format!("unknown field `{key}`"));
        // FIELDS is in key byte order, so the lowest bit is the least key.
        let first_wrong = (self.wrong != 0).then(|| self.wrong.trailing_zeros() as usize);
        let result = match (first_wrong, self.unknown) {
            (Some(i), Some(key)) if *key < *FIELDS[i].key => Err(unknown(&key)),
            (Some(i), _) => Err(type_error(&FIELDS[i], self.in_array >> i & 1 != 0)),
            (None, Some(key)) => Err(unknown(&key)),
            (None, None) => Ok(self.spec),
        };
        (self.id, result)
    }
}

/// A scan step; `Err` carries the message the vendored parser gives for
/// the same line.
type Syntax<T> = Result<T, serde_json::Error>;

/// A single pass over a request line's bytes. It accepts exactly what
/// the vendored `serde_json` parser accepts and fails with the same
/// message at the same byte, but builds no value tree: request fields go
/// straight into a [`Request`], everything else is only checked.
struct Scanner<'a> {
    line: &'a str,
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: usize,
}

impl<'a> Scanner<'a> {
    fn bytes(&self) -> &'a [u8] {
        self.line.as_bytes()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Syntax<()> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(serde_json::Error::msg(format!(
                "expected `{}` at byte {}",
                b as char, self.pos
            )))
        }
    }

    /// Scans the whole line into `req`.
    fn request(&mut self, req: &mut Request<'a>) -> Syntax<()> {
        self.skip_ws();
        if self.peek() == Some(b'{') {
            req.is_object = true;
            self.object(|s, key| s.member(key, req))?;
        } else {
            self.value()?;
        }
        self.skip_ws();
        if self.pos != self.line.len() {
            return Err(serde_json::Error::msg(format!(
                "trailing characters at byte {}",
                self.pos
            )));
        }
        Ok(())
    }

    /// Scans one object member's value into `req`.
    fn member(&mut self, key: Cow<'a, str>, req: &mut Request<'a>) -> Syntax<()> {
        if key == "id" {
            req.id = self.number_or_skip()?.and_then(|n| n.as_u64());
            req.bad_id = req.id.is_none();
            return Ok(());
        }
        let Some(i) = FIELDS.iter().position(|f| f.key == key) else {
            self.value()?;
            if req.unknown.as_ref().is_none_or(|least| key < *least) {
                req.unknown = Some(key);
            }
            return Ok(());
        };
        let spec = &mut req.spec;
        let mut in_array = false;
        let well_typed = match FIELDS[i].slot {
            Slot::Number(slot) => self
                .number_or_skip()?
                .map(|n| *slot(spec) = Some(n.as_f64()))
                .is_some(),
            Slot::Text(slot) => self
                .string_or_skip()?
                .map(|s| *slot(spec) = Some(s))
                .is_some(),
            Slot::Depth(slot) => self
                .number_or_skip()?
                .and_then(|n| n.as_u64())
                .and_then(|d| u32::try_from(d).ok())
                .map(|d| *slot(spec) = Some(d))
                .is_some(),
            Slot::Speeds(slot) if self.peek() == Some(b'[') => {
                let mut speeds = Vec::new();
                let mut numbers = true;
                self.array(|s| {
                    match s.number_or_skip()? {
                        Some(n) => speeds.push(n.as_f64()),
                        None => numbers = false,
                    }
                    Ok(())
                })?;
                if numbers {
                    *slot(spec) = Some(speeds);
                }
                in_array = !numbers;
                numbers
            }
            Slot::Speeds(_) => {
                self.value()?;
                false
            }
        };
        let bit = 1 << i;
        req.wrong = (req.wrong & !bit) | if well_typed { 0 } else { bit };
        req.in_array = (req.in_array & !bit) | if in_array { bit } else { 0 };
        Ok(())
    }

    /// The number at `pos`, or `None` after checking a value of any
    /// other type.
    fn number_or_skip(&mut self) -> Syntax<Option<Number>> {
        match self.peek() {
            Some(b'-' | b'0'..=b'9') => self.number().map(Some),
            _ => self.value().map(|()| None),
        }
    }

    /// The string at `pos`, or `None` after checking a value of any
    /// other type.
    fn string_or_skip(&mut self) -> Syntax<Option<String>> {
        match self.peek() {
            Some(b'"') => self.string().map(|s| Some(s.into_owned())),
            _ => self.value().map(|()| None),
        }
    }

    /// Checks one value of any type.
    fn value(&mut self) -> Syntax<()> {
        match self.peek() {
            Some(b'n') => self.literal("null"),
            Some(b't') => self.literal("true"),
            Some(b'f') => self.literal("false"),
            Some(b'"') => self.string().map(drop),
            Some(b'[') => self.array(Self::value),
            Some(b'{') => self.object(|s, _| s.value()),
            Some(b'-' | b'0'..=b'9') => self.number().map(drop),
            other => Err(serde_json::Error::msg(format!(
                "unexpected {:?} at byte {}",
                other.map(|b| b as char),
                self.pos
            ))),
        }
    }

    fn literal(&mut self, word: &str) -> Syntax<()> {
        if self.bytes()[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(())
        } else {
            Err(serde_json::Error::msg(format!(
                "invalid literal at byte {}",
                self.pos
            )))
        }
    }

    /// Opens an array or object, failing past [`MAX_DEPTH`].
    fn enter(&mut self, open: u8) -> Syntax<()> {
        if self.depth == MAX_DEPTH {
            return Err(serde_json::Error::msg(format!(
                "recursion limit exceeded at byte {}",
                self.pos
            )));
        }
        self.depth += 1;
        self.expect(open)
    }

    /// Scans an array, handing each item to `item`.
    fn array(&mut self, mut item: impl FnMut(&mut Self) -> Syntax<()>) -> Syntax<()> {
        self.enter(b'[')?;
        self.skip_ws();
        if self.peek() != Some(b']') {
            loop {
                self.skip_ws();
                item(self)?;
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b']') => break,
                    _ => {
                        return Err(serde_json::Error::msg(format!(
                            "expected , or ] at byte {}",
                            self.pos
                        )))
                    }
                }
            }
        }
        self.pos += 1;
        self.depth -= 1;
        Ok(())
    }

    /// Scans an object, handing each member's key to `member`, which
    /// scans the value.
    fn object(
        &mut self,
        mut member: impl FnMut(&mut Self, Cow<'a, str>) -> Syntax<()>,
    ) -> Syntax<()> {
        self.enter(b'{')?;
        self.skip_ws();
        if self.peek() != Some(b'}') {
            loop {
                self.skip_ws();
                let key = self.string()?;
                self.skip_ws();
                self.expect(b':')?;
                self.skip_ws();
                member(self, key)?;
                self.skip_ws();
                match self.peek() {
                    Some(b',') => self.pos += 1,
                    Some(b'}') => break,
                    _ => {
                        return Err(serde_json::Error::msg(format!(
                            "expected , or }} at byte {}",
                            self.pos
                        )))
                    }
                }
            }
        }
        self.pos += 1;
        self.depth -= 1;
        Ok(())
    }

    /// Decodes a string, borrowing it from the line when it has no
    /// escapes.
    fn string(&mut self) -> Syntax<Cow<'a, str>> {
        self.expect(b'"')?;
        let mut decoded: Option<String> = None;
        loop {
            let rest = &self.bytes()[self.pos..];
            let Some(len) = rest.iter().position(|&b| b == b'"' || b == b'\\') else {
                return Err(serde_json::Error::msg("unterminated string"));
            };
            let run = self
                .line
                .get(self.pos..self.pos + len)
                .ok_or_else(|| serde_json::Error::msg("invalid UTF-8"))?;
            self.pos += len + 1;
            if rest[len] == b'"' {
                return Ok(match decoded {
                    None => Cow::Borrowed(run),
                    Some(mut out) => {
                        out.push_str(run);
                        Cow::Owned(out)
                    }
                });
            }
            let out = decoded.get_or_insert_with(String::new);
            out.push_str(run);
            self.escape(out)?;
        }
    }

    /// Decodes the escape after a backslash, as the vendored parser does.
    fn escape(&mut self, out: &mut String) -> Syntax<()> {
        match self.peek() {
            Some(b'"') => out.push('"'),
            Some(b'\\') => out.push('\\'),
            Some(b'/') => out.push('/'),
            Some(b'n') => out.push('\n'),
            Some(b'r') => out.push('\r'),
            Some(b't') => out.push('\t'),
            Some(b'b') => out.push('\u{8}'),
            Some(b'f') => out.push('\u{c}'),
            Some(b'u') => {
                let bad = || serde_json::Error::msg("bad \\u escape");
                let hex = self
                    .bytes()
                    .get(self.pos + 1..self.pos + 5)
                    .ok_or_else(|| serde_json::Error::msg("truncated \\u escape"))?;
                let hex = std::str::from_utf8(hex).map_err(|_| bad())?;
                let code = u32::from_str_radix(hex, 16).map_err(|_| bad())?;
                out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                self.pos += 4;
            }
            other => {
                return Err(serde_json::Error::msg(format!("bad escape {other:?}")));
            }
        }
        self.pos += 1;
        Ok(())
    }

    /// Reads a number by the vendored parser's rules: the longest run of
    /// number characters, converted by `Number`'s `FromStr`.
    fn number(&mut self) -> Syntax<Number> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') = self.peek() {
            self.pos += 1;
        }
        self.line[start..self.pos].parse()
    }
}

/// Parses one request line. Returns the request id (echoed in the
/// response whenever it could be recovered, even for failed requests)
/// and either the spec to plan or the error to report.
pub fn parse_request(line: &str) -> (Option<u64>, Result<PlanSpec, WireError>) {
    let mut req = Request::default();
    let mut scanner = Scanner {
        line,
        pos: 0,
        depth: 0,
    };
    match scanner.request(&mut req) {
        Ok(()) => req.finish(),
        Err(e) => (
            None,
            Err(WireError::new(kind::PARSE, format!("malformed JSON: {e}"))),
        ),
    }
}

fn push_id(out: &mut String, id: Option<u64>) {
    if let Some(id) = id {
        out.push_str("\"id\":");
        decimal::push_u64(out, id);
        out.push(',');
    }
}

fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    if !s.bytes().any(|b| b == b'"' || b == b'\\' || b < 0x20) {
        out.push_str(s);
    } else {
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => {
                    const HEX: &[u8; 16] = b"0123456789abcdef";
                    out.push_str("\\u00");
                    out.push(char::from(HEX[c as usize >> 4]));
                    out.push(char::from(HEX[c as usize & 0xf]));
                }
                c => out.push(c),
            }
        }
    }
    out.push('"');
}

/// Appends `prefix` (`,"key":`) and `x` as `{}` writes it.
fn push_number(out: &mut String, prefix: &str, x: f64) {
    out.push_str(prefix);
    decimal::push_f64(out, x);
}

/// Renders a successful answer as one response line (no trailing
/// newline; the transport adds it). Fixed field order, shortest-
/// roundtrip floats: the same answer always renders to the same bytes.
pub fn render_answer(out: &mut String, id: Option<u64>, answer: &PlanAnswer) {
    out.push('{');
    push_id(out, id);
    out.push_str("\"digest\":");
    push_json_string(out, &answer.digest);
    push_number(out, ",\"rho\":", answer.rho);
    match &answer.solution {
        Some(s) => {
            out.push_str(",\"feasible\":true");
            push_number(out, ",\"sigma1\":", s.sigma1);
            push_number(out, ",\"sigma2\":", s.sigma2);
            push_number(out, ",\"wopt\":", s.w_opt);
            push_number(out, ",\"energy_overhead\":", s.energy_overhead);
            push_number(out, ",\"time_overhead\":", s.time_overhead);
        }
        None => {
            out.push_str(",\"feasible\":false");
            if let Some(floor) = answer.min_rho {
                push_number(out, ",\"min_rho\":", floor);
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
    use serde::Value;
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
    fn fields_are_declared_in_key_byte_order() {
        // `finish` blames the lowest wrong bit as the least failing key.
        assert!(FIELDS.windows(2).all(|w| w[0].key < w[1].key));
        assert!(FIELDS.iter().all(|f| f.key != "id"), "`id` is wire-only");
        let (_, r) = parse_request(r#"{"Rho":1}"#);
        assert_eq!(r.unwrap_err().kind, kind::UNKNOWN_FIELD);
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
            wire_error_from_spec(&SpecError::UnknownName {
                field: "platform",
                name: "jupiter".into()
            })
            .kind,
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

    #[test]
    fn control_characters_are_escaped_as_lowercase_unicode() {
        let mut out = String::new();
        push_json_string(&mut out, "a\u{1}\u{1f}\t\\\"é");
        assert_eq!(out, r#""a\u0001\u001f\t\\\"é""#);
        let mut plain = String::new();
        push_json_string(&mut plain, "fnv1a:00ff00ff00ff00ff");
        assert_eq!(plain, "\"fnv1a:00ff00ff00ff00ff\"");
    }
}
