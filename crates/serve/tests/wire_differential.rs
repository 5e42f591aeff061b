//! Differential fuzzing of `wire::parse_request` against the parser it
//! replaced.
//!
//! `reference` is the previous wire parser verbatim: it parses the line
//! into a `serde::Value` tree with the vendored `serde_json`, then reads
//! the fields out of the tree's `BTreeMap`. Only its error constructor
//! differs, because `WireError::new` is private to the crate. The
//! single-pass scanner must agree with it on every line: the same id,
//! the same spec with bit-equal `f64`s, the same `WireError { kind, msg }`,
//! and no panic.
//!
//! Lines come from a fixed corpus of edge cases and from a seeded,
//! grammar-aware mutator built on the vendored proptest's `Strategy` and
//! `TestRng`, seeded with a hot named-table line and a cold 20-speed
//! line. No line is skipped, not even one nested past the 128-level
//! bound: the vendored parser the reference calls has the same bound and
//! fails with the same message, so deep lines are compared too.

use proptest::strategy::Strategy;
use proptest::test_runner::TestRng;
use rexec_serve::wire::kind;
use rexec_serve::{parse_request, PlanSpec, WireError};

mod reference {
    use rexec_serve::wire::kind;
    use rexec_serve::{PlanSpec, WireError};
    use serde::Value;

    fn wire_error(kind: &'static str, msg: impl Into<String>) -> WireError {
        WireError {
            kind,
            msg: msg.into(),
        }
    }

    fn want_f64(field: &str, v: &Value) -> Result<f64, WireError> {
        match v {
            Value::Number(n) => Ok(n.as_f64()),
            _ => Err(wire_error(
                kind::BAD_REQUEST,
                format!("field `{field}` must be a number"),
            )),
        }
    }

    fn want_string(field: &str, v: &Value) -> Result<String, WireError> {
        match v {
            Value::String(s) => Ok(s.clone()),
            _ => Err(wire_error(
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
                    Err(wire_error(kind::PARSE, format!("malformed JSON: {e}"))),
                )
            }
        };
        let Value::Object(fields) = value else {
            return (
                None,
                Err(wire_error(
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
                        Err(wire_error(
                            kind::BAD_REQUEST,
                            "field `id` must be a non-negative integer",
                        )),
                    )
                }
            },
            Some(_) => {
                return (
                    None,
                    Err(wire_error(
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
                        None => Err(wire_error(
                            kind::BAD_REQUEST,
                            "field `schedule_depth` must be a small non-negative integer",
                        )),
                    },
                    _ => Err(wire_error(
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
                    _ => Err(wire_error(
                        kind::BAD_REQUEST,
                        "field `speeds` must be an array of numbers",
                    )),
                },
                unknown => Err(wire_error(
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
}

/// A spec with every `f64` replaced by its bits, so `-0.0` and `0.0`
/// differ.
fn spec_bits(s: &PlanSpec) -> impl PartialEq + std::fmt::Debug {
    let bits = |x: Option<f64>| x.map(f64::to_bits);
    (
        (s.platform.clone(), s.processor.clone(), s.law.clone()),
        [
            s.lambda,
            s.checkpoint,
            s.verification,
            s.recovery,
            s.kappa,
            s.pidle,
            s.pio,
            s.rho,
            s.shape,
            s.quantile,
        ]
        .map(bits),
        s.speeds
            .as_ref()
            .map(|v| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>()),
        s.schedule_depth,
    )
}

/// Checks that the scanner and the reference agree on `line`; returns
/// the scanner's answer.
fn agree(line: &str) -> (Option<u64>, Result<PlanSpec, WireError>) {
    let got = parse_request(line);
    let want = reference::parse_request(line);
    assert_eq!(got.0, want.0, "id differs on {line:?}");
    match (&got.1, &want.1) {
        (Ok(a), Ok(b)) => assert_eq!(spec_bits(a), spec_bits(b), "spec differs on {line:?}"),
        (Err(a), Err(b)) => assert_eq!(a, b, "error differs on {line:?}"),
        (a, b) => panic!("outcome differs on {line:?}: scanner {a:?}, reference {b:?}"),
    }
    got
}

fn err_of(line: &str) -> WireError {
    agree(line).1.expect_err("an error")
}

const HOT_SEED: &str = r#"{"id":17,"platform":"hera","processor":"xscale","rho":1.775}"#;

/// A cold-workload line: an explicit table with a 20-speed ladder.
fn cold_seed() -> String {
    let speeds: Vec<String> = (0..20)
        .map(|i| format!("{:.6}", 0.15 + 0.85 / 19.0 * f64::from(i)))
        .collect();
    format!(
        "{{\"id\":18,\"lambda\":3.380000e-6,\"checkpoint\":300.0000,\"verification\":15.4000,\
         \"recovery\":300.0000,\"kappa\":1550.0000,\"pidle\":60.0000,\"pio\":5.2313,\
         \"speeds\":[{}],\"rho\":2.345678}}",
        speeds.join(",")
    )
}

#[test]
fn seeds_parse_into_the_expected_specs() {
    let (id, spec) = agree(HOT_SEED);
    assert_eq!(id, Some(17));
    let spec = spec.unwrap();
    assert_eq!(spec.platform.as_deref(), Some("hera"));
    assert_eq!(spec.rho, Some(1.775));
    let (id, spec) = agree(&cold_seed());
    assert_eq!(id, Some(18));
    let spec = spec.unwrap();
    assert_eq!(spec.speeds.map(|s| s.len()), Some(20));
    assert_eq!(spec.lambda, Some(3.38e-6));
}

#[test]
fn corpus_agrees_with_the_reference() {
    // The last duplicate wins, even over a mistyped first value.
    let spec = agree(r#"{"rho":"x","rho":3}"#).1.unwrap();
    assert_eq!(spec.rho, Some(3.0));
    let e = err_of(r#"{"rho":3,"rho":"x"}"#);
    assert_eq!(e.msg, "field `rho` must be a number");
    // Field errors come in ascending key byte order, not line order.
    let e = err_of(r#"{"lambda":"x","checkpoint":"y"}"#);
    assert_eq!(e.msg, "field `checkpoint` must be a number");
    let e = err_of(r#"{"zzz":1,"speeds":[1,"x"],"aaa":2}"#);
    assert_eq!(e, err_of(r#"{"aaa":2}"#));
    let e = err_of(r#"{"zzz":1,"speeds":[1,"x"]}"#);
    assert_eq!(e.msg, "field `speeds` must be a number");
    let e = err_of(r#"{"zzz":1,"speeds":{}}"#);
    assert_eq!(e.msg, "field `speeds` must be an array of numbers");
    // Keys are compared after unescaping.
    let spec = agree(r#"{"rh\u006f":2.5}"#).1.unwrap();
    assert_eq!(spec.rho, Some(2.5));
    let e = err_of(r#"{"p\u0069o\n":1}"#);
    assert_eq!(e.kind, kind::UNKNOWN_FIELD);
    // Ids go through `Number::as_u64`: 2^64 saturates, a negative or
    // fractional id is a bad request.
    assert_eq!(agree(r#"{"id":7.0}"#).0, Some(7));
    assert_eq!(agree(r#"{"id":-0}"#).0, Some(0));
    assert_eq!(agree(r#"{"id":-0.0}"#).0, Some(0));
    assert_eq!(agree(r#"{"id":18446744073709551616}"#).0, Some(u64::MAX));
    for bad in [
        r#"{"id":7.5}"#,
        r#"{"id":-1}"#,
        r#"{"id":"7"}"#,
        r#"{"id":1e20}"#,
    ] {
        assert_eq!(agree(bad), (None, Err(err_of(bad))));
        assert_eq!(err_of(bad).kind, kind::BAD_REQUEST);
    }
    // A bad id outranks every field error; a valid one is echoed with them.
    assert_eq!(agree(r#"{"aaa":1,"id":null}"#).0, None);
    assert_eq!(agree(r#"{"aaa":1,"id":4}"#).0, Some(4));
    // `-0` is an integer (+0.0), `-0.0` a float (-0.0).
    let spec = agree(r#"{"rho":-0,"shape":-0.0}"#).1.unwrap();
    assert_eq!(spec.rho.map(f64::to_bits), Some(0.0f64.to_bits()));
    assert_eq!(spec.shape.map(f64::to_bits), Some((-0.0f64).to_bits()));
    // Nested values under unknown keys are checked, then rejected.
    let e = err_of(r#"{"id":1,"x":{"a":[1,{"b":null}],"c":"\u00e9"},"platform":"hera"}"#);
    assert_eq!(e, err_of(r#"{"x":1}"#));
    let e = err_of(r#"{"id":1,"x":{"a":[1,{"b":nul}]}}"#);
    assert_eq!(e.kind, kind::PARSE);
    // Whitespace at every position of a line.
    let spaced = " { \"id\" : 3 , \"rho\" : 2 , \"speeds\" : [ 1 , 0.5 ] } \t\r\n";
    assert_eq!(agree(spaced).0, Some(3));
    let chars: Vec<char> = HOT_SEED.chars().collect();
    for i in 0..=chars.len() {
        for ws in [" ", "\t", "\n", "\r", "\u{a0}"] {
            let line: String = chars[..i]
                .iter()
                .chain(ws.chars().collect::<Vec<_>>().iter())
                .chain(&chars[i..])
                .collect();
            let _ = agree(&line);
        }
    }
    // The empty object, trailing garbage, a lone minus, the empty line.
    assert_eq!(agree("{}").1.unwrap(), PlanSpec::default());
    for bad in ["{} x", r#"{"id":1}}"#, "-", "", "{", r#"{"a":1,}"#, "[1,]"] {
        assert_eq!(err_of(bad).kind, kind::PARSE, "{bad:?}");
    }
    assert_eq!(err_of("-").msg, "malformed JSON: bad number `-`");
    // Valid JSON that is not an object.
    for bad in ["[]", "3", "\"x\"", "null", " [{}] "] {
        assert_eq!(err_of(bad).kind, kind::BAD_REQUEST, "{bad:?}");
    }
    // Strings: escapes, multi-byte text and broken escapes.
    let spec = agree(r#"{"platform":"h\u00e9ra\/€🦀\"\\\b\f\n\r\t"}"#)
        .1
        .unwrap();
    assert_eq!(
        spec.platform.as_deref(),
        Some("héra/€🦀\"\\\u{8}\u{c}\n\r\t")
    );
    for bad in [
        r#"{"platform":"\u00"}"#,
        r#"{"platform":"\uzzzz"}"#,
        r#"{"platform":"\q"}"#,
        r#"{"platform":"\"#,
        r#"{"platform":"x"#,
        "{\"platform\":\"\\u00\u{e9}\"}",
    ] {
        assert_eq!(err_of(bad).kind, kind::PARSE, "{bad:?}");
    }
    let _ = agree(r#"{"law":"\u+041","shape":"\uD800"}"#);
    // Numbers by the vendored parser's lax rules.
    for n in [
        "01",
        "1.",
        "-.5",
        "1e400",
        "1e",
        "1-2",
        "--1",
        "0x10",
        "4294967296",
        "1E+2",
    ] {
        let _ = agree(&format!("{{\"schedule_depth\":{n}}}"));
        let _ = agree(&format!("{{\"rho\":{n}}}"));
    }
}

#[test]
fn nesting_past_the_bound_is_a_parse_error() {
    let nest = |n: usize| format!("{{\"x\":{}{}}}", "[".repeat(n - 1), "]".repeat(n - 1));
    // The request object is the first level.
    assert_eq!(err_of(&nest(128)).kind, kind::UNKNOWN_FIELD);
    let e = err_of(&nest(129));
    assert_eq!(e.kind, kind::PARSE);
    assert!(e.msg.contains("recursion limit exceeded"), "{}", e.msg);
    let deep = format!("{{\"id\":2,\"x\":{}", "[".repeat(60_000));
    assert_eq!(agree(&deep), (None, Err(err_of(&deep))));
    let objects = format!("{}1{}", r#"{"speeds":"#.repeat(200), "}".repeat(200));
    assert_eq!(err_of(&objects).kind, kind::PARSE);
}

/// Tokens the mutator splices in: JSON punctuation, literals, numbers
/// on both sides of every `Number` boundary, escapes and request keys.
const TOKENS: &[&str] = &[
    "{",
    "}",
    "[",
    "]",
    ",",
    ":",
    "\"",
    "\\",
    " ",
    "\t",
    "\r\n",
    "null",
    "true",
    "false",
    "nul",
    "-",
    "0",
    "-0",
    "-0.0",
    "7.0",
    "1e5",
    "1e400",
    "-1.5e-3",
    ".",
    "e",
    "+",
    "01",
    "4294967296",
    "18446744073709551615",
    "18446744073709551616",
    "-9223372036854775809",
    "\"x\"",
    "\"é€🦀\"",
    "\\u006f",
    "\\u00",
    "\\uD800",
    "\\u+04",
    "\\n",
    "\\q",
    "é",
    "\"id\":",
    "\"rho\":",
    "\"rh\\u006f\":",
    "\"speeds\":",
    "\"platform\":",
    "\"law\":",
    "\"schedule_depth\":",
    "\"zeta\":",
    "\"aaa\":",
    "\"lambda\":",
    "\"checkpoint\":",
    "[1,2.5,\"x\"]",
    "{\"a\":[{}]}",
    "[[[[",
];

/// Request keys for generated objects: every field, near misses and
/// escaped spellings.
const KEYS: &[&str] = &[
    "id",
    "platform",
    "processor",
    "lambda",
    "checkpoint",
    "verification",
    "recovery",
    "kappa",
    "pidle",
    "pio",
    "rho",
    "law",
    "shape",
    "quantile",
    "schedule_depth",
    "speeds",
    "rh\\u006f",
    "zeta",
    "aaa",
    "Rho",
    "rho ",
    "",
    "p\\u0069o",
    "idx",
];

fn below(rng: &mut TestRng, n: usize) -> usize {
    (rng.next_u64() % n as u64) as usize
}

fn pick<'t>(rng: &mut TestRng, items: &[&'t str]) -> &'t str {
    items[below(rng, items.len())]
}

/// A random number's text.
fn number(rng: &mut TestRng) -> String {
    match below(rng, 6) {
        0 => (rng.next_u64() % 1000).to_string(),
        1 => format!("{:.6}", rng.unit_f64() * 5.0),
        2 => format!("{:e}", rng.unit_f64() * 1e-4),
        3 => format!("-{}", rng.next_u64() % 10),
        4 => (rng.next_u64() >> below(rng, 64)).to_string(),
        _ => pick(
            rng,
            &[
                "-0",
                "0.0",
                "-0.0",
                "7.0",
                "1e400",
                "2",
                "18446744073709551616",
            ],
        )
        .to_string(),
    }
}

/// A random, valid JSON value nested at most `depth` more levels.
fn value(rng: &mut TestRng, depth: usize) -> String {
    match below(rng, if depth == 0 { 4 } else { 7 }) {
        0 | 1 => number(rng),
        2 => format!(
            "\"{}\"",
            pick(
                rng,
                &["hera", "xscale", "weibull", "x", "h\\u00e9ra", "", "🦀"]
            )
        ),
        3 => pick(rng, &["null", "true", "false"]).to_string(),
        4 | 5 => {
            let items: Vec<String> = (0..below(rng, 5)).map(|_| value(rng, depth - 1)).collect();
            format!("[{}]", items.join(","))
        }
        _ => object(rng, depth - 1),
    }
}

/// A random object over the request keys, duplicates included.
fn object(rng: &mut TestRng, depth: usize) -> String {
    let members: Vec<String> = (0..below(rng, 6))
        .map(|_| format!("\"{}\":{}", pick(rng, KEYS), value(rng, depth)))
        .collect();
    format!("{{{}}}", members.join(","))
}

/// Applies one random edit to `line`, kept as chars so every mutant is
/// valid UTF-8.
fn mutate(rng: &mut TestRng, line: &mut Vec<char>) {
    let at = below(rng, line.len() + 1);
    let end = (at + 1 + below(rng, 8)).min(line.len());
    match below(rng, 7) {
        0 => {
            let token = pick(rng, TOKENS);
            line.splice(at..at, token.chars());
        }
        1 => {
            line.drain(at..end);
        }
        2 => {
            let token = pick(rng, TOKENS);
            line.splice(at..end, token.chars());
        }
        3 => {
            let span: Vec<char> = line[at..end].to_vec();
            let to = below(rng, line.len() + 1);
            line.splice(to..to, span);
        }
        4 => {
            // Replace the value after a random `:` with a generated one.
            if let Some(colon) = line[at..].iter().position(|&c| c == ':') {
                let start = at + colon + 1;
                let stop = line[start..]
                    .iter()
                    .position(|&c| c == ',' || c == '}')
                    .map_or(line.len(), |n| start + n);
                let v = value(rng, 3);
                line.splice(start..stop, v.chars());
            }
        }
        5 => {
            let open = if below(rng, 2) == 0 { "[" } else { "{\"a\":" };
            let n = 100 + below(rng, 60);
            line.splice(at..at, open.repeat(n).chars());
        }
        _ => line.truncate(at),
    }
}

/// Mutated request lines: a seed (the hot line, the cold line, or a
/// generated object) under one to four random edits, or none.
struct MutatedLines {
    cold: String,
}

impl Strategy for MutatedLines {
    type Value = String;

    fn sample(&self, rng: &mut TestRng) -> String {
        let seed = match below(rng, 3) {
            0 => HOT_SEED.to_string(),
            1 => self.cold.clone(),
            _ => object(rng, 3),
        };
        let mut line: Vec<char> = seed.chars().collect();
        for _ in 0..below(rng, 5) {
            mutate(rng, &mut line);
        }
        line.into_iter().collect()
    }
}

#[test]
fn mutated_lines_agree_with_the_reference() {
    const LINES: usize = 12_000;
    let lines = MutatedLines { cold: cold_seed() };
    let mut rng = TestRng::for_test("mutated_lines_agree_with_the_reference");
    let mut outcomes = std::collections::BTreeMap::<&str, usize>::new();
    for _ in 0..LINES {
        let line = lines.sample(&mut rng);
        let outcome = match agree(&line).1 {
            Ok(_) => "ok",
            Err(e) => e.kind,
        };
        *outcomes.entry(outcome).or_default() += 1;
    }
    // The mutants reach every outcome the parser decides.
    for outcome in ["ok", kind::PARSE, kind::BAD_REQUEST, kind::UNKNOWN_FIELD] {
        let n = outcomes.get(outcome).copied().unwrap_or(0);
        assert!(n >= LINES / 50, "only {n} `{outcome}` lines: {outcomes:?}");
    }
}
