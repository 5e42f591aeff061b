//! `rexec-plan`'s argument parser and the `rexec-serve` wire scanner
//! agree field by field. Both dispatch through `spec::FIELDS`; this test
//! walks the same rows, so a new field is covered as soon as it has one.
//!
//! For every row, the flag `--<key>` (with `_` turned into `-`) and the
//! wire key `<key>` given the same value yield equal `PlanSpec`s, with
//! bit-equal `f64`s and a speed list in either spelling, and a value of
//! the wrong type is blamed on the same field by both parsers.

use rexec_cli::args::{Args, ParseError};
use rexec_cli::spec::{Field, PlanSpec, Slot, FIELDS};
use rexec_serve::parse_request;
use rexec_serve::wire::kind;

/// Valid for every field at parse time, once a law that takes a shape
/// is set (`shape` alone is rejected by the CLI's domain check).
const BASE_CLI: [&str; 4] = ["--law", "weibull", "--shape", "0.7"];
const BASE_WIRE: &str = r#""law":"weibull","shape":0.7"#;

/// The spec the base arguments alone give.
fn base() -> PlanSpec {
    Args::parse(BASE_CLI.map(String::from)).expect("base").spec
}

fn flag(field: &Field) -> String {
    format!("--{}", field.key.replace('_', "-"))
}

fn cli(field: &Field, value: Option<&str>) -> Result<PlanSpec, ParseError> {
    let flag = flag(field);
    let args = BASE_CLI.into_iter().chain([flag.as_str()]).chain(value);
    Args::parse(args.map(String::from)).map(|a| a.spec)
}

fn wire(field: &Field, json: &str) -> (Option<u64>, Result<PlanSpec, rexec_serve::WireError>) {
    parse_request(&format!(r#"{{{BASE_WIRE},"{}":{json}}}"#, field.key))
}

/// `(CLI text, wire JSON)` spellings of valid values of a row's kind.
fn valid_values(slot: Slot) -> Vec<(&'static str, &'static str)> {
    match slot {
        // Inside every numeric domain: strictly positive, below 1.
        Slot::Number(_) => vec![
            ("0.1", "0.1"),
            ("1e-5", "1e-5"),
            ("0.30000000000000004", "0.30000000000000004"),
            ("2.5E-7", "2.5E-7"),
            ("7e-300", "7e-300"),
            ("5e-324", "5e-324"),
            ("0.99999999999999994", "0.99999999999999994"),
        ],
        Slot::Text(_) => vec![("lognormal", r#""lognormal""#)],
        Slot::Speeds(_) => vec![
            ("0.25,0.5,1", "[0.25,0.5,1]"),
            ("0.15, 0.4 ,0.6,0.8,1.0", "[0.15, 0.4 ,0.6,0.8,1.0]"),
            ("1e-1,3.3333333333333331e-1", "[1e-1,3.3333333333333331e-1]"),
        ],
        Slot::Depth(_) => vec![("1", "1"), ("4", "4")],
    }
}

/// `(CLI value, wire JSON)` of a value of the wrong type for a row's
/// kind. Any text is a name on the CLI, so a text field's CLI case is a
/// missing value.
fn mistyped_values(slot: Slot) -> Vec<(Option<&'static str>, &'static str)> {
    let mut cases = vec![(None, "null")];
    cases.extend(match slot {
        Slot::Number(_) => vec![(Some("fast"), r#""fast""#)],
        Slot::Text(_) => vec![(None, "7"), (None, r#"["hera"]"#)],
        Slot::Speeds(_) => vec![(Some("0.5,x"), r#"[0.5,"x"]"#), (Some("x"), r#""x""#)],
        Slot::Depth(_) => vec![(Some("1.5"), "1.5"), (Some("-1"), "-1")],
    });
    cases
}

/// The option a CLI parse error blames.
fn cli_blame(e: &ParseError) -> &str {
    match e {
        ParseError::MissingValue(option)
        | ParseError::BadValue { option, .. }
        | ParseError::InvalidValue { option, .. } => option,
        other => panic!("not a per-option error: {other:?}"),
    }
}

/// The field a wire type error blames: `field `<key>` must be …`.
fn wire_blame(msg: &str) -> &str {
    msg.strip_prefix("field `")
        .and_then(|rest| rest.split_once('`'))
        .map(|(key, _)| key)
        .unwrap_or_else(|| panic!("not a field error: {msg}"))
}

/// Equal specs with bit-equal `f64`s: `{:?}` writes each `f64` as its
/// shortest round-trip text, so equal text is equal bits (no value here
/// is a NaN).
fn assert_bit_equal(a: &PlanSpec, b: &PlanSpec, what: &str) {
    assert_eq!(format!("{a:?}"), format!("{b:?}"), "{what}");
}

#[test]
fn every_field_parses_to_the_same_spec_on_the_cli_and_the_wire() {
    for field in &FIELDS {
        for (text, json) in valid_values(field.slot) {
            let what = format!("{} = {text} / {json}", field.key);
            let from_cli = cli(field, Some(text)).unwrap_or_else(|e| panic!("{what}: {e}"));
            let (id, from_wire) = wire(field, json);
            let from_wire = from_wire.unwrap_or_else(|e| panic!("{what}: {}", e.msg));
            assert_eq!(id, None);
            assert_ne!(from_cli, base(), "{what}: the value set nothing");
            assert_bit_equal(&from_cli, &from_wire, &what);
        }
    }
}

#[test]
fn every_field_blames_a_mistyped_value_on_the_same_field() {
    for field in &FIELDS {
        for (text, json) in mistyped_values(field.slot) {
            let what = format!("{} = {text:?} / {json}", field.key);
            let cli_err = cli(field, text).expect_err(&what);
            assert_eq!(cli_blame(&cli_err), flag(field), "{what}: {cli_err}");
            let wire_err = wire(field, json).1.expect_err(&what);
            assert_eq!(wire_err.kind, kind::BAD_REQUEST, "{what}");
            assert_eq!(wire_blame(&wire_err.msg), field.key, "{what}");
        }
    }
}

#[test]
fn the_table_covers_every_spec_field() {
    // An exhaustive literal: a new `PlanSpec` field fails to compile here
    // until it is added, and then fails the comparison until it has a row.
    let full = PlanSpec {
        platform: Some("lognormal".into()),
        processor: Some("lognormal".into()),
        lambda: Some(0.1),
        checkpoint: Some(0.1),
        verification: Some(0.1),
        recovery: Some(0.1),
        kappa: Some(0.1),
        pidle: Some(0.1),
        pio: Some(0.1),
        speeds: Some(vec![0.25, 0.5, 1.0]),
        rho: Some(0.1),
        law: Some("lognormal".into()),
        shape: Some(0.1),
        schedule_depth: Some(1),
        quantile: Some(0.1),
    };
    let mut args = Vec::new();
    let mut members = Vec::new();
    for field in &FIELDS {
        let (text, json) = valid_values(field.slot)[0];
        args.extend([flag(field), text.to_string()]);
        members.push(format!(r#""{}":{json}"#, field.key));
    }
    let from_cli = Args::parse(args).expect("every row at once").spec;
    let (_, from_wire) = parse_request(&format!("{{{}}}", members.join(",")));
    assert_bit_equal(&from_cli, &full, "CLI");
    assert_bit_equal(&from_wire.expect("every row at once"), &full, "wire");
}
