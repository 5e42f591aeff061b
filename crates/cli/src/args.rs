//! Argument parsing for `rexec-plan` (no external CLI dependency).
//!
//! [`Args::parse`] looks the plan-query flags up in [`FIELDS`], the
//! table the wire scanner also reads: a flag is `--` plus the wire key
//! with `_` turned into `-`, and `--config` aliases `--platform`. Only
//! the other options have arms here; [`USAGE`] is written by hand.

use crate::spec::{check_positive, PlanSpec, Slot, SpecError, FIELDS};
use rexec_harness::{FaultPlan, HarnessError};
use std::fmt;

/// Parsed command-line arguments.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Args {
    /// The model parameters and scenario flags (`--platform` …
    /// `--quantile`), validated and resolved through the shared rule
    /// table the serve wire protocol also uses.
    pub spec: PlanSpec,
    /// Total application work, enabling the application-level plan.
    pub w_base: Option<f64>,
    /// Monte Carlo validation trials (0 = off).
    pub validate: u64,
    /// Also print the one-speed baseline.
    pub compare_one_speed: bool,
    /// Print the time/energy Pareto frontier with this many sweep points.
    pub pareto: Option<usize>,
    /// Write a JSON metrics snapshot (counters, histograms, span timings)
    /// to this path; also enables span timing.
    pub metrics: Option<String>,
    /// Write a Prometheus text-exposition rendering of the metrics
    /// snapshot to this path; also enables span timing.
    pub metrics_prom: Option<String>,
    /// Write a Chrome trace-event JSON span timeline to this path
    /// (loadable in Perfetto / `chrome://tracing`); enables the span
    /// timeline for the run.
    pub trace_chrome: Option<String>,
    /// Write simulated pattern traces as JSON Lines to this path.
    pub trace_jsonl: Option<String>,
    /// Deterministic fault injection for artifact writes (crash-recovery
    /// testing; defaults to no faults).
    pub fault_plan: FaultPlan,
    /// Print progress lines to stderr (solver stats, Monte Carlo slices).
    pub verbose: bool,
    /// Print usage and exit.
    pub help: bool,
}

/// Argument-parsing failures.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseError {
    /// A model parameter fails the shared spec's domain rules.
    Spec(SpecError),
    /// An option that requires a value was given none.
    MissingValue(String),
    /// A value could not be parsed as the expected type.
    BadValue {
        /// Offending option.
        option: String,
        /// Provided text.
        value: String,
    },
    /// Unrecognized option.
    UnknownOption(String),
    /// A value parsed but is not one the option accepts. The reason
    /// says what the option requires.
    InvalidValue {
        /// Offending option.
        option: String,
        /// Provided text.
        value: String,
        /// What the option requires.
        reason: String,
    },
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Spec(e) => fmt_spec_error(e, f),
            ParseError::MissingValue(o) => write!(f, "option {o} requires a value"),
            ParseError::BadValue { option, value } => {
                write!(f, "cannot parse value `{value}` for option {option}")
            }
            ParseError::UnknownOption(o) => write!(f, "unknown option {o}"),
            ParseError::InvalidValue {
                option,
                value,
                reason,
            } => {
                write!(f, "invalid value `{value}` for option {option}: {reason}")
            }
        }
    }
}

impl std::error::Error for ParseError {}

impl From<SpecError> for ParseError {
    fn from(e: SpecError) -> Self {
        ParseError::Spec(e)
    }
}

/// The CLI spelling of a wire-level field name (`schedule_depth`
/// crosses the wire with an underscore but is typed with a dash).
fn option_name(field: &str) -> String {
    format!("--{}", field.replace('_', "-"))
}

/// Renders a shared-spec failure in CLI terms, blaming the `--option`
/// that sets the wire field: the one rendering behind both
/// [`ParseError::Spec`] and [`RunError::Spec`](crate::run::RunError::Spec),
/// so a rule reads the same whether parsing or planning caught it.
pub(crate) fn fmt_spec_error(e: &SpecError, f: &mut fmt::Formatter<'_>) -> fmt::Result {
    fn invalid(
        f: &mut fmt::Formatter<'_>,
        field: &str,
        value: &dyn fmt::Display,
        reason: &str,
    ) -> fmt::Result {
        let option = option_name(field);
        write!(f, "invalid value `{value}` for option {option}: {reason}")
    }
    match e {
        SpecError::Invalid {
            field,
            value,
            reason,
        } => invalid(f, field, value, reason),
        SpecError::EmptySpeeds => invalid(f, "speeds", &"", "needs at least one speed"),
        SpecError::UnknownName { field: "law", name } => {
            invalid(f, "law", name, "must be exponential, weibull or lognormal")
        }
        SpecError::UnknownName { name, .. } => write!(f, "unknown name: {name}"),
        // No named configuration supplies a shape: only `--shape` can.
        SpecError::Underspecified("shape") => write!(f, "option --shape requires a value"),
        SpecError::Underspecified(field) => write!(
            f,
            "missing parameter: {} (give --platform/--processor or custom values)",
            option_name(field)
        ),
        SpecError::Unsupported { field, reason } => {
            write!(f, "unsupported {}: {reason}", option_name(field))
        }
        SpecError::Model(e) => write!(f, "invalid parameters: {e}"),
    }
}

/// Usage text.
pub const USAGE: &str = "\
rexec-plan — energy-optimal two-speed checkpointing plans

USAGE:
  rexec-plan [--platform NAME] [--processor NAME] [custom params] [options]

PUBLISHED CONFIGURATIONS:
  --platform   hera | atlas | coastal | coastal-ssd   (alias: --config)
  --processor  xscale | crusoe

CUSTOM PARAMETERS (override the named configuration, or stand alone):
  --lambda L        silent-error rate (1/s)
  --checkpoint C    checkpoint time (s)        --verification V  at full speed (s)
  --recovery R      recovery time (s, default C)
  --kappa K         dynamic power K*sigma^3 (mW)
  --pidle P         static power (mW)          --pio P           I/O power (mW)
  --speeds a,b,c    normalized DVFS speeds

OPTIONS:
  --rho RHO         performance bound (default 3)
  --wbase W         total application work: print the application plan
  --validate N      cross-check the plan with N Monte Carlo trials
  --one-speed       also print the one-speed baseline and the saving
  --pareto N        print the time/energy Pareto frontier (N sweep points)

SCENARIOS:
  --law NAME          error law: exponential | weibull | lognormal
                      (non-exponential laws are simulation-only; the
                      analytic planner rejects them with a typed error)
  --shape X           law shape (weibull k / lognormal log-scale s);
                      required by and only valid with a non-exponential law
  --schedule-depth K  also search re-execution speed *schedules* of K
                      speeds (sigma2..sigma_{K+1}, settling on the last)
  --quantile Q        also solve the deadline-constrained variant: bound
                      the Q-quantile of T/W by rho instead of the mean

OBSERVABILITY:
  --metrics PATH      write a JSON metrics snapshot (counters, histograms,
                      span timings) after the run
  --metrics-prom PATH write the metrics snapshot in Prometheus text
                      exposition format after the run
  --trace-chrome PATH record a span timeline and write it as Chrome
                      trace-event JSON (open in Perfetto)
  --trace-jsonl PATH  simulate the plan's pattern and write its event trace
                      as JSON Lines (one event per line)
  --verbose           progress lines on stderr (solver stats, Monte Carlo)
  --fault-plan SPEC   deterministic fault injection for artifact writes
                      (fail-write=N)
  --help              this text
";

fn take_value(args: &mut std::vec::IntoIter<String>, opt: &str) -> Result<String, ParseError> {
    args.next()
        .ok_or_else(|| ParseError::MissingValue(opt.to_string()))
}

fn parse_value<T: std::str::FromStr>(opt: &str, text: &str) -> Result<T, ParseError> {
    text.parse().map_err(|_| ParseError::BadValue {
        option: opt.to_string(),
        value: text.to_string(),
    })
}

fn take_parsed<T: std::str::FromStr>(
    args: &mut std::vec::IntoIter<String>,
    opt: &str,
) -> Result<T, ParseError> {
    parse_value(opt, &take_value(args, opt)?)
}

/// Parses `--fault-plan`. `rexec-plan` writes single files, so only
/// `fail-write` can fire: corruptions, kills and the corruption seed
/// act on `experiments`' sealed units.
fn parse_fault_plan(option: &str, value: String) -> Result<FaultPlan, ParseError> {
    let other = value
        .split(',')
        .filter_map(|part| Some(part.split_once('=')?.0.trim()))
        .find(|&key| key != "fail-write");
    let reason = match other {
        None => match FaultPlan::parse(&value) {
            Ok(plan) => return Ok(plan),
            Err(HarnessError::InvalidArg { reason, .. }) => reason,
            Err(e) => e.to_string(),
        },
        Some(key) if FaultPlan::KEYS.contains(&key) => {
            format!("`{key}` applies only to `experiments`; rexec-plan takes fail-write=N")
        }
        Some(key) => format!("unknown key `{key}` (expected fail-write)"),
    };
    let option = option.to_string();
    Err(ParseError::InvalidValue {
        option,
        value,
        reason,
    })
}

impl Args {
    /// Parses a raw argument list (without the program name).
    pub fn parse<I: IntoIterator<Item = String>>(raw: I) -> Result<Args, ParseError> {
        let mut out = Args::default();
        let mut it = raw.into_iter().collect::<Vec<_>>().into_iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--help" | "-h" => out.help = true,
                "--one-speed" => out.compare_one_speed = true,
                "--verbose" => out.verbose = true,
                "--metrics" => out.metrics = Some(take_value(&mut it, &a)?),
                "--metrics-prom" => out.metrics_prom = Some(take_value(&mut it, &a)?),
                "--trace-chrome" => out.trace_chrome = Some(take_value(&mut it, &a)?),
                "--trace-jsonl" => out.trace_jsonl = Some(take_value(&mut it, &a)?),
                "--fault-plan" => {
                    let v = take_value(&mut it, &a)?;
                    out.fault_plan = parse_fault_plan(&a, v)?;
                }
                "--wbase" => out.w_base = Some(take_parsed(&mut it, &a)?),
                "--validate" => out.validate = take_parsed(&mut it, &a)?,
                "--pareto" => out.pareto = Some(take_parsed(&mut it, &a)?),
                other => {
                    let flag = if other == "--config" {
                        "--platform"
                    } else {
                        other
                    };
                    let Some(field) = FIELDS.iter().find(|f| option_name(f.key) == flag) else {
                        return Err(ParseError::UnknownOption(other.to_string()));
                    };
                    let v = take_value(&mut it, &a)?;
                    let spec = &mut out.spec;
                    match field.slot {
                        Slot::Number(slot) => *slot(spec) = Some(parse_value(&a, &v)?),
                        Slot::Text(slot) => *slot(spec) = Some(v),
                        Slot::Speeds(slot) => {
                            let speeds: Result<Vec<f64>, _> =
                                v.split(',').map(|s| parse_value(&a, s.trim())).collect();
                            *slot(spec) = Some(speeds?);
                        }
                        Slot::Depth(slot) => *slot(spec) = Some(parse_value(&a, &v)?),
                    }
                }
            }
        }
        out.validate_domains()?;
        Ok(out)
    }

    /// Domain validation, run up front so a NaN or negative rate fails
    /// with a precise message instead of surfacing as solver misbehavior
    /// deep in a run. The model parameters go through the shared spec
    /// rule table; `--wbase` is CLI-only and checked here.
    fn validate_domains(&self) -> Result<(), ParseError> {
        self.spec.validate_domains()?;
        check_positive("wbase", self.w_base)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, ParseError> {
        Args::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let a = parse(&[]).unwrap();
        assert_eq!(a.spec, PlanSpec::default(), "rho defaults at resolution");
        assert_eq!(a.validate, 0);
        assert!(!a.help && !a.compare_one_speed);
    }

    #[test]
    fn named_configuration() {
        let a = parse(&[
            "--platform",
            "hera",
            "--processor",
            "xscale",
            "--rho",
            "1.775",
        ])
        .unwrap();
        assert_eq!(a.spec.platform.as_deref(), Some("hera"));
        assert_eq!(a.spec.processor.as_deref(), Some("xscale"));
        assert_eq!(a.spec.rho, Some(1.775));
    }

    #[test]
    fn custom_parameters_and_speeds() {
        let a = parse(&[
            "--lambda",
            "1e-5",
            "--checkpoint",
            "600",
            "--verification",
            "30",
            "--kappa",
            "2000",
            "--pidle",
            "50",
            "--speeds",
            "0.25, 0.5,0.75,1.0",
            "--wbase",
            "1e8",
            "--validate",
            "5000",
            "--one-speed",
        ])
        .unwrap();
        assert_eq!(a.spec.lambda, Some(1e-5));
        assert_eq!(a.spec.checkpoint, Some(600.0));
        assert_eq!(a.spec.speeds, Some(vec![0.25, 0.5, 0.75, 1.0]));
        assert_eq!(a.w_base, Some(1e8));
        assert_eq!(a.validate, 5000);
        assert!(a.compare_one_speed);
    }

    #[test]
    fn errors_are_specific() {
        assert_eq!(
            parse(&["--rho"]),
            Err(ParseError::MissingValue("--rho".into()))
        );
        assert_eq!(
            parse(&["--rho", "abc"]),
            Err(ParseError::BadValue {
                option: "--rho".into(),
                value: "abc".into()
            })
        );
        assert_eq!(
            parse(&["--frobnicate"]),
            Err(ParseError::UnknownOption("--frobnicate".into()))
        );
        assert_eq!(
            parse(&["--speeds", "0.5,x"]),
            Err(ParseError::BadValue {
                option: "--speeds".into(),
                value: "x".into()
            })
        );
    }

    fn assert_invalid(args: &[&str], expect_option: &str) {
        let blamed = match parse(args) {
            Err(ParseError::InvalidValue { option, .. }) => option,
            Err(ParseError::Spec(
                SpecError::Invalid { field, .. } | SpecError::UnknownName { field, .. },
            )) => option_name(field),
            other => panic!("expected an invalid value for {args:?}, got {other:?}"),
        };
        assert_eq!(blamed, expect_option, "wrong option blamed for {args:?}");
    }

    #[test]
    fn nan_and_infinite_inputs_are_rejected_up_front() {
        assert_invalid(&["--lambda", "NaN"], "--lambda");
        assert_invalid(&["--rho", "inf"], "--rho");
        assert_invalid(&["--checkpoint", "-inf"], "--checkpoint");
        assert_invalid(&["--speeds", "0.5,NaN"], "--speeds");
    }

    #[test]
    fn negative_rates_and_costs_are_rejected_up_front() {
        assert_invalid(&["--lambda", "-1e-5"], "--lambda");
        assert_invalid(&["--checkpoint", "-600"], "--checkpoint");
        assert_invalid(&["--verification", "-30"], "--verification");
        assert_invalid(&["--recovery", "-1"], "--recovery");
        assert_invalid(&["--kappa", "-2000"], "--kappa");
        assert_invalid(&["--pidle", "-50"], "--pidle");
        assert_invalid(&["--pio", "-1"], "--pio");
        assert_invalid(&["--rho", "-3"], "--rho");
        assert_invalid(&["--wbase", "-1e8"], "--wbase");
    }

    #[test]
    fn zero_is_rejected_where_the_model_needs_strict_positivity() {
        assert_invalid(&["--lambda", "0"], "--lambda");
        assert_invalid(&["--rho", "0"], "--rho");
        assert_invalid(&["--speeds", "0.5,0"], "--speeds");
        // ... but is a valid recovery cost and idle/IO power.
        assert!(parse(&["--recovery", "0", "--pidle", "0", "--pio", "0"]).is_ok());
    }

    #[test]
    fn invalid_value_messages_name_option_value_and_reason() {
        let msg = parse(&["--lambda", "-2"]).unwrap_err().to_string();
        assert!(msg.contains("--lambda") && msg.contains("-2") && msg.contains("positive"));
    }

    #[test]
    fn fault_plan_parses_and_rejects_bad_specs() {
        let a = parse(&["--fault-plan", "fail-write=2"]).unwrap();
        assert_eq!(a.fault_plan.fail_write, Some(2));
        // Lifecycle faults and their seed only fire in `experiments`.
        assert_invalid(&["--fault-plan", "fail-write=2,seed=9"], "--fault-plan");
        assert_invalid(&["--fault-plan", "corrupt-artifact=1"], "--fault-plan");
        assert_invalid(&["--fault-plan", "kill-after-unit=1"], "--fault-plan");
        assert_invalid(&["--fault-plan", "explode=1"], "--fault-plan");
        assert_invalid(&["--fault-plan", "fail-write=0"], "--fault-plan");
        assert!(USAGE.contains("--fault-plan"));
    }

    #[test]
    fn scenario_flags_parse_and_validate() {
        let a = parse(&[
            "--law",
            "weibull",
            "--shape",
            "0.7",
            "--schedule-depth",
            "3",
            "--quantile",
            "0.99",
        ])
        .unwrap();
        assert_eq!(a.spec.law.as_deref(), Some("weibull"));
        assert_eq!(a.spec.shape, Some(0.7));
        assert_eq!(a.spec.schedule_depth, Some(3));
        assert_eq!(a.spec.quantile, Some(0.99));
        // The rule table runs at parse time, with CLI option names.
        assert_invalid(&["--law", "pareto"], "--law");
        assert_invalid(&["--shape", "0.7"], "--shape");
        assert_invalid(&["--law", "weibull", "--shape", "0"], "--shape");
        assert_invalid(&["--law", "weibull", "--shape", "NaN"], "--shape");
        assert_invalid(&["--quantile", "1"], "--quantile");
        assert_invalid(&["--quantile", "0"], "--quantile");
        assert_invalid(&["--schedule-depth", "0"], "--schedule-depth");
        assert_invalid(&["--schedule-depth", "9"], "--schedule-depth");
        assert_eq!(
            parse(&["--schedule-depth", "two"]),
            Err(ParseError::BadValue {
                option: "--schedule-depth".into(),
                value: "two".into()
            })
        );
        // A shape-requiring law without --shape blames the missing option.
        assert_eq!(
            parse(&["--law", "lognormal"]),
            Err(ParseError::Spec(SpecError::Underspecified("shape")))
        );
        for flag in ["--law", "--shape", "--schedule-depth", "--quantile"] {
            assert!(USAGE.contains(flag), "usage must document {flag}");
        }
    }

    #[test]
    fn config_is_an_alias_for_platform() {
        let a = parse(&["--config", "hera", "--processor", "xscale"]).unwrap();
        assert_eq!(a.spec.platform.as_deref(), Some("hera"));
    }

    #[test]
    fn observability_flags() {
        let a = parse(&[
            "--config",
            "hera",
            "--metrics",
            "/tmp/m.json",
            "--trace-jsonl",
            "/tmp/t.jsonl",
            "--verbose",
        ])
        .unwrap();
        assert_eq!(a.metrics.as_deref(), Some("/tmp/m.json"));
        assert_eq!(a.trace_jsonl.as_deref(), Some("/tmp/t.jsonl"));
        assert!(a.verbose);
        assert_eq!(
            parse(&["--metrics"]),
            Err(ParseError::MissingValue("--metrics".into()))
        );
        assert!(USAGE.contains("--metrics") && USAGE.contains("--trace-jsonl"));
    }

    #[test]
    fn exporter_flags() {
        let a = parse(&[
            "--config",
            "hera",
            "--metrics-prom",
            "/tmp/m.prom",
            "--trace-chrome",
            "/tmp/t.trace.json",
        ])
        .unwrap();
        assert_eq!(a.metrics_prom.as_deref(), Some("/tmp/m.prom"));
        assert_eq!(a.trace_chrome.as_deref(), Some("/tmp/t.trace.json"));
        assert_eq!(
            parse(&["--trace-chrome"]),
            Err(ParseError::MissingValue("--trace-chrome".into()))
        );
        assert!(USAGE.contains("--metrics-prom") && USAGE.contains("--trace-chrome"));
    }

    #[test]
    fn help_flag() {
        assert!(parse(&["--help"]).unwrap().help);
        assert!(parse(&["-h"]).unwrap().help);
        assert!(USAGE.contains("--pareto"));
    }

    #[test]
    fn error_display() {
        assert!(ParseError::MissingValue("--x".into())
            .to_string()
            .contains("--x"));
        assert!(ParseError::UnknownOption("--y".into())
            .to_string()
            .contains("unknown"));
    }
}
