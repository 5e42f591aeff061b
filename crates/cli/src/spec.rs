//! The shared plan specification: one place that owns the domain rules
//! (which parameter must be strictly positive, which may be zero) and
//! the named-configuration resolution, so the `rexec-plan` CLI and the
//! `rexec-serve` wire protocol validate and resolve queries through the
//! **same** code path and cannot drift.
//!
//! [`FIELDS`] is the one list of plan-query fields, read by both the
//! wire scanner and the CLI parser. Errors name a field by its wire key
//! (`lambda`, `schedule_depth`, …); the CLI maps it to its flag
//! (`--lambda`, `--schedule-depth`, …) when reporting.

use rexec_core::{ErrorLaw, ModelError, PowerModel, ResilienceCosts, SilentModel, SpeedSet};
use rexec_platforms::{Platform, PlatformId, Processor, ProcessorId};
use std::fmt;

/// A plan query before resolution: every parameter optional, either
/// taken from a named configuration or given explicitly (explicit
/// values override the named configuration).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PlanSpec {
    /// Named platform (`hera`/`atlas`/`coastal`/`coastal-ssd`).
    pub platform: Option<String>,
    /// Named processor (`xscale`/`crusoe`).
    pub processor: Option<String>,
    /// Silent-error rate λ (1/s); strictly positive.
    pub lambda: Option<f64>,
    /// Checkpoint cost C (s); strictly positive.
    pub checkpoint: Option<f64>,
    /// Verification cost V at full speed (s); strictly positive.
    pub verification: Option<f64>,
    /// Recovery cost R (s); non-negative, defaults to C.
    pub recovery: Option<f64>,
    /// Cube-law coefficient κ (mW); strictly positive.
    pub kappa: Option<f64>,
    /// Static power Pidle (mW); non-negative.
    pub pidle: Option<f64>,
    /// I/O power Pio (mW); non-negative, defaults to κσ_min³.
    pub pio: Option<f64>,
    /// Normalized DVFS speeds; each strictly positive, non-empty.
    pub speeds: Option<Vec<f64>>,
    /// Performance bound ρ; strictly positive, defaults to 3.
    pub rho: Option<f64>,
    /// Silent-error law name (`exponential`/`weibull`/`lognormal`);
    /// defaults to exponential (the paper's Poisson model).
    pub law: Option<String>,
    /// Shape parameter of a non-exponential law (Weibull shape `k`,
    /// lognormal log-scale `s`); required by and only meaningful with
    /// `law = weibull`/`lognormal`.
    pub shape: Option<f64>,
    /// Re-execution schedule search depth `K` (schedules of `K` retry
    /// speeds, settling on the last); 1–4, defaults to the paper's
    /// single σ₂.
    pub schedule_depth: Option<u32>,
    /// Deadline quantile `q ∈ (0, 1)`: bound the `q`-quantile of `T/W`
    /// by ρ instead of the expectation.
    pub quantile: Option<f64>,
}

/// The [`PlanSpec`] slot a plan-query field fills, by the kind of value
/// it takes.
#[derive(Debug, Clone, Copy)]
pub enum Slot {
    /// A number (`f64`).
    Number(fn(&mut PlanSpec) -> &mut Option<f64>),
    /// A name.
    Text(fn(&mut PlanSpec) -> &mut Option<String>),
    /// A list of speeds: a JSON array of numbers, or `a,b,c` on the CLI.
    Speeds(fn(&mut PlanSpec) -> &mut Option<Vec<f64>>),
    /// A schedule depth: a small non-negative integer.
    Depth(fn(&mut PlanSpec) -> &mut Option<u32>),
}

/// One plan-query field: its wire key and the slot its value fills.
/// The CLI flag is `--` plus the key with `_` turned into `-`.
#[derive(Debug, Clone, Copy)]
pub struct Field {
    /// The wire key (`lambda`, `schedule_depth`, …).
    pub key: &'static str,
    /// Where a value of which kind goes.
    pub slot: Slot,
}

impl Field {
    const fn new(key: &'static str, slot: Slot) -> Field {
        Field { key, slot }
    }
}

/// Every [`PlanSpec`] field, in ascending key byte order, which is the
/// order in which the wire reports a mistyped field. Both the wire
/// scanner and the CLI parser read only this list, so a new field is one
/// struct field, one row here and one usage line.
pub const FIELDS: [Field; 15] = [
    Field::new("checkpoint", Slot::Number(|s| &mut s.checkpoint)),
    Field::new("kappa", Slot::Number(|s| &mut s.kappa)),
    Field::new("lambda", Slot::Number(|s| &mut s.lambda)),
    Field::new("law", Slot::Text(|s| &mut s.law)),
    Field::new("pidle", Slot::Number(|s| &mut s.pidle)),
    Field::new("pio", Slot::Number(|s| &mut s.pio)),
    Field::new("platform", Slot::Text(|s| &mut s.platform)),
    Field::new("processor", Slot::Text(|s| &mut s.processor)),
    Field::new("quantile", Slot::Number(|s| &mut s.quantile)),
    Field::new("recovery", Slot::Number(|s| &mut s.recovery)),
    Field::new("rho", Slot::Number(|s| &mut s.rho)),
    Field::new("schedule_depth", Slot::Depth(|s| &mut s.schedule_depth)),
    Field::new("shape", Slot::Number(|s| &mut s.shape)),
    Field::new("speeds", Slot::Speeds(|s| &mut s.speeds)),
    Field::new("verification", Slot::Number(|s| &mut s.verification)),
];

/// What a [`PlanSpec`] resolves to: a validated model, the speed set,
/// and the (defaulted) performance bound.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolvedPlan {
    /// The analytic model the solver runs on.
    pub model: SilentModel,
    /// The available DVFS speeds.
    pub speeds: SpeedSet,
    /// The performance bound ρ (default 3 when unspecified).
    pub rho: f64,
}

/// Default performance bound when a spec leaves `rho` unset.
pub const DEFAULT_RHO: f64 = 3.0;

/// Largest accepted `schedule_depth`: the search enumerates
/// `|speeds|^(K+1)` schedules, so the depth is capped where the paper's
/// five-speed sets stay sub-millisecond.
pub const MAX_SCHEDULE_DEPTH: u32 = 4;

/// Validation / resolution failures, shared by CLI and wire surfaces.
#[derive(Debug, Clone, PartialEq)]
pub enum SpecError {
    /// A numeric parameter fails its domain rule (NaN, ±inf, sign).
    Invalid {
        /// Wire-level field name (`lambda`, `pidle`, …).
        field: &'static str,
        /// Offending value.
        value: f64,
        /// What the field requires.
        reason: &'static str,
    },
    /// A speed list was given but empty.
    EmptySpeeds,
    /// Bad platform, processor or law name.
    UnknownName {
        /// Wire-level field name (`platform`, `processor` or `law`).
        field: &'static str,
        /// The name as given (a law's lowercased).
        name: String,
    },
    /// Neither a named configuration nor enough custom parameters.
    Underspecified(&'static str),
    /// Parameters pass the field rules but do not form a valid model.
    Model(ModelError),
    /// A recognized, well-formed parameter names a capability this
    /// surface does not provide (e.g. a non-memoryless error law on the
    /// analytic planner, which needs memorylessness).
    Unsupported {
        /// Wire-level field name (`law`, `schedule_depth`, …).
        field: &'static str,
        /// Why the combination is not supported, and what to use.
        reason: &'static str,
    },
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecError::Invalid {
                field,
                value,
                reason,
            } => write!(f, "invalid value `{value}` for `{field}`: {reason}"),
            SpecError::EmptySpeeds => write!(f, "`speeds` needs at least one speed"),
            SpecError::UnknownName { field, name } => write!(f, "unknown {field}: {name}"),
            SpecError::Underspecified(what) => write!(
                f,
                "missing parameter: {what} (give a platform/processor or custom values)"
            ),
            SpecError::Model(e) => write!(f, "invalid parameters: {e}"),
            SpecError::Unsupported { field, reason } => {
                write!(f, "unsupported `{field}`: {reason}")
            }
        }
    }
}

impl std::error::Error for SpecError {}

impl From<ModelError> for SpecError {
    fn from(e: ModelError) -> Self {
        SpecError::Model(e)
    }
}

/// Rejects NaN/±inf and non-positive values: rates, costs, speeds and
/// the bound must be strictly positive real numbers.
pub fn check_positive(field: &'static str, v: Option<f64>) -> Result<(), SpecError> {
    check_domain(field, v, |x| x > 0.0, "must be strictly positive")
}

/// Rejects NaN/±inf and negative values: powers and the recovery cost
/// may be zero but not negative.
pub fn check_non_negative(field: &'static str, v: Option<f64>) -> Result<(), SpecError> {
    check_domain(field, v, |x| x >= 0.0, "must not be negative")
}

/// Rejects a non-finite value, then one `ok` refuses, with `reason`.
fn check_domain(
    field: &'static str,
    v: Option<f64>,
    ok: fn(f64) -> bool,
    reason: &'static str,
) -> Result<(), SpecError> {
    match v {
        Some(x) if !x.is_finite() => Err(invalid(field, x, "must be a finite number")),
        Some(x) if !ok(x) => Err(invalid(field, x, reason)),
        _ => Ok(()),
    }
}

/// A domain-rule failure of `field`.
fn invalid(field: &'static str, value: f64, reason: &'static str) -> SpecError {
    SpecError::Invalid {
        field,
        value,
        reason,
    }
}

/// Resolves a platform name (case-insensitive, paper Table 1).
pub fn platform_by_name(name: &str) -> Result<Platform, SpecError> {
    let id = match name.to_ascii_lowercase().as_str() {
        "hera" => PlatformId::Hera,
        "atlas" => PlatformId::Atlas,
        "coastal" => PlatformId::Coastal,
        "coastal-ssd" | "coastal_ssd" | "coastalssd" => PlatformId::CoastalSsd,
        _ => {
            return Err(SpecError::UnknownName {
                field: "platform",
                name: name.to_string(),
            })
        }
    };
    Ok(Platform::get(id))
}

/// Resolves a processor name (case-insensitive, paper Table 2).
pub fn processor_by_name(name: &str) -> Result<Processor, SpecError> {
    let id = match name.to_ascii_lowercase().as_str() {
        "xscale" | "intel-xscale" => ProcessorId::IntelXScale,
        "crusoe" | "transmeta-crusoe" => ProcessorId::TransmetaCrusoe,
        _ => {
            return Err(SpecError::UnknownName {
                field: "processor",
                name: name.to_string(),
            })
        }
    };
    Ok(Processor::get(id))
}

impl PlanSpec {
    /// The one rule table: every numeric field checked against its
    /// domain (NaN and ±inf always rejected; zero admitted only where
    /// the model tolerates it). Both the CLI's argument parser and the
    /// serve wire decoder call exactly this.
    pub fn validate_domains(&self) -> Result<(), SpecError> {
        check_positive("lambda", self.lambda)?;
        check_positive("checkpoint", self.checkpoint)?;
        check_positive("verification", self.verification)?;
        check_non_negative("recovery", self.recovery)?;
        check_positive("kappa", self.kappa)?;
        check_non_negative("pidle", self.pidle)?;
        check_non_negative("pio", self.pio)?;
        check_positive("rho", self.rho)?;
        if let Some(speeds) = &self.speeds {
            if speeds.is_empty() {
                return Err(SpecError::EmptySpeeds);
            }
            for &s in speeds {
                check_positive("speeds", Some(s))?;
            }
        }
        check_positive("shape", self.shape)?;
        self.error_law()?;
        if let Some(q) = self.quantile {
            check_positive("quantile", Some(q))?;
            if q >= 1.0 {
                return Err(invalid("quantile", q, "must be strictly below 1"));
            }
        }
        if let Some(d) = self.schedule_depth {
            if !(1..=MAX_SCHEDULE_DEPTH).contains(&d) {
                let reason = "must be between 1 and 4";
                return Err(invalid("schedule_depth", f64::from(d), reason));
            }
        }
        Ok(())
    }

    /// Resolves the `law`/`shape` pair into a typed [`ErrorLaw`]
    /// (`Exponential` when unset). Rejects unknown law names, a shape
    /// without a law that uses one, and a shape-requiring law without a
    /// shape — the same rule table for the CLI and the wire.
    pub fn error_law(&self) -> Result<ErrorLaw, SpecError> {
        let law = match self.law.as_deref().map(str::to_ascii_lowercase).as_deref() {
            None | Some("exponential") => {
                if let Some(shape) = self.shape {
                    let reason = "only meaningful with a weibull or lognormal law";
                    return Err(invalid("shape", shape, reason));
                }
                ErrorLaw::Exponential
            }
            Some("weibull") => ErrorLaw::Weibull {
                shape: self.shape.ok_or(SpecError::Underspecified("shape"))?,
            },
            Some("lognormal") => ErrorLaw::LogNormal {
                sigma: self.shape.ok_or(SpecError::Underspecified("shape"))?,
            },
            Some(other) => {
                return Err(SpecError::UnknownName {
                    field: "law",
                    name: other.to_string(),
                })
            }
        };
        let shape = self.shape.unwrap_or(f64::NAN);
        law.validate()
            .map_err(|reason| invalid("shape", shape, reason))?;
        Ok(law)
    }

    /// Validates the domains, resolves named configurations, applies
    /// explicit overrides and the documented defaults (`R = C`,
    /// `Pio = κσ_min³`, `ρ = 3`), and builds the model.
    pub fn resolve(&self) -> Result<ResolvedPlan, SpecError> {
        self.validate_domains()?;
        // The analytic planner's expectations (Propositions 2–5) rest on
        // memorylessness; non-exponential laws are simulation-only.
        if !self.error_law()?.is_memoryless() {
            return Err(SpecError::Unsupported {
                field: "law",
                reason: "the analytic planner requires a memoryless (exponential) error law; \
                         non-exponential laws are simulation-only (see the X-laws experiment)",
            });
        }
        let platform = self.platform.as_deref().map(platform_by_name).transpose()?;
        let processor = self
            .processor
            .as_deref()
            .map(processor_by_name)
            .transpose()?;

        let lambda = self
            .lambda
            .or(platform.as_ref().map(|p| p.lambda))
            .ok_or(SpecError::Underspecified("lambda"))?;
        let checkpoint = self
            .checkpoint
            .or(platform.as_ref().map(|p| p.checkpoint))
            .ok_or(SpecError::Underspecified("checkpoint"))?;
        let verification = self
            .verification
            .or(platform.as_ref().map(|p| p.verification))
            .ok_or(SpecError::Underspecified("verification"))?;
        let recovery = self.recovery.unwrap_or(checkpoint);

        let speeds_vec = self
            .speeds
            .clone()
            .or(processor.as_ref().map(|p| p.speeds.clone()))
            .ok_or(SpecError::Underspecified("speeds"))?;
        let speeds = SpeedSet::new(speeds_vec)?;

        let kappa = self
            .kappa
            .or(processor.as_ref().map(|p| p.kappa))
            .ok_or(SpecError::Underspecified("kappa"))?;
        let p_idle = self
            .pidle
            .or(processor.as_ref().map(|p| p.p_idle))
            .ok_or(SpecError::Underspecified("pidle"))?;
        let p_io = self.pio.unwrap_or_else(|| kappa * speeds.min().powi(3));

        let model = SilentModel::new(
            lambda,
            ResilienceCosts::new(checkpoint, verification, recovery)?,
            PowerModel::new(kappa, p_idle, p_io)?,
        )?;
        Ok(ResolvedPlan {
            model,
            speeds,
            rho: self.rho.unwrap_or(DEFAULT_RHO),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn named(platform: &str, processor: &str) -> PlanSpec {
        PlanSpec {
            platform: Some(platform.into()),
            processor: Some(processor.into()),
            ..PlanSpec::default()
        }
    }

    #[test]
    fn named_configuration_resolves_with_defaults() {
        let r = named("hera", "xscale").resolve().unwrap();
        assert_eq!(r.model.lambda, 3.38e-6);
        assert_eq!(r.model.costs.checkpoint, 300.0);
        assert_eq!(r.model.costs.recovery, 300.0, "R defaults to C");
        assert_eq!(r.rho, DEFAULT_RHO);
        assert_eq!(r.speeds.len(), 5);
        // Pio defaults to the dynamic power at the slowest speed.
        assert!((r.model.power.p_io - 1550.0 * 0.15f64.powi(3)).abs() < 1e-9);
    }

    #[test]
    fn overrides_apply_on_top_of_named_configuration() {
        let spec = PlanSpec {
            lambda: Some(1e-5),
            rho: Some(1.775),
            ..named("hera", "xscale")
        };
        let r = spec.resolve().unwrap();
        assert_eq!(r.model.lambda, 1e-5);
        assert_eq!(r.rho, 1.775);
    }

    #[test]
    fn underspecified_names_the_missing_field() {
        let spec = PlanSpec {
            lambda: Some(1e-5),
            ..PlanSpec::default()
        };
        assert_eq!(spec.resolve(), Err(SpecError::Underspecified("checkpoint")));
    }

    #[test]
    fn unknown_names_are_rejected() {
        assert!(matches!(
            named("jupiter", "xscale").resolve(),
            Err(SpecError::UnknownName {
                field: "platform",
                ..
            })
        ));
        assert!(matches!(
            named("hera", "epyc").resolve(),
            Err(SpecError::UnknownName {
                field: "processor",
                ..
            })
        ));
    }

    #[test]
    fn domain_rules_match_the_cli_contract() {
        // Strictly positive fields reject zero...
        for (field, spec) in [
            (
                "lambda",
                PlanSpec {
                    lambda: Some(0.0),
                    ..PlanSpec::default()
                },
            ),
            (
                "rho",
                PlanSpec {
                    rho: Some(0.0),
                    ..PlanSpec::default()
                },
            ),
        ] {
            match spec.validate_domains() {
                Err(SpecError::Invalid { field: f, .. }) => assert_eq!(f, field),
                other => panic!("expected Invalid({field}), got {other:?}"),
            }
        }
        // ...while recovery and the powers admit zero.
        let ok = PlanSpec {
            recovery: Some(0.0),
            pidle: Some(0.0),
            pio: Some(0.0),
            ..PlanSpec::default()
        };
        assert_eq!(ok.validate_domains(), Ok(()));
        // NaN and ±inf are rejected everywhere.
        let nan = PlanSpec {
            checkpoint: Some(f64::NAN),
            ..PlanSpec::default()
        };
        assert!(matches!(
            nan.validate_domains(),
            Err(SpecError::Invalid {
                field: "checkpoint",
                ..
            })
        ));
        let inf = PlanSpec {
            pidle: Some(f64::NEG_INFINITY),
            ..PlanSpec::default()
        };
        assert!(matches!(
            inf.validate_domains(),
            Err(SpecError::Invalid { field: "pidle", .. })
        ));
    }

    #[test]
    fn speed_rules() {
        let empty = PlanSpec {
            speeds: Some(vec![]),
            ..PlanSpec::default()
        };
        assert_eq!(empty.validate_domains(), Err(SpecError::EmptySpeeds));
        let zero = PlanSpec {
            speeds: Some(vec![0.5, 0.0]),
            ..PlanSpec::default()
        };
        assert!(matches!(
            zero.validate_domains(),
            Err(SpecError::Invalid {
                field: "speeds",
                ..
            })
        ));
    }

    #[test]
    fn law_rules_share_one_table() {
        // Unset and "exponential" both resolve to the memoryless law.
        assert_eq!(
            PlanSpec::default().error_law(),
            Ok(rexec_core::ErrorLaw::Exponential)
        );
        let exp = PlanSpec {
            law: Some("Exponential".into()),
            ..named("hera", "xscale")
        };
        assert_eq!(exp.error_law(), Ok(rexec_core::ErrorLaw::Exponential));
        assert!(exp.resolve().is_ok(), "exponential law plans normally");
        // Shape-requiring laws resolve case-insensitively...
        let wb = PlanSpec {
            law: Some("Weibull".into()),
            shape: Some(0.7),
            ..PlanSpec::default()
        };
        assert_eq!(
            wb.error_law(),
            Ok(rexec_core::ErrorLaw::Weibull { shape: 0.7 })
        );
        let ln = PlanSpec {
            law: Some("lognormal".into()),
            shape: Some(1.2),
            ..PlanSpec::default()
        };
        assert_eq!(
            ln.error_law(),
            Ok(rexec_core::ErrorLaw::LogNormal { sigma: 1.2 })
        );
        // ...but need their shape...
        let missing = PlanSpec {
            law: Some("weibull".into()),
            ..PlanSpec::default()
        };
        assert_eq!(missing.error_law(), Err(SpecError::Underspecified("shape")));
        // ...and a shape without such a law is rejected.
        let orphan = PlanSpec {
            shape: Some(0.7),
            ..PlanSpec::default()
        };
        assert!(matches!(
            orphan.validate_domains(),
            Err(SpecError::Invalid { field: "shape", .. })
        ));
        // Unknown law names are named in the error.
        let unknown = PlanSpec {
            law: Some("pareto".into()),
            ..PlanSpec::default()
        };
        assert!(matches!(
            unknown.validate_domains(),
            Err(SpecError::UnknownName { field: "law", name }) if name == "pareto"
        ));
        // The wire message names the field once and the law bare.
        assert_eq!(
            unknown.validate_domains().unwrap_err().to_string(),
            "unknown law: pareto"
        );
        // NaN/zero shapes fall to the positivity rule before law logic.
        for bad in [f64::NAN, 0.0, -1.0, f64::INFINITY] {
            let s = PlanSpec {
                law: Some("weibull".into()),
                shape: Some(bad),
                ..PlanSpec::default()
            };
            assert!(
                matches!(
                    s.validate_domains(),
                    Err(SpecError::Invalid { field: "shape", .. })
                ),
                "shape {bad} must be rejected"
            );
        }
    }

    #[test]
    fn non_memoryless_laws_are_unsupported_by_the_planner() {
        let spec = PlanSpec {
            law: Some("weibull".into()),
            shape: Some(0.7),
            ..named("hera", "xscale")
        };
        assert_eq!(spec.validate_domains(), Ok(()), "the spec itself is valid");
        match spec.resolve() {
            Err(SpecError::Unsupported {
                field: "law",
                reason,
            }) => {
                assert!(reason.contains("memoryless"));
            }
            other => panic!("expected Unsupported(law), got {other:?}"),
        }
        let msg = spec.resolve().unwrap_err().to_string();
        assert!(msg.contains("unsupported") && msg.contains("law"));
    }

    #[test]
    fn quantile_and_depth_domains() {
        for bad in [0.0, -0.5, 1.0, 1.5, f64::NAN, f64::INFINITY] {
            let s = PlanSpec {
                quantile: Some(bad),
                ..PlanSpec::default()
            };
            assert!(
                matches!(
                    s.validate_domains(),
                    Err(SpecError::Invalid {
                        field: "quantile",
                        ..
                    })
                ),
                "quantile {bad} must be rejected"
            );
        }
        for bad in [0u32, 5, 100] {
            let s = PlanSpec {
                schedule_depth: Some(bad),
                ..PlanSpec::default()
            };
            assert!(
                matches!(
                    s.validate_domains(),
                    Err(SpecError::Invalid {
                        field: "schedule_depth",
                        ..
                    })
                ),
                "depth {bad} must be rejected"
            );
        }
        let ok = PlanSpec {
            quantile: Some(0.99),
            schedule_depth: Some(MAX_SCHEDULE_DEPTH),
            ..PlanSpec::default()
        };
        assert_eq!(ok.validate_domains(), Ok(()));
    }

    #[test]
    fn error_display_names_field_value_and_reason() {
        let e = PlanSpec {
            lambda: Some(-2.0),
            ..PlanSpec::default()
        }
        .validate_domains()
        .unwrap_err();
        let msg = e.to_string();
        assert!(msg.contains("lambda") && msg.contains("-2") && msg.contains("positive"));
    }
}
