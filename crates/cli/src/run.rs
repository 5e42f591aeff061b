//! Builds the model from parsed arguments and renders the plan.

use crate::args::{fmt_spec_error, Args};
use crate::spec::SpecError;
use rexec_core::{
    solve_quantile, solve_schedule, BiCritSolver, ExecutionPlan, ParetoFrontier, ScheduleModel,
};
use rexec_sim::{render_timeline, MonteCarlo, SimConfig, ValidationReport};
use std::fmt::Write as _;

/// Everything `rexec-plan` computed, ready to print.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// The rendered report.
    pub report: String,
    /// Whether a feasible plan was found.
    pub feasible: bool,
    /// JSON metrics snapshot (present when `--metrics` was given).
    pub metrics_json: Option<String>,
    /// Prometheus text exposition of the metrics snapshot (present when
    /// `--metrics-prom` was given).
    pub metrics_prom: Option<String>,
    /// Chrome trace-event JSON of the run's span timeline (present when
    /// `--trace-chrome` was given).
    pub trace_chrome: Option<String>,
    /// JSON Lines event trace (present when `--trace-jsonl` was given
    /// and a feasible plan could be simulated).
    pub trace_jsonl: Option<String>,
}

/// Errors surfaced to the user.
#[derive(Debug)]
pub enum RunError {
    /// The parameters fail the shared spec's rules or do not resolve to
    /// a model (bad name, missing parameter, unsupported law, …).
    Spec(SpecError),
    /// The simulation engine refused the config (degenerate pattern).
    Engine(rexec_sim::EngineError),
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::Spec(e) => fmt_spec_error(e, f),
            RunError::Engine(e) => write!(f, "simulation refused: {e}"),
        }
    }
}

impl std::error::Error for RunError {}

impl From<SpecError> for RunError {
    fn from(e: SpecError) -> Self {
        RunError::Spec(e)
    }
}

impl From<rexec_sim::EngineError> for RunError {
    fn from(e: rexec_sim::EngineError) -> Self {
        RunError::Engine(e)
    }
}

/// How many patterns `--trace-jsonl` simulates into one bounded trace.
const TRACE_TRIALS: u64 = 4;
/// Event capacity of the `--trace-jsonl` recorder; overflow is counted
/// as dropped and reported instead of silently discarded.
const TRACE_CAPACITY: usize = 4096;

/// The run's observability payloads, as the flags asked for them.
fn outcome(args: &Args, report: String, feasible: bool, trace_jsonl: Option<String>) -> Outcome {
    Outcome {
        report,
        feasible,
        metrics_json: args.metrics.is_some().then(rexec_obs::snapshot_json),
        metrics_prom: args
            .metrics_prom
            .is_some()
            .then(|| rexec_obs::prometheus_text(rexec_obs::global())),
        trace_chrome: args
            .trace_chrome
            .is_some()
            .then(rexec_obs::chrome_trace_json),
        trace_jsonl,
    }
}

/// Runs the planner and renders the report. The model resolves through
/// the shared [`PlanSpec`](crate::spec::PlanSpec) path — the same
/// resolution the serve wire protocol uses.
pub fn execute(args: &Args) -> Result<Outcome, RunError> {
    if args.metrics.is_some() || args.metrics_prom.is_some() {
        // Span timing is off by default (it reads the clock); a metrics
        // snapshot is the explicit request for it.
        rexec_obs::set_spans_enabled(true);
    }
    if args.trace_chrome.is_some() {
        rexec_obs::set_timeline_enabled(true);
    }
    let resolved = args.spec.resolve()?;
    let rho = resolved.rho;
    let solver = BiCritSolver::new(resolved.model, resolved.speeds);
    let m = *solver.model();
    let mut report = String::new();
    let _ = writeln!(
        report,
        "model: lambda = {:.3e}/s, C = {} s, V = {} s, R = {} s",
        m.lambda, m.costs.checkpoint, m.costs.verification, m.costs.recovery
    );
    let _ = writeln!(
        report,
        "power: {} sigma^3 + {} mW, Pio = {:.2} mW; speeds {:?}; rho = {}",
        m.power.kappa,
        m.power.p_idle,
        m.power.p_io,
        solver.speeds().values(),
        rho
    );

    if args.verbose {
        eprintln!(
            "[rexec-plan] model ready; solving over {} speed pairs (rho = {})",
            solver.speeds().values().len().pow(2),
            rho
        );
    }

    let solution = solver.solve(rho);
    if args.verbose {
        let g = rexec_obs::global();
        eprintln!(
            "[rexec-plan] solver: {} pairs evaluated, {} infeasible, {} unbounded",
            g.counter("bicrit.pairs_evaluated").get(),
            g.counter("bicrit.pairs_infeasible").get(),
            g.counter("bicrit.pairs_unbounded").get(),
        );
        eprintln!(
            "[rexec-plan] candidate table: {} pairs built in {:.3} ms ({} builds), {} cache hits",
            g.counter("bicrit.table_pairs").get(),
            g.gauge("bicrit.table_build_secs").get() * 1e3,
            g.counter("bicrit.table_builds").get(),
            g.counter("bicrit.table_hits").get(),
        );
    }
    let Some(best) = solution else {
        let _ = writeln!(
            report,
            "\nINFEASIBLE: no speed pair meets rho = {}; smallest feasible rho is {:.4}",
            rho,
            solver.min_feasible_rho()
        );
        return Ok(outcome(args, report, false, None));
    };

    let _ = writeln!(report, "\n=== optimal two-speed plan ===");
    let _ = writeln!(
        report,
        "sigma1 = {}, sigma2 = {}, Wopt = {:.0} work units",
        best.sigma1, best.sigma2, best.w_opt
    );
    let _ = writeln!(
        report,
        "energy overhead E/W = {:.2} mJ/unit, time overhead T/W = {:.4} s/unit",
        best.energy_overhead, best.time_overhead
    );

    if args.compare_one_speed {
        if let Some(one) = solver.solve_one_speed(rho) {
            let saving = 100.0 * (1.0 - best.energy_overhead / one.energy_overhead);
            let _ = writeln!(
                report,
                "one-speed baseline: sigma = {}, Wopt = {:.0}, E/W = {:.2}  (two-speed saves {:.1}%)",
                one.sigma1, one.w_opt, one.energy_overhead, saving
            );
        }
    }

    if let Some(w_base) = args.w_base {
        let plan = ExecutionPlan::from_solution(&m, best, w_base);
        let _ = writeln!(report, "\n{plan}");
    }

    if args.validate > 0 {
        let cfg = SimConfig::from_silent_model(&m, best.w_opt, best.sigma1, best.sigma2);
        let mc = MonteCarlo::new(cfg, args.validate, 0xC0FFEE);
        let summary = if args.verbose {
            eprintln!("[rexec-plan] Monte Carlo: {} trials", args.validate);
            mc.run_with_progress(&mut |done, total| {
                eprintln!("[rexec-plan]   {done}/{total} trials");
            })?
        } else {
            mc.run()?
        };
        let rep = ValidationReport {
            summary,
            expected_time: m.expected_time(best.w_opt, best.sigma1, best.sigma2),
            expected_energy: m.expected_energy(best.w_opt, best.sigma1, best.sigma2),
            z: 3.29,
        };
        let _ = writeln!(
            report,
            "\nMonte Carlo ({} trials): time rel err {:.4}% [{}], energy rel err {:.4}% [{}]",
            args.validate,
            100.0 * rep.time_rel_error(),
            if rep.time_ok() { "OK" } else { "MISS" },
            100.0 * rep.energy_rel_error(),
            if rep.energy_ok() { "OK" } else { "MISS" },
        );
    }

    if let Some(n) = args.pareto {
        let frontier = ParetoFrontier::compute(&solver, (rho * 3.0).max(10.0), n.max(2));
        let _ = writeln!(
            report,
            "\ntime/energy Pareto frontier ({} non-dominated points):",
            frontier.len()
        );
        let _ = writeln!(
            report,
            "{:>9} {:>12} {:>7} {:>7} {:>10}",
            "T/W", "E/W", "s1", "s2", "Wopt"
        );
        for p in &frontier.points {
            let _ = writeln!(
                report,
                "{:>9.4} {:>12.2} {:>7} {:>7} {:>10.0}",
                p.time_overhead, p.energy_overhead, p.sigma1, p.sigma2, p.w_opt
            );
        }
    }

    if let Some(depth) = args.spec.schedule_depth {
        let _ = writeln!(
            report,
            "\n=== re-execution schedule search (depth {depth}) ==="
        );
        match solve_schedule(&m, solver.speeds(), rho, depth as usize) {
            Some(sol) => {
                let saving = 100.0 * (1.0 - sol.energy_overhead / best.energy_overhead);
                let _ = writeln!(
                    report,
                    "schedule {} (settles on {}), Wopt = {:.0}",
                    sol.schedule,
                    sol.schedule.settled(),
                    sol.w_opt
                );
                let _ = writeln!(
                    report,
                    "energy overhead E/W = {:.2} mJ/unit, time overhead T/W = {:.4} s/unit  (vs two-speed: {saving:+.2}%)",
                    sol.energy_overhead, sol.time_overhead
                );
            }
            None => {
                let _ = writeln!(
                    report,
                    "INFEASIBLE: no depth-{depth} schedule meets rho = {}",
                    rho
                );
            }
        }
    }

    if let Some(q) = args.spec.quantile {
        let depth = args.spec.schedule_depth.unwrap_or(1);
        let _ = writeln!(
            report,
            "\n=== deadline plan (P[T/W <= rho] >= {q}, depth {depth}) ==="
        );
        match solve_quantile(&m, solver.speeds(), rho, q, depth as usize) {
            Some(sol) => {
                let sm = ScheduleModel::new(m, sol.schedule.clone());
                let _ = writeln!(report, "schedule {}, Wopt = {:.0}", sol.schedule, sol.w_opt);
                let _ = writeln!(
                    report,
                    "energy overhead E/W = {:.2} mJ/unit, p{:.0} time overhead T/W = {:.4} s/unit (mean {:.4})",
                    sol.energy_overhead,
                    q * 100.0,
                    sol.time_overhead,
                    sm.time_overhead(sol.w_opt)
                );
            }
            None => {
                let _ = writeln!(
                    report,
                    "INFEASIBLE: no schedule keeps the p{:.0} of T/W within rho = {}",
                    q * 100.0,
                    rho
                );
            }
        }
    }

    let mut trace_jsonl = None;
    if args.trace_jsonl.is_some() {
        let cfg = SimConfig::from_silent_model(&m, best.w_opt, best.sigma1, best.sigma2);
        let (ts, recorder) =
            MonteCarlo::new(cfg, TRACE_TRIALS, 0xC0FFEE).run_with_trace(TRACE_CAPACITY)?;
        let _ = writeln!(
            report,
            "\n=== simulated pattern trace ({TRACE_TRIALS} patterns) ===",
        );
        let _ = writeln!(report, "{}", render_timeline(recorder.events()));
        let _ = writeln!(
            report,
            "trace: {} events recorded, {} dropped (capacity {TRACE_CAPACITY})",
            recorder.events().len(),
            ts.dropped_events,
        );
        trace_jsonl = Some(recorder.to_jsonl());
    }

    Ok(outcome(args, report, true, trace_jsonl))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::PlanSpec;

    fn parse(args: &[&str]) -> Args {
        Args::parse(args.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn named_configuration_reproduces_paper_plan() {
        let out = execute(&parse(&["--platform", "hera", "--processor", "xscale"])).unwrap();
        assert!(out.feasible);
        assert!(out.report.contains("sigma1 = 0.4, sigma2 = 0.4"));
        assert!(out.report.contains("Wopt = 2764"));
    }

    #[test]
    fn custom_parameters_stand_alone() {
        let out = execute(&parse(&[
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
            "0.25,0.5,0.75,1.0",
        ]))
        .unwrap();
        assert!(out.feasible);
        assert!(out.report.contains("optimal two-speed plan"));
    }

    #[test]
    fn overrides_apply_on_top_of_named_configuration() {
        // Hera with a 10x error rate: pattern must shrink vs 2764.
        let out = execute(&parse(&[
            "--platform",
            "hera",
            "--processor",
            "xscale",
            "--lambda",
            "3.38e-5",
        ]))
        .unwrap();
        assert!(out.feasible);
        assert!(!out.report.contains("Wopt = 2764"));
    }

    #[test]
    fn infeasible_reports_min_rho() {
        let out = execute(&parse(&[
            "--platform",
            "hera",
            "--processor",
            "xscale",
            "--rho",
            "1.0",
        ]))
        .unwrap();
        assert!(!out.feasible);
        assert!(out.report.contains("INFEASIBLE"));
        assert!(out.report.contains("smallest feasible rho"));
    }

    #[test]
    fn one_speed_comparison_and_wbase_plan() {
        let out = execute(&parse(&[
            "--platform",
            "hera",
            "--processor",
            "xscale",
            "--rho",
            "1.775",
            "--one-speed",
            "--wbase",
            "1e7",
        ]))
        .unwrap();
        assert!(out.report.contains("one-speed baseline"));
        assert!(out.report.contains("two-speed saves"));
        assert!(out.report.contains("execution plan for Wbase"));
    }

    #[test]
    fn monte_carlo_validation_runs() {
        let out = execute(&parse(&[
            "--platform",
            "hera",
            "--processor",
            "xscale",
            "--validate",
            "2000",
        ]))
        .unwrap();
        assert!(out.report.contains("Monte Carlo (2000 trials)"));
        assert!(out.report.contains("[OK]"));
    }

    #[test]
    fn pareto_frontier_prints() {
        let out = execute(&parse(&[
            "--platform",
            "hera",
            "--processor",
            "xscale",
            "--pareto",
            "50",
        ]))
        .unwrap();
        assert!(out.report.contains("Pareto frontier"));
    }

    #[test]
    fn schedule_search_section_prints_and_never_loses_to_two_speed() {
        let out = execute(&parse(&[
            "--platform",
            "hera",
            "--processor",
            "xscale",
            "--schedule-depth",
            "2",
        ]))
        .unwrap();
        assert!(out.feasible);
        assert!(out
            .report
            .contains("re-execution schedule search (depth 2)"));
        assert!(out.report.contains("settles on"));
        assert!(out.report.contains("vs two-speed:"));
        // Depth-2 schedules include every constant (two-speed) schedule;
        // the search and the BiCrit solver use different W optimizers, so
        // allow sub-percent numeric slack but no real loss.
        let hera = parse(&["--platform", "hera", "--processor", "xscale"])
            .spec
            .resolve()
            .unwrap()
            .model;
        let d2 = rexec_core::solve_schedule(
            &hera,
            &rexec_core::SpeedSet::new(vec![0.15, 0.4, 0.6, 0.8, 1.0]).unwrap(),
            3.0,
            2,
        )
        .expect("feasible");
        let d1 = rexec_core::solve_schedule(
            &hera,
            &rexec_core::SpeedSet::new(vec![0.15, 0.4, 0.6, 0.8, 1.0]).unwrap(),
            3.0,
            1,
        )
        .expect("feasible");
        assert!(d2.energy_overhead <= d1.energy_overhead * (1.0 + 1e-9));
    }

    #[test]
    fn quantile_section_prints_the_deadline_plan() {
        let out = execute(&parse(&[
            "--platform",
            "hera",
            "--processor",
            "xscale",
            "--quantile",
            "0.99",
        ]))
        .unwrap();
        assert!(out.report.contains("deadline plan (P[T/W <= rho] >= 0.99"));
        assert!(out.report.contains("p99 time overhead"));
    }

    #[test]
    fn non_exponential_laws_get_a_typed_unsupported_error() {
        let err = execute(&parse(&[
            "--platform",
            "hera",
            "--processor",
            "xscale",
            "--law",
            "weibull",
            "--shape",
            "0.7",
        ]));
        match err {
            Err(RunError::Spec(SpecError::Unsupported {
                field: "law",
                reason,
            })) => {
                assert!(reason.contains("memoryless"));
            }
            other => panic!("expected Unsupported, got {other:?}"),
        }
        // The exponential law is the planner's native model.
        let ok = execute(&parse(&[
            "--platform",
            "hera",
            "--processor",
            "xscale",
            "--law",
            "exponential",
        ]))
        .unwrap();
        assert!(ok.feasible);
    }

    /// A programmatic [`Args`] skips the parser's domain check; `execute`
    /// must still blame the rule `Args::parse` blames, not a rebuilt
    /// model error.
    #[test]
    fn execute_names_the_rule_the_parser_names() {
        let cases = [
            (
                PlanSpec {
                    quantile: Some(1.5),
                    ..PlanSpec::default()
                },
                ["--quantile", "1.5"],
            ),
            (
                PlanSpec {
                    schedule_depth: Some(7),
                    ..PlanSpec::default()
                },
                ["--schedule-depth", "7"],
            ),
            (
                PlanSpec {
                    quantile: Some(f64::NAN),
                    ..PlanSpec::default()
                },
                ["--quantile", "NaN"],
            ),
        ];
        for (spec, flags) in cases {
            let args = Args {
                spec: PlanSpec {
                    platform: Some("hera".into()),
                    processor: Some("xscale".into()),
                    ..spec
                },
                ..Args::default()
            };
            let argv = ["--platform", "hera", "--processor", "xscale"]
                .into_iter()
                .chain(flags)
                .map(String::from);
            let parsed = Args::parse(argv).unwrap_err().to_string();
            let executed = execute(&args).unwrap_err().to_string();
            assert_eq!(executed, parsed, "execute and parse disagree on {flags:?}");
        }
    }

    #[test]
    fn unknown_names_error() {
        let err = execute(&parse(&["--platform", "jupiter", "--processor", "xscale"]));
        assert!(matches!(
            err,
            Err(RunError::Spec(SpecError::UnknownName { .. }))
        ));
        let err2 = execute(&parse(&["--platform", "hera", "--processor", "epyc"]));
        assert!(matches!(
            err2,
            Err(RunError::Spec(SpecError::UnknownName { .. }))
        ));
    }

    #[test]
    fn underspecified_custom_setup_errors() {
        let err = execute(&parse(&["--lambda", "1e-5"]));
        assert!(matches!(
            err,
            Err(RunError::Spec(SpecError::Underspecified(_)))
        ));
        let msg = format!("{}", err.unwrap_err());
        assert!(msg.contains("--checkpoint"));
    }

    #[test]
    fn metrics_snapshot_has_solver_counters_and_span_sections() {
        let out = execute(&parse(&[
            "--config",
            "hera",
            "--processor",
            "xscale",
            "--metrics",
            "ignored.json",
        ]))
        .unwrap();
        let json = out.metrics_json.expect("--metrics fills metrics_json");
        let v: serde::Value = serde_json::from_str(&json).expect("snapshot is valid JSON");
        assert!(matches!(v, serde::Value::Object(_)));
        for key in ["counters", "histograms", "gauges", "spans"] {
            assert!(json.contains(key), "missing section {key}");
        }
        assert!(json.contains("bicrit.pairs_evaluated"));
        // The solver precomputed its candidate table at construction...
        assert!(json.contains("bicrit.table_builds"));
        assert!(json.contains("bicrit.table_hits"));
        // ...and spans were enabled by --metrics, so the solve span ran.
        assert!(json.contains("bicrit.solve"));
    }

    #[test]
    fn trace_jsonl_round_trips_and_surfaces_drop_counts() {
        let out = execute(&parse(&[
            "--config",
            "hera",
            "--processor",
            "xscale",
            "--trace-jsonl",
            "ignored.jsonl",
        ]))
        .unwrap();
        let jsonl = out.trace_jsonl.expect("--trace-jsonl fills trace_jsonl");
        let events = rexec_sim::events_from_jsonl(&jsonl).unwrap();
        assert!(!events.is_empty());
        assert_eq!(jsonl.lines().count(), events.len());
        assert!(out.report.contains("simulated pattern trace"));
        assert!(out.report.contains("events recorded"));
        assert!(out.report.contains("dropped"));
    }

    #[test]
    fn plain_runs_produce_no_observability_payloads() {
        let out = execute(&parse(&["--platform", "hera", "--processor", "xscale"])).unwrap();
        assert!(out.metrics_json.is_none());
        assert!(out.metrics_prom.is_none());
        assert!(out.trace_chrome.is_none());
        assert!(out.trace_jsonl.is_none());
    }

    #[test]
    fn prom_and_chrome_exports_are_well_formed() {
        let out = execute(&parse(&[
            "--config",
            "hera",
            "--processor",
            "xscale",
            "--validate",
            "2000",
            "--metrics-prom",
            "ignored.prom",
            "--trace-chrome",
            "ignored.trace.json",
        ]))
        .unwrap();
        let prom = out.metrics_prom.expect("--metrics-prom fills metrics_prom");
        rexec_obs::check_prometheus_text(&prom).expect("exposition passes the strict checker");
        assert!(prom.contains("rexec_bicrit_pairs_evaluated_total"));
        let trace = out.trace_chrome.expect("--trace-chrome fills trace_chrome");
        let n = rexec_obs::validate_chrome_trace(&trace).expect("trace-event JSON validates");
        assert!(n > 0, "the run recorded at least the solve span");
    }

    #[test]
    fn default_pio_is_dynamic_power_at_min_speed() {
        let model = parse(&[
            "--lambda",
            "1e-5",
            "--checkpoint",
            "100",
            "--verification",
            "10",
            "--kappa",
            "1000",
            "--pidle",
            "10",
            "--speeds",
            "0.5,1.0",
        ])
        .spec
        .resolve()
        .unwrap()
        .model;
        assert!((model.power.p_io - 1000.0 * 0.125).abs() < 1e-9);
    }
}
