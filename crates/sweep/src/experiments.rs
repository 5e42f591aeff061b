//! Experiment registry: one entry per paper artifact (tables and figures)
//! plus the §5 extension studies and the validation/ablation experiments
//! documented in DESIGN.md.

use crate::figure::{lambda_hi_for, sweep_figure_paper_grid, FigureSeries, SweepParam};
use crate::render::{fmt_num, Table};
use crate::series::to_csv;
use crate::table_rho::rho_table;
use rexec_core::prelude::*;
use rexec_harness::HarnessError;
use rexec_platforms::{all_configurations, configuration, ConfigId, Configuration};
use rexec_platforms::{PlatformId, ProcessorId};
use rexec_sim::{
    render_timeline, Engine, MonteCarlo, SimConfig, SimRng, TraceRecorder, ValidationReport,
};
use std::fmt::Write as _;

/// A rendered experiment: human-readable report plus CSV datasets.
#[derive(Debug, Clone)]
pub struct ExperimentResult {
    /// Title describing the paper artifact.
    pub title: String,
    /// Human-readable report (ASCII tables / summaries).
    pub report: String,
    /// Named CSV datasets (filename stem → contents).
    pub datasets: Vec<(String, String)>,
}

impl ExperimentResult {
    /// Number of data points this experiment produced: CSV rows across
    /// its datasets (headers excluded), or — for report-only experiments
    /// without datasets — the non-empty lines of the rendered report.
    pub fn point_count(&self) -> usize {
        if self.datasets.is_empty() {
            self.report.lines().filter(|l| !l.trim().is_empty()).count()
        } else {
            self.datasets
                .iter()
                .map(|(_, csv)| csv.lines().count().saturating_sub(1))
                .sum()
        }
    }
}

fn hera_xscale() -> Configuration {
    configuration(ConfigId {
        platform: PlatformId::Hera,
        processor: ProcessorId::IntelXScale,
    })
}

fn atlas_crusoe() -> Configuration {
    configuration(ConfigId {
        platform: PlatformId::Atlas,
        processor: ProcessorId::TransmetaCrusoe,
    })
}

/// Degrades one failed sweep point to a tagged row instead of aborting
/// the whole experiment: label, dashes, and an `ERR(tag)` marker in the
/// last column. Counted in `sweep.point_errors`, and per cause in
/// `sweep.err.<tag>` so a metrics snapshot says *which* degradations a
/// run hit, not just how many.
fn tagged_error_row(label: String, ncols: usize, tag: &str) -> Vec<String> {
    rexec_obs::counter!("sweep.point_errors").incr();
    // Dynamic name: the tag varies per failure cause, so this bypasses
    // the handle-caching macro on purpose (see `counter!`'s docs).
    rexec_obs::global()
        .counter(&format!("sweep.err.{tag}"))
        .incr();
    let mut row = vec![label];
    row.extend(std::iter::repeat_n(
        "-".to_string(),
        ncols.saturating_sub(2),
    ));
    row.push(format!("ERR({tag})"));
    row
}

/// Summarizes one figure series as a few key rows.
fn series_summary(s: &FigureSeries) -> String {
    let mut t = Table::new(vec![
        "x", "sigma1", "sigma2", "Wopt(2)", "E/W(2)", "sigma", "Wopt(1)", "E/W(1)", "saving",
    ]);
    let n = s.points.len();
    let picks: Vec<usize> = [0, n / 4, n / 2, 3 * n / 4, n - 1]
        .into_iter()
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .collect();
    for &i in &picks {
        let p = &s.points[i];
        let (a, b, c, d) =
            p.two_speed
                .map_or(("-".into(), "-".into(), "-".into(), "-".into()), |x| {
                    (
                        fmt_num(x.sigma1, 2),
                        fmt_num(x.sigma2, 2),
                        fmt_num(x.w_opt.round(), 0),
                        fmt_num(x.energy_overhead, 1),
                    )
                });
        let (e, f, g) = p
            .one_speed
            .map_or(("-".into(), "-".into(), "-".into()), |x| {
                (
                    fmt_num(x.sigma1, 2),
                    fmt_num(x.w_opt.round(), 0),
                    fmt_num(x.energy_overhead, 1),
                )
            });
        let sv = p
            .saving()
            .map_or("-".into(), |v| format!("{:.1}%", 100.0 * v));
        t.row(vec![fmt_num(p.x, 4), a, b, c, d, e, f, g, sv]);
    }
    let mut out = t.render();
    if let Some(max) = s.max_saving() {
        let _ = writeln!(
            out,
            "max two-speed saving over this sweep: {:.1}% ({} of {} points use two distinct speeds)",
            100.0 * max,
            s.two_distinct_speed_points(),
            s.points.len()
        );
    }
    out
}

fn run_table(rho: f64) -> ExperimentResult {
    let t = rho_table(&hera_xscale(), rho);
    ExperimentResult {
        title: format!("Section 4.2 table, Hera/XScale, rho = {}", fmt_num(rho, 3)),
        report: t.render(),
        datasets: vec![],
    }
}

fn run_figure1() -> ExperimentResult {
    // Reproduce the three schematic executions of Figure 1 from real
    // simulated traces: error-free, fail-stop, and silent-error patterns
    // with σ2 = 2σ1.
    let costs = ResilienceCosts::symmetric(100.0, 20.0);
    let power = PowerModel::new(1550.0, 60.0, 5.0).unwrap();
    let mut report = String::new();
    let mut render_case = |name: &str, rates: ErrorRates, want_errors: bool| {
        let cfg = SimConfig {
            w: 1000.0,
            sigma1: 0.5,
            sigma2: 1.0,
            rates,
            costs,
            power,
        };
        for seed in 0..1000 {
            let mut tr = TraceRecorder::new(128);
            let p = rexec_sim::engine::simulate_pattern_traced(
                &cfg,
                &mut SimRng::new(seed),
                Some(&mut tr),
            );
            let had_errors = p.attempts > 1;
            if had_errors == want_errors && p.attempts <= 2 {
                let _ = writeln!(report, "({name})  {}", render_timeline(tr.events()));
                return;
            }
        }
        let _ = writeln!(report, "({name})  <no matching trace found>");
    };
    render_case("a: no error", ErrorRates::new(0.0, 0.0).unwrap(), false);
    render_case(
        "b: fail-stop error",
        ErrorRates::fail_stop_only(5e-4).unwrap(),
        true,
    );
    render_case(
        "c: silent error",
        ErrorRates::silent_only(5e-4).unwrap(),
        true,
    );
    report.push_str(
        "\nLegend: [W σ=s ...] one attempt at speed s; * silent error struck (latent);\n\
         X fail-stop interrupt; |V verification (v+ pass / v- fail); |R recovery; |C checkpoint.\n\
         As in Figure 1, re-executions run at σ2 = 2σ1.\n",
    );
    ExperimentResult {
        title: "Figure 1: periodic pattern timelines (simulated)".into(),
        report,
        datasets: vec![],
    }
}

/// Figures 2–7: one Atlas/Crusoe sweep each, in [`SweepParam::ALL`] order.
fn run_figure_2_to_7(n: usize) -> ExperimentResult {
    let cfg = atlas_crusoe();
    let param = SweepParam::ALL[n - 2];
    let s = sweep_figure_paper_grid(&cfg, param, lambda_hi_for(&cfg));
    ExperimentResult {
        title: format!("Figure {n}: Atlas/Crusoe, sweep of {}", param.label()),
        report: series_summary(&s),
        datasets: vec![(format!("fig{n}_atlas_crusoe_{}", param.label()), to_csv(&s))],
    }
}

/// Figures 8–14: all six sweeps for the configuration after Atlas/Crusoe
/// in [`ConfigId::ALL`] order.
fn run_figure_config(n: usize) -> ExperimentResult {
    let cfg = configuration(ConfigId::ALL[n - 7]);
    let mut report = String::new();
    let mut datasets = vec![];
    for param in SweepParam::ALL {
        let s = sweep_figure_paper_grid(&cfg, param, lambda_hi_for(&cfg));
        let _ = writeln!(report, "--- sweep of {} ---", param.label());
        report.push_str(&series_summary(&s));
        report.push('\n');
        datasets.push((
            format!(
                "fig{n}_{}_{}",
                cfg.name().to_lowercase().replace(['/', ' '], "_"),
                param.label()
            ),
            to_csv(&s),
        ));
    }
    ExperimentResult {
        title: format!("Figure {n}: {}, all six sweeps", cfg.name()),
        report,
        datasets,
    }
}

fn run_theorem2() -> ExperimentResult {
    let c = 300.0;
    let sigma = 0.5;
    let pts = theorem2::wopt_samples(c, sigma, 1e-7, 1e-3, 25);
    let slope = theorem2::loglog_slope(&pts);
    let yd_pts: Vec<(f64, f64)> = pts
        .iter()
        .map(|&(l, _)| (l, daly::young_daly_work(c, l, sigma)))
        .collect();
    let yd_slope = theorem2::loglog_slope(&yd_pts);

    // Numeric cross-check on the exact mixed model at three rates.
    let mut t = Table::new(vec![
        "lambda",
        "Wopt (Thm 2)",
        "Wopt (exact numeric)",
        "rel err",
    ]);
    for &lambda in &[1e-6, 1e-5, 1e-4] {
        let mm = MixedModel::new(
            ErrorRates::fail_stop_only(lambda).unwrap(),
            ResilienceCosts::new(c, 0.0, c).unwrap(),
            PowerModel::new(1550.0, 60.0, 5.0).unwrap(),
        );
        let (w_num, _) = numeric::exact_time_minimizer_mixed(&mm, sigma, 2.0 * sigma);
        let w_thm = theorem2::optimal_work(c, lambda, sigma);
        t.row(vec![
            format!("{lambda:.0e}"),
            fmt_num(w_thm.round(), 0),
            fmt_num(w_num.round(), 0),
            format!("{:.2}%", 100.0 * (w_num - w_thm).abs() / w_thm),
        ]);
    }
    let report = format!(
        "Fail-stop errors only, re-execution twice faster (σ2 = 2σ1):\n\
         fitted log-log slope of Wopt(λ):   {slope:.4}  (Theorem 2 predicts -2/3)\n\
         Young/Daly slope for comparison:   {yd_slope:.4}  (predicts -1/2)\n\n{}",
        t.render()
    );
    let mut csv = String::from("lambda,wopt_theorem2,wopt_young_daly\n");
    for (p, y) in pts.iter().zip(&yd_pts) {
        let _ = writeln!(csv, "{},{},{}", p.0, p.1, y.1);
    }
    ExperimentResult {
        title: "Theorem 2: Θ(λ^{-2/3}) optimal checkpointing (σ2 = 2σ1, fail-stop)".into(),
        report,
        datasets: vec![("theorem2_scaling".into(), csv)],
    }
}

fn run_validity_window() -> ExperimentResult {
    let mut t = Table::new(vec![
        "fail-stop fraction f",
        "lower bound on σ2/σ1",
        "upper bound",
    ]);
    for f in [1.0, 0.75, 0.5, 0.25, 0.1, 0.01] {
        let (lo, hi) = FirstOrder::validity_window(f);
        t.row(vec![fmt_num(f, 2), format!("{lo:.4}"), format!("{hi:.2}")]);
    }
    let report = format!(
        "First-order approximation validity (§5.2): the approach admits a\n\
         solution iff (2(1+s/f))^(-1/2) < σ2/σ1 < 2(1+s/f).\n\n{}\n\
         With silent errors only (f = 0) the window is unbounded; the more\n\
         fail-stop errors dominate, the narrower the admissible speed ratio.\n",
        t.render()
    );
    ExperimentResult {
        title: "Section 5.2: validity window of the first-order approximation".into(),
        report,
        datasets: vec![],
    }
}

/// Formats one Hera/XScale validation row of X-mc or X-mc-mixed,
/// degrading an engine refusal (e.g. a degenerate never-completes
/// config) to a tagged ERR row per the sweep policy instead of aborting
/// the experiment. Returns whether the row validated.
fn validation_row(
    t: &mut Table,
    model: &str,
    rep: Result<ValidationReport, rexec_sim::EngineError>,
) -> bool {
    match rep {
        Ok(rep) => {
            t.row(vec![
                "Hera/XScale".to_string(),
                model.to_string(),
                fmt_num(rep.expected_time, 1),
                fmt_num(rep.summary.time.mean(), 1),
                format!("{:.3}%", 100.0 * rep.time_rel_error()),
                fmt_num(rep.expected_energy, 0),
                fmt_num(rep.summary.energy.mean(), 0),
                format!("{:.3}%", 100.0 * rep.energy_rel_error()),
            ]);
            rep.ok()
        }
        Err(_) => {
            t.row(tagged_error_row("Hera/XScale".to_string(), 8, "engine"));
            false
        }
    }
}

fn run_monte_carlo(seed: u64) -> ExperimentResult {
    let trials = 40_000;
    let mut t = Table::new(vec![
        "config",
        "model",
        "T analytic",
        "T sampled",
        "rel",
        "E analytic",
        "E sampled",
        "rel",
    ]);
    // Silent-only on Hera/XScale at the paper's ρ = 3 optimum, with an
    // inflated λ so errors are actually exercised.
    let hx = hera_xscale();
    let m = hx.silent_model().unwrap().with_lambda(1e-4);
    let (w, s1, s2) = (2764.0, 0.4, 0.8);
    let cfg = SimConfig::from_silent_model(&m, w, s1, s2);
    // Silent-only, i.e. the closed-form fast path at λᶠ = 0; select it
    // explicitly so the validation row keeps exercising it even if the
    // `Engine::Auto` heuristic changes.
    let rep = MonteCarlo::new(cfg, trials, seed)
        .with_engine(Engine::FastPath)
        .validate(
            m.expected_time(w, s1, s2),
            m.expected_energy(w, s1, s2),
            3.29,
        );
    let ok1 = validation_row(&mut t, "silent (Props 2-3)", rep);

    // Mixed errors, kept on the per-attempt reference engine so this row
    // stays bit-reproducible against historical runs (the mixed fast
    // path has its own dedicated X-mc-mixed experiment).
    let mm = MixedModel::new(ErrorRates::new(8e-5, 5e-5).unwrap(), m.costs, m.power);
    let cfg2 = SimConfig::from_mixed_model(&mm, 3000.0, 0.6, 1.0);
    let rep2 = MonteCarlo::new(cfg2, trials, seed.wrapping_mul(2))
        .with_engine(Engine::Reference)
        .validate(
            mm.expected_time(3000.0, 0.6, 1.0),
            mm.expected_energy(3000.0, 0.6, 1.0),
            3.29,
        );
    let ok2 = validation_row(&mut t, "mixed (Props 4-5)", rep2);

    let report = format!(
        "{}\n{} independent pattern simulations per row; analytic values\n\
         {} inside the 99.9% CI of the sampled mean.\n",
        t.render(),
        trials,
        if ok1 && ok2 { "lie" } else { "DO NOT lie" }
    );
    ExperimentResult {
        title: "Monte Carlo validation of the analytic expectations".into(),
        report,
        datasets: vec![],
    }
}

/// Vertex of the parabola through the discrete argmin of a sampled
/// `(x, y)` curve and its two neighbours (`x` uniformly spaced). Falls
/// back to the raw argmin when it sits on the grid edge or the 3-point
/// stencil is not convex (noise can produce a flat or concave stencil).
fn parabola_argmin(curve: &[(f64, f64)]) -> f64 {
    let i = curve
        .iter()
        .enumerate()
        .min_by(|a, b| a.1 .1.total_cmp(&b.1 .1))
        .map(|(i, _)| i)
        .expect("curve must be non-empty");
    if i == 0 || i + 1 == curve.len() {
        return curve[i].0;
    }
    let h = curve[i].0 - curve[i - 1].0;
    let (ym, y0, yp) = (curve[i - 1].1, curve[i].1, curve[i + 1].1);
    let denom = ym - 2.0 * y0 + yp;
    if denom <= 0.0 {
        return curve[i].0;
    }
    curve[i].0 + 0.5 * h * (ym - yp) / denom
}

/// λ grid of the simulated Theorem 2 slope: `THEOREM2_N_LAMBDA`
/// log-spaced rates over this range.
const THEOREM2_LAMBDAS: (f64, f64) = (1e-5, 3e-4);
const THEOREM2_N_LAMBDA: u32 = 8;
/// W grid of each λ, as factors of the analytic optimum: geometric, wide
/// enough to bracket the exact minimizer even where it drifts below the
/// first-order optimum at the high-λ end.
const THEOREM2_W_FACTORS: (f64, f64) = (0.45, 2.2);
const THEOREM2_N_W: u32 = 13;

/// `n` geometric factors `1, r, r², …` spanning `lo..=hi` relative to
/// `lo` (`r = (hi/lo)^(1/(n−1))`), each the previous one times `r`:
/// plain IEEE multiplies in a fixed order. `powi` is not used for a
/// published grid because its precision is unspecified — a different
/// codegen may move a grid point by an ulp and with it the CSV digits.
fn geometric_factors((lo, hi): (f64, f64), n: u32) -> Vec<f64> {
    let ratio = (hi / lo).powf(1.0 / f64::from(n - 1));
    let mut factors = Vec::with_capacity(n as usize);
    let mut factor = 1.0;
    for _ in 0..n {
        factors.push(factor);
        factor *= ratio;
    }
    factors
}

/// One λ of the simulated Theorem 2 grid (X-mc-mixed).
#[derive(Debug, Clone)]
pub struct Theorem2Lambda {
    /// Fail-stop error rate.
    pub lambda: f64,
    /// Theorem 2's optimal work `(12C/λ²)^(1/3)·σ₁`.
    pub w_theory: f64,
    /// The seed every config of this λ runs with: common random numbers
    /// keep the sampled overhead curve correlated across `W`, which
    /// stabilizes its argmin far better than fresh draws would.
    pub seed: u64,
    /// One config per `W` of the geometric grid around `w_theory`
    /// (fail-stop errors only, σ₂ = 2σ₁ — the model of Theorem 2).
    pub configs: Vec<SimConfig>,
}

/// The simulated Theorem 2 grid of X-mc-mixed for master seed `seed`:
/// `THEOREM2_N_LAMBDA` log-spaced λ, each with `THEOREM2_N_W` `W`
/// configs and its own seed.
pub fn theorem2_sim_grid(seed: u64) -> Vec<Theorem2Lambda> {
    let c = 300.0;
    let (sigma1, sigma2) = (0.5, 1.0);
    let costs = ResilienceCosts::new(c, 0.0, c).expect("constant costs are valid");
    let power = PowerModel::new(1550.0, 60.0, 5.0).expect("constant power model is valid");
    let w_factors = geometric_factors(THEOREM2_W_FACTORS, THEOREM2_N_W);
    let l_factors = geometric_factors(THEOREM2_LAMBDAS, THEOREM2_N_LAMBDA);
    (0..THEOREM2_N_LAMBDA)
        .zip(l_factors)
        .map(|(i, l_factor)| {
            let lambda = THEOREM2_LAMBDAS.0 * l_factor;
            let w_theory = theorem2::optimal_work(c, lambda, sigma1);
            let rates = ErrorRates::fail_stop_only(lambda).expect("grid rates are positive");
            let mm = MixedModel::new(rates, costs, power);
            let configs = w_factors
                .iter()
                .map(|&w_factor| {
                    let w = w_theory * THEOREM2_W_FACTORS.0 * w_factor;
                    SimConfig::from_mixed_model(&mm, w, sigma1, sigma2)
                })
                .collect();
            Theorem2Lambda {
                lambda,
                w_theory,
                seed: seed.wrapping_add(u64::from(i)),
                configs,
            }
        })
        .collect()
}

/// Recovers the Theorem 2 scaling law from *simulation*: for each λ of
/// [`theorem2_sim_grid`] the mixed fast path samples the expected time
/// overhead `T/W` of every `W` config on common random numbers
/// ([`MonteCarlo::run_common`]), and the minimizer is refined with a
/// 3-point parabola fit in `(ln W, T/W)`. Returns the fitted log–log
/// slope of the simulated `Wopt(λ)` (Theorem 2 predicts −2/3) plus
/// per-λ rows `(λ, Some(wopt_sim), wopt_theory)`; a λ with a config the
/// engine refuses (a degenerate never-completes point) degrades to
/// `None` and is excluded from the fit instead of aborting the sweep.
fn simulated_theorem2_slope(seed: u64, trials: u64) -> (f64, Vec<(f64, Option<f64>, f64)>) {
    let mut rows = Vec::new();
    let mut fit: Vec<(f64, f64)> = Vec::new();
    for point in theorem2_sim_grid(seed) {
        let wopt_sim = MonteCarlo::run_common(&point.configs, trials, point.seed)
            .ok()
            .map(|summaries| {
                let curve: Vec<(f64, f64)> = point
                    .configs
                    .iter()
                    .zip(&summaries)
                    .map(|(cfg, summary)| (cfg.w.ln(), summary.time.mean() / cfg.w))
                    .collect();
                parabola_argmin(&curve).exp()
            });
        if let Some(wopt_sim) = wopt_sim {
            fit.push((point.lambda, wopt_sim));
        }
        rows.push((point.lambda, wopt_sim, point.w_theory));
    }
    (theorem2::loglog_slope(&fit), rows)
}

fn run_monte_carlo_mixed(seed: u64) -> ExperimentResult {
    // Part 1: the mixed fast path against the closed forms of
    // Propositions 4-5 (the z = 4 statistical-identity version lives in
    // the integration suite; this row pins the experiment artifact).
    let trials = 60_000;
    let hx = hera_xscale();
    let m = hx.silent_model().unwrap().with_lambda(1e-4);
    let mm = MixedModel::new(ErrorRates::new(8e-5, 5e-5).unwrap(), m.costs, m.power);
    let (w, s1, s2) = (3000.0, 0.6, 1.0);
    let cfg = SimConfig::from_mixed_model(&mm, w, s1, s2);
    let mut t = Table::new(vec![
        "config",
        "model",
        "T analytic",
        "T sampled",
        "rel",
        "E analytic",
        "E sampled",
        "rel",
    ]);
    // Forced FastPath on a mixed config: before the mixed fast path this
    // exact call panicked inside the rayon workers.
    let rep = MonteCarlo::new(cfg, trials, seed)
        .with_engine(Engine::FastPath)
        .validate(
            mm.expected_time(w, s1, s2),
            mm.expected_energy(w, s1, s2),
            3.29,
        );
    let ok = validation_row(&mut t, "mixed fast path (Props 4-5)", rep);

    // Part 2: the simulated Theorem 2 slope.
    let (slope, rows) = simulated_theorem2_slope(seed, 100_000);
    let mut st = Table::new(vec!["lambda", "Wopt (simulated)", "Wopt (Thm 2)", "ratio"]);
    let mut csv = String::from("lambda,wopt_sim,wopt_theory\n");
    for &(lambda, wopt_sim, w_theory) in &rows {
        match wopt_sim {
            Some(ws) => {
                st.row(vec![
                    format!("{lambda:.2e}"),
                    fmt_num(ws.round(), 0),
                    fmt_num(w_theory.round(), 0),
                    format!("{:.3}", ws / w_theory),
                ]);
                let _ = writeln!(csv, "{lambda},{ws},{w_theory}");
            }
            None => {
                st.row(tagged_error_row(format!("{lambda:.2e}"), 4, "engine"));
            }
        }
    }
    let report = format!(
        "{}\n{} independent pattern simulations; analytic values {} inside\n\
         the 99.9% CI of the sampled mean.\n\n\
         Simulated Theorem 2 law (fail-stop only, σ2 = 2σ1):\n\
         fitted log-log slope of simulated Wopt(λ): {slope:.4}  (Theorem 2\n\
         predicts -2/3)\n\n{}",
        t.render(),
        trials,
        if ok { "lie" } else { "DO NOT lie" },
        st.render()
    );
    ExperimentResult {
        title: "Mixed fast path: Props 4-5 validation + simulated Theorem 2 slope".into(),
        report,
        datasets: vec![("mc_mixed_scaling".into(), csv)],
    }
}

fn run_laws(seed: u64) -> ExperimentResult {
    let trials: u64 = 40_000;
    let z = 3.29;
    let hx = hera_xscale();
    let m = hx.silent_model().unwrap().with_lambda(1e-4);
    let (w, s1, s2) = (2764.0, 0.4, 0.8);
    let n = trials as f64;
    // T's distribution is a lattice (deterministic given the retry
    // count), so when the analytic tail sits right on 1-q the sampled
    // quantile legitimately lands one attempt over. Bracket the target
    // level by the sampling noise of an order statistic at q and accept
    // anything inside [quantile(q-dq), quantile(q+dq)], padded by the
    // 1% histogram resolution.
    let q99 = 0.99;
    let dq = z * (q99 * (1.0 - q99) / n).sqrt();
    let q_bracket = [q99 - dq, q99, q99 + dq];

    let mut t = Table::new(vec![
        "scenario",
        "T analytic",
        "T sampled",
        "T rel",
        "E rel",
        "N rel",
        "p99 analytic",
        "p99 sampled",
        "check",
    ]);
    let mut csv = String::from("scenario,stat,analytic,sampled\n");
    let mut all_ok = true;

    // One row per scenario: analytic values from the renewal closed
    // form of the scenario's ScheduleModel, sampled values from the
    // per-attempt scenario engine. All scenarios share one seed (common
    // random numbers), so cross-law differences in the table are
    // distributional, not sampling noise.
    let law_row = |t: &mut Table, csv: &mut String, name: &str, sm: &ScheduleModel, run| {
        let (te, ee, ne) = (
            sm.expected_time(w),
            sm.expected_energy(w),
            sm.expected_executions(w),
        );
        let [p99_lo, p99, p99_hi] = q_bracket.map(|q| sm.quantile_time(w, q));
        match run {
            Ok((summary, th, _)) => {
                let (summary, th): (rexec_sim::Summary, rexec_obs::HistogramSketch) = (summary, th);
                let p99_s = th.quantile(q99).unwrap_or(f64::NAN);
                let ok = (summary.time.mean() - te).abs() <= z * summary.time.std_dev() / n.sqrt()
                    && (summary.energy.mean() - ee).abs()
                        <= z * summary.energy.std_dev() / n.sqrt()
                    && (summary.attempts.mean() - ne).abs()
                        <= z * summary.attempts.std_dev() / n.sqrt()
                    && p99_s >= 0.97 * p99_lo
                    && p99_s <= 1.03 * p99_hi;
                t.row(vec![
                    name.to_string(),
                    fmt_num(te, 1),
                    fmt_num(summary.time.mean(), 1),
                    format!("{:.3}%", 100.0 * (summary.time.mean() / te - 1.0).abs()),
                    format!("{:.3}%", 100.0 * (summary.energy.mean() / ee - 1.0).abs()),
                    format!("{:.3}%", 100.0 * (summary.attempts.mean() / ne - 1.0).abs()),
                    fmt_num(p99, 1),
                    fmt_num(p99_s, 1),
                    if ok { "OK".into() } else { "MISS".into() },
                ]);
                for (stat, a, s) in [
                    ("time", te, summary.time.mean()),
                    ("energy", ee, summary.energy.mean()),
                    ("attempts", ne, summary.attempts.mean()),
                    ("p99_time", p99, p99_s),
                ] {
                    let _ = writeln!(csv, "{name},{stat},{a},{s}");
                }
                ok
            }
            Err(_) => {
                t.row(tagged_error_row(name.to_string(), 9, "engine"));
                false
            }
        }
    };

    for (name, law) in [
        ("exponential", ErrorLaw::Exponential),
        ("weibull k=0.7", ErrorLaw::Weibull { shape: 0.7 }),
        ("weibull k=1.5", ErrorLaw::Weibull { shape: 1.5 }),
        ("lognormal s=1", ErrorLaw::LogNormal { sigma: 1.0 }),
    ] {
        let cfg = SimConfig::from_silent_model(&m, w, s1, s2);
        let run = MonteCarlo::new(cfg, trials, seed)
            .with_law(law)
            .run_with_histograms();
        let sm = ScheduleModel::new(m, SpeedSchedule::two_speed(s1, s2).unwrap()).with_law(law);
        all_ok &= law_row(&mut t, &mut csv, name, &sm, run);
    }

    // A 3-speed schedule under the exponential law, against the exact
    // generalized-geometric closed forms of ScheduleModel.
    let schedule = SpeedSchedule::new(s1, vec![0.6, 1.0]).unwrap();
    let sm = ScheduleModel::new(m, schedule.clone());
    let run = MonteCarlo::new(SimConfig::from_silent_model(&m, w, s1, 1.0), trials, seed)
        .with_schedule(schedule)
        .run_with_histograms();
    all_ok &= law_row(&mut t, &mut csv, "schedule (0.4,0.6,1)", &sm, run);

    // CRN sanity anchor: Weibull with shape 1 *is* the exponential law,
    // and its sampler consumes the uniform stream identically, so the
    // scenario engine must reproduce the reference engine bit for bit.
    let cfg = SimConfig::from_silent_model(&m, w, s1, s2);
    let shape_one = MonteCarlo::new(cfg, 10_000, seed)
        .with_law(ErrorLaw::Weibull { shape: 1.0 })
        .run();
    let reference = MonteCarlo::new(cfg, 10_000, seed)
        .with_engine(Engine::Reference)
        .run();
    let identical = match (shape_one, reference) {
        (Ok(a), Ok(b)) => {
            a.time.mean().to_bits() == b.time.mean().to_bits()
                && a.energy.mean().to_bits() == b.energy.mean().to_bits()
                && a.attempts.mean().to_bits() == b.attempts.mean().to_bits()
        }
        _ => false,
    };
    all_ok &= identical;

    // Deadline-constrained schedule search, validated in-distribution:
    // the solver bounds the analytic p99 of T/W; the simulated p99 of
    // the winning schedule must respect the same bound.
    let rho = 3.0;
    let speeds = hx.speed_set().unwrap();
    let mut deadline_note = String::new();
    match solve_quantile(&m, &speeds, rho, 0.99, 2) {
        Some(sol) => {
            let cfg = SimConfig::from_silent_model(
                &m,
                sol.w_opt,
                sol.schedule.sigma1,
                sol.schedule.settled(),
            );
            let run = MonteCarlo::new(cfg, trials, seed)
                .with_schedule(sol.schedule.clone())
                .run_with_histograms();
            match run {
                Ok((_, th, _)) => {
                    let p99 = th.quantile(0.99).unwrap_or(f64::NAN) / sol.w_opt;
                    // 1% histogram resolution + discrete attempt grid.
                    let ok = p99 <= rho * 1.02;
                    all_ok &= ok;
                    let _ = writeln!(
                        deadline_note,
                        "deadline solve (p99 of T/W <= {rho}, depth 2): schedule {}, Wopt = {:.0};\n\
                         simulated p99(T)/W = {p99:.4} [{}]",
                        sol.schedule,
                        sol.w_opt,
                        if ok { "OK" } else { "MISS" }
                    );
                }
                Err(_) => {
                    all_ok = false;
                    let _ = writeln!(deadline_note, "deadline solve: ERR(engine)");
                }
            }
        }
        None => {
            all_ok = false;
            let _ = writeln!(deadline_note, "deadline solve: ERR(infeasible)");
        }
    }

    let report = format!(
        "Hera/XScale, λ = 1e-4 (silent only), W = {w}, σ = ({s1}, {s2});\n\
         {trials} scenario-engine simulations per row, one shared seed (CRN):\n\n{}\n\
         weibull(shape=1) vs exponential reference engine: {}\n\n{}\n\
         All checks {}: sampled means inside the 99.9% CI of the renewal\n\
         closed forms, sampled p99 within 3% of the exact discrete quantile\n\
         bracketed at q = 0.99 ± {dq:.2e} (order-statistic noise).\n",
        t.render(),
        if identical {
            "bit-identical"
        } else {
            "DIVERGED (CRN contract broken)"
        },
        deadline_note,
        if all_ok { "passed" } else { "FAILED" }
    );
    ExperimentResult {
        title: "Extension: non-memoryless error laws + re-execution speed schedules".into(),
        report,
        datasets: vec![("laws_validation".into(), csv)],
    }
}

fn run_exact_vs_first_order() -> ExperimentResult {
    let mut t = Table::new(vec![
        "config",
        "pair (FO)",
        "Wopt (FO)",
        "Wopt (exact)",
        "E/W (FO)",
        "E/W (exact)",
        "gap",
    ]);
    for cfg in all_configurations() {
        let m = cfg.silent_model().unwrap();
        let speeds = cfg.speed_set().unwrap();
        let solver = cfg.solver().unwrap();
        let rho = Configuration::DEFAULT_RHO;
        // A solver failure on one configuration degrades to a tagged row
        // instead of aborting the other seven.
        let (Some(fo), Some((s1, s2, ex))) = (
            solver.solve(rho),
            numeric::exact_bicrit_solve(&m, &speeds, rho),
        ) else {
            t.row(tagged_error_row(cfg.name(), 7, "infeasible"));
            continue;
        };
        let gap = (fo.energy_overhead - ex.objective).abs() / ex.objective;
        if (s1, s2) != (fo.sigma1, fo.sigma2) {
            t.row(tagged_error_row(cfg.name(), 7, "pair-mismatch"));
            continue;
        }
        t.row(vec![
            cfg.name(),
            format!("({}, {})", fmt_num(fo.sigma1, 2), fmt_num(fo.sigma2, 2)),
            fmt_num(fo.w_opt.round(), 0),
            fmt_num(ex.w.round(), 0),
            fmt_num(fo.energy_overhead, 1),
            fmt_num(ex.objective, 1),
            format!("{:.3}%", 100.0 * gap),
        ]);
    }
    ExperimentResult {
        title: "Ablation: Theorem 1 closed form vs exact numeric optimization (rho = 3)".into(),
        report: t.render(),
        datasets: vec![],
    }
}

fn run_optimal_pair_regions() -> ExperimentResult {
    // §4.2: "it is possible, for a well-chosen ρ, to have almost any speed
    // pair as the optimal solution (except the pairs with very low
    // speeds)". Scan ρ geometrically and record the winner's region.
    let solver = hera_xscale().solver().unwrap();
    let mut regions: Vec<(f64, f64, (f64, f64))> = vec![]; // [rho_lo, rho_hi] -> pair
    let mut rho = solver.min_feasible_rho() * 1.0001;
    let mut current: Option<(f64, f64, (f64, f64))> = None;
    while rho < 12.0 {
        if let Some(best) = solver.solve(rho) {
            let pair = (best.sigma1, best.sigma2);
            match current.as_mut() {
                Some(region) if region.2 == pair => region.1 = rho,
                _ => {
                    if let Some(region) = current.take() {
                        regions.push(region);
                    }
                    current = Some((rho, rho, pair));
                }
            }
        }
        rho *= 1.001;
    }
    if let Some(region) = current.take() {
        regions.push(region);
    }
    let mut t = Table::new(vec!["rho from", "rho to", "optimal (sigma1, sigma2)"]);
    for (lo, hi, (s1, s2)) in &regions {
        t.row(vec![
            format!("{lo:.4}"),
            format!("{hi:.4}"),
            format!("({}, {})", fmt_num(*s1, 2), fmt_num(*s2, 2)),
        ]);
    }
    let distinct: std::collections::BTreeSet<(i64, i64)> = regions
        .iter()
        .map(|r| ((r.2 .0 * 100.0) as i64, (r.2 .1 * 100.0) as i64))
        .collect();
    let report = format!(
        "Hera/XScale, ρ scanned geometrically over [ρ*, 12]:\n\n{}\n\
         {} distinct optimal pairs; none uses σ1 = 0.15 (the paper's\n\
         'pairs with very low speeds' exclusion).\n",
        t.render(),
        distinct.len()
    );
    assert!(distinct.iter().all(|&(s1, _)| s1 != 15));
    ExperimentResult {
        title: "Section 4.2: optimal speed-pair regions as rho varies".into(),
        report,
        datasets: vec![],
    }
}

fn run_lambda_robustness() -> ExperimentResult {
    // If the true error rate is λ but the plan was computed with x·λ, how
    // much energy does the mis-planned execution actually cost? Evaluate
    // the mis-planned (W, σ1, σ2) under the *true* exact model.
    let cfg = hera_xscale();
    let true_model = cfg.silent_model().unwrap();
    let speeds = cfg.speed_set().unwrap();
    let rho = Configuration::DEFAULT_RHO;
    let Some(oracle) = BiCritSolver::new(true_model, speeds.clone()).solve(rho) else {
        rexec_obs::counter!("sweep.point_errors").incr();
        return ExperimentResult {
            title: "Robustness of the plan to misestimated error rates".into(),
            report: format!("ERR(infeasible): Hera/XScale has no plan at rho = {rho}\n"),
            datasets: vec![],
        };
    };
    let oracle_e = true_model.energy_overhead(oracle.w_opt, oracle.sigma1, oracle.sigma2);

    let mut t = Table::new(vec![
        "assumed λ / true λ",
        "planned pair",
        "planned W",
        "true E/W",
        "penalty",
        "true T/W",
    ]);
    let mut max_penalty: f64 = 0.0;
    for factor in [0.1, 0.3, 1.0, 3.0, 10.0] {
        let wrong = true_model.with_lambda(true_model.lambda * factor);
        let Some(plan) = BiCritSolver::new(wrong, speeds.clone()).solve(rho) else {
            t.row(tagged_error_row(format!("{factor}"), 6, "infeasible"));
            continue;
        };
        let e = true_model.energy_overhead(plan.w_opt, plan.sigma1, plan.sigma2);
        let time = true_model.time_overhead(plan.w_opt, plan.sigma1, plan.sigma2);
        let penalty = e / oracle_e - 1.0;
        max_penalty = max_penalty.max(penalty);
        t.row(vec![
            format!("{factor}"),
            format!("({}, {})", fmt_num(plan.sigma1, 2), fmt_num(plan.sigma2, 2)),
            fmt_num(plan.w_opt.round(), 0),
            fmt_num(e, 2),
            format!("{:+.2}%", 100.0 * penalty),
            fmt_num(time, 3),
        ]);
    }
    let report = format!(
        "Hera/XScale, ρ = 3; plans computed with a misestimated λ are\n\
         re-evaluated under the true exact model (oracle E/W = {:.2}):\n\n{}\n\
         Square-root-flat optimum: even a 10× rate misestimate costs only\n\
         {:.1}% extra energy — the Young/Daly-style robustness carries over.\n",
        oracle_e,
        t.render(),
        100.0 * max_penalty
    );
    ExperimentResult {
        title: "Robustness of the plan to misestimated error rates".into(),
        report,
        datasets: vec![],
    }
}

fn run_pareto() -> ExperimentResult {
    use rexec_core::ParetoFrontier;
    let mut report = String::new();
    let mut datasets = vec![];
    for cfg in [hera_xscale(), atlas_crusoe()] {
        let solver = cfg.solver().unwrap();
        let frontier = ParetoFrontier::compute(&solver, 10.0, 300);
        let _ = writeln!(
            report,
            "--- {} : {} non-dominated points, pairs along the frontier: {:?} ---",
            cfg.name(),
            frontier.len(),
            frontier.speed_pairs()
        );
        let mut t = Table::new(vec!["T/W", "E/W", "sigma1", "sigma2", "Wopt"]);
        let n = frontier.len();
        for idx in [0, n / 4, n / 2, 3 * n / 4, n.saturating_sub(1)] {
            let p = &frontier.points[idx.min(n - 1)];
            t.row(vec![
                format!("{:.3}", p.time_overhead),
                format!("{:.1}", p.energy_overhead),
                fmt_num(p.sigma1, 2),
                fmt_num(p.sigma2, 2),
                fmt_num(p.w_opt.round(), 0),
            ]);
        }
        report.push_str(&t.render());
        report.push('\n');
        let mut csv = String::from("rho,time_overhead,energy_overhead,sigma1,sigma2,w_opt\n");
        for p in &frontier.points {
            let _ = writeln!(
                csv,
                "{},{},{},{},{},{}",
                p.rho, p.time_overhead, p.energy_overhead, p.sigma1, p.sigma2, p.w_opt
            );
        }
        datasets.push((
            format!(
                "pareto_{}",
                cfg.name().to_lowercase().replace(['/', ' '], "_")
            ),
            csv,
        ));
    }
    ExperimentResult {
        title: "Time/energy Pareto frontier (trade-off curve of BiCrit)".into(),
        report,
        datasets,
    }
}

fn run_multi_verification() -> ExperimentResult {
    use rexec_core::multiverif;
    let cfg = hera_xscale();
    let base = cfg.silent_model().unwrap();
    let speeds = cfg.speed_set().unwrap();
    let rho = Configuration::DEFAULT_RHO;
    let mut t = Table::new(vec![
        "lambda",
        "best q",
        "pair",
        "Wopt",
        "E/W (multi)",
        "E/W (q=1)",
        "gain",
    ]);
    for factor in [1.0, 10.0, 30.0, 100.0] {
        let m = base.with_lambda(base.lambda * factor);
        let (Some(multi), Some(single)) = (
            multiverif::optimize(&m, &speeds, rho, 8),
            numeric::exact_bicrit_solve(&m, &speeds, rho),
        ) else {
            t.row(tagged_error_row(
                format!("{:.2e}", m.lambda),
                7,
                "infeasible",
            ));
            continue;
        };
        let gain = 1.0 - multi.energy_overhead / single.2.objective;
        t.row(vec![
            format!("{:.2e}", m.lambda),
            multi.q.to_string(),
            format!(
                "({}, {})",
                fmt_num(multi.sigma1, 2),
                fmt_num(multi.sigma2, 2)
            ),
            fmt_num(multi.w_opt.round(), 0),
            fmt_num(multi.energy_overhead, 2),
            fmt_num(single.2.objective, 2),
            format!("{:.2}%", 100.0 * gain),
        ]);
    }
    let report = format!(
        "Hera/XScale, ρ = 3, q ∈ [1, 8] verifications per checkpoint\n\
         (extension of §6's interleaved-verification patterns [6] to the\n\
         two-speed re-execution model; q = 1 is the paper's model):\n\n{}\n\
         Early detection trims the re-executed work; with V ≪ C the\n\
         optimal q exceeds 1, and the gain grows with the error rate.\n",
        t.render()
    );
    ExperimentResult {
        title: "Extension: multiple verifications per checkpoint + two speeds".into(),
        report,
        datasets: vec![],
    }
}

fn run_continuous_speeds() -> ExperimentResult {
    use rexec_core::continuous;
    let rho = Configuration::DEFAULT_RHO;
    let mut t = Table::new(vec![
        "config",
        "discrete pair",
        "E/W discrete",
        "continuous pair",
        "E/W continuous",
        "gap",
    ]);
    for cfg in all_configurations() {
        let m = cfg.silent_model().unwrap();
        let speeds = cfg.speed_set().unwrap();
        let (Some(discrete), Some(cont)) = (
            cfg.solver().unwrap().solve(rho),
            continuous::solve(&m, speeds.min(), speeds.max(), rho),
        ) else {
            t.row(tagged_error_row(cfg.name(), 6, "infeasible"));
            continue;
        };
        let gap = 1.0 - cont.energy_overhead / discrete.energy_overhead;
        t.row(vec![
            cfg.name(),
            format!(
                "({}, {})",
                fmt_num(discrete.sigma1, 2),
                fmt_num(discrete.sigma2, 2)
            ),
            fmt_num(discrete.energy_overhead, 1),
            format!("({:.3}, {:.3})", cont.sigma1, cont.sigma2),
            fmt_num(cont.energy_overhead, 1),
            format!("{:.2}%", 100.0 * gap),
        ]);
    }
    let report = format!(
        "Continuous-speed relaxation over [σ_min, σ_max] vs the paper's\n\
         discrete DVFS steps (ρ = 3): the gap is the energy left on the\n\
         table by discreteness.\n\n{}",
        t.render()
    );
    ExperimentResult {
        title: "Extension: continuous-speed relaxation (discretization gap)".into(),
        report,
        datasets: vec![],
    }
}

fn run_heatmap() -> ExperimentResult {
    use crate::grid::Grid;
    use crate::heatmap::Heatmap;
    let cfg = hera_xscale();
    let map = Heatmap::compute(
        &cfg,
        &Grid::log(1e-6, 2e-3, 16),
        &Grid::linear(1.1, 8.0, 40),
    );
    let report = format!(
        "{}\ntwo distinct speeds win in {:.1}% of feasible cells; {} pairs appear.\n",
        map.render_pair_map(),
        100.0 * map.two_speed_fraction(),
        map.winning_pairs().len()
    );
    ExperimentResult {
        title: "2-D map: optimal speed pair over (lambda, rho), Hera/XScale".into(),
        report,
        datasets: vec![("heatmap_hera_xscale".into(), map.to_csv())],
    }
}

/// Default base seed of the Monte Carlo experiments (kept at the
/// historical value so golden reports stay stable).
pub const DEFAULT_SEED: u64 = 2024;

/// One runnable unit: its canonical id (the work-unit key of the run
/// manifest, the CLI and the report filenames), its position in the
/// `--quick` subset if it belongs there, and the function computing its
/// result from the Monte Carlo base seed.
type Unit = (&'static str, Option<u8>, fn(u64) -> ExperimentResult);

/// Every experiment in paper order: the §4.2 tables, Figures 1–14, then
/// the §5 and validation/ablation studies. The one place an id is
/// defined.
const UNITS: [Unit; 30] = [
    ("T-rho8", Some(0), |_| run_table(8.0)),
    ("T-rho3", Some(1), |_| run_table(3.0)),
    ("T-rho1_775", None, |_| run_table(1.775)),
    ("T-rho1_4", None, |_| run_table(1.4)),
    ("F1", None, |_| run_figure1()),
    ("F2", None, |_| run_figure_2_to_7(2)),
    ("F3", None, |_| run_figure_2_to_7(3)),
    ("F4", Some(3), |_| run_figure_2_to_7(4)),
    ("F5", None, |_| run_figure_2_to_7(5)),
    ("F6", None, |_| run_figure_2_to_7(6)),
    ("F7", None, |_| run_figure_2_to_7(7)),
    ("F8", None, |_| run_figure_config(8)),
    ("F9", None, |_| run_figure_config(9)),
    ("F10", None, |_| run_figure_config(10)),
    ("F11", None, |_| run_figure_config(11)),
    ("F12", None, |_| run_figure_config(12)),
    ("F13", None, |_| run_figure_config(13)),
    ("F14", None, |_| run_figure_config(14)),
    ("X-thm2", Some(4), |_| run_theorem2()),
    ("X-validity", Some(2), |_| run_validity_window()),
    ("X-mc", None, run_monte_carlo),
    ("X-mc-mixed", None, run_monte_carlo_mixed),
    ("X-ablation", None, |_| run_exact_vs_first_order()),
    ("X-pairs", None, |_| run_optimal_pair_regions()),
    ("X-robust", None, |_| run_lambda_robustness()),
    ("X-pareto", None, |_| run_pareto()),
    ("X-multiverif", None, |_| run_multi_verification()),
    ("X-continuous", None, |_| run_continuous_speeds()),
    ("X-heatmap", None, |_| run_heatmap()),
    ("X-laws", Some(5), run_laws),
];

/// Handle of a runnable experiment: a row of the unit table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExperimentId(usize);

/// Runs one experiment; `seed` drives its Monte Carlo sampling (most
/// experiments are deterministic and ignore it). Per-point solver
/// failures degrade to `ERR(...)`-tagged rows inside the result, so
/// this never returns an error today.
///
/// Instrumented: each run is timed under an `experiment.<id>` span,
/// `sweep.experiments_run` counts completions and `sweep.points` sums
/// the produced data points.
pub fn run_experiment_seeded(
    id: ExperimentId,
    seed: u64,
) -> Result<ExperimentResult, HarnessError> {
    let (key, _, run) = UNITS[id.0];
    let result = {
        let _timer = rexec_obs::global().span(&format!("experiment.{key}"));
        run(seed)
    };
    rexec_obs::counter!("sweep.experiments_run").incr();
    rexec_obs::counter!("sweep.points").add(result.point_count() as u64);
    Ok(result)
}

/// Canonical short id of an experiment — the work-unit key used by the
/// run manifest, the CLI and report filenames.
pub fn id_string(id: ExperimentId) -> String {
    UNITS[id.0].0.to_string()
}

/// Parses a canonical id (as printed by [`id_string`]) back into an
/// [`ExperimentId`]; dots are accepted where ids use underscores
/// (`T-rho1.775` ≡ `T-rho1_775`).
pub fn parse_id(s: &str) -> Option<ExperimentId> {
    let s = s.replace('.', "_");
    UNITS.iter().position(|u| u.0 == s).map(ExperimentId)
}

/// Every experiment, in paper order.
pub fn all_experiment_ids() -> Vec<ExperimentId> {
    (0..UNITS.len()).map(ExperimentId).collect()
}

/// The fast subset used by `experiments --quick`, in its own order:
/// small enough for CI fault-injection smoke runs and in-tree
/// crash/resume tests, while still covering both report-only and
/// dataset-producing units.
pub fn quick_experiment_ids() -> Vec<ExperimentId> {
    let mut ids = all_experiment_ids();
    ids.retain(|id| UNITS[id.0].1.is_some());
    ids.sort_by_key(|id| UNITS[id.0].1);
    ids
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_seeded(id: &str, seed: u64) -> ExperimentResult {
        run_experiment_seeded(parse_id(id).unwrap(), seed).unwrap()
    }

    fn run(id: &str) -> ExperimentResult {
        run_seeded(id, DEFAULT_SEED)
    }

    #[test]
    fn tagged_error_rows_count_per_cause() {
        let g = rexec_obs::global();
        let total_before = g.counter("sweep.point_errors").get();
        let tag_before = g.counter("sweep.err.test-cause").get();
        let row = tagged_error_row("point".into(), 4, "test-cause");
        assert_eq!(row, vec!["point", "-", "-", "ERR(test-cause)"]);
        assert_eq!(g.counter("sweep.point_errors").get(), total_before + 1);
        assert_eq!(g.counter("sweep.err.test-cause").get(), tag_before + 1);
    }

    #[test]
    fn table_experiments_reproduce_paper() {
        let r = run("T-rho3");
        assert!(r.report.contains("2764"));
        assert!(r.report.contains("416"));
    }

    #[test]
    fn figure1_produces_three_timelines() {
        let r = run("F1");
        assert!(r.report.contains("(a: no error)"));
        assert!(r.report.contains("(b: fail-stop error)"));
        assert!(r.report.contains("(c: silent error)"));
        assert!(r.report.contains("v+"));
        assert!(!r.report.contains("<no matching trace found>"));
    }

    #[test]
    fn figure_experiments_have_csv_datasets() {
        let r = run("F4");
        assert_eq!(r.datasets.len(), 1);
        assert!(r.datasets[0].1.contains("x,sigma1"));
    }

    #[test]
    fn figure_config_runs_all_six_sweeps() {
        let r = run("F8");
        assert_eq!(r.datasets.len(), 6);
        assert!(r.title.contains("Hera/XScale"));
    }

    #[test]
    fn theorem2_slopes_in_report() {
        let r = run("X-thm2");
        assert!(r.report.contains("-0.6667"), "report: {}", r.report);
        assert!(r.report.contains("-0.5000"));
    }

    #[test]
    fn validity_window_report_has_fail_stop_row() {
        let r = run("X-validity");
        assert!(r.report.contains("0.7071"), "1/√2 lower bound for f = 1");
    }

    #[test]
    fn ablation_gap_is_small() {
        let r = run("X-ablation");
        // All eight configs present.
        assert_eq!(r.report.lines().count(), 2 + 8);
    }

    #[test]
    fn point_count_counts_csv_rows_or_report_lines() {
        let r = run("F4");
        assert_eq!(r.point_count(), r.datasets[0].1.lines().count() - 1);
        let t = run("T-rho3");
        assert!(t.datasets.is_empty() && t.point_count() > 0);
    }

    #[test]
    fn seeded_monte_carlo_is_reproducible() {
        let a = run_seeded("X-mc", 7);
        let b = run_seeded("X-mc", 7);
        assert_eq!(a.report, b.report);
    }

    #[test]
    fn simulated_theorem2_slope_matches_prediction() {
        // Fewer trials than the shipped X-mc-mixed experiment: common
        // random numbers plus the parabola refinement keep the fit
        // tight enough for the ±0.05 acceptance band at debug-build
        // speed.
        let (slope, rows) = simulated_theorem2_slope(DEFAULT_SEED, 20_000);
        assert!(rows.iter().all(|r| r.1.is_some()), "rows: {rows:?}");
        assert!(
            (slope + 2.0 / 3.0).abs() <= 0.05,
            "simulated slope {slope:.4} outside -2/3 +/- 0.05"
        );
    }

    /// Pins the simulated Theorem 2 grid bit for bit: X-mc-mixed's CSV
    /// prints every λ and `Wopt` digit, so a grid point that moves by an
    /// ulp (as `powi` may under a different codegen) must fail here
    /// rather than silently change the published artifact.
    #[test]
    fn theorem2_grid_factors_are_pinned() {
        let bits = |range, n| -> Vec<u64> {
            geometric_factors(range, n)
                .into_iter()
                .map(f64::to_bits)
                .collect()
        };
        assert_eq!(
            bits(THEOREM2_LAMBDAS, THEOREM2_N_LAMBDA),
            [
                0x3ff0000000000000,
                0x3ffa02836621c57b,
                0x40052415b87f329b,
                0x40112efab6752144,
                0x401bef0a66299dd8,
                0x4026b46a1762311f,
                0x4032745eb4aa961c,
                0x403dffffffffffff,
            ]
        );
        assert_eq!(
            bits(THEOREM2_W_FACTORS, THEOREM2_N_W),
            [
                0x3ff0000000000000,
                0x3ff243227be416e7,
                0x3ff4d82747d91c10,
                0x3ff7caa2420b6963,
                0x3ffb27ca58931ba3,
                0x3ffefeb4c9cb64bf,
                0x4001b04c62a8f4cd,
                0x4004308e4e74fd57,
                0x40070b56efafa46d,
                0x400a4d72f439b4b6,
                0x400e057e545e3cee,
                0x40112212ea06fb6e,
                0x40138e38e38e38e2,
            ]
        );
    }

    #[test]
    fn id_list_covers_all_artifacts() {
        let ids = all_experiment_ids();
        // 4 tables + F1 + 6 figures + 7 config panels + 12 extras.
        assert_eq!(ids.len(), 4 + 1 + 6 + 7 + 12);
    }

    #[test]
    fn optimal_pair_regions_finds_many_winners() {
        let r = run("X-pairs");
        assert!(r.report.contains("distinct optimal pairs"));
        assert!(!r.report.contains("(0.15"));
    }

    #[test]
    fn lambda_robustness_penalties_are_small() {
        let r = run("X-robust");
        // The factor-1 row must show a zero penalty.
        assert!(r.report.contains("+0.00%"), "report: {}", r.report);
    }

    #[test]
    fn multi_verification_reports_q_greater_than_one() {
        let r = run("X-multiverif");
        assert!(r.report.contains("verifications per checkpoint"));
        // At inflated rates the best q must exceed 1 somewhere.
        let qs: Vec<u32> = r
            .report
            .lines()
            .filter(|l| l.contains('('))
            .filter_map(|l| l.split_whitespace().nth(1)?.parse().ok())
            .collect();
        assert!(qs.iter().any(|&q| q > 1), "qs = {qs:?}\n{}", r.report);
    }

    #[test]
    fn continuous_speeds_gap_is_nonnegative() {
        let r = run("X-continuous");
        assert!(r.report.contains("discretization") || r.title.contains("discretization"));
        assert!(
            !r.report.contains("-0."),
            "gaps must be >= 0:\n{}",
            r.report
        );
    }

    #[test]
    fn heatmap_experiment_has_map_and_csv() {
        let r = run("X-heatmap");
        assert!(r.report.contains("legend:"));
        assert_eq!(r.datasets.len(), 1);
    }

    #[test]
    fn laws_experiment_validates_every_scenario() {
        let r = run_seeded("X-laws", DEFAULT_SEED);
        for row in [
            "exponential",
            "weibull k=0.7",
            "weibull k=1.5",
            "lognormal s=1",
            "schedule (0.4,0.6,1)",
            "deadline solve",
        ] {
            assert!(r.report.contains(row), "missing `{row}`:\n{}", r.report);
        }
        assert!(r.report.contains("bit-identical"), "{}", r.report);
        assert!(
            !r.report.contains("MISS") && !r.report.contains("ERR"),
            "{}",
            r.report
        );
        assert!(r.report.contains("All checks passed"), "{}", r.report);
        assert_eq!(r.datasets.len(), 1);
        // Seeded reproducibility: the whole report, CSV included, is a
        // pure function of the seed.
        let again = run_seeded("X-laws", DEFAULT_SEED);
        assert_eq!(r.report, again.report);
        assert_eq!(r.datasets, again.datasets);
    }

    #[test]
    fn pareto_experiment_produces_two_datasets() {
        let r = run("X-pareto");
        assert_eq!(r.datasets.len(), 2);
        assert!(r.report.contains("Hera/XScale"));
        assert!(r.report.contains("Atlas/Crusoe"));
    }
}
