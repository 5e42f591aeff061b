//! Tracked benchmark runner: measures the solver, sweep and simulator
//! stages end-to-end and emits a machine-readable `BENCH_sweeps.json`,
//! so every PR records the perf trajectory alongside the paper artifacts.
//!
//! ```text
//! rexec-bench [--quick] [--repeat N] [--out PATH] [--no-history]
//! rexec-bench compare BASELINE CURRENT [--iqr-band K] [--min-pct P]
//!
//!   --quick       CI-sized workloads (seconds, not minutes)
//!   --repeat N    run the whole suite N times; report per-stage
//!                 median wall time with the interquartile range
//!                 (default 1: a single pass, IQR 0)
//!   --out         output path (default: BENCH_sweeps.json)
//!   --no-history  skip appending this run to BENCH_history.jsonl
//!
//!   compare       read two reports and flag stages whose current
//!                 median is more than K× the wider IQR *and* more
//!                 than P% above the baseline median (defaults K = 3,
//!                 P = 5); exits 1 when any stage regressed
//! ```
//!
//! Stages:
//!
//! * **solver** — candidate-table build time, per-point `solve` vs the
//!   batched `solve_many` over a ρ grid (paper K = 5 and synthetic
//!   K = 20), reported as solves/sec with the batched speedup;
//! * **sweep** — the six Atlas/Crusoe paper-grid figure sweeps and the
//!   §4.2 ρ-tables, reported as points/sec;
//! * **heatmap** — a λ × ρ map, reported as cells/sec;
//! * **simulator** — Monte Carlo pattern replication, reported as
//!   patterns/sec in three sub-stages: `sim_reference` (per-attempt
//!   loop at width 1), `sim_fastpath` (geometric sampling at width 1,
//!   with its speedup over the reference), and `sim_fastpath_parallel`
//!   (rayon fast path, asserted bit-identical to the width-1 fast
//!   path); the same trio runs again on a mixed
//!   fail-stop + silent config as `sim_mixed_reference`,
//!   `sim_mixed_fastpath` and `sim_mixed_fastpath_parallel`;
//!   `sim_weibull_reference` (per-attempt loop at width 1 under a
//!   Weibull 0.7 law) and `sim_laws_histograms` (X-laws' Weibull row:
//!   the same law with a histogram sink, every trial recorded into the
//!   outcome sketches); and `sim_crn_grid`, the simulated
//!   Theorem 2 grid of X-mc-mixed run on common random numbers
//!   (`MonteCarlo::run_common`, asserted bit-identical to separate
//!   runs) with its `speedup_vs_separate`;
//! * **serve** — the planning-service core on a deterministic mixed
//!   hit/miss query stream over paper and synthetic K = 20 tables:
//!   `serve_unbatched` (plan cache off, one scalar solve per query —
//!   the one-query-per-solve baseline) and `serve_batched` (plan cache
//!   on, `plan_batch` over the zero-allocation SoA kernel), reported as
//!   queries/sec with `speedup_vs_unbatched` and the observed
//!   `hit_rate`; CI's full mode gates `serve_batched` at ≥ 1M
//!   queries/sec and ≥ 3× the unbatched baseline;
//! * **wire** — `wire_parse`: `parse_request` alone over hot (named
//!   paper table) and cold (explicit K = 20 table) request lines,
//!   reported as lines/sec with each shape's rate as an extra; the
//!   serve stages above never parse a line; `wire_render`:
//!   `render_answer` alone over the answers to the same two shapes,
//!   reported as answers/sec with each shape's rate as an extra;
//! * **obs** — `obs_overhead`: the `sim_fastpath` workload with span
//!   timing *and* the span timeline fully enabled vs fully disabled;
//!   its `overhead_pct` extra records the observability tax on the
//!   hottest loop (CI asserts it stays under 2%).
//!
//! Within one suite pass every stage still repeats its workload a few
//! times and keeps the *best* wall time (least-noise estimator for a
//! single pass); `--repeat` then takes the median of those best times
//! across passes, which is what `compare` and `BENCH_history.jsonl`
//! track.

#![forbid(unsafe_code)]

use rexec_bench::stats::{median_sorted, quartiles_sorted, regressions, sorted, StageSample};
use rexec_bench::{atlas_crusoe, hera_xscale, synthetic_solver};
use rexec_sim::runner::outcome_sketches;
use rexec_sim::{Engine, MonteCarlo, SimConfig, Sinks, Summary};
use rexec_sweep::figure::{lambda_hi_for, sweep_figure_paper_grid, SweepParam};
use rexec_sweep::{rho_table, Grid, Heatmap};
use serde::{Serialize, Value};
use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// `compare`'s default noise band: a regression must exceed this many
/// IQRs ...
const IQR_BAND: f64 = 3.0;
/// ... and this percentage of the baseline median.
const MIN_PCT: f64 = 5.0;

/// One measured stage: robust wall-time summary plus throughput.
struct StageResult {
    stage: &'static str,
    name: &'static str,
    /// Median (across `--repeat` passes) of the best wall time per pass
    /// (seconds). For a single pass this is just the best wall time.
    wall_secs: f64,
    /// First quartile of the per-pass wall times.
    q1_secs: f64,
    /// Third quartile of the per-pass wall times.
    q3_secs: f64,
    /// How many suite passes the summary aggregates.
    repeats: u64,
    /// Work items processed per repetition (points, cells, solves...).
    items: u64,
    /// What `items` counts.
    unit: &'static str,
    /// Stage-specific extras (e.g. the batched-vs-per-point speedup).
    extra: BTreeMap<String, Value>,
}

impl StageResult {
    /// A single-pass result: quartiles degenerate to the measured time.
    fn single(
        stage: &'static str,
        name: &'static str,
        wall_secs: f64,
        items: u64,
        unit: &'static str,
        extra: BTreeMap<String, Value>,
    ) -> StageResult {
        StageResult {
            stage,
            name,
            wall_secs,
            q1_secs: wall_secs,
            q3_secs: wall_secs,
            repeats: 1,
            items,
            unit,
            extra,
        }
    }

    /// Items per second from the median wall time; 0 for a zero-duration
    /// stage so the JSON report never contains `inf`/NaN (which
    /// downstream parsers misread).
    fn per_sec(&self) -> f64 {
        finite_ratio(self.items as f64, self.wall_secs)
    }

    /// Minimum detectable effect: the smallest slowdown, in percent of
    /// the median, that `compare` at its default band flags against a
    /// run with this stage's spread.
    fn mde_pct(&self) -> f64 {
        let band = IQR_BAND * finite_ratio(self.q3_secs - self.q1_secs, self.wall_secs);
        (band * 100.0).max(MIN_PCT)
    }

    fn to_value(&self) -> Value {
        let mut m = BTreeMap::new();
        m.insert("stage".to_string(), self.stage.to_value());
        m.insert("name".to_string(), self.name.to_value());
        m.insert("wall_secs".to_string(), self.wall_secs.to_value());
        m.insert("wall_q1_secs".to_string(), self.q1_secs.to_value());
        m.insert("wall_q3_secs".to_string(), self.q3_secs.to_value());
        m.insert(
            "wall_iqr_secs".to_string(),
            (self.q3_secs - self.q1_secs).to_value(),
        );
        m.insert("mde_pct".to_string(), self.mde_pct().to_value());
        m.insert("repeats".to_string(), self.repeats.to_value());
        m.insert("items".to_string(), self.items.to_value());
        m.insert("unit".to_string(), self.unit.to_value());
        m.insert(format!("{}_per_sec", self.unit), self.per_sec().to_value());
        for (k, v) in &self.extra {
            m.insert(k.clone(), v.clone());
        }
        Value::Object(m)
    }
}

/// `num / den` kept finite: any combination whose quotient is not a
/// finite number (zero/NaN denominator on a coarse clock, a subnormal
/// denominator overflowing the divide to `inf`, non-finite numerator)
/// yields 0.0 instead of leaking `inf`/NaN into `BENCH_sweeps.json`.
/// The guard is on the *computed ratio*, not just the inputs: finite
/// operands can still overflow, and a NaN input compares false against
/// every threshold so input-side checks alone cannot reject it.
fn finite_ratio(num: f64, den: f64) -> f64 {
    let ratio = num / den;
    if den > 0.0 && ratio.is_finite() {
        ratio
    } else {
        0.0
    }
}

/// Runs `work` `reps` times and returns the best wall time in seconds.
fn best_of<R>(reps: usize, mut work: impl FnMut() -> R) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        let r = work();
        best = best.min(t.elapsed().as_secs_f64());
        std::hint::black_box(r);
    }
    best
}

fn solver_stages(quick: bool, out: &mut Vec<StageResult>) {
    let reps = if quick { 5 } else { 30 };
    // The paper's ρ sweep grid: 51 points over [1.0, 3.5].
    let rho_grid = Grid::linear(1.0, 3.5, 51);
    let rhos = rho_grid.values().to_vec();

    for (name, k) in [("paper_k5", 5usize), ("synthetic_k20", 20)] {
        let solver = if k == 5 {
            hera_xscale().solver().expect("valid configuration")
        } else {
            synthetic_solver(k).expect("valid synthetic model")
        };

        let model = *solver.model();
        let speeds = solver.speeds().clone();
        let build_secs = best_of(reps, || {
            rexec_core::BiCritSolver::new(model, speeds.clone())
        });

        let per_point_secs = best_of(reps, || {
            rhos.iter()
                .map(|&rho| solver.solve(rho))
                .filter(Option::is_some)
                .count()
        });
        let batched_secs = best_of(reps, || solver.solve_many(&rhos));

        let mut extra = BTreeMap::new();
        extra.insert("table_build_secs".to_string(), build_secs.to_value());
        extra.insert("per_point_wall_secs".to_string(), per_point_secs.to_value());
        extra.insert(
            "batched_speedup".to_string(),
            finite_ratio(per_point_secs, batched_secs).to_value(),
        );
        out.push(StageResult::single(
            "solver",
            name,
            batched_secs,
            rhos.len() as u64,
            "solves",
            extra,
        ));
    }
}

fn sweep_stages(quick: bool, out: &mut Vec<StageResult>) {
    let reps = if quick { 2 } else { 10 };
    let cfg = atlas_crusoe();
    let lambda_hi = lambda_hi_for(&cfg);

    let mut points = 0u64;
    let figure_secs = best_of(reps, || {
        points = 0;
        for param in SweepParam::ALL {
            let s = sweep_figure_paper_grid(&cfg, param, lambda_hi);
            points += s.points.len() as u64;
        }
    });
    out.push(StageResult::single(
        "sweep",
        "figures_atlas_crusoe",
        figure_secs,
        points,
        "points",
        BTreeMap::new(),
    ));

    let hera = hera_xscale();
    let mut rows = 0u64;
    let table_secs = best_of(reps, || {
        rows = 0;
        for rho in rexec_sweep::table_rho::PAPER_RHOS {
            rows += rho_table(&hera, rho).rows.len() as u64;
        }
    });
    out.push(StageResult::single(
        "sweep",
        "tables_rho",
        table_secs,
        rows,
        "rows",
        BTreeMap::new(),
    ));

    let (nl, nr) = if quick { (8, 20) } else { (16, 40) };
    let lambdas = Grid::log(1e-6, 2e-3, nl);
    let rhos = Grid::linear(1.1, 8.0, nr);
    let heatmap_secs = best_of(reps, || Heatmap::compute(&hera, &lambdas, &rhos));
    out.push(StageResult::single(
        "heatmap",
        "hera_xscale_lambda_rho",
        heatmap_secs,
        (nl * nr) as u64,
        "cells",
        BTreeMap::new(),
    ));
}

/// Runs `work` at `RAYON_NUM_THREADS=1`, where the pool maps every
/// chunk in order on the calling thread, then restores the ambient
/// width. The simulator stages run with no other thread alive, so
/// switching the process-wide variable races with nothing.
fn at_width_one<R>(work: impl FnOnce() -> R) -> R {
    let ambient = std::env::var_os("RAYON_NUM_THREADS");
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let out = work();
    match ambient {
        Some(width) => std::env::set_var("RAYON_NUM_THREADS", width),
        None => std::env::remove_var("RAYON_NUM_THREADS"),
    }
    out
}

/// Benches one config through the reference engine and the fast path
/// at width 1, and the parallel fast path (asserted bit-identical to
/// the width-1 one), pushing the three named stages.
fn simulator_trio(
    quick: bool,
    out: &mut Vec<StageResult>,
    cfg: SimConfig,
    names: [&'static str; 3],
) {
    let reps = if quick { 2 } else { 5 };
    let trials: u64 = if quick { 4_000 } else { 40_000 };

    // Single-thread reference engine: the bit-reproducible per-attempt
    // loop, the baseline the fast path's speedup is measured against.
    let reference = MonteCarlo::new(cfg, trials, 2024).with_engine(Engine::Reference);
    let ref_secs =
        at_width_one(|| best_of(reps, || reference.run().expect("benchmark config is valid")));
    out.push(StageResult::single(
        "simulator",
        names[0],
        ref_secs,
        trials,
        "patterns",
        BTreeMap::new(),
    ));

    // Single-thread closed-form fast path over the same config and seed.
    let fast = MonteCarlo::new(cfg, trials, 2024).with_engine(Engine::FastPath);
    let fast_secs =
        at_width_one(|| best_of(reps, || fast.run().expect("benchmark config is valid")));
    let mut extra = BTreeMap::new();
    extra.insert(
        "speedup_vs_reference".to_string(),
        finite_ratio(ref_secs, fast_secs).to_value(),
    );
    out.push(StageResult::single(
        "simulator",
        names[1],
        fast_secs,
        trials,
        "patterns",
        extra,
    ));

    // Multi-thread fast path; its Summary must stay bit-identical to the
    // width-1 run (chunked RNG streams + order-preserving reduction).
    let seq_summary = at_width_one(|| fast.run()).expect("benchmark config is valid");
    let before = rexec_obs::global().counter("sim.patterns").get();
    let mut par_summary = Summary::default();
    let par_secs = best_of(reps, || {
        par_summary = fast.run().expect("benchmark config is valid");
    });
    let patterns = rexec_obs::global().counter("sim.patterns").get() - before;
    assert_eq!(
        par_summary, seq_summary,
        "parallel fast path diverged from the width-1 fast path"
    );
    let mut extra = BTreeMap::new();
    extra.insert("patterns_total".to_string(), patterns.to_value());
    extra.insert(
        "speedup_vs_reference".to_string(),
        finite_ratio(ref_secs, par_secs).to_value(),
    );
    out.push(StageResult::single(
        "simulator",
        names[2],
        par_secs,
        trials,
        "patterns",
        extra,
    ));
}

fn simulator_stage(quick: bool, out: &mut Vec<StageResult>) {
    let model = hera_xscale().silent_model().expect("valid configuration");
    // The ρ = 3 optimum (σ1 = σ2 = 0.4, Wopt ≈ 2764) with a fast
    // re-execution speed, so the two-speed path is exercised.
    let silent_cfg = SimConfig::from_silent_model(&model, 2764.0, 0.4, 0.8);
    simulator_trio(
        quick,
        out,
        silent_cfg,
        ["sim_reference", "sim_fastpath", "sim_fastpath_parallel"],
    );

    // Mixed fail-stop + silent errors at §5 rates: exercises the
    // three-way categorical fast path instead of the geometric one.
    let mm = rexec_core::MixedModel::new(
        rexec_core::ErrorRates::new(8e-5, 5e-5).expect("valid rates"),
        model.costs,
        model.power,
    );
    let mixed_cfg = SimConfig::from_mixed_model(&mm, 3000.0, 0.6, 1.0);
    simulator_trio(
        quick,
        out,
        mixed_cfg,
        [
            "sim_mixed_reference",
            "sim_mixed_fastpath",
            "sim_mixed_fastpath_parallel",
        ],
    );

    // Non-memoryless law through the per-attempt scenario engine: the
    // reference-path cost of Weibull inter-error draws (inverse-survival
    // powf per attempt instead of one exp log), tracked from day one so
    // law-scenario regressions show up in BENCH_history.jsonl.
    let reps = if quick { 2 } else { 5 };
    let trials: u64 = if quick { 4_000 } else { 40_000 };
    let weibull = MonteCarlo::new(silent_cfg, trials, 2024)
        .with_law(rexec_core::ErrorLaw::Weibull { shape: 0.7 });
    let weibull_secs =
        at_width_one(|| best_of(reps, || weibull.run().expect("benchmark config is valid")));
    out.push(StageResult::single(
        "simulator",
        "sim_weibull_reference",
        weibull_secs,
        trials,
        "patterns",
        BTreeMap::new(),
    ));

    // X-laws' own call: the Weibull row of its table at the experiment's
    // λ, recording every trial's time and energy into the outcome
    // sketches (worker-local copies folded at the end).
    let laws_cfg = SimConfig::from_silent_model(&model.with_lambda(1e-4), 2764.0, 0.4, 0.8);
    let laws = MonteCarlo::new(laws_cfg, trials, 2024)
        .with_law(rexec_core::ErrorLaw::Weibull { shape: 0.7 });
    let laws_secs = best_of(reps, || {
        let sketches = outcome_sketches();
        let sinks = Sinks {
            histograms: Some(&sketches),
            ..Sinks::default()
        };
        laws.run_with(0..trials, sinks)
            .expect("benchmark config is valid")
    });
    out.push(StageResult::single(
        "simulator",
        "sim_laws_histograms",
        laws_secs,
        trials,
        "patterns",
        BTreeMap::new(),
    ));
}

/// The simulated Theorem 2 grid of X-mc-mixed (8 λ × 13 W fast-path
/// configs) run both ways: one fast-path `run()` per config, and one
/// `MonteCarlo::run_common` per λ, which generates each trial chunk's
/// draws once for the λ's 13 configs. The two must agree bit for bit;
/// `speedup_vs_separate` is the separate runs' wall time over the
/// shared one's.
fn sim_crn_grid_stage(quick: bool, out: &mut Vec<StageResult>) {
    let reps = if quick { 2 } else { 5 };
    // Full mode runs the experiment's own trial count.
    let trials: u64 = if quick { 10_000 } else { 100_000 };
    let grid = rexec_sweep::experiments::theorem2_sim_grid(2024);
    let mut separate = Vec::new();
    let separate_secs = best_of(reps, || {
        separate = grid
            .iter()
            .flat_map(|point| {
                point.configs.iter().map(|&cfg| {
                    MonteCarlo::new(cfg, trials, point.seed)
                        .with_engine(Engine::FastPath)
                        .run()
                        .expect("benchmark config is valid")
                })
            })
            .collect::<Vec<Summary>>();
    });
    let mut common = Vec::new();
    let common_secs = best_of(reps, || {
        common = grid
            .iter()
            .flat_map(|point| {
                MonteCarlo::run_common(&point.configs, trials, point.seed)
                    .expect("benchmark config is valid")
            })
            .collect::<Vec<Summary>>();
    });
    assert_eq!(
        common, separate,
        "run_common diverged from separate fast-path runs"
    );
    let mut extra = BTreeMap::new();
    extra.insert("separate_wall_secs".to_string(), separate_secs.to_value());
    extra.insert(
        "speedup_vs_separate".to_string(),
        finite_ratio(separate_secs, common_secs).to_value(),
    );
    out.push(StageResult::single(
        "simulator",
        "sim_crn_grid",
        common_secs,
        separate.len() as u64 * trials,
        "patterns",
        extra,
    ));
}

/// xorshift64* — the deterministic query-stream generator (the same one
/// `tests/serve_stream.rs` uses).
fn next_rand(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545F4914F6CDD1D)
}

/// The serve-bench table pool: the paper's 8 platform tables plus 8
/// synthetic K = 20 tables (distinct λ variants of Hera/XScale with a
/// 20-speed DVFS ladder), so half the stream hits the expensive
/// candidate tables the batched kernel is built for.
fn serve_tables() -> Vec<rexec_cli::PlanSpec> {
    use rexec_cli::PlanSpec;
    let mut tables = Vec::new();
    for platform in ["hera", "atlas", "coastal", "coastal-ssd"] {
        for processor in ["xscale", "crusoe"] {
            tables.push(PlanSpec {
                platform: Some(platform.to_string()),
                processor: Some(processor.to_string()),
                ..PlanSpec::default()
            });
        }
    }
    let solver = synthetic_solver(20).expect("valid synthetic model");
    let model = *solver.model();
    let speeds: Vec<f64> = solver.speeds().values().to_vec();
    for i in 0..8u32 {
        tables.push(PlanSpec {
            lambda: Some(model.lambda * (1.0 + 0.1 * f64::from(i))),
            checkpoint: Some(model.costs.checkpoint),
            verification: Some(model.costs.verification),
            recovery: Some(model.costs.recovery),
            kappa: Some(model.power.kappa),
            pidle: Some(model.power.p_idle),
            pio: Some(model.power.p_io),
            speeds: Some(speeds.clone()),
            ..PlanSpec::default()
        });
    }
    tables
}

/// One deterministic pass of the serve query stream: 90% of queries draw
/// ρ from a 16-value hot pool per table, the rest carry a ρ unique to
/// this `pass` (offset far beyond the quantization step), so every
/// measured pass re-exercises the miss path at the same 10% rate.
fn serve_stream(tables: &[rexec_cli::PlanSpec], n: u64, pass: u64) -> Vec<rexec_cli::PlanSpec> {
    let mut rng = 0x5EED_5EED_5EED_5EEDu64;
    let mut fresh = pass * n;
    (0..n)
        .map(|_| {
            let r = next_rand(&mut rng);
            let mut spec = tables[(r % tables.len() as u64) as usize].clone();
            spec.rho = Some(if (r >> 8) % 100 < 90 {
                1.5 + 0.125 * ((r >> 16) % 16) as f64
            } else {
                fresh += 1;
                4.0 + fresh as f64 * 1e-4
            });
            spec
        })
        .collect()
}

/// The planning-service core: `serve_unbatched` (plan cache off, scalar
/// solve per query) vs `serve_batched` (plan cache on, `plan_batch` in
/// 512-query batches). Both paths resolve specs inside the timed region
/// — "queries/sec" means what the daemon's workers do per request, not
/// just the solve. The batched stage measures steady state: the hot
/// pool is warmed once, then every pass streams fresh miss ρ values so
/// the ~10% miss path stays in the measurement.
fn serve_stages(quick: bool, out: &mut Vec<StageResult>) {
    use rexec_serve::{PlanService, ServiceConfig};

    let reps = if quick { 3 } else { 5 };
    let n: u64 = if quick { 50_000 } else { 200_000 };
    let tables = serve_tables();

    // Baseline: no plan cache (capacity 0), one scalar solve per query.
    // The solver cache stays on in both paths — candidate-table reuse is
    // not what this stage isolates.
    let baseline = PlanService::new(ServiceConfig {
        plan_cache_capacity: 0,
        ..ServiceConfig::default()
    });
    let mut pass = 0u64;
    let unbatched_secs = best_of(reps, || {
        pass += 1;
        let specs = serve_stream(&tables, n, pass);
        let mut answered = 0u64;
        for spec in &specs {
            let query = baseline.resolve(spec).expect("bench stream is valid");
            std::hint::black_box(baseline.plan(&query));
            answered += 1;
        }
        answered
    });
    out.push(StageResult::single(
        "serve",
        "serve_unbatched",
        unbatched_secs,
        n,
        "queries",
        BTreeMap::new(),
    ));

    // Cached + batched: warm the hot pool once, then measure steady
    // state (hits answered from the sharded cache, misses grouped per
    // table and solved through `solve_many_into`).
    let service = PlanService::new(ServiceConfig::default());
    for spec in &serve_stream(&tables, n, 0) {
        service.plan_spec(spec).expect("bench stream is valid");
    }
    let stats_before = service.cache_stats();
    let mut queries = Vec::with_capacity(512);
    let mut answers = Vec::with_capacity(512);
    let batched_secs = best_of(reps, || {
        pass += 1;
        let specs = serve_stream(&tables, n, pass);
        let mut answered = 0u64;
        for chunk in specs.chunks(512) {
            queries.clear();
            queries.extend(
                chunk
                    .iter()
                    .map(|s| service.resolve(s).expect("bench stream is valid")),
            );
            service.plan_batch(&queries, &mut answers);
            answered += answers.len() as u64;
            std::hint::black_box(&answers);
        }
        answered
    });
    let stats = service.cache_stats();
    let lookups = (stats.hits - stats_before.hits) + (stats.misses - stats_before.misses);
    let hit_rate = finite_ratio((stats.hits - stats_before.hits) as f64, lookups as f64);

    let mut extra = BTreeMap::new();
    extra.insert("batch_size".to_string(), 512u64.to_value());
    extra.insert("hit_rate".to_string(), hit_rate.to_value());
    extra.insert("unbatched_wall_secs".to_string(), unbatched_secs.to_value());
    extra.insert(
        "speedup_vs_unbatched".to_string(),
        finite_ratio(unbatched_secs, batched_secs).to_value(),
    );
    out.push(StageResult::single(
        "serve",
        "serve_batched",
        batched_secs,
        n,
        "queries",
        extra,
    ));
}

/// Request lines in the two shapes the daemon sees: `hot` lines naming
/// a paper table (~70 B) and `cold` lines carrying an explicit K = 20
/// table (~350 B), each with its own ρ.
fn wire_lines(hot: usize, cold: usize) -> (Vec<String>, Vec<String>) {
    const PLATFORMS: [&str; 4] = ["hera", "atlas", "coastal", "coastal-ssd"];
    const PROCESSORS: [&str; 2] = ["xscale", "crusoe"];
    let mut rng = 0x3140_5EED_u64;
    let rho = |rng: &mut u64| 1.5 + (next_rand(rng) % 6_000_000) as f64 * 1e-6;
    let hot_lines = (0..hot)
        .map(|id| {
            let r = next_rand(&mut rng) as usize;
            format!(
                "{{\"id\":{id},\"platform\":\"{}\",\"processor\":\"{}\",\"rho\":{:.6}}}",
                PLATFORMS[r % 4],
                PROCESSORS[(r >> 8) % 2],
                rho(&mut rng)
            )
        })
        .collect();
    let speeds: Vec<String> = (0..20)
        .map(|i| format!("{:.6}", 0.15 + 0.85 / 19.0 * f64::from(i)))
        .collect();
    let cold_lines = (0..cold)
        .map(|id| {
            let scale = (next_rand(&mut rng) % 1000) as f64 * 1e-3 + 0.5;
            format!(
                "{{\"id\":{id},\"lambda\":{:.6e},\"checkpoint\":{:.4},\"verification\":{:.4},\
                 \"recovery\":{:.4},\"kappa\":{:.4},\"pidle\":{:.4},\"pio\":{:.4},\
                 \"speeds\":[{}],\"rho\":{:.6}}}",
                3.38e-6 * scale,
                300.0 * scale,
                15.4 * scale,
                300.0 * scale,
                1550.0 * scale,
                60.0 * scale,
                5.23 * scale,
                speeds.join(","),
                rho(&mut rng)
            )
        })
        .collect();
    (hot_lines, cold_lines)
}

/// Request-line parsing (`wire_parse`): `parse_request` over hot and
/// cold request shapes, the daemon's JSON layer on its own. `items` is
/// every line of one pass; the extras give each shape's lines/sec.
fn wire_parse_stage(quick: bool, out: &mut Vec<StageResult>) {
    let reps = if quick { 3 } else { 10 };
    let (hot, cold) = if quick {
        (20_000, 5_000)
    } else {
        (200_000, 50_000)
    };
    let (hot_lines, cold_lines) = wire_lines(hot, cold);
    let parse_all = |lines: &[String]| {
        lines
            .iter()
            .filter(|l| rexec_serve::parse_request(l).1.is_ok())
            .count()
    };
    assert_eq!(
        parse_all(&hot_lines),
        hot,
        "a hot bench line failed to parse"
    );
    assert_eq!(
        parse_all(&cold_lines),
        cold,
        "a cold bench line failed to parse"
    );
    let hot_secs = best_of(reps, || parse_all(&hot_lines));
    let cold_secs = best_of(reps, || parse_all(&cold_lines));
    let mut extra = BTreeMap::new();
    extra.insert(
        "hot_lines_per_sec".to_string(),
        finite_ratio(hot as f64, hot_secs).to_value(),
    );
    extra.insert(
        "cold_lines_per_sec".to_string(),
        finite_ratio(cold as f64, cold_secs).to_value(),
    );
    out.push(StageResult::single(
        "wire",
        "wire_parse",
        hot_secs + cold_secs,
        (hot + cold) as u64,
        "lines",
        extra,
    ));
}

/// Answer rendering (`wire_render`): `render_answer` over the answers
/// to `wire_parse`'s hot and cold lines, planned once up front, the
/// daemon's response layer on its own. `items` is every answer of one
/// pass; the extras give each shape's answers/sec.
fn wire_render_stage(quick: bool, out: &mut Vec<StageResult>) {
    use rexec_serve::{PlanAnswer, PlanService, ServiceConfig};
    let reps = if quick { 3 } else { 10 };
    let (hot, cold) = if quick {
        (20_000, 5_000)
    } else {
        (200_000, 50_000)
    };
    let (hot_lines, cold_lines) = wire_lines(hot, cold);
    let service = PlanService::new(ServiceConfig::default());
    let answer_all = |lines: &[String]| {
        let (ids, queries): (Vec<_>, Vec<_>) = lines
            .iter()
            .map(|l| {
                let (id, spec) = rexec_serve::parse_request(l);
                let spec = spec.expect("bench lines parse");
                (id, service.resolve(&spec).expect("bench lines resolve"))
            })
            .unzip();
        let mut answers = Vec::new();
        service.plan_batch(&queries, &mut answers);
        ids.into_iter().zip(answers).collect::<Vec<_>>()
    };
    let (hot_answers, cold_answers) = (answer_all(&hot_lines), answer_all(&cold_lines));
    let mut text = String::new();
    let mut render_all = |answers: &[(Option<u64>, PlanAnswer)]| {
        text.clear();
        for (id, answer) in answers {
            rexec_serve::render_answer(&mut text, *id, answer);
            text.push('\n');
        }
        text.len()
    };
    let hot_secs = best_of(reps, || render_all(&hot_answers));
    let cold_secs = best_of(reps, || render_all(&cold_answers));
    let mut extra = BTreeMap::new();
    extra.insert(
        "hot_answers_per_sec".to_string(),
        finite_ratio(hot as f64, hot_secs).to_value(),
    );
    extra.insert(
        "cold_answers_per_sec".to_string(),
        finite_ratio(cold as f64, cold_secs).to_value(),
    );
    out.push(StageResult::single(
        "wire",
        "wire_render",
        hot_secs + cold_secs,
        (hot + cold) as u64,
        "answers",
        extra,
    ));
}

/// Observability self-overhead: the `sim_fastpath` workload with span
/// timing *and* the span timeline enabled, against the same workload
/// with both disabled. The hot loop batches its metrics into per-chunk
/// integer accumulators, so the toggles should only gate the per-run
/// `runner.run` span — `overhead_pct` records how true that stays.
fn obs_overhead_stage(quick: bool, out: &mut Vec<StageResult>) {
    let model = hera_xscale().silent_model().expect("valid configuration");
    let cfg = SimConfig::from_silent_model(&model, 2764.0, 0.4, 0.8);
    // Even in --quick this stage uses a sizeable workload: the overhead
    // ratio of two ~microsecond runs would be pure timer noise.
    let trials: u64 = if quick { 100_000 } else { 400_000 };
    let reps = if quick { 5 } else { 7 };
    let mc = MonteCarlo::new(cfg, trials, 2024).with_engine(Engine::FastPath);

    rexec_obs::set_spans_enabled(false);
    rexec_obs::set_timeline_enabled(false);
    let off_secs = best_of(reps, || mc.run().expect("benchmark config is valid"));

    rexec_obs::set_spans_enabled(true);
    rexec_obs::set_timeline_enabled(true);
    let on_secs = best_of(reps, || mc.run().expect("benchmark config is valid"));
    rexec_obs::set_spans_enabled(false);
    rexec_obs::set_timeline_enabled(false);
    // Free the timeline events the enabled runs accumulated.
    drop(rexec_obs::timeline_drain());

    // Best-of-N noise can make the instrumented run *faster*; clamp at
    // zero so the tracked number is the observability tax, not jitter.
    let overhead_pct = (finite_ratio(on_secs, off_secs) - 1.0).max(0.0) * 100.0;
    let mut extra = BTreeMap::new();
    extra.insert("baseline_wall_secs".to_string(), off_secs.to_value());
    extra.insert("overhead_pct".to_string(), overhead_pct.to_value());
    out.push(StageResult::single(
        "obs",
        "obs_overhead",
        on_secs,
        trials,
        "patterns",
        extra,
    ));
}

/// Crash-consistency model check as a benchmark stage: one exhaustive
/// exploration of every crash prefix (both modes) and every single-byte
/// corruption of the fixture run, on the in-memory storage model.
/// `items` is the number of states explored, so the tracked throughput
/// is states/sec; any invariant violation fails the bench outright — a
/// perf report over a crash-unsafe lifecycle would be meaningless.
fn model_check_stage(quick: bool, out: &mut Vec<StageResult>) {
    let cfg = rexec_check::CheckConfig {
        units: if quick { 3 } else { 4 },
        ..rexec_check::CheckConfig::default()
    };
    let t = Instant::now();
    let report = rexec_check::explore(&cfg);
    let wall_secs = t.elapsed().as_secs_f64();
    assert!(
        report.ok(),
        "model check found {} crash-consistency violation(s); first: {}",
        report.violations.len(),
        report.violations[0]
    );
    let mut extra = BTreeMap::new();
    extra.insert("fixture_units".to_string(), (cfg.units as u64).to_value());
    extra.insert("storage_ops".to_string(), (report.ops as u64).to_value());
    extra.insert(
        "crash_states".to_string(),
        (report.crash_states as u64).to_value(),
    );
    extra.insert(
        "corruption_states".to_string(),
        (report.corruption_states as u64).to_value(),
    );
    extra.insert("violations".to_string(), 0u64.to_value());
    out.push(StageResult::single(
        "check",
        "model_check",
        wall_secs,
        report.states_explored() as u64,
        "states",
        extra,
    ));
}

/// One full pass over every stage, in report order.
fn run_suite(quick: bool) -> Vec<StageResult> {
    let mut stages: Vec<StageResult> = vec![];
    solver_stages(quick, &mut stages);
    sweep_stages(quick, &mut stages);
    serve_stages(quick, &mut stages);
    wire_parse_stage(quick, &mut stages);
    wire_render_stage(quick, &mut stages);
    simulator_stage(quick, &mut stages);
    sim_crn_grid_stage(quick, &mut stages);
    obs_overhead_stage(quick, &mut stages);
    model_check_stage(quick, &mut stages);
    stages
}

/// Folds `--repeat` suite passes into one row per stage: median and
/// quartiles of the per-pass wall times, median of numeric extras
/// (exactly-equal integer extras stay integers).
fn aggregate(mut passes: Vec<Vec<StageResult>>) -> Vec<StageResult> {
    if passes.len() == 1 {
        return passes.pop().expect("non-empty");
    }
    let n = passes.len() as u64;
    let mut out = vec![];
    for i in 0..passes[0].len() {
        let walls = sorted(passes.iter().map(|p| p[i].wall_secs).collect());
        let (q1, med, q3) = quartiles_sorted(&walls);
        let proto = &passes[0][i];
        debug_assert!(passes
            .iter()
            .all(|p| p[i].stage == proto.stage && p[i].name == proto.name));
        let mut extra = BTreeMap::new();
        for key in proto.extra.keys() {
            let vals: Vec<&Value> = passes.iter().filter_map(|p| p[i].extra.get(key)).collect();
            let ints: Vec<u64> = vals
                .iter()
                .filter_map(|v| match v {
                    Value::Number(n) => n.as_u64(),
                    _ => None,
                })
                .collect();
            let merged = if ints.len() == vals.len() && ints.windows(2).all(|w| w[0] == w[1]) {
                ints[0].to_value()
            } else {
                let nums = sorted(
                    vals.iter()
                        .filter_map(|v| match v {
                            Value::Number(n) => Some(n.as_f64()),
                            _ => None,
                        })
                        .collect(),
                );
                if nums.is_empty() {
                    (*vals[0]).clone()
                } else {
                    median_sorted(&nums).to_value()
                }
            };
            extra.insert(key.clone(), merged);
        }
        out.push(StageResult {
            stage: proto.stage,
            name: proto.name,
            wall_secs: med,
            q1_secs: q1,
            q3_secs: q3,
            repeats: n,
            items: proto.items,
            unit: proto.unit,
            extra,
        });
    }
    out
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}

fn unix_secs() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// Extracts `"stage/name" → (median, IQR)` samples from a report file
/// (both the current quartile schema and the older best-of schema, which
/// has no IQR fields and gets a zero-width band).
fn load_samples(path: &Path) -> Vec<StageSample> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| die(&format!("cannot read {}: {e}", path.display())));
    let doc: Value = serde_json::from_str(&text)
        .unwrap_or_else(|e| die(&format!("{} is not valid JSON: {e}", path.display())));
    let Some(Value::Array(stages)) = doc.get("stages") else {
        die(&format!("{}: no `stages` array", path.display()));
    };
    let num = |v: Option<&Value>| match v {
        Some(Value::Number(n)) => Some(n.as_f64()),
        _ => None,
    };
    let text_of = |v: Option<&Value>| match v {
        Some(Value::String(s)) => Some(s.clone()),
        _ => None,
    };
    stages
        .iter()
        .filter_map(|s| {
            let key = format!("{}/{}", text_of(s.get("stage"))?, text_of(s.get("name"))?);
            Some(StageSample {
                key,
                median_secs: num(s.get("wall_secs"))?,
                iqr_secs: num(s.get("wall_iqr_secs")).unwrap_or(0.0),
            })
        })
        .collect()
}

/// `rexec-bench compare BASELINE CURRENT [--iqr-band K] [--min-pct P]`.
fn run_compare(args: &[String]) -> ! {
    let mut paths: Vec<PathBuf> = vec![];
    let mut iqr_band = IQR_BAND;
    let mut min_pct = MIN_PCT;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--iqr-band" => match it.next().and_then(|v| v.parse().ok()) {
                Some(k) => iqr_band = k,
                None => die("--iqr-band needs a number"),
            },
            "--min-pct" => match it.next().and_then(|v| v.parse().ok()) {
                Some(p) => min_pct = p,
                None => die("--min-pct needs a number"),
            },
            other if !other.starts_with('-') => paths.push(PathBuf::from(other)),
            other => die(&format!("unknown compare argument: {other}")),
        }
    }
    let [base_path, cur_path] = paths.as_slice() else {
        die("compare needs exactly BASELINE and CURRENT report paths");
    };
    let base = load_samples(base_path);
    let cur = load_samples(cur_path);
    let shared = cur.iter().filter(|c| base.iter().any(|b| b.key == c.key));
    for c in shared.clone() {
        let b = base.iter().find(|b| b.key == c.key).expect("filtered");
        println!(
            "{:<40} {:>12.3} ms -> {:>12.3} ms  ({:+.1}%)",
            c.key,
            b.median_secs * 1e3,
            c.median_secs * 1e3,
            finite_ratio(c.median_secs - b.median_secs, b.median_secs) * 100.0,
        );
    }
    if shared.count() == 0 {
        die("the two reports share no stages");
    }
    let regs = regressions(&base, &cur, iqr_band, min_pct);
    if regs.is_empty() {
        println!("no regressions beyond the noise band (>{iqr_band}x IQR and >{min_pct}%)");
        std::process::exit(0);
    }
    for r in &regs {
        eprintln!(
            "REGRESSION {:<34} {:>10.3} ms -> {:>10.3} ms  (+{:.1}%, band {:.3} ms)",
            r.key,
            r.base_secs * 1e3,
            r.cur_secs * 1e3,
            r.pct,
            r.band_secs * 1e3
        );
    }
    std::process::exit(1);
}

/// Appends the run's compact JSON to `BENCH_history.jsonl` next to the
/// report, one line per run — the longitudinal record `compare` and the
/// perf trend lines read.
fn append_history(out_path: &Path, doc: &Value) {
    let history = out_path.with_file_name("BENCH_history.jsonl");
    let line = serde_json::to_string(doc).expect("benchmark report serializes infallibly");
    let result = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&history)
        .and_then(|mut f| writeln!(f, "{line}"));
    match result {
        Ok(()) => println!("history appended: {}", history.display()),
        Err(e) => eprintln!("warning: cannot append {}: {e}", history.display()),
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        run_compare(&argv[1..]);
    }

    let mut quick = false;
    let mut repeat = 1usize;
    let mut history = true;
    let mut out_path = PathBuf::from("BENCH_sweeps.json");
    let mut args = argv.into_iter();
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--no-history" => history = false,
            "--repeat" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) if n >= 1 => repeat = n,
                _ => die("--repeat needs a count of at least 1"),
            },
            "--out" => match args.next() {
                Some(p) => out_path = PathBuf::from(p),
                None => die("--out needs a path"),
            },
            "--help" | "-h" => {
                println!(
                    "usage: rexec-bench [--quick] [--repeat N] [--out PATH] [--no-history]\n\
                            rexec-bench compare BASELINE CURRENT [--iqr-band K] [--min-pct P]"
                );
                return;
            }
            other => die(&format!("unknown argument: {other}")),
        }
    }

    let started_unix = unix_secs();
    let run_started = Instant::now();
    let passes: Vec<Vec<StageResult>> = (0..repeat).map(|_| run_suite(quick)).collect();
    let stages = aggregate(passes);

    for s in &stages {
        println!(
            "[{:<9}] {:<28} {:>10.3} ms (iqr {:>8.3})  {:>12.0} {}/s",
            s.stage,
            s.name,
            s.wall_secs * 1e3,
            (s.q3_secs - s.q1_secs) * 1e3,
            s.per_sec(),
            s.unit
        );
    }

    let mut run = BTreeMap::new();
    run.insert("tool".to_string(), "rexec-bench".to_value());
    run.insert("version".to_string(), env!("CARGO_PKG_VERSION").to_value());
    run.insert("quick".to_string(), quick.to_value());
    run.insert("repeat".to_string(), (repeat as u64).to_value());
    run.insert("threads".to_string(), (rayon_threads() as u64).to_value());
    run.insert("started_unix_secs".to_string(), started_unix.to_value());
    run.insert(
        "wall_secs".to_string(),
        run_started.elapsed().as_secs_f64().to_value(),
    );

    let mut doc = BTreeMap::new();
    doc.insert("run".to_string(), Value::Object(run));
    doc.insert(
        "stages".to_string(),
        Value::Array(stages.iter().map(StageResult::to_value).collect()),
    );
    let doc = Value::Object(doc);

    let json = serde_json::to_string_pretty(&doc).expect("benchmark report serializes infallibly");
    // Atomic: a crash mid-write must not leave a truncated report that a
    // later `compare` run would misread as a baseline.
    rexec_harness::atomic_write_simple(&out_path, json.as_bytes()).expect("write benchmark report");
    println!("benchmark report written: {}", out_path.display());
    if history {
        append_history(&out_path, &doc);
    }
}

/// Worker-thread count the parallel stages ran with.
fn rayon_threads() -> usize {
    rayon::current_num_threads()
}

#[cfg(test)]
mod tests {
    use super::finite_ratio;

    #[test]
    fn finite_ratio_rejects_every_non_finite_quotient() {
        assert_eq!(finite_ratio(10.0, 2.0), 5.0);
        assert_eq!(finite_ratio(1.0, 0.0), 0.0);
        assert_eq!(finite_ratio(1.0, -1.0), 0.0);
        assert_eq!(finite_ratio(f64::NAN, 1.0), 0.0);
        assert_eq!(finite_ratio(1.0, f64::NAN), 0.0);
        assert_eq!(finite_ratio(f64::INFINITY, 1.0), 0.0);
        // Regression: a subnormal denominator passes `den > 0.0` but the
        // quotient overflows to +inf — the old input-side guard let it
        // leak into the report.
        assert_eq!(finite_ratio(1.0, f64::from_bits(1)), 0.0);
        assert_eq!(finite_ratio(1.0, f64::INFINITY), 0.0);
    }
}
