//! Tracked benchmark runner: measures the solver, sweep and simulator
//! stages end-to-end and emits a machine-readable `BENCH_sweeps.json`,
//! so every PR records the perf trajectory alongside the paper artifacts.
//!
//! ```text
//! rexec-bench [--quick] [--repeat N] [--out PATH] [--no-history]
//! rexec-bench compare BASELINE CURRENT
//!
//!   --quick       CI-sized workloads (seconds, not minutes)
//!   --repeat N    run the whole suite N times; report per-stage
//!                 median wall time with the interquartile range
//!                 (default 1: a single pass, IQR 0)
//!   --out         output path (default: BENCH_sweeps.json)
//!   --no-history  skip appending this run to BENCH_history.jsonl
//!
//!   compare       read two reports and flag stages whose current
//!                 median is more than 3× the wider IQR *and* more
//!                 than 5% above the baseline median; exits 1 when any
//!                 stage regressed
//! ```
//!
//! The stages, one table of which is in EXPERIMENTS.md ("Benchmark
//! baseline"): **solver** (`paper_k5`, `synthetic_k20`: the batched
//! `solve_many` kernel against the per-point `solve` loop and the table
//! build), **sweep** and **heatmap** (the paper-grid figures, the §4.2
//! ρ-tables, a λ × ρ map), **serve** (the planning-service core,
//! batched and cached against one scalar solve per query), **wire**
//! (request parsing and answer rendering, hot and cold request shapes
//! as sides), **simulator** (the reference engine against the fast path
//! at width 1 and over rayon, on a silent and a mixed config; the
//! Weibull reference and X-laws' histogram call; the Theorem 2 grid on
//! common random numbers against separate runs), **obs** (the fast path
//! with spans and timeline on against off) and **check** (the
//! crash-consistency model check).
//!
//! Every stage is timed by one loop, [`rounds`]: in each round every
//! side of the stage runs once, in ABBA order, so the machine's drift
//! weighs on every side alike. A side whose single call is far under a
//! millisecond makes a constant number of calls per round and is
//! reported per call. Within one pass a stage's wall time is the median
//! of its rounds; `--repeat` takes the median and quartiles of those
//! across passes, which is what `compare` and `BENCH_history.jsonl`
//! track. Every other side's median is written the same way, as
//! `{side}_wall_secs`. Every ratio (`batched_speedup`,
//! `speedup_vs_reference`, `speedup_vs_separate`,
//! `speedup_vs_unbatched`, `overhead_pct`) is the median of the
//! per-round paired ratios pooled over every pass, written with its
//! sign-test 95 % interval as `{ratio}_ci: [lo, hi]`. The remaining
//! extras are facts about the workload (`patterns_total`, `hit_rate`,
//! the model check's counts); a run whose passes disagree on one fails.

#![forbid(unsafe_code)]

use rexec_bench::stats::{
    median_sorted, quartiles_sorted, regressions, sign_test_interval, sorted, StageSample,
};
use rexec_bench::{atlas_crusoe, hera_xscale, rounds, synthetic_solver};
use rexec_sim::runner::outcome_sketches;
use rexec_sim::{Engine, MonteCarlo, SimConfig, Sinks, Summary};
use rexec_sweep::figure::{lambda_hi_for, sweep_figure_paper_grid, SweepParam};
use rexec_sweep::{rho_table, Grid, Heatmap};
use serde::{Serialize, Value};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

/// `compare`'s noise band: a regression must exceed this many IQRs ...
const IQR_BAND: f64 = 3.0;
/// ... and this percentage of the baseline median.
const MIN_PCT: f64 = 5.0;

/// One stage as one suite pass measured it.
struct StageResult {
    stage: &'static str,
    name: &'static str,
    /// Work items per call of the stage's workload (points, solves...).
    items: u64,
    /// What `items` counts.
    unit: &'static str,
    /// Seconds per call, one per round.
    rounds: Vec<f64>,
    /// The other sides timed in the same rounds.
    sides: Vec<Side>,
    /// Facts about the workload that every pass must reproduce exactly.
    facts: BTreeMap<String, Value>,
}

/// A side timed in the same rounds as its stage, reported as
/// `{name}_wall_secs`, and the ratio of the stage to it if it is the
/// side the stage is compared against.
struct Side {
    name: &'static str,
    rounds: Vec<f64>,
    ratio: Option<Ratio>,
}

/// A paired ratio's report key and its value for one round, given the
/// stage's and the side's seconds.
type Ratio = (&'static str, fn(f64, f64) -> f64);

/// How many times faster than its side the stage ran.
fn speedup(stage_secs: f64, side_secs: f64) -> f64 {
    finite_ratio(side_secs, stage_secs)
}

/// How many percent slower than its side the stage ran.
fn overhead_pct(stage_secs: f64, side_secs: f64) -> f64 {
    (finite_ratio(stage_secs, side_secs) - 1.0) * 100.0
}

impl StageResult {
    fn new(stage: &'static str, name: &'static str, unit: &'static str) -> StageResult {
        StageResult {
            stage,
            name,
            items: 0,
            unit,
            rounds: vec![],
            sides: vec![],
            facts: BTreeMap::new(),
        }
    }

    /// The stage's own seconds per call of `items` work items.
    fn timed(mut self, items: u64, rounds: Vec<f64>) -> StageResult {
        (self.items, self.rounds) = (items, rounds);
        self
    }

    fn side(mut self, name: &'static str, rounds: Vec<f64>, ratio: Option<Ratio>) -> StageResult {
        self.sides.push(Side {
            name,
            rounds,
            ratio,
        });
        self
    }

    fn fact(mut self, key: &str, value: impl Serialize) -> StageResult {
        self.facts.insert(key.to_string(), value.to_value());
        self
    }
}

/// One report row: a stage folded over every suite pass.
struct Row<'a> {
    /// The first pass's result, for the names, items and facts.
    first: &'a StageResult,
    repeats: u64,
    /// `(q1, median, q3)` of the per-pass median seconds.
    wall: (f64, f64, f64),
    /// Each side's name and median over passes of its per-pass median.
    sides: Vec<(&'static str, f64)>,
    /// The compared side's ratio: its key, the median of the per-round
    /// ratios pooled over every pass, and their sign-test interval.
    ratio: Option<PairedRatio>,
}

type PairedRatio = (&'static str, f64, Option<(f64, f64)>);

/// What a ratio's `_ci` reads when its rounds are too few for one.
const NO_INTERVAL: &str = "none: fewer than 6 rounds";

impl Row<'_> {
    /// Items per second from the median wall time; 0 for a zero-duration
    /// stage so the JSON report never contains `inf`/NaN (which
    /// downstream parsers misread).
    fn per_sec(&self) -> f64 {
        finite_ratio(self.first.items as f64, self.wall.1)
    }

    fn iqr_secs(&self) -> f64 {
        self.wall.2 - self.wall.0
    }

    fn to_value(&self) -> Value {
        let s = self.first;
        // Minimum detectable effect: the smallest slowdown, in percent
        // of the median, that `compare` flags against a run with this
        // stage's spread.
        let mde_pct = (IQR_BAND * finite_ratio(self.iqr_secs(), self.wall.1) * 100.0).max(MIN_PCT);
        let mut m = BTreeMap::new();
        m.insert("stage".to_string(), s.stage.to_value());
        m.insert("name".to_string(), s.name.to_value());
        m.insert("wall_secs".to_string(), self.wall.1.to_value());
        m.insert("wall_q1_secs".to_string(), self.wall.0.to_value());
        m.insert("wall_q3_secs".to_string(), self.wall.2.to_value());
        m.insert("wall_iqr_secs".to_string(), self.iqr_secs().to_value());
        m.insert("mde_pct".to_string(), mde_pct.to_value());
        m.insert("repeats".to_string(), self.repeats.to_value());
        m.insert("items".to_string(), s.items.to_value());
        m.insert("unit".to_string(), s.unit.to_value());
        m.insert(format!("{}_per_sec", s.unit), self.per_sec().to_value());
        for (side, secs) in &self.sides {
            m.insert(format!("{side}_wall_secs"), secs.to_value());
        }
        if let Some((key, median, ci)) = self.ratio {
            m.insert(key.to_string(), median.to_value());
            let ci = ci.map_or(NO_INTERVAL.to_value(), |(lo, hi)| vec![lo, hi].to_value());
            m.insert(format!("{key}_ci"), ci);
        }
        m.extend(s.facts.clone());
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

fn solver_stages(quick: bool, out: &mut Vec<StageResult>) {
    let n = if quick { 6 } else { 30 };
    // The paper's ρ sweep grid: 51 points over [1.0, 3.5].
    let rhos = Grid::linear(1.0, 3.5, 51).values().to_vec();

    // A grid or a table build takes microseconds, so each call makes
    // `calls` solves of the grid or builds.
    for (name, k, calls) in [("paper_k5", 5usize, 200), ("synthetic_k20", 20, 40)] {
        let solver = if k == 5 {
            hera_xscale().solver().expect("valid configuration")
        } else {
            synthetic_solver(k).expect("valid synthetic model")
        };
        let model = *solver.model();
        let speeds = solver.speeds().clone();
        let [build, per_point, batched] = rounds(
            n,
            [
                (calls, &mut || {
                    black_box(rexec_core::BiCritSolver::new(model, speeds.clone()));
                }),
                (calls, &mut || {
                    black_box(rhos.iter().filter_map(|&rho| solver.solve(rho)).count());
                }),
                (calls, &mut || {
                    black_box(solver.solve_many(&rhos));
                }),
            ],
        );
        out.push(
            StageResult::new("solver", name, "solves")
                .timed(rhos.len() as u64, batched)
                .side("table_build", build, None)
                .side("per_point", per_point, Some(("batched_speedup", speedup))),
        );
    }
}

fn sweep_stages(quick: bool, out: &mut Vec<StageResult>) {
    let n = if quick { 3 } else { 10 };
    let cfg = atlas_crusoe();
    let lambda_hi = lambda_hi_for(&cfg);
    let mut points = 0u64;
    let [figures] = rounds(
        n,
        [(1, &mut || {
            points = SweepParam::ALL
                .into_iter()
                .map(|param| sweep_figure_paper_grid(&cfg, param, lambda_hi).points.len() as u64)
                .sum();
        })],
    );
    out.push(StageResult::new("sweep", "figures_atlas_crusoe", "points").timed(points, figures));

    // The four §4.2 tables take tens of microseconds: 50 calls a round.
    let hera = hera_xscale();
    let mut rows = 0u64;
    let [tables] = rounds(
        n,
        [(50, &mut || {
            rows = rexec_sweep::table_rho::PAPER_RHOS
                .into_iter()
                .map(|rho| rho_table(&hera, rho).rows.len() as u64)
                .sum();
        })],
    );
    out.push(StageResult::new("sweep", "tables_rho", "rows").timed(rows, tables));

    let (nl, nr) = if quick { (8, 20) } else { (16, 40) };
    let lambdas = Grid::log(1e-6, 2e-3, nl);
    let rhos = Grid::linear(1.1, 8.0, nr);
    let [heatmap] = rounds(
        n,
        [(4, &mut || {
            black_box(Heatmap::compute(&hera, &lambdas, &rhos));
        })],
    );
    out.push(
        StageResult::new("heatmap", "hera_xscale_lambda_rho", "cells")
            .timed((nl * nr) as u64, heatmap),
    );
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

/// Benches one config through the single-thread reference engine (the
/// bit-reproducible per-attempt loop), the fast path at width 1, and
/// the fast path over rayon, whose Summary must stay bit-identical to
/// the width-1 one (chunked RNG streams + order-preserving reduction).
/// Both fast sides make `fast_calls` runs a round, and both are
/// compared against the reference.
fn simulator_trio(
    quick: bool,
    out: &mut Vec<StageResult>,
    cfg: SimConfig,
    names: [&'static str; 3],
    fast_calls: u32,
) {
    let n = if quick { 6 } else { 30 };
    let trials: u64 = if quick { 4_000 } else { 40_000 };
    let reference = MonteCarlo::new(cfg, trials, 2024).with_engine(Engine::Reference);
    let fast = MonteCarlo::new(cfg, trials, 2024).with_engine(Engine::FastPath);
    let run = |mc: &MonteCarlo| mc.run().expect("benchmark config is valid");
    let patterns = rexec_obs::global().counter("sim.patterns");
    let (mut seq_summary, mut par_summary) = (Summary::default(), Summary::default());
    let mut par_patterns = 0;
    let [ref_secs, seq_secs, par_secs] = rounds(
        n,
        [
            (1, &mut || {
                black_box(at_width_one(|| run(&reference)));
            }),
            (fast_calls, &mut || {
                seq_summary = at_width_one(|| run(&fast))
            }),
            (fast_calls, &mut || {
                let before = patterns.get();
                par_summary = run(&fast);
                par_patterns += patterns.get() - before;
            }),
        ],
    );
    assert_eq!(
        par_summary, seq_summary,
        "parallel fast path diverged from the width-1 fast path"
    );
    let sim = |name| StageResult::new("simulator", name, "patterns");
    let vs_reference: Option<Ratio> = Some(("speedup_vs_reference", speedup));
    out.push(sim(names[0]).timed(trials, ref_secs.clone()));
    out.push(sim(names[1]).timed(trials, seq_secs).side(
        "reference",
        ref_secs.clone(),
        vs_reference,
    ));
    out.push(
        sim(names[2])
            .timed(trials, par_secs)
            .side("reference", ref_secs, vs_reference)
            .fact("patterns_total", par_patterns),
    );
}

fn simulator_stage(quick: bool, out: &mut Vec<StageResult>) {
    let model = hera_xscale().silent_model().expect("valid configuration");
    // The ρ = 3 optimum (σ1 = σ2 = 0.4, Wopt ≈ 2764) with a fast
    // re-execution speed, so the two-speed path is exercised. A silent
    // fast-path run takes under 0.1 ms.
    let silent_cfg = SimConfig::from_silent_model(&model, 2764.0, 0.4, 0.8);
    let names = ["sim_reference", "sim_fastpath", "sim_fastpath_parallel"];
    simulator_trio(quick, out, silent_cfg, names, 16);

    // Mixed fail-stop + silent errors at §5 rates: exercises the
    // three-way categorical fast path instead of the geometric one.
    let mm = rexec_core::MixedModel::new(
        rexec_core::ErrorRates::new(8e-5, 5e-5).expect("valid rates"),
        model.costs,
        model.power,
    );
    let mixed_cfg = SimConfig::from_mixed_model(&mm, 3000.0, 0.6, 1.0);
    let names = [
        "sim_mixed_reference",
        "sim_mixed_fastpath",
        "sim_mixed_fastpath_parallel",
    ];
    simulator_trio(quick, out, mixed_cfg, names, 2);

    // Non-memoryless law through the per-attempt scenario engine: the
    // reference-path cost of Weibull inter-error draws (inverse-survival
    // powf per attempt instead of one exp log), tracked from day one so
    // law-scenario regressions show up in BENCH_history.jsonl.
    let n = if quick { 6 } else { 30 };
    let trials: u64 = if quick { 4_000 } else { 40_000 };
    let weibull_law = rexec_core::ErrorLaw::Weibull { shape: 0.7 };
    let weibull = MonteCarlo::new(silent_cfg, trials, 2024).with_law(weibull_law);
    let run = |mc: &MonteCarlo| mc.run().expect("benchmark config is valid");
    let [weibull_secs] = rounds(
        n,
        [(1, &mut || {
            black_box(at_width_one(|| run(&weibull)));
        })],
    );
    let sim = |name| StageResult::new("simulator", name, "patterns");
    out.push(sim("sim_weibull_reference").timed(trials, weibull_secs));

    // X-laws' own call: the Weibull row of its table at the experiment's
    // λ, recording every trial's time and energy into the outcome
    // sketches (worker-local copies folded at the end).
    let laws_cfg = SimConfig::from_silent_model(&model.with_lambda(1e-4), 2764.0, 0.4, 0.8);
    let laws = MonteCarlo::new(laws_cfg, trials, 2024).with_law(weibull_law);
    let [laws_secs] = rounds(
        n,
        [(1, &mut || {
            let sketches = outcome_sketches();
            let sinks = Sinks {
                histograms: Some(&sketches),
                ..Sinks::default()
            };
            let summary = laws.run_with(0..trials, sinks);
            black_box(summary.expect("benchmark config is valid"));
        })],
    );
    out.push(sim("sim_laws_histograms").timed(trials, laws_secs));
}

/// The simulated Theorem 2 grid of X-mc-mixed (8 λ × 13 W fast-path
/// configs) run both ways: one fast-path `run()` per config, and one
/// `MonteCarlo::run_common` per λ, which generates each trial chunk's
/// draws once for the λ's 13 configs. The two must agree bit for bit;
/// `speedup_vs_separate` is the separate runs' time over the shared
/// one's.
fn sim_crn_grid_stage(quick: bool, out: &mut Vec<StageResult>) {
    let n = if quick { 3 } else { 10 };
    // Full mode runs the experiment's own trial count.
    let trials: u64 = if quick { 10_000 } else { 100_000 };
    let grid = rexec_sweep::experiments::theorem2_sim_grid(2024);
    let (mut separate, mut common) = (Vec::new(), Vec::new());
    let [separate_secs, common_secs] = rounds(
        n,
        [
            (1, &mut || {
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
            }),
            (1, &mut || {
                common = grid
                    .iter()
                    .flat_map(|point| {
                        MonteCarlo::run_common(&point.configs, trials, point.seed)
                            .expect("benchmark config is valid")
                    })
                    .collect::<Vec<Summary>>();
            }),
        ],
    );
    assert_eq!(
        common, separate,
        "run_common diverged from separate fast-path runs"
    );
    let vs_separate: Option<Ratio> = Some(("speedup_vs_separate", speedup));
    out.push(
        StageResult::new("simulator", "sim_crn_grid", "patterns")
            .timed(separate.len() as u64 * trials, common_secs)
            .side("separate", separate_secs, vs_separate),
    );
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
/// pool is warmed once, then every call streams fresh miss ρ values so
/// the ~10% miss path stays in the measurement.
fn serve_stages(quick: bool, out: &mut Vec<StageResult>) {
    use rexec_serve::{PlanService, ServiceConfig};

    let n_rounds = if quick { 3 } else { 8 };
    let n: u64 = if quick { 50_000 } else { 200_000 };
    let tables = serve_tables();

    // Baseline: no plan cache (capacity 0), one scalar solve per query.
    // The solver cache stays on in both paths — candidate-table reuse is
    // not what this stage isolates.
    let baseline = PlanService::new(ServiceConfig {
        plan_cache_capacity: 0,
        ..ServiceConfig::default()
    });
    // Cached + batched: warm the hot pool once, then measure steady
    // state (hits answered from the sharded cache, misses grouped per
    // table and solved through `solve_many_into`).
    let service = PlanService::new(ServiceConfig::default());
    for spec in &serve_stream(&tables, n, 0) {
        service.plan_spec(spec).expect("bench stream is valid");
    }
    let stats_before = service.cache_stats();
    let (mut unbatched_pass, mut batched_pass) = (0, 0);
    let mut queries = Vec::with_capacity(512);
    let mut answers = Vec::with_capacity(512);
    let [unbatched, batched] = rounds(
        n_rounds,
        [
            (1, &mut || {
                unbatched_pass += 1;
                for spec in &serve_stream(&tables, n, unbatched_pass) {
                    let query = baseline.resolve(spec).expect("bench stream is valid");
                    black_box(baseline.plan(&query));
                }
            }),
            (1, &mut || {
                batched_pass += 1;
                for chunk in serve_stream(&tables, n, batched_pass).chunks(512) {
                    let resolve = |s| service.resolve(s).expect("bench stream is valid");
                    queries.clear();
                    queries.extend(chunk.iter().map(resolve));
                    service.plan_batch(&queries, &mut answers);
                    black_box(&answers);
                }
            }),
        ],
    );
    let stats = service.cache_stats();
    let lookups = (stats.hits - stats_before.hits) + (stats.misses - stats_before.misses);
    let hit_rate = finite_ratio((stats.hits - stats_before.hits) as f64, lookups as f64);

    let serve = |name| StageResult::new("serve", name, "queries");
    out.push(serve("serve_unbatched").timed(n, unbatched.clone()));
    out.push(
        serve("serve_batched")
            .timed(n, batched)
            .side(
                "unbatched",
                unbatched,
                Some(("speedup_vs_unbatched", speedup)),
            )
            .fact("batch_size", 512u64)
            .fact("hit_rate", hit_rate),
    );
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
/// every line of one call; each shape is a side of its own.
fn wire_parse_stage(quick: bool, out: &mut Vec<StageResult>) {
    let n = if quick { 3 } else { 6 };
    let (hot, cold) = if quick {
        (20_000, 5_000)
    } else {
        (200_000, 50_000)
    };
    let (hot_lines, cold_lines) = wire_lines(hot, cold);
    let parse_all = |lines: &[String]| {
        let parsed = lines
            .iter()
            .filter(|l| rexec_serve::parse_request(l).1.is_ok());
        assert_eq!(parsed.count(), lines.len(), "a bench line failed to parse");
    };
    let [hot_secs, cold_secs] = rounds(
        n,
        [
            (1, &mut || parse_all(&hot_lines)),
            (1, &mut || parse_all(&cold_lines)),
        ],
    );
    out.push(wire_stage(
        "wire_parse",
        hot + cold,
        "lines",
        hot_secs,
        cold_secs,
    ));
}

/// A wire stage timing its hot and cold request shapes as two sides:
/// each round's time is the sum of the two.
fn wire_stage(
    name: &'static str,
    items: usize,
    unit: &'static str,
    hot: Vec<f64>,
    cold: Vec<f64>,
) -> StageResult {
    let both = hot.iter().zip(&cold).map(|(h, c)| h + c).collect();
    StageResult::new("wire", name, unit)
        .timed(items as u64, both)
        .side("hot", hot, None)
        .side("cold", cold, None)
}

/// Answer rendering (`wire_render`): `render_answer` over the answers
/// to `wire_parse`'s hot and cold lines, planned once up front, the
/// daemon's response layer on its own. `items` is every answer of one
/// call; each shape is a side of its own.
fn wire_render_stage(quick: bool, out: &mut Vec<StageResult>) {
    use rexec_serve::{PlanAnswer, PlanService, ServiceConfig};
    let n = if quick { 3 } else { 6 };
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
    let render_all = |text: &mut String, answers: &[(Option<u64>, PlanAnswer)]| {
        text.clear();
        for (id, answer) in answers {
            rexec_serve::render_answer(text, *id, answer);
            text.push('\n');
        }
        black_box(text.len());
    };
    let (mut hot_text, mut cold_text) = (String::new(), String::new());
    let [hot_secs, cold_secs] = rounds(
        n,
        [
            (1, &mut || render_all(&mut hot_text, &hot_answers)),
            (1, &mut || render_all(&mut cold_text, &cold_answers)),
        ],
    );
    out.push(wire_stage(
        "wire_render",
        hot + cold,
        "answers",
        hot_secs,
        cold_secs,
    ));
}

/// Observability self-overhead: the `sim_fastpath` workload with span
/// timing *and* the span timeline enabled, against the same workload
/// with both disabled. The hot loop batches its metrics into per-chunk
/// integer accumulators, so the toggles should only gate the per-run
/// `runner.run` span — `overhead_pct` records how true that stays. A
/// negative `overhead_pct` is the machine's noise, reported as measured.
fn obs_overhead_stage(quick: bool, out: &mut Vec<StageResult>) {
    let model = hera_xscale().silent_model().expect("valid configuration");
    let cfg = SimConfig::from_silent_model(&model, 2764.0, 0.4, 0.8);
    // Even in --quick this stage uses a sizeable workload: the overhead
    // ratio of two ~microsecond runs would be pure timer noise.
    let trials: u64 = if quick { 100_000 } else { 400_000 };
    let (n, calls) = if quick { (6, 1) } else { (30, 2) };
    let mc = MonteCarlo::new(cfg, trials, 2024).with_engine(Engine::FastPath);
    let run_observed = |on: bool| {
        rexec_obs::set_spans_enabled(on);
        rexec_obs::set_timeline_enabled(on);
        black_box(mc.run().expect("benchmark config is valid"));
    };
    let [off, on] = rounds(
        n,
        [
            (calls, &mut || run_observed(false)),
            (calls, &mut || run_observed(true)),
        ],
    );
    rexec_obs::set_spans_enabled(false);
    rexec_obs::set_timeline_enabled(false);
    // Free the timeline events the enabled runs accumulated.
    drop(rexec_obs::timeline_drain());
    out.push(
        StageResult::new("obs", "obs_overhead", "patterns")
            .timed(trials, on)
            .side("baseline", off, Some(("overhead_pct", overhead_pct))),
    );
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
    let mut report = None;
    let [secs] = rounds(1, [(1, &mut || report = Some(rexec_check::explore(&cfg)))]);
    let report = report.expect("one round ran");
    assert!(
        report.ok(),
        "model check found {} crash-consistency violation(s); first: {}",
        report.violations.len(),
        report.violations[0]
    );
    out.push(
        StageResult::new("check", "model_check", "states")
            .timed(report.states_explored() as u64, secs)
            .fact("fixture_units", cfg.units as u64)
            .fact("storage_ops", report.ops as u64)
            .fact("crash_states", report.crash_states as u64)
            .fact("corruption_states", report.corruption_states as u64)
            .fact("violations", 0u64),
    );
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

/// Folds the `--repeat` suite passes into one row per stage. A stage's
/// wall time is the median and quartiles of its per-pass median round,
/// a side's the median of its per-pass medians, and a ratio the median,
/// with its sign-test interval, of the per-round ratios pooled over
/// every pass. Fails when the passes disagree on a stage's workload:
/// its name, items or facts.
fn aggregate(passes: &[Vec<StageResult>]) -> Result<Vec<Row<'_>>, String> {
    let median_of = |rounds: &[f64]| median_sorted(&sorted(rounds.to_vec()));
    passes[0]
        .iter()
        .enumerate()
        .map(|(i, first)| {
            let runs: Vec<&StageResult> = passes.iter().map(|p| &p[i]).collect();
            let same = |r: &&StageResult| {
                (r.stage, r.name, r.items, &r.facts)
                    == (first.stage, first.name, first.items, &first.facts)
            };
            if !runs.iter().all(same) {
                let (stage, name) = (first.stage, first.name);
                return Err(format!(
                    "{stage}/{name}: the passes measured different workloads"
                ));
            }
            let per_pass = |rounds: &dyn Fn(&StageResult) -> &[f64]| {
                sorted(runs.iter().map(|r| median_of(rounds(r))).collect())
            };
            let side_median = |j: usize| median_sorted(&per_pass(&|r| &r.sides[j].rounds));
            let sides = (first.sides.iter().enumerate())
                .map(|(j, side)| (side.name, side_median(j)))
                .collect();
            let ratio = first.sides.iter().enumerate().find_map(|(j, side)| {
                let (key, of) = side.ratio?;
                let pooled = sorted(
                    runs.iter()
                        .flat_map(|r| r.rounds.iter().zip(&r.sides[j].rounds))
                        .map(|(&stage, &side)| of(stage, side))
                        .collect(),
                );
                Some((key, median_sorted(&pooled), sign_test_interval(&pooled)))
            });
            Ok(Row {
                first,
                repeats: passes.len() as u64,
                wall: quartiles_sorted(&per_pass(&|r| &r.rounds)),
                sides,
                ratio,
            })
        })
        .collect()
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

/// Extracts `"stage/name" → (median, IQR)` samples from a report file.
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
            Some(StageSample {
                key: format!("{}/{}", text_of(s.get("stage"))?, text_of(s.get("name"))?),
                median_secs: num(s.get("wall_secs"))?,
                iqr_secs: num(s.get("wall_iqr_secs"))?,
            })
        })
        .collect()
}

/// `rexec-bench compare BASELINE CURRENT`.
fn run_compare(args: &[String]) -> ! {
    let [base_path, cur_path] = args else {
        die("compare needs exactly BASELINE and CURRENT report paths");
    };
    let base = load_samples(Path::new(base_path));
    let cur = load_samples(Path::new(cur_path));
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
    let regs = regressions(&base, &cur, IQR_BAND, MIN_PCT);
    if regs.is_empty() {
        println!("no regressions beyond the noise band (>{IQR_BAND}x IQR and >{MIN_PCT}%)");
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
                            rexec-bench compare BASELINE CURRENT"
                );
                return;
            }
            other => die(&format!("unknown argument: {other}")),
        }
    }

    let started_unix = unix_secs();
    let run_started = Instant::now();
    let passes: Vec<Vec<StageResult>> = (0..repeat).map(|_| run_suite(quick)).collect();
    let stages = aggregate(&passes).unwrap_or_else(|e| die(&e));

    for s in &stages {
        let ratio = match s.ratio {
            Some((key, median, Some((lo, hi)))) => {
                format!("  {key} {median:.2} [{lo:.2}, {hi:.2}]")
            }
            Some((key, median, None)) => format!("  {key} {median:.2} ({NO_INTERVAL})"),
            None => String::new(),
        };
        println!(
            "[{:<9}] {:<28} {:>10.3} ms (iqr {:>8.3})  {:>12.0} {}/s{ratio}",
            s.first.stage,
            s.first.name,
            s.wall.1 * 1e3,
            s.iqr_secs() * 1e3,
            s.per_sec(),
            s.first.unit
        );
    }

    let mut run = BTreeMap::new();
    run.insert("tool".to_string(), "rexec-bench".to_value());
    run.insert("version".to_string(), env!("CARGO_PKG_VERSION").to_value());
    run.insert("quick".to_string(), quick.to_value());
    run.insert("repeat".to_string(), (repeat as u64).to_value());
    run.insert(
        "threads".to_string(),
        (rayon::current_num_threads() as u64).to_value(),
    );
    run.insert("started_unix_secs".to_string(), started_unix.to_value());
    run.insert(
        "wall_secs".to_string(),
        run_started.elapsed().as_secs_f64().to_value(),
    );

    let mut doc = BTreeMap::new();
    doc.insert("run".to_string(), Value::Object(run));
    doc.insert(
        "stages".to_string(),
        Value::Array(stages.iter().map(Row::to_value).collect()),
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

#[cfg(test)]
mod tests {
    use super::*;

    /// One pass of a stage compared against a side, with one fact.
    fn pass(stage: Vec<f64>, side: Vec<f64>, hits: u64) -> Vec<StageResult> {
        let ratio: Ratio = ("speedup_vs_unbatched", speedup);
        vec![StageResult::new("serve", "serve_batched", "queries")
            .timed(10, stage)
            .side("unbatched", side, Some(ratio))
            .fact("hits", hits)]
    }

    #[test]
    fn pooled_ratio_is_the_median_of_every_rounds_ratio() {
        // Per-round speedups 2, 3, 4 in one pass and 1, 5, 6, 8 in the
        // other: pooled, their median is 4, and 7 samples give [min, max].
        let passes = [
            pass(vec![1.0, 1.0, 1.0], vec![2.0, 3.0, 4.0], 7),
            pass(vec![2.0, 1.0, 0.5, 0.25], vec![2.0, 5.0, 3.0, 2.0], 7),
        ];
        let rows = aggregate(&passes).expect("the passes agree");
        assert_eq!(
            rows[0].ratio,
            Some(("speedup_vs_unbatched", 4.0, Some((1.0, 8.0))))
        );
        // Wall times: per-pass medians 1 and 0.75; the side's 3 and 2.5.
        assert_eq!(rows[0].wall, (0.8125, 0.875, 0.9375));
        assert_eq!(rows[0].sides, vec![("unbatched", 2.75)]);
        let row = rows[0].to_value();
        assert_eq!(row.get("speedup_vs_unbatched"), Some(&4.0.to_value()));
        assert_eq!(
            row.get("speedup_vs_unbatched_ci"),
            Some(&vec![1.0, 8.0].to_value())
        );
        assert_eq!(row.get("unbatched_wall_secs"), Some(&2.75.to_value()));
        assert_eq!(row.get("hits"), Some(&7u64.to_value()));

        // Five rounds have no 95 % interval, and the report says so.
        let passes = [pass(vec![1.0; 5], vec![2.0; 5], 7)];
        let rows = aggregate(&passes).expect("one pass");
        assert_eq!(rows[0].ratio, Some(("speedup_vs_unbatched", 2.0, None)));
        assert_eq!(
            rows[0].to_value().get("speedup_vs_unbatched_ci"),
            Some(&NO_INTERVAL.to_value())
        );
    }

    #[test]
    fn passes_that_disagree_on_a_fact_fail() {
        let passes = [pass(vec![1.0], vec![2.0], 7), pass(vec![1.0], vec![2.0], 8)];
        let err = aggregate(&passes).err().expect("the facts differ");
        assert!(err.starts_with("serve/serve_batched:"), "{err}");
    }

    #[test]
    fn overhead_is_the_percent_the_stage_ran_slower_than_its_side() {
        assert!((overhead_pct(1.02, 1.0) - 2.0).abs() < 1e-9);
        assert!(overhead_pct(0.99, 1.0) < 0.0, "not clamped at zero");
        assert_eq!(speedup(0.5, 2.0), 4.0);
    }

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
