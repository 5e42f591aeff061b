//! Parallel Monte Carlo replication and analytic-vs-sampled validation.
//!
//! Two samplers drive the replication (selected via [`Engine`]):
//!
//! * **per-attempt loop** — the exact attempt-by-attempt simulation of
//!   [`simulate_pattern_scenario`](crate::engine::simulate_pattern_scenario),
//!   one RNG stream per trial: bit-reproducible against historical runs,
//!   and the only sampler for non-memoryless error laws, speed
//!   schedules, traces and histograms. The silent law is prepared once
//!   per run ([`ErrorLaw::prepare`]), not per draw;
//! * **fast path** — the closed-form [`FastPattern`] sampler, one RNG
//!   stream per fixed-size trial *chunk* (stream id = chunk id), drawing
//!   through a buffered [`UniformStream`]. It serves silent-only
//!   (`λᶠ = 0`) and mixed fail-stop + silent configs alike, is
//!   statistically identical to the per-attempt loop (same outcome law),
//!   and is over an order of magnitude faster (see `sim_fastpath` and
//!   `sim_mixed_fastpath` in `BENCH_sweeps.json`). Several configs can
//!   share each chunk's stream ([`MonteCarlo::run_common`]).
//!
//! Every entry point — [`run`](MonteCarlo::run),
//! [`validate`](MonteCarlo::validate),
//! [`run_common`](MonteCarlo::run_common) and
//! [`run_with`](MonteCarlo::run_with), whose [`Sinks`] add progress,
//! outcome histograms and a trace — resolves its engine before any
//! trial runs, even for an empty range: a degenerate never-completes
//! config surfaces as an [`EngineError`], never a panic inside a worker,
//! and sweeps degrade it to a tagged `ERR(...)` row.
//!
//! Then one driver runs it. It walks the trial range's chunks, aligned
//! to a fixed absolute grid, in waves; maps each wave's chunks in
//! parallel (in trial order on the calling thread when a trace is
//! recorded); folds the per-chunk results in chunk order into plain
//! [`Summary`] accumulators (Welford-style merge, no per-pattern
//! allocation) and one plain-integer `ChunkObs`; and after each wave
//! flushes that into the global `rexec_obs` registry and reports
//! progress. So runs are **bit-identical** at any `RAYON_NUM_THREADS`,
//! and the registry sees one update per wave — not one per pattern, nor
//! one sketch per chunk.

use crate::engine::{
    ensure_completes, run_pattern, EngineError, FastPattern, PatternOutcome, SimConfig,
};
use crate::rng::{Draws, ReplayStream, SimRng, UniformStream, TRIAL_LANES};
use crate::stats::Stats;
use crate::trace::TraceRecorder;
use rayon::prelude::*;
use rexec_core::{ErrorLaw, PreparedLaw, SpeedSchedule};
use rexec_obs::{counter, sketch, HistogramSketch, RollingWindow};
use serde::{Deserialize, Serialize};
use std::ops::Range;
use std::time::Instant;

/// Aggregated result of many independent pattern simulations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Pattern completion time (s).
    pub time: Stats,
    /// Pattern energy (mJ).
    pub energy: Stats,
    /// Executions per pattern.
    pub attempts: Stats,
    /// Trace events dropped by a bounded recorder (0 for untraced runs).
    pub dropped_events: u64,
}

impl Summary {
    fn push(&mut self, p: &PatternOutcome) {
        self.time.push(p.time);
        self.energy.push(p.energy);
        self.attempts.push(f64::from(p.attempts));
    }

    /// Folds another summary into this one — the deterministic reduction
    /// the parallel runner uses, also handy for gluing
    /// [`MonteCarlo::run_with`] range slices back together.
    #[must_use]
    pub fn merge(mut self, other: Summary) -> Summary {
        self.time.merge(&other.time);
        self.energy.merge(&other.energy);
        self.attempts.merge(&other.attempts);
        self.dropped_events += other.dropped_events;
        self
    }
}

/// Plain-integer observability accumulator for one chunk (or a merge of
/// chunks): the pattern totals behind `runner.trials` and the `sim.*`
/// counters (one pattern is one trial), and an exact attempts-per-trial
/// histogram (inline counts for small attempt values, a tiny spill list
/// for pathological ones). Merging is integer addition — associative
/// and exact — and the registry's log-bucket sketch is touched once per
/// *wave*, not per chunk: allocating and merging a ~1.7k-bucket sketch
/// per 256-trial chunk previously cost more than the trials themselves.
#[derive(Debug, Clone, Default)]
struct ChunkObs {
    patterns: u64,
    attempts: u64,
    silent: u64,
    fail_stop: u64,
    /// `attempt_counts[n]` = number of trials that took `n` executions,
    /// for `n < INLINE`.
    attempt_counts: [u64; Self::INLINE],
    /// Exact counts for rare `attempts ≥ INLINE` trials.
    attempt_spill: Vec<(u32, u64)>,
}

impl ChunkObs {
    const INLINE: usize = 32;

    #[inline]
    fn push(&mut self, p: &PatternOutcome) {
        self.patterns += 1;
        self.attempts += u64::from(p.attempts);
        self.silent += u64::from(p.silent_errors);
        self.fail_stop += u64::from(p.fail_stop_errors);
        self.record_attempts(p.attempts, 1);
    }

    #[inline]
    fn record_attempts(&mut self, attempts: u32, n: u64) {
        if (attempts as usize) < Self::INLINE {
            self.attempt_counts[attempts as usize] += n;
        } else if let Some(slot) = self.attempt_spill.iter_mut().find(|(a, _)| *a == attempts) {
            slot.1 += n;
        } else {
            self.attempt_spill.push((attempts, n));
        }
    }

    fn merge(mut self, other: ChunkObs) -> ChunkObs {
        self.patterns += other.patterns;
        self.attempts += other.attempts;
        self.silent += other.silent;
        self.fail_stop += other.fail_stop;
        for (mine, theirs) in self.attempt_counts.iter_mut().zip(other.attempt_counts) {
            *mine += theirs;
        }
        for (attempts, n) in other.attempt_spill {
            self.record_attempts(attempts, n);
        }
        self
    }

    /// Flushes the totals into the global registry under the runner's
    /// and the engine's historical names (counters registered even when
    /// zero) — identical to recording every trial individually
    /// (`record_n` is byte-identical to n `record`s). The attempts
    /// sketch is registered only once a trial lands in it.
    fn flush(self) {
        counter!("runner.trials").add(self.patterns);
        counter!("sim.patterns").add(self.patterns);
        counter!("sim.attempts").add(self.attempts);
        counter!("sim.silent_errors").add(self.silent);
        counter!("sim.fail_stop_errors").add(self.fail_stop);
        let inline = (0u32..).zip(self.attempt_counts);
        for (attempts, count) in inline.chain(self.attempt_spill) {
            if count > 0 {
                sketch!("runner.attempts_per_trial").record_n(f64::from(attempts), count);
            }
        }
    }
}
/// Power-sum accumulator for one chunk's failed-trial outcomes: per
/// field a sum, a sum of squares, and the extremes. `push` is
/// straight-line short-latency arithmetic (the fast path's hot loop
/// inlines it); [`into_summary`](Self::into_summary) converts to the
/// `Stats` form once per chunk via [`Stats::from_power_sums`].
#[derive(Debug, Default)]
struct RetriedSums {
    n: u64,
    time: PowerSums,
    energy: PowerSums,
    attempts: PowerSums,
}

/// One field's raw sums: `Σx`, `Σx²` (via `mul_add`), min, max.
#[derive(Debug)]
struct PowerSums {
    sum: f64,
    sumsq: f64,
    min: f64,
    max: f64,
}

impl Default for PowerSums {
    fn default() -> Self {
        PowerSums {
            sum: 0.0,
            sumsq: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl PowerSums {
    #[inline]
    fn push(&mut self, x: f64) {
        self.sum += x;
        self.sumsq = x.mul_add(x, self.sumsq);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    #[inline]
    fn stats(&self, n: u64) -> Stats {
        Stats::from_power_sums(n, self.sum, self.sumsq, self.min, self.max)
    }
}

impl RetriedSums {
    #[inline]
    fn push(&mut self, p: &PatternOutcome) {
        self.n += 1;
        self.time.push(p.time);
        self.energy.push(p.energy);
        self.attempts.push(f64::from(p.attempts));
    }

    fn into_summary(self) -> Summary {
        Summary {
            time: self.time.stats(self.n),
            energy: self.energy.stats(self.n),
            attempts: self.attempts.stats(self.n),
            dropped_events: 0,
        }
    }
}

/// Which simulation engine a [`MonteCarlo`] run uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Engine {
    /// The closed-form fast path for the paper's baseline scenario
    /// (exponential errors, a single `σ₂`), the per-attempt loop for
    /// other error laws and speed schedules. The default.
    #[default]
    Auto,
    /// Always the exact per-attempt loop with per-trial RNG streams —
    /// bit-reproducible against historical runs.
    Reference,
    /// Always the closed-form fast path with chunked RNG streams, for
    /// silent-only and mixed fail-stop + silent configs alike.
    FastPath,
}

/// A fresh (time, energy) pair of outcome sketches for
/// [`Sinks::histograms`]: 1 % relative resolution from 1e-3 up to 1e12
/// seconds or millijoules — far above any pattern time or energy of the
/// paper's platforms, so the overflow bucket stays empty (it would
/// still report the exact maximum).
pub fn outcome_sketches() -> [HistogramSketch; 2] {
    std::array::from_fn(|_| HistogramSketch::new(1e-3, 0.01, 1e12))
}

/// Optional observers of a [`MonteCarlo::run_with`] run;
/// `Sinks::default()` observes nothing. None of them changes the
/// summary's statistics or the flushed counter/histogram aggregates,
/// except that histograms and a trace select the per-attempt loop.
#[derive(Default)]
pub struct Sinks<'a> {
    /// Called as `progress(done, total)` with the trials of the range
    /// done so far after each of about ten waves, for user-facing
    /// progress lines on long runs. Each wave's wall time also feeds a
    /// [`RollingWindow`], published after every wave as the
    /// `runner.window.p50` / `runner.window.p99` (wave seconds) and
    /// `runner.window.per_sec` (waves per second) gauges — a live
    /// view over the last ~10 s of the run. Gauges are wall-clock and
    /// sit outside the determinism guarantee.
    pub progress: Option<&'a mut dyn FnMut(u64, u64)>,
    /// Time and energy sketches, as made by [`outcome_sketches`], that
    /// every trial's outcome is recorded into (through per-worker
    /// copies). Runs the per-attempt loop whatever the [`Engine`]:
    /// distribution studies want the historical bit-reproducible trial
    /// streams (the configured law and schedule are honoured).
    pub histograms: Option<&'a [HistogramSketch; 2]>,
    /// A bounded recorder that every trial's events are appended to, in
    /// trial order; events past its capacity are counted in
    /// [`Summary::dropped_events`]. Runs the per-attempt loop whatever
    /// the [`Engine`] (the fast path never materializes events), and
    /// maps the chunks in order on the calling thread.
    pub trace: Option<&'a mut TraceRecorder>,
}

/// A resolved engine selection: the concrete sampler the driver runs.
#[derive(Debug, Clone)]
enum Sampler {
    /// Closed-form fast path, one RNG stream per trial chunk, for one
    /// config or for several on common random numbers.
    Fast(Vec<FastPattern>),
    /// The per-attempt loop, one RNG stream per trial; the reference
    /// engine is its (exponential law, no schedule) instance.
    PerAttempt {
        /// Simulation configuration.
        config: SimConfig,
        /// Silent inter-error law, prepared at `config`'s silent rate.
        silent: PreparedLaw,
        /// Per-attempt speed schedule, when one overrides `σ₁`/`σ₂`.
        schedule: Option<SpeedSchedule>,
    },
}

/// One worker's scratch, kept across the chunks it maps: a private copy
/// of the run's (time, energy) outcome sketches, and the replay buffer
/// of several fast-path configs. Trials record into the copy through
/// `record_mut` (plain adds, no atomic read-modify-writes), and it
/// folds into the run's pair when the worker finishes (on drop). Bucket
/// counts are integers and extremes are exact, so the fold is
/// order-independent.
struct Worker<'a> {
    sketches: Option<(&'a [HistogramSketch; 2], [HistogramSketch; 2])>,
    replay: Option<ReplayStream>,
}

impl<'a> Worker<'a> {
    fn new(run: Option<&'a [HistogramSketch; 2]>) -> Self {
        Worker {
            sketches: run.map(|run| (run, [run[0].empty_like(), run[1].empty_like()])),
            replay: None,
        }
    }
}

impl Drop for Worker<'_> {
    fn drop(&mut self) {
        if let Some((run, local)) = &self.sketches {
            for (run, local) in run.iter().zip(local) {
                run.merge_from(local);
            }
        }
    }
}

/// Monte Carlo driver: replicates a pattern simulation `trials` times,
/// in parallel, with independent RNG streams derived from a master seed
/// (bit-reproducible regardless of thread count).
#[derive(Debug, Clone)]
pub struct MonteCarlo {
    /// Simulation configuration.
    pub config: SimConfig,
    /// Number of independent replications.
    pub trials: u64,
    /// Master seed.
    pub seed: u64,
    /// Engine selection (default [`Engine::Auto`]).
    pub engine: Engine,
    /// Silent inter-error law (default exponential — the paper's model).
    pub law: ErrorLaw,
    /// Per-attempt speed schedule overriding the `σ₁`/`σ₂` rule
    /// (default `None`).
    pub schedule: Option<SpeedSchedule>,
}

impl MonteCarlo {
    /// Creates a driver with automatic engine selection.
    pub fn new(config: SimConfig, trials: u64, seed: u64) -> Self {
        MonteCarlo {
            config,
            trials,
            seed,
            engine: Engine::Auto,
            law: ErrorLaw::Exponential,
            schedule: None,
        }
    }

    /// Selects the engine explicitly (builder style).
    pub fn with_engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Selects the silent inter-error law (builder style). Non-memoryless
    /// laws route to the per-attempt loop; forcing [`Engine::FastPath`]
    /// on one fails at resolution with
    /// [`EngineError::UnsupportedScenario`].
    pub fn with_law(mut self, law: ErrorLaw) -> Self {
        self.law = law;
        self
    }

    /// Installs a per-attempt speed schedule (builder style). Schedules
    /// route to the per-attempt loop; the schedule's `σ₁` and retry
    /// speeds override `config.sigma1`/`config.sigma2`.
    pub fn with_schedule(mut self, schedule: SpeedSchedule) -> Self {
        self.schedule = Some(schedule);
        self
    }

    /// Resolves the engine selection into a concrete sampler.
    ///
    /// `Auto` picks the closed-form sampler for the paper's baseline
    /// scenario (memoryless errors, single re-execution speed) and the
    /// per-attempt loop otherwise. Every sampler is guarded by
    /// [`ensure_completes`], so no engine can hit the `MAX_ATTEMPTS`
    /// assertion mid-run.
    ///
    /// # Errors
    /// [`EngineError::NeverCompletes`] for a degenerate config whose
    /// per-attempt success probability at `σ₂` is ~0 (any engine),
    /// [`EngineError::NonFiniteSuccessProbability`] when it is NaN or
    /// infinite, and [`EngineError::UnsupportedScenario`] when
    /// [`Engine::FastPath`] is forced on a non-memoryless law or a speed
    /// schedule (the closed forms require both memorylessness and a
    /// single `σ₂`).
    fn resolve(&self) -> Result<Sampler, EngineError> {
        let baseline = self.law.is_memoryless() && self.schedule.is_none();
        match self.engine {
            Engine::Reference => self.per_attempt(),
            Engine::Auto | Engine::FastPath if baseline => {
                Ok(Sampler::Fast(vec![FastPattern::new(&self.config)?]))
            }
            Engine::Auto => self.per_attempt(),
            Engine::FastPath => Err(EngineError::UnsupportedScenario {
                reason: "the closed-form fast path requires a memoryless \
                         (exponential) error law and a single re-execution speed",
            }),
        }
    }

    /// The guarded per-attempt sampler for this run's law and schedule.
    fn per_attempt(&self) -> Result<Sampler, EngineError> {
        ensure_completes(&self.config, self.law, self.schedule.as_ref())?;
        Ok(Sampler::PerAttempt {
            config: self.config,
            silent: self.law.prepare(self.config.rates.silent),
            schedule: self.schedule.clone(),
        })
    }

    /// Chunk triples `(chunk_lo, lo, hi)` covering `trials`, aligned to
    /// the absolute `CHUNK` grid: `chunk_lo` is the chunk's grid origin
    /// (fixing its RNG stream id), `[lo, hi)` the trials of the range
    /// that fall inside it. Grid alignment makes every partition of
    /// `0..trials` reuse the same per-chunk streams.
    fn chunk_grid(trials: Range<u64>) -> Vec<(u64, u64, u64)> {
        let first = trials.start - trials.start % Self::CHUNK;
        (first..trials.end)
            .step_by(Self::CHUNK as usize)
            .map(|chunk_lo| {
                (
                    chunk_lo,
                    chunk_lo.max(trials.start),
                    (chunk_lo + Self::CHUNK).min(trials.end),
                )
            })
            .collect()
    }

    /// Simulates one grid chunk — trials `[lo, hi)` of the chunk whose
    /// grid origin is `chunk_lo` — under every config of `sampler`:
    /// the one place a sampler is driven. Returns one summary per config
    /// plus the chunk's plain-integer obs accumulator. The per-attempt
    /// loop also records each trial's time and energy into the worker's
    /// sketches, when it has them, and its events into `trace`, when
    /// given. Allocation-free per pattern: outcomes fold straight into
    /// SoA `Stats` accumulators and integer totals.
    fn run_chunk(
        sampler: &Sampler,
        seed: u64,
        (chunk_lo, lo, hi): (u64, u64, u64),
        worker: &mut Worker,
        mut trace: Option<&mut TraceRecorder>,
    ) -> (Vec<Summary>, ChunkObs) {
        let stream = || SimRng::for_chunk(seed, chunk_lo / Self::CHUNK);
        match sampler {
            Sampler::Fast(patterns) if patterns.len() == 1 => {
                let draws = &mut UniformStream::new(stream());
                let (s, obs) = Self::run_chunk_fast(&patterns[0], draws, (chunk_lo, lo, hi));
                (vec![s], obs)
            }
            Sampler::Fast(patterns) => {
                // Common random numbers: the chunk's stream is generated
                // once and replayed for every config.
                let slot = &mut worker.replay;
                let draws = match slot {
                    Some(draws) => {
                        draws.reset(stream());
                        draws
                    }
                    None => slot.insert(ReplayStream::new(stream())),
                };
                let mut obs = ChunkObs::default();
                let summaries = patterns
                    .iter()
                    .map(|fp| {
                        draws.rewind();
                        let (s, o) = Self::run_chunk_fast(fp, draws, (chunk_lo, lo, hi));
                        obs = std::mem::take(&mut obs).merge(o);
                        s
                    })
                    .collect();
                (summaries, obs)
            }
            Sampler::PerAttempt {
                config,
                silent,
                schedule,
            } => {
                // Per-trial streams, derived in groups of `TRIAL_LANES`
                // aligned on the absolute trial index: thread determinism
                // and range-partition replay are automatic.
                let mut s = Summary::default();
                let mut obs = ChunkObs::default();
                let dropped = trace.as_ref().map_or(0, |tr| tr.dropped());
                let group_lo = lo - lo % TRIAL_LANES as u64;
                for group in (group_lo..hi).step_by(TRIAL_LANES) {
                    let trials = (group..).zip(SimRng::for_trials(seed, group));
                    for (_, mut rng) in trials.filter(|&(i, _)| i >= lo && i < hi) {
                        let schedule = schedule.as_ref();
                        // Two calls, so that the untraced one inlines
                        // with its trace branches folded away.
                        let p = match trace.as_deref_mut() {
                            Some(tr) => {
                                run_pattern(config, *silent, schedule, 1, &mut rng, Some(tr))
                            }
                            None => run_pattern(config, *silent, schedule, 1, &mut rng, None),
                        };
                        s.push(&p);
                        obs.push(&p);
                        if let Some((_, [time, energy])) = &mut worker.sketches {
                            time.record_mut(p.time);
                            energy.record_mut(p.energy);
                        }
                    }
                }
                s.dropped_events = trace.map_or(0, |tr| (tr.dropped() - dropped) as u64);
                (vec![s], obs)
            }
        }
    }

    /// The chunked fast-path hot loop: one draw per first-try success
    /// run, a bounded number per failed trial, over the grid chunk whose
    /// origin is `chunk_lo`, counting trials `[lo, hi)`. `draws` must be
    /// at the chunk stream's first draw.
    fn run_chunk_fast<D: Draws>(
        fp: &FastPattern,
        draws: &mut D,
        (chunk_lo, lo, hi): (u64, u64, u64),
    ) -> (Summary, ChunkObs) {
        let mut s = Summary::default();
        let mut obs = ChunkObs::default();
        // Run-length batching: the count of consecutive trials
        // whose first attempt succeeds is geometric, so one
        // uniform samples the whole run (its identical outcomes
        // tally arithmetically), and a bounded number more sample
        // each failing trial's completion (re-execution count,
        // each failure's cause and abort duration) — no per-trial
        // Welford updates for the dominant single-attempt case. A
        // range starting mid-chunk replays the same draw sequence
        // from the grid origin and only counts trials in `[lo, hi)`.
        let mut first_try = 0u64;
        // Failed-trial moments accumulate as raw power sums — three adds
        // and a fused multiply-add per field — rather than per-trial
        // Welford pushes, whose running-mean division is a loop-carried
        // ~20-cycle chain threaded through the sampling loop. The sums
        // cover at most one chunk (≤ `CHUNK` same-scale outcomes), which
        // keeps [`Stats::from_power_sums`]'s cancellation bound tight.
        let mut failed = RetriedSums::default();
        let mut i = chunk_lo;
        while i < hi {
            let (_, ln_u) = draws.next_uniform_ln();
            let run = fp.success_run_len_ln(ln_u).min(hi - i);
            // Trials of [i, i+run) that fall inside [lo, hi).
            let counted_from = i.max(lo);
            first_try += (i + run).saturating_sub(counted_from);
            i += run;
            if i < hi {
                let p = fp.sample_failed_first(draws);
                if i >= lo {
                    failed.push(&p);
                    obs.push(&p);
                }
                i += 1;
            }
        }
        let retried = failed.into_summary();
        let ft = fp.first_try_outcome();
        s.time = Stats::repeated(ft.time, first_try);
        s.energy = Stats::repeated(ft.energy, first_try);
        s.attempts = Stats::repeated(1.0, first_try);
        s = s.merge(retried);
        obs.patterns += first_try;
        obs.attempts += first_try;
        obs.record_attempts(1, first_try);
        (s, obs)
    }

    /// The one driver behind every entry point: simulates the grid
    /// chunks covering `trials` under `sampler` and returns one summary
    /// per config.
    ///
    /// Chunks run in waves: about a tenth of the range each with a
    /// progress sink, at most `WAVE` chunks each for several configs,
    /// else the whole range in one parallel call. Each wave's chunks map
    /// in parallel (in order on this thread with a trace sink: one
    /// recorder, events in trial order), and their results fold in chunk
    /// order into the summaries and one `ChunkObs`, which is flushed
    /// before progress is reported. The fold order never depends on the
    /// wave length or the width, so neither do the bits.
    fn drive(sampler: &Sampler, seed: u64, trials: Range<u64>, sinks: Sinks) -> Vec<Summary> {
        let _timer = rexec_obs::span!("runner.run");
        let started = Instant::now();
        let total = trials.end.saturating_sub(trials.start);
        let grid = Self::chunk_grid(trials);
        let width = match sampler {
            Sampler::Fast(patterns) => patterns.len(),
            Sampler::PerAttempt { .. } => 1,
        };
        let wave_len = if sinks.progress.is_some() {
            (total / 10).div_ceil(Self::CHUNK) as usize
        } else if width > 1 {
            grid.len().div_ceil(grid.len().div_ceil(Self::WAVE).max(1))
        } else {
            grid.len()
        };
        let (histograms, mut trace) = (sinks.histograms, sinks.trace);
        let mut progress = sinks
            .progress
            .map(|report| (report, RollingWindow::new(10, 1.0)));
        let mut summaries = vec![Summary::default(); width];
        let mut done = 0;
        for wave in grid.chunks(wave_len.max(1)) {
            let wave_started = Instant::now();
            let results: Vec<(Vec<Summary>, ChunkObs)> = match trace.as_deref_mut() {
                Some(trace) => {
                    let mut worker = Worker::new(histograms);
                    wave.iter()
                        .map(|&chunk| {
                            Self::run_chunk(sampler, seed, chunk, &mut worker, Some(trace))
                        })
                        .collect()
                }
                None => wave
                    .to_vec()
                    .into_par_iter()
                    .map_init(
                        || Worker::new(histograms),
                        |worker, chunk| Self::run_chunk(sampler, seed, chunk, worker, None),
                    )
                    .collect(),
            };
            let mut obs = ChunkObs::default();
            for (chunk_summaries, chunk_obs) in results {
                for (summary, s) in summaries.iter_mut().zip(chunk_summaries) {
                    *summary = summary.merge(s);
                }
                obs = obs.merge(chunk_obs);
            }
            obs.flush();
            done += wave.iter().map(|&(_, lo, hi)| hi - lo).sum::<u64>();
            if let Some((report, window)) = &mut progress {
                window.record(wave_started.elapsed().as_secs_f64());
                window.publish(rexec_obs::global(), "runner.window");
                report(done, total);
            }
        }
        let secs = started.elapsed().as_secs_f64();
        if secs > 0.0 {
            rexec_obs::gauge!("runner.trials_per_sec").set((total * width as u64) as f64 / secs);
        }
        summaries
    }

    /// Runs all replications in parallel and aggregates:
    /// [`run_with`](Self::run_with) over `0..trials` with no sinks.
    ///
    /// Instrumented: each worker fills a plain-integer `ChunkObs`
    /// (`runner.trials`, the `sim.*` totals, and the exact
    /// `runner.attempts_per_trial` histogram); the accumulators merge
    /// deterministically along the reduction and flush into the global
    /// registry, so the aggregates are identical for any
    /// `RAYON_NUM_THREADS`. The wall-clock `runner.trials_per_sec` gauge
    /// is excluded from that guarantee.
    ///
    /// # Errors
    /// [`EngineError::NeverCompletes`] for a degenerate config (before
    /// any trial runs).
    pub fn run(&self) -> Result<Summary, EngineError> {
        self.run_with(0..self.trials, Sinks::default())
    }

    /// Runs trial indices `trials` in parallel, feeding the given
    /// [`Sinks`]; histograms or a trace select the per-attempt loop
    /// whatever the [`Engine`]. The engine is resolved first, so even
    /// an empty range fails on a degenerate config; an empty range then
    /// returns an empty [`Summary`] without touching the registry
    /// counters.
    ///
    /// Chunks align to the absolute `CHUNK` grid and their results merge
    /// in chunk order, so for any `RAYON_NUM_THREADS` the summary is
    /// bit-identical to a width-1 run, and any partition of `0..trials`
    /// replays exactly the trials of a single [`run`](Self::run): the
    /// per-attempt loop re-derives per-trial streams, the fast path
    /// replays each partial chunk's stream prefix. Gluing range
    /// summaries left-to-right is bit-identical to [`run`](Self::run)
    /// when the splits are chunk-aligned and every range after the first
    /// is a single chunk (the glue then replays `run`'s exact
    /// left-fold); other partitions cover the same trials but regroup
    /// the non-associative float merges, so their moments agree only to
    /// ~1e-9 (counts and extremes stay exact). Sinks never change the
    /// fold: a progress run's summary and flushed aggregates are
    /// [`run`](Self::run)'s, a histogram or traced run's are those of an
    /// [`Engine::Reference`] run.
    ///
    /// # Errors
    /// [`EngineError::NeverCompletes`] for a degenerate config — raised
    /// here at resolution, never from inside a rayon worker.
    pub fn run_with(&self, trials: Range<u64>, sinks: Sinks) -> Result<Summary, EngineError> {
        let sampler = if sinks.histograms.is_some() || sinks.trace.is_some() {
            self.per_attempt()?
        } else {
            self.resolve()?
        };
        Ok(Self::drive(&sampler, self.seed, trials, sinks).remove(0))
    }

    /// Trials per chunk: the RNG-stream and reduction granule.
    const CHUNK: u64 = 256;

    /// Most chunks [`run_common`](Self::run_common) holds results for at
    /// once: one [`Summary`] per config for each chunk of a wave, about
    /// half what one [`run`](Self::run) holds for its whole grid. The
    /// `experiments` pipeline computes other units while X-mc-mixed runs
    /// its waves, so their live state adds to the wave's.
    const WAVE: usize = 50;

    /// Runs every config in `configs` for `trials` fast-path trials on
    /// common random numbers: each trial chunk's stream
    /// ([`SimRng::for_chunk`] of `seed`) is generated once and replayed
    /// for every config, instead of once per config.
    ///
    /// Summary `j` is bit-identical to
    /// `MonteCarlo::new(configs[j], trials, seed).with_engine(Engine::FastPath).run()`
    /// at any `RAYON_NUM_THREADS`: the replayed stream yields the same
    /// `(u, ln u)` pairs as a fresh [`UniformStream`], every config runs
    /// the same chunk loop, and each config's chunk results merge in
    /// chunk order. The flushed `runner.*`/`sim.*` integer totals equal
    /// those of the separate runs. Chunks run in waves of at most
    /// `WAVE`, so the live per-chunk state stays near that of one
    /// [`run`](Self::run).
    ///
    /// # Errors
    /// The [`EngineError`] of the first config the fast path rejects
    /// ([`FastPattern::new`]), before any trial runs — also when
    /// `trials` is 0.
    pub fn run_common(
        configs: &[SimConfig],
        trials: u64,
        seed: u64,
    ) -> Result<Vec<Summary>, EngineError> {
        let patterns = configs
            .iter()
            .map(FastPattern::new)
            .collect::<Result<Vec<_>, _>>()?;
        if patterns.is_empty() {
            return Ok(Vec::new());
        }
        Ok(Self::drive(
            &Sampler::Fast(patterns),
            seed,
            0..trials,
            Sinks::default(),
        ))
    }

    /// Runs and compares the sampled means against analytic expectations.
    ///
    /// # Errors
    /// [`EngineError::NeverCompletes`] for a degenerate config.
    pub fn validate(
        &self,
        expected_time: f64,
        expected_energy: f64,
        z: f64,
    ) -> Result<ValidationReport, EngineError> {
        let summary = self.run()?;
        Ok(ValidationReport {
            summary,
            expected_time,
            expected_energy,
            z,
        })
    }
}

/// Sampled-vs-analytic comparison at `z` standard errors.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct ValidationReport {
    /// The sampled summary.
    pub summary: Summary,
    /// Analytic expected pattern time.
    pub expected_time: f64,
    /// Analytic expected pattern energy.
    pub expected_energy: f64,
    /// Number of standard errors for the acceptance interval.
    pub z: f64,
}

impl ValidationReport {
    /// Whether the analytic time lies inside the sampled CI.
    pub fn time_ok(&self) -> bool {
        self.summary.time.contains(self.expected_time, self.z)
    }

    /// Whether the analytic energy lies inside the sampled CI.
    pub fn energy_ok(&self) -> bool {
        self.summary.energy.contains(self.expected_energy, self.z)
    }

    /// Both checks.
    pub fn ok(&self) -> bool {
        self.time_ok() && self.energy_ok()
    }

    /// Relative gap between sampled mean time and the analytic value.
    pub fn time_rel_error(&self) -> f64 {
        (self.summary.time.mean() - self.expected_time).abs() / self.expected_time
    }

    /// Relative gap between sampled mean energy and the analytic value.
    pub fn energy_rel_error(&self) -> f64 {
        (self.summary.energy.mean() - self.expected_energy).abs() / self.expected_energy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rexec_core::{ErrorRates, MixedModel, PowerModel, ResilienceCosts, SilentModel};

    fn silent_model(lambda: f64) -> SilentModel {
        SilentModel::new(
            lambda,
            ResilienceCosts::symmetric(300.0, 15.4),
            PowerModel::with_default_io(1550.0, 60.0, 0.15).unwrap(),
        )
        .unwrap()
    }

    /// Runs `mc` at `RAYON_NUM_THREADS=1`, where the pool maps every
    /// chunk in order on the calling thread (the lock keeps this file's
    /// width-1 runs from restoring each other's setting).
    fn width_one_run(mc: &MonteCarlo) -> Summary {
        static WIDTH: std::sync::Mutex<()> = std::sync::Mutex::new(());
        let _guard = WIDTH
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        let ambient = std::env::var_os("RAYON_NUM_THREADS");
        std::env::set_var("RAYON_NUM_THREADS", "1");
        let summary = mc.run();
        match ambient {
            Some(width) => std::env::set_var("RAYON_NUM_THREADS", width),
            None => std::env::remove_var("RAYON_NUM_THREADS"),
        }
        summary.unwrap()
    }

    fn range(mc: &MonteCarlo, trials: Range<u64>) -> Result<Summary, EngineError> {
        mc.run_with(trials, Sinks::default())
    }

    /// A run over every trial with outcome histograms.
    fn with_histograms(
        mc: &MonteCarlo,
    ) -> Result<(Summary, HistogramSketch, HistogramSketch), EngineError> {
        let sketches = outcome_sketches();
        let histograms = Some(&sketches);
        let summary = mc.run_with(
            0..mc.trials,
            Sinks {
                histograms,
                ..Sinks::default()
            },
        )?;
        let [time, energy] = sketches;
        Ok((summary, time, energy))
    }

    /// A run over every trial traced into a recorder of `capacity`.
    fn with_trace(
        mc: &MonteCarlo,
        capacity: usize,
    ) -> Result<(Summary, TraceRecorder), EngineError> {
        let mut recorder = TraceRecorder::new(capacity);
        let trace = Some(&mut recorder);
        let summary = mc.run_with(
            0..mc.trials,
            Sinks {
                trace,
                ..Sinks::default()
            },
        )?;
        Ok((summary, recorder))
    }

    fn mixed_config() -> SimConfig {
        let m = silent_model(1e-4);
        SimConfig {
            rates: rexec_core::ErrorRates::new(1e-4, 5e-5).unwrap(),
            ..SimConfig::from_silent_model(&m, 2764.0, 0.4, 0.8)
        }
    }

    #[test]
    fn parallel_equals_sequential() {
        let m = silent_model(1e-4);
        let silent = SimConfig::from_silent_model(&m, 2764.0, 0.4, 0.8);
        for cfg in [silent, mixed_config()] {
            for engine in [Engine::Reference, Engine::FastPath, Engine::Auto] {
                let mc = MonteCarlo::new(cfg, 2000, 42).with_engine(engine);
                let par = mc.run().unwrap();
                let seq = width_one_run(&mc);
                // Same chunk grid, same per-chunk streams, in-order merge:
                // parallel and sequential runs are bit-identical.
                assert_eq!(par, seq, "engine {engine:?}");
            }
        }
    }

    #[test]
    fn auto_engine_matches_explicit_selection() {
        let m = silent_model(1e-4);
        // Silent-only: Auto must resolve to the fast path (at λᶠ = 0)...
        let cfg = SimConfig::from_silent_model(&m, 2764.0, 0.4, 0.8);
        let auto = MonteCarlo::new(cfg, 1024, 9).run().unwrap();
        let fast = MonteCarlo::new(cfg, 1024, 9)
            .with_engine(Engine::FastPath)
            .run()
            .unwrap();
        assert_eq!(auto, fast);
        // ...and with fail-stop errors too (also what forcing FastPath
        // selects — the former panic path).
        let mixed = mixed_config();
        let auto = MonteCarlo::new(mixed, 1024, 9).run().unwrap();
        let forced = MonteCarlo::new(mixed, 1024, 9)
            .with_engine(Engine::FastPath)
            .run()
            .unwrap();
        assert_eq!(auto, forced);
    }

    #[test]
    fn forced_fast_path_accepts_mixed_configs() {
        // Regression: this used to panic inside resolve(); the mixed
        // attempt-law sampler now serves forced-FastPath runs.
        let summary = MonteCarlo::new(mixed_config(), 512, 1)
            .with_engine(Engine::FastPath)
            .run()
            .unwrap();
        assert_eq!(summary.time.count(), 512);
    }

    #[test]
    fn degenerate_configs_return_err_from_every_entry_point() {
        // λW/σ₂ ≈ 700 underflows the per-attempt success probability:
        // every engine must refuse up front instead of panicking (or
        // spinning for ~e⁷⁰⁰ attempts) inside a worker.
        let m = silent_model(1.0);
        let cfg = SimConfig::from_silent_model(&m, 700.0, 1.0, 1.0);
        for engine in [Engine::Auto, Engine::Reference, Engine::FastPath] {
            let mc = MonteCarlo::new(cfg, 16, 1).with_engine(engine);
            assert!(
                matches!(mc.run(), Err(EngineError::NeverCompletes { .. })),
                "engine {engine:?}"
            );
            // Resolution comes first, so even an empty range refuses.
            assert!(range(&mc, 0..0).is_err(), "engine {engine:?}");
            assert!(range(&mc, 0..8).is_err(), "engine {engine:?}");
            assert!(mc.validate(1.0, 1.0, 3.0).is_err(), "engine {engine:?}");
            let sinks = Sinks {
                progress: Some(&mut |_, _| {}),
                ..Sinks::default()
            };
            assert!(mc.run_with(0..16, sinks).is_err());
        }
        let mc = MonteCarlo::new(cfg, 16, 1);
        assert!(with_histograms(&mc).is_err());
        assert!(with_trace(&mc, 64).is_err());
        // Degenerate mixed configs are rejected the same way.
        let mixed = SimConfig {
            rates: rexec_core::ErrorRates::new(0.5, 0.5).unwrap(),
            ..cfg
        };
        assert!(matches!(
            MonteCarlo::new(mixed, 16, 1).run(),
            Err(EngineError::NeverCompletes { .. })
        ));
    }

    #[test]
    fn empty_range_yields_empty_summary() {
        let m = silent_model(1e-4);
        let cfg = SimConfig::from_silent_model(&m, 2764.0, 0.4, 0.8);
        for engine in [Engine::Reference, Engine::FastPath] {
            let mc = MonteCarlo::new(cfg, 1000, 5).with_engine(engine);
            for start in [0, 100, 256, 1000] {
                let s = range(&mc, start..start).unwrap();
                assert_eq!(s, Summary::default(), "engine {engine:?} start {start}");
                assert_eq!(s.time.count(), 0);
            }
        }
    }

    #[test]
    fn single_trial_ranges_compose_the_full_run() {
        let m = silent_model(2e-4);
        let cfg = SimConfig::from_silent_model(&m, 2764.0, 0.4, 0.8);
        for engine in [Engine::Reference, Engine::FastPath] {
            let mc = MonteCarlo::new(cfg, 40, 77).with_engine(engine);
            let whole = mc.run().unwrap();
            let mut glued = Summary::default();
            for i in 0..40 {
                let one = range(&mc, i..i + 1).unwrap();
                assert_eq!(one.time.count(), 1, "engine {engine:?} trial {i}");
                glued = glued.merge(one);
            }
            // Same trials (single-trial ranges replay each chunk prefix),
            // so counts and exact extremes agree; the float moments see a
            // different merge tree, hence the tolerance.
            assert_eq!(glued.time.count(), whole.time.count());
            assert_eq!(glued.time.min(), whole.time.min());
            assert_eq!(glued.time.max(), whole.time.max());
            assert!((glued.time.mean() - whole.time.mean()).abs() < 1e-9);
            assert!((glued.energy.mean() - whole.energy.mean()).abs() < 1e-6);
        }
    }

    #[test]
    fn chunk_aligned_ranges_merge_to_exactly_run() {
        // 1000 trials = chunks [0,256) [256,512) [512,768) [768,1000).
        // Gluing left-to-right with chunk-aligned boundaries reproduces
        // run()'s exact left-fold over the chunk sequence (a leading
        // multi-chunk prefix plus single-chunk continuations), so the
        // glued summary is bit-identical — `Stats::merge` is not float-
        // associative, so arbitrary regrouping would only agree to ~1e-9.
        let m = silent_model(1e-4);
        let cfg = SimConfig::from_silent_model(&m, 2764.0, 0.4, 0.8);
        for engine in [Engine::Reference, Engine::FastPath] {
            let mc = MonteCarlo::new(cfg, 1000, 21).with_engine(engine);
            let whole = mc.run().unwrap();
            let glued = range(&mc, 0..512)
                .unwrap()
                .merge(range(&mc, 512..768).unwrap())
                .merge(range(&mc, 768..1000).unwrap());
            assert_eq!(glued, whole, "engine {engine:?}");
        }
    }

    #[test]
    fn unaligned_ranges_replay_the_same_trials() {
        let m = silent_model(1e-4);
        let silent = SimConfig::from_silent_model(&m, 2764.0, 0.4, 0.8);
        // The mixed fast path consumes a *variable* number of draws per
        // failed trial (cause + duration per failure), so replaying each
        // partial chunk's stream prefix from the grid origin is the only
        // thing keeping unaligned splits bit-identical — exercise it.
        for cfg in [silent, mixed_config()] {
            for engine in [Engine::Reference, Engine::FastPath] {
                let mc = MonteCarlo::new(cfg, 700, 33).with_engine(engine);
                let whole = mc.run().unwrap();
                // Splits inside chunks: the fast path must replay stream
                // prefixes so trial outcomes are identical.
                let glued = range(&mc, 0..100)
                    .unwrap()
                    .merge(range(&mc, 100..300).unwrap())
                    .merge(range(&mc, 300..700).unwrap());
                assert_eq!(glued.time.count(), whole.time.count());
                assert_eq!(glued.time.min(), whole.time.min());
                assert_eq!(glued.time.max(), whole.time.max());
                assert_eq!(glued.attempts.min(), whole.attempts.min());
                assert_eq!(glued.attempts.max(), whole.attempts.max());
                assert!((glued.time.mean() - whole.time.mean()).abs() < 1e-9);
                assert!((glued.attempts.mean() - whole.attempts.mean()).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn progress_runs_publish_window_gauges() {
        let m = silent_model(1e-4);
        let cfg = SimConfig::from_silent_model(&m, 2764.0, 0.4, 0.8);
        let mut slices = 0;
        let sinks = Sinks {
            progress: Some(&mut |_, _| slices += 1),
            ..Sinks::default()
        };
        MonteCarlo::new(cfg, 2000, 4)
            .run_with(0..2000, sinks)
            .unwrap();
        assert!(slices > 0);
        // Every slice publishes the rolling-window gauges; the run just
        // finished, so its slices are still inside the 10 s window.
        let g = rexec_obs::global();
        assert!(g.gauge("runner.window.per_sec").get() > 0.0);
        assert!(g.gauge("runner.window.p99").get() >= g.gauge("runner.window.p50").get());
    }

    #[test]
    fn histograms_are_consistent_with_summary() {
        let m = silent_model(1e-4);
        let cfg = SimConfig::from_silent_model(&m, 2764.0, 0.4, 0.8);
        let mc = MonteCarlo::new(cfg, 5000, 42);
        let (summary, th, eh) = with_histograms(&mc).unwrap();
        // Same chunk driver and per-trial streams as a reference run.
        let reference = mc.clone().with_engine(Engine::Reference).run().unwrap();
        assert_eq!(summary, reference);
        assert_eq!(th.count(), summary.time.count());
        assert_eq!(eh.count(), summary.energy.count());
        assert_eq!(th.overflow_count() + eh.overflow_count(), 0);
        // Exact extremes agree; histogram median sits between them.
        assert_eq!(th.min(), summary.time.min());
        assert_eq!(th.max(), summary.time.max());
        let med = th.quantile(0.5).unwrap();
        assert!(summary.time.min() <= med && med <= summary.time.max());
        // With λW/σ1 ≈ 0.7 the distribution is multi-modal (0, 1, 2…
        // re-executions): p95 must exceed the error-free completion time.
        let error_free = (2764.0 + 15.4) / 0.4 + 300.0;
        assert!(th.quantile(0.95).unwrap() > error_free);
        // And the summary mean must be consistent with the histogram's
        // coarse view (between p25 and p75 would be too strict for a
        // skewed distribution; use min/max envelope).
        assert!(summary.time.mean() > th.min() && summary.time.mean() < th.max());
    }

    #[test]
    fn sampled_time_matches_proposition_2() {
        // λW/σ ≈ 0.7: errors are frequent, so the two-speed structure is
        // heavily exercised.
        let m = silent_model(1e-4);
        let (w, s1, s2) = (2764.0, 0.4, 0.8);
        let cfg = SimConfig::from_silent_model(&m, w, s1, s2);
        let mc = MonteCarlo::new(cfg, 60_000, 7);
        let report = mc
            .validate(
                m.expected_time(w, s1, s2),
                m.expected_energy(w, s1, s2),
                3.5,
            )
            .unwrap();
        assert!(
            report.ok(),
            "time: sampled {} vs analytic {} (rel {:.4}); energy: sampled {} vs analytic {} (rel {:.4})",
            report.summary.time.mean(),
            report.expected_time,
            report.time_rel_error(),
            report.summary.energy.mean(),
            report.expected_energy,
            report.energy_rel_error()
        );
    }

    #[test]
    fn sampled_attempts_match_expected_executions() {
        let m = silent_model(2e-4);
        let (w, s1, s2) = (2000.0, 0.4, 1.0);
        let cfg = SimConfig::from_silent_model(&m, w, s1, s2);
        let summary = MonteCarlo::new(cfg, 40_000, 11).run().unwrap();
        let expected = m.expected_executions(w, s1, s2);
        assert!(
            summary.attempts.contains(expected, 3.5),
            "sampled {} vs analytic {expected}",
            summary.attempts.mean()
        );
    }

    #[test]
    fn sampled_mixed_model_matches_propositions_4_and_5() {
        let mm = MixedModel::new(
            ErrorRates::new(8e-5, 5e-5).unwrap(),
            ResilienceCosts::symmetric(300.0, 15.4),
            PowerModel::with_default_io(1550.0, 60.0, 0.15).unwrap(),
        );
        let (w, s1, s2) = (3000.0, 0.6, 1.0);
        let cfg = SimConfig::from_mixed_model(&mm, w, s1, s2);
        // Auto resolves mixed configs to the fast path, so this pins it
        // against the Props 4–5 recursion values.
        let mc = MonteCarlo::new(cfg, 60_000, 13);
        let report = mc
            .validate(
                mm.expected_time(w, s1, s2),
                mm.expected_energy(w, s1, s2),
                3.5,
            )
            .unwrap();
        assert!(
            report.ok(),
            "time rel {:.4}, energy rel {:.4}",
            report.time_rel_error(),
            report.energy_rel_error()
        );
    }

    fn weibull() -> ErrorLaw {
        ErrorLaw::Weibull { shape: 0.7 }
    }

    #[test]
    fn scenario_parallel_equals_sequential() {
        let m = silent_model(2e-4);
        let cfg = SimConfig::from_silent_model(&m, 2764.0, 0.4, 0.8);
        let schedule = SpeedSchedule::new(0.4, vec![0.6, 1.0]).unwrap();
        let variants: Vec<MonteCarlo> = vec![
            MonteCarlo::new(cfg, 2000, 42).with_law(weibull()),
            MonteCarlo::new(cfg, 2000, 42).with_law(ErrorLaw::LogNormal { sigma: 1.2 }),
            MonteCarlo::new(cfg, 2000, 42).with_schedule(schedule.clone()),
            MonteCarlo::new(mixed_config(), 2000, 42)
                .with_law(weibull())
                .with_schedule(schedule),
        ];
        for mc in variants {
            let par = mc.run().unwrap();
            let seq = width_one_run(&mc);
            assert_eq!(par, seq, "law {:?} schedule {:?}", mc.law, mc.schedule);
        }
    }

    #[test]
    fn scenario_weibull_shape_one_is_bit_identical_to_reference() {
        // shape = 1 Weibull *is* the exponential law, and the scenario
        // engine shares the reference engine's per-trial streams — the
        // whole summary must agree bitwise.
        let m = silent_model(1e-4);
        let cfg = SimConfig::from_silent_model(&m, 2764.0, 0.4, 0.8);
        let reference = MonteCarlo::new(cfg, 2000, 7)
            .with_engine(Engine::Reference)
            .run()
            .unwrap();
        let scenario = MonteCarlo::new(cfg, 2000, 7)
            .with_law(ErrorLaw::Weibull { shape: 1.0 })
            .run()
            .unwrap();
        assert_eq!(reference, scenario);
    }

    #[test]
    fn forced_fast_path_rejects_scenarios() {
        let m = silent_model(1e-4);
        let cfg = SimConfig::from_silent_model(&m, 2764.0, 0.4, 0.8);
        let on_law = MonteCarlo::new(cfg, 64, 1)
            .with_engine(Engine::FastPath)
            .with_law(weibull());
        assert!(matches!(
            on_law.run(),
            Err(EngineError::UnsupportedScenario { .. })
        ));
        let on_schedule = MonteCarlo::new(cfg, 64, 1)
            .with_engine(Engine::FastPath)
            .with_schedule(SpeedSchedule::two_speed(0.4, 0.8).unwrap());
        assert!(matches!(
            on_schedule.run(),
            Err(EngineError::UnsupportedScenario { .. })
        ));
        // Auto degrades to the scenario engine instead of erroring.
        assert!(MonteCarlo::new(cfg, 64, 1)
            .with_law(weibull())
            .run()
            .is_ok());
    }

    #[test]
    fn scenario_histograms_and_trace_honour_the_law() {
        let m = silent_model(5e-4);
        let cfg = SimConfig::from_silent_model(&m, 2764.0, 0.4, 0.8);
        let mc = MonteCarlo::new(cfg, 2000, 3).with_law(weibull());
        let (summary, th, _eh) = with_histograms(&mc).unwrap();
        assert_eq!(th.count(), summary.time.count());
        // Same per-trial streams as run(): identical summaries.
        assert_eq!(summary.time.mean(), mc.run().unwrap().time.mean());
        let (traced, recorder) = with_trace(&mc, 1 << 16).unwrap();
        assert_eq!(traced.time.count(), 2000);
        assert!(!recorder.events().is_empty());
        // Degenerate scenario configs are rejected up front, not mid-run.
        let bad = SimConfig::from_silent_model(&silent_model(1.0), 700.0, 1.0, 1.0);
        let bad_mc = MonteCarlo::new(bad, 16, 1).with_law(weibull());
        assert!(bad_mc.run().is_err());
        assert!(with_histograms(&bad_mc).is_err());
        assert!(with_trace(&bad_mc, 64).is_err());
    }

    #[test]
    fn scheduled_runs_match_the_analytic_schedule_model() {
        // Silent-only, 3-speed schedule: the sampled means must match
        // the ScheduleModel prefix-sum closed forms.
        use rexec_core::ScheduleModel;
        let m = silent_model(2e-4);
        let w = 2764.0;
        let schedule = SpeedSchedule::new(0.4, vec![0.6, 1.0]).unwrap();
        let model = ScheduleModel::new(m, schedule.clone());
        let cfg = SimConfig::from_silent_model(&m, w, 0.4, 0.4);
        let mc = MonteCarlo::new(cfg, 60_000, 17).with_schedule(schedule);
        let summary = mc.run().unwrap();
        assert!(
            summary.time.contains(model.expected_time(w), 3.5),
            "time: sampled {} vs analytic {}",
            summary.time.mean(),
            model.expected_time(w)
        );
        assert!(
            summary.energy.contains(model.expected_energy(w), 3.5),
            "energy: sampled {} vs analytic {}",
            summary.energy.mean(),
            model.expected_energy(w)
        );
        assert!(
            summary.attempts.contains(model.expected_executions(w), 3.5),
            "attempts: sampled {} vs analytic {}",
            summary.attempts.mean(),
            model.expected_executions(w)
        );
    }

    #[test]
    fn validation_fails_for_wrong_expectation() {
        let m = silent_model(1e-4);
        let (w, s1, s2) = (2764.0, 0.4, 0.4);
        let cfg = SimConfig::from_silent_model(&m, w, s1, s2);
        let mc = MonteCarlo::new(cfg, 10_000, 3);
        let report = mc
            .validate(
                m.expected_time(w, s1, s2) * 1.2,
                m.expected_energy(w, s1, s2),
                3.0,
            )
            .unwrap();
        assert!(!report.time_ok());
    }
}
