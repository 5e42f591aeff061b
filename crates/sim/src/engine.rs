//! The execution engine: simulates patterns and whole applications.
//!
//! One *attempt* of a pattern at speed `σ`:
//!
//! 1. draw a fail-stop arrival `tᶠ ~ Exp(λᶠ)` over the `(W+V)/σ` phase and
//!    a silent arrival `tˢ ~ Exp(λˢ)` over the `W/σ` sub-phase;
//! 2. if `tᶠ < (W+V)/σ` the attempt aborts at `tᶠ` (compute power drawn for
//!    `tᶠ` seconds), followed by a recovery — regardless of any latent
//!    silent error, which is wiped by the rollback;
//! 3. otherwise the full `(W+V)/σ` elapses; the verification detects a
//!    silent error iff `tˢ < W/σ`, triggering a recovery;
//! 4. otherwise the verification passes and the pattern checkpoints.
//!
//! The first attempt runs at `σ₁`; every further attempt runs at `σ₂` —
//! or at the speed a [`SpeedSchedule`] assigns to its attempt index.
//! Silent arrivals may also follow a non-memoryless [`ErrorLaw`]
//! (Weibull, lognormal): each attempt starts from a fresh renewal of the
//! error process (the rollback restores a pristine state), so
//! inter-error times are drawn per attempt by inverse survival. A
//! pattern may also split its work into `q` verified segments (the
//! multi-verification pattern); one per-attempt loop, `run_pattern`,
//! serves every one of these variants.
//!
//! For the paper's baseline (exponential law, `σ₁`/`σ₂`, `q = 1`) the
//! attempt count has a closed form, which [`FastPattern`] samples
//! directly instead of replaying attempts.

use crate::energy::EnergyMeter;
use crate::events::{Event, EventKind};
use crate::rng::{Draws, SimRng};
use crate::trace::TraceRecorder;
use rexec_core::{ErrorLaw, ErrorRates, PowerModel, PreparedLaw, ResilienceCosts, SpeedSchedule};
use serde::{Deserialize, Serialize};

/// Full configuration of a simulated execution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SimConfig {
    /// Pattern size `W` (work units).
    pub w: f64,
    /// First-execution speed `σ₁`.
    pub sigma1: f64,
    /// Re-execution speed `σ₂`.
    pub sigma2: f64,
    /// Error rates (silent and/or fail-stop).
    pub rates: ErrorRates,
    /// Checkpoint / verification / recovery costs.
    pub costs: ResilienceCosts,
    /// Power parameters.
    pub power: PowerModel,
}

impl SimConfig {
    /// Convenience constructor from a silent-error analytic model.
    pub fn from_silent_model(
        m: &rexec_core::SilentModel,
        w: f64,
        sigma1: f64,
        sigma2: f64,
    ) -> Self {
        SimConfig {
            w,
            sigma1,
            sigma2,
            rates: ErrorRates::silent_only(m.lambda).expect("validated lambda"),
            costs: m.costs,
            power: m.power,
        }
    }

    /// Convenience constructor from a mixed-error analytic model.
    pub fn from_mixed_model(m: &rexec_core::MixedModel, w: f64, sigma1: f64, sigma2: f64) -> Self {
        SimConfig {
            w,
            sigma1,
            sigma2,
            rates: m.rates,
            costs: m.costs,
            power: m.power,
        }
    }
}

/// Outcome of simulating one pattern to successful checkpoint.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PatternOutcome {
    /// Wall-clock time from pattern start to checkpoint completion (s).
    pub time: f64,
    /// Energy consumed (mJ).
    pub energy: f64,
    /// Number of executions (1 = no error).
    pub attempts: u32,
    /// Silent errors detected by verifications.
    pub silent_errors: u32,
    /// Fail-stop interrupts.
    pub fail_stop_errors: u32,
}

/// What ended one attempt.
enum AttemptEnd {
    /// Every verification passed.
    Success,
    /// Fail-stop interrupt mid-phase.
    FailStop,
    /// A verification detected a silent error.
    SilentDetected,
}

/// Draws a silent-error arrival time under `law` (prepared at the
/// silent rate), mirroring [`SimRng::exponential`]'s contract: a
/// non-positive rate yields `+∞` *without consuming a draw*. Under the
/// exponential law the draw is `-ln(u)/λ` of one `uniform_open` draw,
/// exactly `SimRng::exponential`'s — so the reference engine's draw
/// stream is bit-identical to the historical one.
#[inline]
fn silent_arrival(law: PreparedLaw, rng: &mut SimRng) -> f64 {
    if law.lambda() <= 0.0 {
        return f64::INFINITY;
    }
    law.inverse_survival(rng.uniform_open())
}

/// Simulates one attempt of the pattern at `sigma`, metering time/energy.
///
/// The `W` work is split into `q ≥ 1` equal segments, each followed by a
/// verification. A silent error is detected by the verification closing
/// the segment it struck; a fail-stop error aborts the attempt wherever
/// it strikes. At `q = 1` this is the paper's single-verification
/// pattern, and the arithmetic (`0 + t`, `w / 1`) is exact, so the
/// clock rounds as if the segment loop were not there.
#[inline]
#[allow(clippy::too_many_arguments)]
fn run_attempt(
    cfg: &SimConfig,
    q: u32,
    sigma: f64,
    law: PreparedLaw,
    clock: &mut f64,
    meter: &mut EnergyMeter,
    rng: &mut SimRng,
    trace: &mut Option<&mut TraceRecorder>,
) -> AttemptEnd {
    let seg_t = cfg.w / f64::from(q) / sigma;
    let verify_t = cfg.costs.verification / sigma;
    // First arrivals over the attempt: fail-stop in attempt-local wall
    // time, silent in accumulated work time (verifications are immune).
    let t_fail = rng.exponential(cfg.rates.fail_stop);
    let t_silent = silent_arrival(law, rng);

    if let Some(tr) = trace.as_deref_mut() {
        tr.record(Event::new(*clock, EventKind::WorkStart { speed: sigma }));
    }
    // Attempt-local wall time and work time at the current segment start.
    let mut local = 0.0;
    let mut worked = 0.0;
    for _ in 0..q {
        if t_fail < local + seg_t + verify_t {
            // Interrupted mid-segment: the compute time since the
            // segment start is lost.
            let lost = t_fail - local;
            *clock += lost;
            meter.add_compute(lost, sigma);
            if let Some(tr) = trace.as_deref_mut() {
                tr.record(Event::new(*clock, EventKind::FailStopError));
            }
            return AttemptEnd::FailStop;
        }
        let struck = t_silent < worked + seg_t;
        if let Some(tr) = trace.as_deref_mut() {
            if struck {
                let at = *clock + (t_silent - worked);
                tr.record(Event::new(at, EventKind::SilentErrorStruck));
            }
        }

        // Full segment work + verification.
        *clock += seg_t;
        meter.add_compute(seg_t, sigma);
        if let Some(tr) = trace.as_deref_mut() {
            tr.record(Event::new(
                *clock,
                EventKind::VerificationStart { speed: sigma },
            ));
        }
        *clock += verify_t;
        meter.add_compute(verify_t, sigma);
        if struck {
            if let Some(tr) = trace.as_deref_mut() {
                tr.record(Event::new(*clock, EventKind::VerificationFailed));
            }
            return AttemptEnd::SilentDetected;
        }
        if let Some(tr) = trace.as_deref_mut() {
            tr.record(Event::new(*clock, EventKind::VerificationOk));
        }
        local += seg_t + verify_t;
        worked += seg_t;
    }
    AttemptEnd::Success
}

/// Performs a recovery, metering its time and I/O energy.
#[inline]
fn run_recovery(
    cfg: &SimConfig,
    clock: &mut f64,
    meter: &mut EnergyMeter,
    trace: &mut Option<&mut TraceRecorder>,
) {
    if let Some(tr) = trace.as_deref_mut() {
        tr.record(Event::new(*clock, EventKind::RecoveryStart));
    }
    *clock += cfg.costs.recovery;
    meter.add_io(cfg.costs.recovery);
    if let Some(tr) = trace.as_deref_mut() {
        tr.record(Event::new(*clock, EventKind::RecoveryDone));
    }
}

/// Hard cap on executions of a single pattern. With a sensible
/// configuration the expected attempt count is small; hitting this cap
/// means the per-attempt success probability `e^{−λW/σ₂}` is so close to
/// zero that the pattern will effectively never complete — a modelling
/// error (pattern far too large for the error rate), so we fail loudly
/// instead of looping forever.
pub const MAX_ATTEMPTS: u32 = 10_000_000;

/// Structured error for configurations the sampling engines cannot run.
///
/// Raised at *construction* time ([`FastPattern::new`],
/// [`ensure_completes`]) and surfaced from `MonteCarlo::run*` via engine
/// resolution — never mid-sample from inside a rayon worker.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EngineError {
    /// Degenerate configuration: the per-attempt success probability at
    /// `σ₂` is so close to zero that a pattern will effectively never
    /// complete (the expected execution count overruns a comfortable
    /// fraction of [`MAX_ATTEMPTS`]) — a modelling error, the pattern is
    /// far too large for the error rate.
    NeverCompletes {
        /// Per-attempt success probability at `σ₂`,
        /// `e^{−(λᶠ(W+V)+λˢW)/σ₂}`.
        success_probability: f64,
    },
    /// The per-attempt success probability is not a number at all —
    /// some configuration field (`w`, `sigma2`, a rate, a cost) is NaN
    /// or infinite. Kept distinct from [`EngineError::NeverCompletes`]:
    /// a NaN compares false against *every* threshold, so without this
    /// variant a non-finite config would slip through the completeness
    /// guard and poison every sampled statistic downstream.
    NonFiniteSuccessProbability {
        /// The non-finite per-attempt success probability.
        success_probability: f64,
    },
    /// The requested error-law/schedule scenario is outside what the
    /// selected engine can run (e.g. forcing the closed-form fast path
    /// on a non-memoryless law).
    UnsupportedScenario {
        /// Which eligibility rule failed.
        reason: &'static str,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::NeverCompletes {
                success_probability,
            } => write!(
                f,
                "pattern never completes: per-attempt success probability \
                 {success_probability:.3e} at sigma2 would overrun the \
                 {MAX_ATTEMPTS}-execution cap"
            ),
            EngineError::NonFiniteSuccessProbability {
                success_probability,
            } => write!(
                f,
                "per-attempt success probability is {success_probability} — \
                 some configuration field is NaN or infinite"
            ),
            EngineError::UnsupportedScenario { reason } => {
                write!(f, "unsupported scenario: {reason}")
            }
        }
    }
}

impl std::error::Error for EngineError {}

/// Rejects configurations whose per-attempt success probability at the
/// *settled* retry speed (the schedule's last entry, or `σ₂` without a
/// schedule) is non-finite or so small that sampled attempt counts
/// would overrun [`MAX_ATTEMPTS`].
///
/// The success probability is `e^{−λᶠ(W+V)/σ}` (the fail-stop process
/// spares the whole phase) times the silent law's survival over the
/// `W/σ` work sub-phase — `e^{−λˢW/σ}` for the exponential law. The
/// bound leaves a factor-128 margin: for accepted configs a single
/// pattern reaches the cap with probability at most `e^{−128}`, so the
/// closed-form sampler clamps at the cap instead of asserting per sample
/// and `MonteCarlo::run*` cannot panic on a validated config.
///
/// # Errors
/// [`EngineError::NonFiniteSuccessProbability`] when the probability is
/// NaN or infinite (a non-finite configuration field), else
/// [`EngineError::NeverCompletes`] when `1/q(σ) > MAX_ATTEMPTS/128`.
pub fn ensure_completes(
    cfg: &SimConfig,
    law: ErrorLaw,
    schedule: Option<&SpeedSchedule>,
) -> Result<(), EngineError> {
    let sigma = schedule.map_or(cfg.sigma2, SpeedSchedule::settled);
    let q_fail = (-cfg.rates.fail_stop * (cfg.w + cfg.costs.verification) / sigma).exp();
    let q = q_fail * law.survival(cfg.w / sigma, cfg.rates.silent);
    // Checked *before* the threshold: a NaN `q` compares false against
    // the `< 128` guard below and would sail straight through it.
    if !q.is_finite() {
        return Err(EngineError::NonFiniteSuccessProbability {
            success_probability: q,
        });
    }
    if q * f64::from(MAX_ATTEMPTS) < 128.0 {
        return Err(EngineError::NeverCompletes {
            success_probability: q,
        });
    }
    Ok(())
}

/// The per-attempt loop: simulates one pattern of `q ≥ 1` verified
/// segments until it checkpoints, under a silent-error `law` (prepared
/// at `cfg.rates.silent`) and an optional per-attempt speed
/// `schedule`, optionally recording a trace.
///
/// Every per-attempt entry point is an instance of this loop: the
/// reference engine is (`Exponential`, no schedule, `q = 1`), scenarios
/// vary the law and schedule, the Monte Carlo runner drives it with a
/// law prepared once per run, and
/// [`simulate_pattern_segmented`](crate::segmented::simulate_pattern_segmented)
/// varies `q`. Inlined so that the `q = 1` callers fold the segment
/// loop away.
#[inline]
pub(crate) fn run_pattern(
    cfg: &SimConfig,
    law: PreparedLaw,
    schedule: Option<&SpeedSchedule>,
    q: u32,
    rng: &mut SimRng,
    mut trace: Option<&mut TraceRecorder>,
) -> PatternOutcome {
    let mut clock = 0.0;
    let mut meter = EnergyMeter::new(cfg.power);
    let mut attempts = 0u32;
    let mut silent = 0u32;
    let mut fail_stop = 0u32;

    loop {
        let sigma = match schedule {
            Some(s) => s.speed_for_attempt(attempts),
            None if attempts == 0 => cfg.sigma1,
            None => cfg.sigma2,
        };
        assert!(
            attempts < MAX_ATTEMPTS,
            "pattern never completes: success probability e^(-lambda*W/sigma2) \
             is ~0 for W = {}, sigma2 = {}, rates = {:?}",
            cfg.w,
            cfg.sigma2,
            cfg.rates
        );
        attempts += 1;
        match run_attempt(cfg, q, sigma, law, &mut clock, &mut meter, rng, &mut trace) {
            AttemptEnd::Success => break,
            AttemptEnd::FailStop => {
                fail_stop += 1;
                run_recovery(cfg, &mut clock, &mut meter, &mut trace);
            }
            AttemptEnd::SilentDetected => {
                silent += 1;
                run_recovery(cfg, &mut clock, &mut meter, &mut trace);
            }
        }
    }

    // Verified: checkpoint.
    if let Some(tr) = trace.as_mut() {
        tr.record(Event::new(clock, EventKind::CheckpointStart));
    }
    clock += cfg.costs.checkpoint;
    meter.add_io(cfg.costs.checkpoint);
    if let Some(tr) = trace.as_mut() {
        tr.record(Event::new(clock, EventKind::CheckpointDone));
    }

    // Deliberately *no* `rexec_obs::counter!` adds here: four registry
    // lookups per pattern dominated the Monte Carlo hot loop. The runner
    // batches the same `sim.*` totals once per trial chunk instead.

    PatternOutcome {
        time: clock,
        energy: meter.total(),
        attempts,
        silent_errors: silent,
        fail_stop_errors: fail_stop,
    }
}

/// Simulates one pattern until it checkpoints successfully under an
/// arbitrary silent-error law and optional per-attempt speed schedule.
///
/// This is the *scenario* engine: the generalization the closed-form
/// fast path cannot cover. With `ErrorLaw::Exponential` and no schedule
/// it is the reference engine ([`simulate_pattern`]). A schedule
/// overrides the `σ₁`/`σ₂` speed rule with
/// `schedule.speed_for_attempt(i)`; a non-memoryless law replaces the
/// per-attempt exponential silent draw with an inverse-survival draw
/// from a fresh renewal of the error process (rollback restores a
/// pristine state, so attempts stay i.i.d. and the attempt count remains
/// geometric — just not in a memoryless per-second hazard).
///
/// # Panics
/// After [`MAX_ATTEMPTS`] failed executions (success probability ≈ 0).
pub fn simulate_pattern_scenario(
    cfg: &SimConfig,
    law: ErrorLaw,
    schedule: Option<&SpeedSchedule>,
    rng: &mut SimRng,
) -> PatternOutcome {
    run_pattern(cfg, law.prepare(cfg.rates.silent), schedule, 1, rng, None)
}

/// Simulates one pattern until it checkpoints successfully, optionally
/// recording a trace. Exponential silent errors, `σ₁`/`σ₂` speeds —
/// the paper's baseline scenario.
///
/// # Panics
/// After [`MAX_ATTEMPTS`] failed executions (success probability ≈ 0).
pub fn simulate_pattern_traced(
    cfg: &SimConfig,
    rng: &mut SimRng,
    trace: Option<&mut TraceRecorder>,
) -> PatternOutcome {
    let law = ErrorLaw::Exponential.prepare(cfg.rates.silent);
    run_pattern(cfg, law, None, 1, rng, trace)
}

/// Simulates one pattern until it checkpoints successfully.
pub fn simulate_pattern(cfg: &SimConfig, rng: &mut SimRng) -> PatternOutcome {
    simulate_pattern_scenario(cfg, ErrorLaw::Exponential, None, rng)
}

/// Precomputed closed-form tables for the fast path: the paper's
/// fail-stop + silent model (§5), of which the silent-only model
/// (Propositions 2–3) is the `λᶠ = 0` case.
///
/// Per attempt at speed `σ` the outcome is a **three-way categorical**:
///
/// ```text
/// fail-stop abort      pᶠ(σ) = 1 − e^{−λᶠ(W+V)/σ}       (duration random)
/// survive-but-silent   (1 − pᶠ(σ)) · pˢ(σ),   pˢ(σ) = 1 − e^{−λˢW/σ}
/// success              q(σ)  = (1 − pᶠ(σ))(1 − pˢ(σ))
/// ```
///
/// so the attempt count follows a two-stage geometric law in the
/// combined per-attempt success probability `q(σ)`:
///
/// ```text
/// P(n = 1)      = q(σ₁)
/// P(n = 1 + j)  = (1 − q(σ₁)) · (1 − q(σ₂))^{j−1} · q(σ₂),   j ≥ 1
/// ```
///
/// The sampler draws the run of consecutive first-try successes with
/// one uniform (its outcome is precomputed), then walks each failed
/// pattern's σ₂ attempts one uniform apiece; the draw that fails an
/// attempt also classifies its cause and, for an abort, its duration
/// under the exponential truncated to the phase. At `λᶠ = 0` the abort
/// stratum is empty — `pᶠ = 0`, no draw ever classifies as fail-stop —
/// and every failed attempt costs its full phase plus a recovery, which
/// is Proposition 1's law.
///
/// The sampled law is exactly the reference engine's; only the
/// underlying uniforms differ, so the equivalence is statistical, not
/// bitwise — pinned by the `z = 4` identity tests against the reference
/// engine and Propositions 2–5.
#[derive(Debug, Clone, Copy)]
pub struct FastPattern {
    /// Per-attempt failure probability (any cause) at `σ₁`: `1 − q(σ₁)`.
    p_any_first: f64,
    /// Per-attempt failure probability at `σ₂`.
    p_any_retry: f64,
    /// `1/ln q(σ₁)` with `ln q(σ₁) = −(λᶠ(W+V) + λˢW)/σ₁` exact (no
    /// cancellation) — the run-length inverse CDF as a multiply.
    inv_ln_q_first: f64,
    /// `P(fail-stop | failure)` at `σ₁`: `pᶠ(σ₁)/p(σ₁)`.
    frac_fail_first: f64,
    /// `ln(pᶠ(σ₁)/p(σ₁))` — rebases a classification draw's batched log
    /// into an exponential abort draw (see
    /// [`abort_duration`](Self::abort_duration)).
    ln_frac_fail_first: f64,
    /// Absolute per-attempt fail-stop probability at `σ₂`: `pᶠ(σ₂)`,
    /// the abort threshold of the Bernoulli retry walk.
    p_fail_retry: f64,
    /// `ln pᶠ(σ₂)` — rebases a retry draw's batched log into an
    /// exponential abort draw.
    ln_p_fail_retry: f64,
    /// `1/λᶠ`, for the division-free abort-duration map.
    inv_lambda_fail: f64,
    /// Abort-duration truncation bound at `σ₁`: the attempt phase
    /// `(W+V)/σ₁`.
    t_attempt_first: f64,
    /// `1/t_attempt_first`.
    inv_t_attempt_first: f64,
    /// Abort-duration truncation bound at `σ₂`: `(W+V)/σ₂`.
    t_attempt_retry: f64,
    /// `1/t_attempt_retry`.
    inv_t_attempt_retry: f64,
    /// Compute power at `σ₁` (energy per second of aborted first work).
    power_first: f64,
    /// Compute power at `σ₂`.
    power_retry: f64,
    /// Time of a silently-failed attempt at `σ₁`: `(W+V)/σ₁ + R`.
    t_silent_first: f64,
    /// Energy of a silently-failed attempt at `σ₁`.
    e_silent_first: f64,
    /// Time of a silently-failed attempt at `σ₂`: `(W+V)/σ₂ + R`.
    t_silent_retry: f64,
    /// Energy of a silently-failed attempt at `σ₂`.
    e_silent_retry: f64,
    /// Time of the final successful attempt at `σ₂`: `(W+V)/σ₂ + C`.
    t_success_retry: f64,
    /// Energy of the final successful attempt at `σ₂`.
    e_success_retry: f64,
    /// Recovery time appended to every fail-stop abort: `R`.
    t_recovery: f64,
    /// Recovery energy appended to every fail-stop abort: `R·Pio`.
    e_recovery: f64,
    /// Success outcome (`n = 1`), precomputed: the common case by far.
    first_try: PatternOutcome,
}

impl FastPattern {
    /// Builds the tables.
    ///
    /// # Errors
    /// [`EngineError::NeverCompletes`] or
    /// [`EngineError::NonFiniteSuccessProbability`] for the configs
    /// [`ensure_completes`] rejects.
    pub fn new(cfg: &SimConfig) -> Result<Self, EngineError> {
        ensure_completes(cfg, ErrorLaw::Exponential, None)?;
        let phase = |sigma: f64| (cfg.w + cfg.costs.verification) / sigma;
        // Combined hazard per attempt; q(σ) = e^{−hazard/σ}.
        let hazard =
            cfg.rates.fail_stop * (cfg.w + cfg.costs.verification) + cfg.rates.silent * cfg.w;
        let p_any = |sigma: f64| -(-hazard / sigma).exp_m1();
        let p_fail = |sigma: f64| -(-cfg.rates.fail_stop * phase(sigma)).exp_m1();
        let p_any_first = p_any(cfg.sigma1);
        // P(fail-stop | failure). A subnormal hazard can underflow p to
        // 0; those attempts never fail, so the ratio is never consulted —
        // pin it to 1 to keep the field finite.
        let frac_fail_first = if p_any_first > 0.0 {
            p_fail(cfg.sigma1) / p_any_first
        } else {
            1.0
        };
        let io = cfg.power.io_power();
        let power_first = cfg.power.compute_power(cfg.sigma1);
        let power_retry = cfg.power.compute_power(cfg.sigma2);
        let t_first = phase(cfg.sigma1) + cfg.costs.checkpoint;
        let e_first = phase(cfg.sigma1) * power_first + cfg.costs.checkpoint * io;
        Ok(FastPattern {
            p_any_first,
            p_any_retry: p_any(cfg.sigma2),
            // The degenerate 1/−0 reciprocal is never consulted: the
            // run-length sampler guards on p ≤ 0 first.
            inv_ln_q_first: (-hazard / cfg.sigma1).recip(),
            frac_fail_first,
            // At λᶠ = 0 these logs are −∞ and 1/λᶠ is +∞: the abort
            // arm then computes NaN, but no draw ever selects it
            // (u ≤ 0 never holds for u ∈ (0, 1]).
            ln_frac_fail_first: frac_fail_first.ln(),
            p_fail_retry: p_fail(cfg.sigma2),
            ln_p_fail_retry: p_fail(cfg.sigma2).ln(),
            inv_lambda_fail: cfg.rates.fail_stop.recip(),
            t_attempt_first: phase(cfg.sigma1),
            inv_t_attempt_first: phase(cfg.sigma1).recip(),
            t_attempt_retry: phase(cfg.sigma2),
            inv_t_attempt_retry: phase(cfg.sigma2).recip(),
            power_first,
            power_retry,
            t_silent_first: phase(cfg.sigma1) + cfg.costs.recovery,
            e_silent_first: phase(cfg.sigma1) * power_first + cfg.costs.recovery * io,
            t_silent_retry: phase(cfg.sigma2) + cfg.costs.recovery,
            e_silent_retry: phase(cfg.sigma2) * power_retry + cfg.costs.recovery * io,
            t_success_retry: phase(cfg.sigma2) + cfg.costs.checkpoint,
            e_success_retry: phase(cfg.sigma2) * power_retry + cfg.costs.checkpoint * io,
            t_recovery: cfg.costs.recovery,
            e_recovery: cfg.costs.recovery * io,
            first_try: PatternOutcome {
                time: t_first,
                energy: e_first,
                attempts: 1,
                silent_errors: 0,
                fail_stop_errors: 0,
            },
        })
    }

    /// The precomputed `n = 1` outcome — what sampling returns whenever
    /// the first attempt succeeds. Lets accumulators batch the dominant
    /// case (its outcome never varies) instead of re-reading it from
    /// every sample.
    #[inline]
    pub fn first_try_outcome(&self) -> PatternOutcome {
        self.first_try
    }

    /// Number of consecutive patterns whose first attempt succeeds before
    /// one fails, from the precomputed log of a single uniform
    /// `u ∈ (0, 1]` (the stream's refill-time batched sweep).
    ///
    /// The run length is `Geom(p(σ₁))`-distributed — `P(run = j) =
    /// q(σ₁)^j · p(σ₁)` — sampled by inverse CDF as `⌊ln u / ln q(σ₁)⌋`
    /// with `ln q(σ₁)` computed without cancellation and the division a
    /// reciprocal multiply. By memorylessness a run may be truncated at a
    /// chunk boundary and resampled fresh: `P(run ≥ k) = q(σ₁)^k` either
    /// way. Saturates (effectively "the whole chunk") when `p(σ₁)`
    /// rounds to 0.
    #[inline]
    pub(crate) fn success_run_len_ln(&self, ln_u: f64) -> u64 {
        if self.p_any_first <= 0.0 {
            return u64::MAX;
        }
        // Both logs are ≤ 0, the ratio is ≥ 0; the float→int cast
        // saturates for tiny p₁.
        (ln_u * self.inv_ln_q_first) as u64
    }

    /// The outcome of a pattern whose first attempt failed, sampled from
    /// a buffered chunk stream. Pairs with
    /// [`success_run_len_ln`](Self::success_run_len_ln) in the runner's
    /// run-length-batched hot loop.
    ///
    /// Every logarithm comes from the stream's refill-time batched sweep
    /// — a scalar `ln` on the abort branch costs more serial latency
    /// than the rest of the trial combined. The first draw classifies
    /// the failed first attempt (fail-stop iff `v ≤ pᶠ(σ₁)/p(σ₁)`) and
    /// doubles as its abort-duration draw: given `v ≤ fᶠ`,
    /// `v/fᶠ ~ U(0, 1]`, so `X = (ln fᶠ − ln v)/λᶠ` is `Exp(λᶠ)` and
    /// [`abort_duration`](Self::abort_duration) folds it onto the
    /// truncated support.
    #[inline]
    pub(crate) fn sample_failed_first<D: Draws>(&self, draws: &mut D) -> PatternOutcome {
        // Branch-free classification: a failure's cause is a ~50/50
        // coin in the benched regimes, so an `if` here is a hot
        // mispredict per failed trial. Both outcomes are pure values —
        // the abort math runs unconditionally (its result is discarded
        // when not selected, even when it is NaN at λᶠ = 0) and `if`
        // on the comparison compiles to selects.
        let (v, ln_v) = draws.next_uniform_ln();
        let is_fail = v <= self.frac_fail_first;
        let mut fail_stop = 0u32;
        let (mut time, mut energy) = if is_fail {
            let t = self.abort_duration(
                ln_v,
                self.ln_frac_fail_first,
                self.t_attempt_first,
                self.inv_t_attempt_first,
            );
            fail_stop = 1;
            (t + self.t_recovery, t * self.power_first + self.e_recovery)
        } else {
            (self.t_silent_first, self.e_silent_first)
        };
        // σ₂ attempts as a direct Bernoulli walk: one draw per attempt,
        // success iff `u > p₂`, and a failed attempt's cause falls out
        // of the *same* draw — `u ≤ pᶠ(σ₂)` is the abort stratum (the
        // abort duration rebases `ln u` off `ln pᶠ(σ₂)`). The loop
        // condition is a bare compare on the fresh draw, so the attempt
        // count never materializes through float rounding; the cap
        // covers the ≤ e⁻¹²⁸ tail that `ensure_completes`'s factor-128
        // margin leaves possible.
        let mut failed_retries = 0u32;
        while failed_retries < MAX_ATTEMPTS - 2 {
            let (u, ln_u) = draws.next_uniform_ln();
            if u > self.p_any_retry {
                break;
            }
            failed_retries += 1;
            // A real branch, not selects: the abort stratum is rare
            // (`pᶠ(σ₂)` is a small slice of each draw), so the predictor
            // rides the silent arm and the floor-bearing duration math
            // stays off the common path entirely.
            if u <= self.p_fail_retry {
                let t = self.abort_duration(
                    ln_u,
                    self.ln_p_fail_retry,
                    self.t_attempt_retry,
                    self.inv_t_attempt_retry,
                );
                time += t + self.t_recovery;
                energy += t * self.power_retry + self.e_recovery;
                fail_stop += 1;
            } else {
                time += self.t_silent_retry;
                energy += self.e_silent_retry;
            }
        }
        let silent = 1 + failed_retries - fail_stop;
        time += self.t_success_retry;
        energy += self.e_success_retry;
        PatternOutcome {
            time,
            energy,
            attempts: 2 + failed_retries,
            silent_errors: silent,
            fail_stop_errors: fail_stop,
        }
    }

    /// Truncated-exponential abort duration from a classification draw's
    /// batched log: conditioned on the abort branch (`u ≤ f`),
    /// `X = (ln f − ln u)/λᶠ` is a full exponential, and by
    /// memorylessness `X mod T` follows the exponential truncated to the
    /// attempt phase `T` — the law whose mean is
    /// `rexec_core::expected_time_lost`. Division-free: reciprocals are
    /// precomputed, and the final `min` absorbs the ≤ 1 ulp a reciprocal
    /// quotient can slip past a wrap boundary (an `ln f` rounded above a
    /// boundary `ln u` similarly lands in the last wrap, still
    /// on-support).
    #[inline]
    fn abort_duration(&self, ln_u: f64, ln_frac: f64, t_attempt: f64, inv_t_attempt: f64) -> f64 {
        let x = (ln_frac - ln_u) * self.inv_lambda_fail;
        let t = x - t_attempt * (x * inv_t_attempt).floor();
        t.min(t_attempt)
    }

    /// Samples one pattern outcome from a buffered stream: one draw
    /// decides the first attempt, and a failed one continues with the
    /// runner's failed-first sampler. Never panics: the degenerate
    /// regime is rejected at [construction](Self::new).
    #[inline]
    pub fn sample<D: Draws>(&self, draws: &mut D) -> PatternOutcome {
        // u ∈ (0, 1] and P(u ≤ p) = p: the first attempt fails iff u ≤ p₁.
        if draws.next_uniform() > self.p_any_first {
            return self.first_try;
        }
        self.sample_failed_first(draws)
    }
}

/// Outcome of simulating a whole divisible-load application.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AppOutcome {
    /// Total wall-clock time (s).
    pub makespan: f64,
    /// Total energy (mJ).
    pub energy: f64,
    /// Number of patterns executed (⌈Wbase/W⌉; the last may be short).
    pub patterns: u64,
    /// Total executions across all patterns.
    pub attempts: u64,
    /// Total silent errors detected.
    pub silent_errors: u64,
    /// Total fail-stop interrupts.
    pub fail_stop_errors: u64,
}

impl AppOutcome {
    /// Expected-makespan overhead per unit of work, `makespan / Wbase`.
    pub fn time_overhead(&self, w_base: f64) -> f64 {
        self.makespan / w_base
    }

    /// Energy overhead per unit of work, `energy / Wbase`.
    pub fn energy_overhead(&self, w_base: f64) -> f64 {
        self.energy / w_base
    }
}

/// Simulates a divisible-load application of `w_base` total work, divided
/// into patterns of `cfg.w` (the final pattern takes the remainder).
pub fn simulate_application(cfg: &SimConfig, w_base: f64, rng: &mut SimRng) -> AppOutcome {
    assert!(w_base > 0.0 && cfg.w > 0.0, "work sizes must be positive");
    let mut remaining = w_base;
    let mut out = AppOutcome {
        makespan: 0.0,
        energy: 0.0,
        patterns: 0,
        attempts: 0,
        silent_errors: 0,
        fail_stop_errors: 0,
    };
    // One reusable pattern config: only `w` changes per pattern (for the
    // final remainder), so hoist the copy out of the hot loop.
    let mut pattern_cfg = *cfg;
    while remaining > 0.0 {
        pattern_cfg.w = remaining.min(cfg.w);
        let p = simulate_pattern(&pattern_cfg, rng);
        out.makespan += p.time;
        out.energy += p.energy;
        out.patterns += 1;
        out.attempts += u64::from(p.attempts);
        out.silent_errors += u64::from(p.silent_errors);
        out.fail_stop_errors += u64::from(p.fail_stop_errors);
        remaining -= pattern_cfg.w;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rexec_core::{ErrorRates, PowerModel, ResilienceCosts};

    fn cfg(rates: ErrorRates) -> SimConfig {
        SimConfig {
            w: 2764.0,
            sigma1: 0.4,
            sigma2: 0.4,
            rates,
            costs: ResilienceCosts::symmetric(300.0, 15.4),
            power: PowerModel::with_default_io(1550.0, 60.0, 0.15).unwrap(),
        }
    }

    #[test]
    fn error_free_pattern_is_deterministic() {
        let c = cfg(ErrorRates::new(0.0, 0.0).unwrap());
        let mut rng = SimRng::new(1);
        let p = simulate_pattern(&c, &mut rng);
        assert_eq!(p.attempts, 1);
        assert_eq!(p.silent_errors, 0);
        assert_eq!(p.fail_stop_errors, 0);
        let expected_t = (2764.0 + 15.4) / 0.4 + 300.0;
        assert!((p.time - expected_t).abs() < 1e-9);
        let expected_e =
            (2764.0 + 15.4) / 0.4 * c.power.compute_power(0.4) + 300.0 * c.power.io_power();
        assert!((p.energy - expected_e).abs() < 1e-6);
    }

    #[test]
    fn every_error_adds_a_recovery() {
        // With a huge silent rate, each attempt until the last detects an
        // error; time must equal attempts·phase + (attempts−1)·R + C.
        let mut c = cfg(ErrorRates::silent_only(1e-3).unwrap());
        c.sigma2 = 0.8;
        let mut rng = SimRng::new(99);
        for _ in 0..200 {
            let p = simulate_pattern(&c, &mut rng);
            let phase1 = (c.w + c.costs.verification) / c.sigma1;
            let phase2 = (c.w + c.costs.verification) / c.sigma2;
            let n = p.attempts as f64;
            let expected =
                phase1 + (n - 1.0) * phase2 + (n - 1.0) * c.costs.recovery + c.costs.checkpoint;
            assert!(
                (p.time - expected).abs() < 1e-6,
                "attempts={n}: {} vs {expected}",
                p.time
            );
            assert_eq!(p.silent_errors, p.attempts - 1);
        }
    }

    #[test]
    fn fail_stops_never_strike_checkpoint_or_recovery() {
        // With only I/O drawing power (κ = Pidle = 0, Pio = 1), energy
        // is exactly the time spent in checkpoint and recoveries. At a
        // fail-stop rate that interrupts most attempts, every pattern
        // still pays one whole C and one whole R per failed attempt.
        let c = SimConfig {
            power: PowerModel::new(0.0, 0.0, 1.0).unwrap(),
            ..cfg(ErrorRates::new(2e-4, 5e-4).unwrap())
        };
        let (ckpt, rec) = (c.costs.checkpoint, c.costs.recovery);
        let mut rng = SimRng::new(5);
        let mut saw_fail_stop = false;
        for _ in 0..500 {
            let p = simulate_pattern(&c, &mut rng);
            saw_fail_stop |= p.fail_stop_errors > 0;
            let io = ckpt + f64::from(p.attempts - 1) * rec;
            assert!((p.energy - io).abs() < 1e-9 * io, "{p:?}");
        }
        assert!(saw_fail_stop);
    }

    #[test]
    fn fail_stop_attempts_are_shorter_than_full_phase() {
        let c = SimConfig {
            rates: ErrorRates::fail_stop_only(1e-3).unwrap(),
            ..cfg(ErrorRates::new(0.0, 0.0).unwrap())
        };
        let mut rng = SimRng::new(7);
        let mut saw_failure = false;
        for _ in 0..100 {
            let p = simulate_pattern(&c, &mut rng);
            if p.fail_stop_errors > 0 {
                saw_failure = true;
                // Time must be strictly less than the all-full-phases bound.
                let phase1 = (c.w + c.costs.verification) / c.sigma1;
                let phase2 = (c.w + c.costs.verification) / c.sigma2;
                let n = p.attempts as f64;
                let upper =
                    phase1 + (n - 1.0) * phase2 + (n - 1.0) * c.costs.recovery + c.costs.checkpoint;
                assert!(p.time < upper);
            }
        }
        assert!(saw_failure, "λf = 1e-3 must produce failures over 100 runs");
    }

    #[test]
    fn reexecution_speed_is_used_after_first_failure() {
        // σ2 ≫ σ1 with frequent failures: average time with fast σ2 must
        // be lower than with slow σ2. (λW/σ2 stays ≤ 3.7 so the slow
        // variant still completes in ~40 attempts on average.)
        let mut slow = cfg(ErrorRates::silent_only(2e-4).unwrap());
        slow.sigma2 = 0.15;
        let mut fast = slow;
        fast.sigma2 = 1.0;
        let n = 1500;
        let avg = |c: &SimConfig, seed| {
            let mut rng = SimRng::new(seed);
            (0..n)
                .map(|_| simulate_pattern(c, &mut rng).time)
                .sum::<f64>()
                / n as f64
        };
        assert!(avg(&fast, 3) < avg(&slow, 3));
    }

    #[test]
    fn application_splits_into_patterns() {
        let c = cfg(ErrorRates::new(0.0, 0.0).unwrap());
        let mut rng = SimRng::new(1);
        let app = simulate_application(&c, 10.0 * c.w, &mut rng);
        assert_eq!(app.patterns, 10);
        let single = simulate_pattern(&c, &mut SimRng::new(1));
        assert!((app.makespan - 10.0 * single.time).abs() < 1e-6);
        assert!((app.energy - 10.0 * single.energy).abs() < 1e-3);
    }

    #[test]
    fn application_handles_remainder_pattern() {
        let c = cfg(ErrorRates::new(0.0, 0.0).unwrap());
        let mut rng = SimRng::new(1);
        let app = simulate_application(&c, 2.5 * c.w, &mut rng);
        assert_eq!(app.patterns, 3);
        // Last pattern is half-size: same C/V but half the work time.
        let full = (c.w + c.costs.verification) / c.sigma1 + c.costs.checkpoint;
        let half = (0.5 * c.w + c.costs.verification) / c.sigma1 + c.costs.checkpoint;
        assert!((app.makespan - (2.0 * full + half)).abs() < 1e-6);
    }

    #[test]
    fn overheads_divide_by_base_work() {
        let c = cfg(ErrorRates::new(0.0, 0.0).unwrap());
        let mut rng = SimRng::new(1);
        let w_base = 4.0 * c.w;
        let app = simulate_application(&c, w_base, &mut rng);
        assert!((app.time_overhead(w_base) * w_base - app.makespan).abs() < 1e-9);
        assert!((app.energy_overhead(w_base) * w_base - app.energy).abs() < 1e-9);
    }

    #[test]
    fn identical_seeds_identical_outcomes() {
        let c = cfg(ErrorRates::new(1e-4, 5e-5).unwrap());
        let a = simulate_pattern(&c, &mut SimRng::new(1234));
        let b = simulate_pattern(&c, &mut SimRng::new(1234));
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn application_rejects_zero_work() {
        let c = cfg(ErrorRates::new(0.0, 0.0).unwrap());
        simulate_application(&c, 0.0, &mut SimRng::new(1));
    }

    /// A fresh buffered draw stream for sampler tests.
    fn draws(seed: u64) -> crate::rng::UniformStream {
        crate::rng::UniformStream::new(SimRng::new(seed))
    }

    #[test]
    fn fast_path_error_free_equals_reference() {
        // λ = 0: both engines are deterministic and must agree exactly.
        let c = cfg(ErrorRates::new(0.0, 0.0).unwrap());
        let reference = simulate_pattern(&c, &mut SimRng::new(1));
        let fast = FastPattern::new(&c).unwrap().sample(&mut draws(1));
        assert_eq!(fast.attempts, 1);
        assert!((fast.time - reference.time).abs() < 1e-9);
        assert!((fast.energy - reference.energy).abs() < 1e-6);
    }

    #[test]
    fn fast_path_outcomes_match_reference_per_attempt_count() {
        // Silent-only (λᶠ = 0): for any sampled attempt count n the
        // fast-path time must equal the reference formula — every
        // attempt runs its full phase.
        let mut c = cfg(ErrorRates::silent_only(3e-4).unwrap());
        c.sigma2 = 0.8;
        let fast = FastPattern::new(&c).unwrap();
        let mut stream = draws(77);
        let phase1 = (c.w + c.costs.verification) / c.sigma1;
        let phase2 = (c.w + c.costs.verification) / c.sigma2;
        let mut multi = 0;
        for _ in 0..500 {
            let p = fast.sample(&mut stream);
            let n = f64::from(p.attempts);
            let expected_t =
                phase1 + (n - 1.0) * phase2 + (n - 1.0) * c.costs.recovery + c.costs.checkpoint;
            assert!((p.time - expected_t).abs() < 1e-6, "attempts = {n}");
            assert_eq!(p.silent_errors, p.attempts - 1);
            assert_eq!(p.fail_stop_errors, 0);
            if p.attempts > 1 {
                multi += 1;
            }
        }
        assert!(multi > 0, "λW/σ1 ≈ 2 must produce re-executions");
    }

    #[test]
    fn fast_path_mean_attempts_match_geometric_law() {
        // E[n] = 1 + p₁ / (1 − p₂) for the two-stage geometric law of a
        // silent-only config.
        let mut c = cfg(ErrorRates::silent_only(2e-4).unwrap());
        c.sigma2 = 0.8;
        let p1 = -(-2e-4 * c.w / c.sigma1).exp_m1();
        let p2 = -(-2e-4 * c.w / c.sigma2).exp_m1();
        let expected = 1.0 + p1 / (1.0 - p2);
        let fast = FastPattern::new(&c).unwrap();
        let mut stream = draws(4242);
        let n = 200_000;
        let mean = (0..n)
            .map(|_| f64::from(fast.sample(&mut stream).attempts))
            .sum::<f64>()
            / f64::from(n);
        // SE ≈ 0.002; allow 5σ.
        assert!(
            (mean - expected).abs() < 0.012,
            "mean {mean} vs analytic {expected}"
        );
    }

    #[test]
    fn success_run_lengths_follow_the_geometric_law() {
        // E[run] = (1 − p₁)/p₁ for P(run = j) = (1 − p₁)^j · p₁.
        let c = cfg(ErrorRates::silent_only(1e-4).unwrap());
        let fp = FastPattern::new(&c).unwrap();
        let p1 = -(-1e-4 * c.w / c.sigma1).exp_m1();
        let expected = (1.0 - p1) / p1;
        let mut rng = SimRng::new(31337);
        let n = 100_000;
        let mean = (0..n)
            .map(|_| fp.success_run_len_ln(rng.uniform_open().ln()) as f64)
            .sum::<f64>()
            / f64::from(n);
        // std(run) ≈ E[run] ≈ 1.0 here (λW/σ₁ ≈ 0.69): SE ≈ 0.004.
        assert!(
            (mean - expected).abs() < 5.0 * expected / f64::from(n).sqrt(),
            "mean run {mean} vs analytic {expected}"
        );
        // u = 1 ⇒ the shortest run; an error-free config never fails.
        assert_eq!(fp.success_run_len_ln(0.0), 0);
        let error_free = FastPattern::new(&cfg(ErrorRates::new(0.0, 0.0).unwrap())).unwrap();
        assert_eq!(error_free.success_run_len_ln(0.5f64.ln()), u64::MAX);
    }

    #[test]
    fn silent_only_fast_path_reports_no_fail_stops_and_finite_outcomes() {
        // At λᶠ = 0 the abort arm of every failed trial computes with
        // ln 0 = −∞ and 1/λᶠ = +∞; its non-finite value must never be
        // selected into an outcome.
        let mut c = cfg(ErrorRates::silent_only(5e-4).unwrap());
        c.sigma2 = 0.8;
        let fast = FastPattern::new(&c).unwrap();
        let mut stream = draws(2016);
        let mut failed = 0u32;
        for _ in 0..20_000 {
            let p = fast.sample(&mut stream);
            assert_eq!(p.fail_stop_errors, 0);
            assert_eq!(p.silent_errors, p.attempts - 1);
            assert!(p.time.is_finite() && p.energy.is_finite(), "{p:?}");
            failed += p.silent_errors;
        }
        assert!(failed > 0, "λW/σ₁ ≈ 3.5 must produce silent errors");
    }

    #[test]
    fn degenerate_configs_are_rejected_at_construction() {
        // λW/σ₂ ≈ 700: e^{−700} underflows the retry success probability
        // to ~0. The sampler must refuse at construction (never in the
        // sampling hot loop) so degenerate configs surface as a
        // structured error, not a panic inside a rayon worker.
        let mut c = cfg(ErrorRates::silent_only(1.0).unwrap());
        c.w = 700.0;
        c.sigma1 = 1.0;
        c.sigma2 = 1.0;
        assert!(matches!(
            FastPattern::new(&c),
            Err(EngineError::NeverCompletes { .. })
        ));
        assert!(ensure_completes(&c, ErrorLaw::Exponential, None).is_err());
        c.rates = ErrorRates::new(0.5, 0.5).unwrap();
        assert!(matches!(
            FastPattern::new(&c),
            Err(EngineError::NeverCompletes { .. })
        ));
        // Just inside the margin: 1/q(σ₂) ≤ MAX_ATTEMPTS/128 constructs.
        let mut ok = cfg(ErrorRates::new(8e-5, 5e-5).unwrap());
        ok.sigma2 = 0.8;
        assert!(FastPattern::new(&ok).is_ok());
        assert!(ensure_completes(&ok, ErrorLaw::Exponential, None).is_ok());
    }

    #[test]
    fn mixed_fast_path_attempts_match_two_stage_geometric() {
        // E[n] = 1 + p₁/q₂ for the two-stage geometric law in the
        // combined per-attempt success probability.
        let mut c = cfg(ErrorRates::new(2e-4, 8e-5).unwrap());
        c.sigma2 = 0.8;
        let mixed = FastPattern::new(&c).unwrap();
        let hazard = |sigma: f64| (8e-5 * (c.w + c.costs.verification) + 2e-4 * c.w) / sigma;
        let p1 = -(-hazard(c.sigma1)).exp_m1();
        let q2 = (-hazard(c.sigma2)).exp();
        let expected = 1.0 + p1 / q2;
        let mut rng = draws(4242);
        let n = 200_000;
        let mean = (0..n)
            .map(|_| f64::from(mixed.sample(&mut rng).attempts))
            .sum::<f64>()
            / f64::from(n);
        assert!(
            (mean - expected).abs() < 0.02,
            "mean {mean} vs analytic {expected}"
        );
    }

    #[test]
    fn mixed_outcomes_are_internally_consistent() {
        let mut c = cfg(ErrorRates::new(1e-4, 8e-5).unwrap());
        c.sigma2 = 0.8;
        let mixed = FastPattern::new(&c).unwrap();
        let phase1 = (c.w + c.costs.verification) / c.sigma1;
        let phase2 = (c.w + c.costs.verification) / c.sigma2;
        let mut rng = draws(77);
        let mut saw_fail_stop = false;
        let mut saw_silent = false;
        for _ in 0..2000 {
            let p = mixed.sample(&mut rng);
            assert_eq!(p.attempts, 1 + p.silent_errors + p.fail_stop_errors);
            // Every attempt takes at most its full phase; every failure
            // adds one recovery, the success one checkpoint.
            let n = f64::from(p.attempts);
            let upper = phase1
                + (n - 1.0) * (phase2.max(phase1) + c.costs.recovery)
                + c.costs.checkpoint
                + 1e-9;
            assert!(p.time <= upper, "time {} > bound {upper}", p.time);
            // Aborts lose at least zero time but the recoveries, final
            // phase and checkpoint are always paid.
            let lower = (n - 1.0) * c.costs.recovery + phase2.min(phase1) + c.costs.checkpoint;
            assert!(p.time >= lower - 1e-9, "time {} < bound {lower}", p.time);
            saw_fail_stop |= p.fail_stop_errors > 0;
            saw_silent |= p.silent_errors > 0;
        }
        assert!(saw_fail_stop && saw_silent, "both causes must occur");
    }

    #[test]
    fn mixed_fail_stop_only_config_never_reports_silent_errors() {
        // λˢ = 0 makes every failure a fail-stop abort: the categorical
        // collapses and P(fail-stop | failure) = 1.
        let c = cfg(ErrorRates::fail_stop_only(2e-4).unwrap());
        let mixed = FastPattern::new(&c).unwrap();
        let mut rng = draws(9);
        let mut failures = 0u32;
        for _ in 0..2000 {
            let p = mixed.sample(&mut rng);
            assert_eq!(p.silent_errors, 0);
            failures += p.fail_stop_errors;
        }
        assert!(failures > 0, "λf(W+V)/σ ≈ 1.4 must produce aborts");
    }

    #[test]
    fn non_finite_success_probability_is_rejected() {
        // Regression: `q * MAX_ATTEMPTS < 128.0` is *false* when q is
        // NaN (NaN compares false against everything), so before the
        // explicit finiteness check a NaN config sailed through
        // `ensure_completes` and was accepted by the samplers.
        let mut c = cfg(ErrorRates::silent_only(1e-4).unwrap());
        c.w = f64::NAN;
        assert!(matches!(
            ensure_completes(&c, ErrorLaw::Exponential, None),
            Err(EngineError::NonFiniteSuccessProbability { .. })
        ));
        assert!(matches!(
            FastPattern::new(&c),
            Err(EngineError::NonFiniteSuccessProbability { .. })
        ));

        let mut nan_speed = cfg(ErrorRates::new(1e-4, 5e-5).unwrap());
        nan_speed.sigma2 = f64::NAN;
        assert!(ensure_completes(&nan_speed, ErrorLaw::Exponential, None).is_err());
        assert!(FastPattern::new(&nan_speed).is_err());

        // +∞ hazard → q = 0 is *finite* and stays a NeverCompletes;
        // −∞ work → q = +∞ is the non-finite rejection.
        let mut inf_w = cfg(ErrorRates::silent_only(1e-4).unwrap());
        inf_w.w = f64::NEG_INFINITY;
        assert!(matches!(
            ensure_completes(&inf_w, ErrorLaw::Exponential, None),
            Err(EngineError::NonFiniteSuccessProbability { .. })
        ));

        // The guard holds for every law.
        for law in [
            ErrorLaw::Exponential,
            ErrorLaw::Weibull { shape: 0.7 },
            ErrorLaw::LogNormal { sigma: 1.2 },
        ] {
            assert!(matches!(
                ensure_completes(&c, law, None),
                Err(EngineError::NonFiniteSuccessProbability { .. })
            ));
        }
    }

    #[test]
    fn scenario_exponential_is_bit_identical_to_reference() {
        // The scenario engine with the exponential law and no schedule
        // must reproduce the historical reference engine draw-for-draw.
        let c = cfg(ErrorRates::new(2e-4, 8e-5).unwrap());
        for seed in [1u64, 7, 1234, 98765] {
            let reference = simulate_pattern(&c, &mut SimRng::new(seed));
            let scenario =
                simulate_pattern_scenario(&c, ErrorLaw::Exponential, None, &mut SimRng::new(seed));
            assert_eq!(reference, scenario);
            assert_eq!(
                reference.time.to_bits(),
                scenario.time.to_bits(),
                "seed {seed}"
            );
            assert_eq!(reference.energy.to_bits(), scenario.energy.to_bits());
        }
    }

    #[test]
    fn scenario_weibull_shape_one_matches_exponential() {
        // Weibull with shape = 1 *is* the exponential law; the sampler
        // special-cases it to the same −ln(u)/λ map, so outcomes agree
        // bitwise on the same seed despite taking the generic draw path.
        let c = cfg(ErrorRates::silent_only(2e-4).unwrap());
        for seed in [3u64, 42, 777] {
            let exp =
                simulate_pattern_scenario(&c, ErrorLaw::Exponential, None, &mut SimRng::new(seed));
            let wei = simulate_pattern_scenario(
                &c,
                ErrorLaw::Weibull { shape: 1.0 },
                None,
                &mut SimRng::new(seed),
            );
            assert_eq!(exp, wei, "seed {seed}");
        }
    }

    #[test]
    fn scenario_schedule_speeds_are_applied_per_attempt() {
        // Huge silent rate forces retries; a schedule (σ₁, s₂, s₃, s₃…)
        // must yield exactly the per-attempt-speed time decomposition.
        let mut c = cfg(ErrorRates::silent_only(1e-3).unwrap());
        c.sigma2 = f64::NAN; // must never be consulted with a schedule
        let schedule = SpeedSchedule::new(0.4, vec![0.6, 1.0]).unwrap();
        let mut rng = SimRng::new(2024);
        let mut saw_deep = false;
        for _ in 0..300 {
            let p = simulate_pattern_scenario(&c, ErrorLaw::Exponential, Some(&schedule), &mut rng);
            assert!(p.time.is_finite());
            let phase = |s: f64| (c.w + c.costs.verification) / s;
            let n = p.attempts;
            let mut expected = c.costs.checkpoint + f64::from(n - 1) * c.costs.recovery;
            for i in 0..n {
                expected += phase(schedule.speed_for_attempt(i));
            }
            assert!(
                (p.time - expected).abs() < 1e-6,
                "attempts {n}: {} vs {expected}",
                p.time
            );
            saw_deep |= n > 3;
        }
        assert!(saw_deep, "λW/σ must push past the scheduled prefix");
    }

    #[test]
    fn scenario_lognormal_runs_and_respects_recovery_accounting() {
        let mut c = cfg(ErrorRates::silent_only(5e-4).unwrap());
        c.sigma2 = 0.8;
        let mut rng = SimRng::new(11);
        let mut saw_retry = false;
        for _ in 0..300 {
            let p =
                simulate_pattern_scenario(&c, ErrorLaw::LogNormal { sigma: 1.2 }, None, &mut rng);
            assert_eq!(p.attempts, 1 + p.silent_errors);
            assert!(p.time.is_finite() && p.energy.is_finite());
            saw_retry |= p.attempts > 1;
        }
        assert!(saw_retry, "λW ≈ 1.4 must produce detected silent errors");
    }
}
