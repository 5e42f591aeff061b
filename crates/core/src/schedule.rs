//! Per-attempt re-execution speed *schedules* (σ₂, σ₃, …) and the
//! deadline-constrained (quantile-bounded) solver variant.
//!
//! The paper optimizes a single re-execution speed σ₂; this module
//! generalizes the pattern to a schedule that may change speed for each
//! of the first few re-executions before settling on a final speed
//! (attempt `i` runs at `speed_for_attempt(i)`, constant from the last
//! scheduled entry on). With silent errors only, every expectation
//! still has a closed form: a finite prefix sum over the scheduled
//! attempts plus a geometric tail at the settled speed. This is the
//! instance `λᶠ = 0`, `q = 1` of the [`renewal`](crate::renewal) form,
//! with the schedule's retries as they stand and silent errors drawn
//! from any [`ErrorLaw`] (exponential by default); the paper's
//! `(σ₁, σ₂)` pair under the exponential law is Propositions 2–3
//! (pinned by test).
//!
//! Because `T` is *deterministic given the attempt count* in the
//! silent-error model, quantiles of `T` are exact too:
//! [`ScheduleModel::quantile_time`] inverts the geometric attempt-count
//! law instead of sampling. [`solve_quantile`] uses it to bound a
//! quantile of `T/W` (a probabilistic deadline) rather than only the
//! expectation the BiCrit solver bounds.

use crate::law::ErrorLaw;
use crate::numeric::{self, ConstrainedOptimum};
use crate::pattern::SilentModel;
use crate::renewal::{renewal, Renewal};
use crate::speed::SpeedSet;
use crate::validate::{positive, ModelError};
use serde::{Deserialize, Serialize};

/// A per-attempt speed plan: the first execution runs at `sigma1`,
/// re-execution `i ≥ 1` at `retries[min(i, len) - 1]` — i.e. the
/// schedule settles on its last entry once the explicit prefix is
/// exhausted. `retries = [σ₂]` is exactly the paper's two-speed
/// pattern.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpeedSchedule {
    /// Speed of the first execution (σ₁).
    pub sigma1: f64,
    retries: Vec<f64>,
}

impl SpeedSchedule {
    /// Creates a validated schedule. `retries` must be non-empty and
    /// every speed finite and strictly positive.
    ///
    /// # Errors
    /// [`ModelError::Positive`] on a bad speed,
    /// [`ModelError::EmptySpeedSet`] when `retries` is empty.
    pub fn new(sigma1: f64, retries: Vec<f64>) -> Result<Self, ModelError> {
        positive("sigma1", sigma1)?;
        if retries.is_empty() {
            return Err(ModelError::EmptySpeedSet);
        }
        for &s in &retries {
            positive("retry speed", s)?;
        }
        Ok(SpeedSchedule { sigma1, retries })
    }

    /// The paper's two-speed pattern as a schedule.
    pub fn two_speed(sigma1: f64, sigma2: f64) -> Result<Self, ModelError> {
        SpeedSchedule::new(sigma1, vec![sigma2])
    }

    /// Speed of attempt `i` (0-based; attempt 0 is the first execution).
    #[inline]
    pub fn speed_for_attempt(&self, i: u32) -> f64 {
        if i == 0 {
            self.sigma1
        } else {
            self.retries[(i as usize).min(self.retries.len()) - 1]
        }
    }

    /// The explicit re-execution speeds (σ₂, σ₃, …).
    pub fn retries(&self) -> &[f64] {
        &self.retries
    }

    /// The speed every attempt beyond the explicit prefix runs at.
    #[inline]
    pub fn settled(&self) -> f64 {
        *self.retries.last().expect("retries is non-empty")
    }
}

impl std::fmt::Display for SpeedSchedule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "({}", self.sigma1)?;
        for s in &self.retries {
            write!(f, ", {s}")?;
        }
        write!(f, ")")
    }
}

/// Exact pattern expectations under a [`SpeedSchedule`] (silent errors
/// only). Generalizes Propositions 1–3 from `(σ₁, σ₂)` to an arbitrary
/// per-attempt speed plan and silent-error law.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleModel {
    /// The underlying silent-error platform model; its `lambda` is the
    /// law's nominal rate.
    pub model: SilentModel,
    /// The per-attempt speed plan.
    pub schedule: SpeedSchedule,
    /// The law of silent-error inter-arrival times.
    pub law: ErrorLaw,
}

impl ScheduleModel {
    /// Wraps a model and a schedule, under the paper's exponential law.
    pub fn new(model: SilentModel, schedule: SpeedSchedule) -> Self {
        ScheduleModel {
            model,
            schedule,
            law: ErrorLaw::Exponential,
        }
    }

    /// A copy under another silent-error law.
    #[must_use]
    pub fn with_law(mut self, law: ErrorLaw) -> Self {
        self.law = law;
        self
    }

    /// Expected time to execute a pattern of `w` work units: checkpoint
    /// plus a prefix sum over the scheduled attempts plus the geometric
    /// tail at the settled speed.
    pub fn expected_time(&self, w: f64) -> f64 {
        self.renewal(w).time
    }

    /// Expected energy: the same structure as
    /// [`expected_time`](Self::expected_time) with each phase weighted by
    /// the power drawn while it elapses (compute power during
    /// work+verification, I/O power during checkpoint and recovery).
    pub fn expected_energy(&self, w: f64) -> f64 {
        self.renewal(w).energy
    }

    /// Expected number of executions until the verification succeeds.
    pub fn expected_executions(&self, w: f64) -> f64 {
        self.renewal(w).executions
    }

    fn renewal(&self, w: f64) -> Renewal {
        let s = &self.schedule;
        renewal(&self.model.as_mixed(), self.law, w, 1, s.sigma1, &s.retries)
    }

    /// `ln p` of the failure probability `p = 1 − e^{−H}` of one
    /// attempt at speed `s`, `H` the law's hazard over its `w/s` of
    /// work. Taken as `ln(−expm1(−H))` up to `H = ln 2` and as
    /// `ln_1p(−e^{−H})` above, where `p` itself rounds towards 1 and
    /// `ln p` would read 0 (an attempt that never succeeds).
    fn ln_fail(&self, w: f64, s: f64) -> f64 {
        let h = self.law.cumulative_hazard(w / s, self.model.lambda);
        if h <= std::f64::consts::LN_2 {
            (-(-h).exp_m1()).ln()
        } else {
            (-(-h).exp()).ln_1p()
        }
    }

    /// Exact `q`-quantile of the pattern time, `q ∈ [0, 1)`.
    ///
    /// In the silent-error model `T` is deterministic given the attempt
    /// count `N` (every attempt runs to the verification), and `N`
    /// follows the schedule's generalized-geometric law, so the
    /// quantile inverts `P(N > n) = ∏_{j<n} p_j` exactly: the smallest
    /// `n` with `P(N > n) ≤ 1 − q` yields
    /// `T = C + Σ_{i<n} (W+V)/s_i + (n−1)·R`.
    pub fn quantile_time(&self, w: f64, q: f64) -> f64 {
        assert!((0.0..1.0).contains(&q), "quantile must be in [0, 1)");
        let c = self.model.costs.checkpoint;
        let r = self.model.costs.recovery;
        let v = self.model.costs.verification;
        let ln_tail = (1.0 - q).ln();
        let mut ln_reach = 0.0_f64;
        let mut t_attempts = 0.0_f64;
        // Walk the explicit prefix; each step adds one attempt.
        for i in 0..self.schedule.retries().len() {
            let s = self.schedule.speed_for_attempt(i as u32);
            t_attempts += (w + v) / s;
            ln_reach += self.ln_fail(w, s);
            if ln_reach <= ln_tail {
                return c + t_attempts + i as f64 * r;
            }
        }
        // Settled geometric tail: k further attempts with
        // ln_reach + k·ln(p) ≤ ln_tail.
        let len = self.schedule.retries().len() as f64;
        let s = self.schedule.settled();
        let ln_p = self.ln_fail(w, s);
        if ln_p >= 0.0 {
            // p = 1: the pattern never completes.
            return f64::INFINITY;
        }
        let k = ((ln_tail - ln_reach) / ln_p).ceil().max(1.0);
        let n = len + k;
        c + t_attempts + k * (w + v) / s + (n - 1.0) * r
    }

    /// Expected time per unit of work.
    #[inline]
    pub fn time_overhead(&self, w: f64) -> f64 {
        self.expected_time(w) / w
    }

    /// Expected energy per unit of work.
    #[inline]
    pub fn energy_overhead(&self, w: f64) -> f64 {
        self.expected_energy(w) / w
    }

    /// `q`-quantile of the time per unit of work.
    #[inline]
    fn quantile_overhead(&self, w: f64, q: f64) -> f64 {
        self.quantile_time(w, q) / w
    }
}

/// Result of a schedule search: the best schedule, its optimal pattern
/// size and the two overheads there.
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduleSolution {
    /// The winning per-attempt speed plan.
    pub schedule: SpeedSchedule,
    /// Optimal pattern size.
    pub w_opt: f64,
    /// Energy overhead `E/W` at the optimum.
    pub energy_overhead: f64,
    /// Constrained overhead at the optimum: expected `T/W` for
    /// [`solve_schedule`], the bounded quantile of `T/W` for
    /// [`solve_quantile`].
    pub time_overhead: f64,
}

fn best_over_schedules(
    model: &SilentModel,
    speeds: &SpeedSet,
    depth: usize,
    mut constrained: impl FnMut(&ScheduleModel) -> Option<ConstrainedOptimum>,
) -> Option<ScheduleSolution> {
    assert!(depth >= 1, "schedule depth must be at least 1");
    let vals: Vec<f64> = speeds.iter().collect();
    let combos = vals.len().pow(depth as u32);
    let mut best: Option<ScheduleSolution> = None;
    for &s1 in &vals {
        for idx in 0..combos {
            let mut retries = Vec::with_capacity(depth);
            let mut k = idx;
            for _ in 0..depth {
                retries.push(vals[k % vals.len()]);
                k /= vals.len();
            }
            let schedule = SpeedSchedule::new(s1, retries).expect("speed-set entries are valid");
            let sm = ScheduleModel::new(*model, schedule);
            let Some(o) = constrained(&sm) else { continue };
            // Strict improvement + deterministic enumeration order ⇒ a
            // deterministic winner even under exact objective ties.
            if best
                .as_ref()
                .is_none_or(|b| o.objective < b.energy_overhead)
            {
                best = Some(ScheduleSolution {
                    schedule: sm.schedule,
                    w_opt: o.w,
                    energy_overhead: o.objective,
                    time_overhead: o.constraint,
                });
            }
        }
    }
    best
}

/// Schedule search: minimizes the energy overhead over every schedule
/// of `depth` re-execution speeds drawn from `speeds` (the last entry
/// is the settled speed), subject to the expected time overhead
/// `E[T]/W ≤ rho`. `depth = 1` is exactly the exact-numeric BiCrit
/// search over speed pairs.
pub fn solve_schedule(
    model: &SilentModel,
    speeds: &SpeedSet,
    rho: f64,
    depth: usize,
) -> Option<ScheduleSolution> {
    best_over_schedules(model, speeds, depth, |sm| {
        numeric::minimize_with_bound(
            |w| sm.energy_overhead(w),
            |w| sm.time_overhead(w),
            rho,
            numeric::W_MIN,
            numeric::W_MAX,
        )
    })
}

/// Deadline-constrained schedule search: like [`solve_schedule`], but
/// the bound is on the `q`-quantile of `T/W` instead of its
/// expectation — "with probability `q`, the pattern finishes within
/// `rho` seconds per unit of work".
pub fn solve_quantile(
    model: &SilentModel,
    speeds: &SpeedSet,
    rho: f64,
    q: f64,
    depth: usize,
) -> Option<ScheduleSolution> {
    assert!((0.0..1.0).contains(&q), "quantile must be in [0, 1)");
    best_over_schedules(model, speeds, depth, |sm| {
        numeric::minimize_with_bound(
            |w| sm.energy_overhead(w),
            |w| sm.quantile_overhead(w, q),
            rho,
            numeric::W_MIN,
            numeric::W_MAX,
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::ResilienceCosts;
    use crate::power::PowerModel;

    fn hera_xscale() -> SilentModel {
        SilentModel::new(
            3.38e-6,
            ResilienceCosts::symmetric(300.0, 15.4),
            PowerModel::with_default_io(1550.0, 60.0, 0.15).unwrap(),
        )
        .unwrap()
    }

    fn speed_set() -> SpeedSet {
        SpeedSet::new(vec![0.15, 0.4, 0.6, 0.8, 1.0]).unwrap()
    }

    #[test]
    fn two_speed_schedule_matches_propositions() {
        let m = hera_xscale().with_lambda(1e-4);
        let (w, s1, s2) = (2764.0, 0.4, 0.8);
        let sm = ScheduleModel::new(m, SpeedSchedule::two_speed(s1, s2).unwrap());
        let t = m.expected_time(w, s1, s2);
        let e = m.expected_energy(w, s1, s2);
        let n = m.expected_executions(w, s1, s2);
        assert!((sm.expected_time(w) - t).abs() < 1e-9 * t);
        assert!((sm.expected_energy(w) - e).abs() < 1e-9 * e);
        assert!((sm.expected_executions(w) - n).abs() < 1e-12 * n);
    }

    #[test]
    fn constant_longer_schedule_is_still_two_speed() {
        // (σ₁, σ₂, σ₂, σ₂) must equal (σ₁, σ₂) exactly.
        let m = hera_xscale().with_lambda(2e-4);
        let w = 3000.0;
        let a = ScheduleModel::new(m, SpeedSchedule::new(0.6, vec![0.8, 0.8, 0.8]).unwrap());
        let b = ScheduleModel::new(m, SpeedSchedule::two_speed(0.6, 0.8).unwrap());
        assert!((a.expected_time(w) - b.expected_time(w)).abs() < 1e-9 * b.expected_time(w));
        assert!((a.expected_energy(w) - b.expected_energy(w)).abs() < 1e-9 * b.expected_energy(w));
    }

    #[test]
    fn schedule_satisfies_its_defining_recursion() {
        // T(schedule) = (W+V)/σ₁ + p₁·(R + T(rest)) + (1−p₁)·C where
        // `rest` starts the schedule at its first retry speed.
        let m = hera_xscale().with_lambda(1e-4);
        let w = 2000.0;
        let full = ScheduleModel::new(m, SpeedSchedule::new(0.4, vec![0.6, 1.0]).unwrap());
        let rest = ScheduleModel::new(m, SpeedSchedule::new(0.6, vec![1.0]).unwrap());
        let p1 = m.p_error(w, 0.4);
        let lhs = full.expected_time(w);
        let rhs = (w + m.costs.verification) / 0.4
            + p1 * (m.costs.recovery + rest.expected_time(w))
            + (1.0 - p1) * m.costs.checkpoint;
        assert!((lhs - rhs).abs() < 1e-9 * lhs, "{lhs} vs {rhs}");
    }

    #[test]
    fn speed_for_attempt_settles_on_last_entry() {
        let s = SpeedSchedule::new(0.4, vec![0.6, 0.8, 1.0]).unwrap();
        assert_eq!(s.speed_for_attempt(0), 0.4);
        assert_eq!(s.speed_for_attempt(1), 0.6);
        assert_eq!(s.speed_for_attempt(2), 0.8);
        assert_eq!(s.speed_for_attempt(3), 1.0);
        assert_eq!(s.speed_for_attempt(100), 1.0);
        assert_eq!(s.settled(), 1.0);
        assert_eq!(s.retries(), &[0.6, 0.8, 1.0]);
    }

    #[test]
    fn quantile_time_matches_attempt_count_arithmetic() {
        let m = hera_xscale().with_lambda(1e-4);
        let sm = ScheduleModel::new(m, SpeedSchedule::two_speed(0.4, 0.8).unwrap());
        let w = 2764.0;
        let (c, r, v) = (m.costs.checkpoint, m.costs.recovery, m.costs.verification);
        let p1 = m.p_error(w, 0.4);
        // Below the first-failure mass the pattern finishes in 1 attempt.
        let t1 = c + (w + v) / 0.4;
        assert!((sm.quantile_time(w, 0.0) - t1).abs() < 1e-9);
        assert!((sm.quantile_time(w, 1.0 - p1 - 1e-9) - t1).abs() < 1e-9);
        // Just above it, 2 attempts.
        let t2 = t1 + r + (w + v) / 0.8;
        assert!((sm.quantile_time(w, 1.0 - p1 + 1e-9) - t2).abs() < 1e-9);
        // Monotone in q.
        let mut last = 0.0;
        for i in 0..100 {
            let t = sm.quantile_time(w, f64::from(i) / 100.0);
            assert!(t >= last);
            last = t;
        }
    }

    #[test]
    fn quantile_time_handles_error_free_patterns() {
        let m = hera_xscale().with_lambda(0.0);
        let sm = ScheduleModel::new(m, SpeedSchedule::two_speed(0.5, 1.0).unwrap());
        let w = 1000.0;
        let t = m.costs.checkpoint + (w + m.costs.verification) / 0.5;
        assert!((sm.quantile_time(w, 0.99) - t).abs() < 1e-9);
    }

    #[test]
    fn quantile_time_stays_finite_where_p_rounds_to_one() {
        // σ₁ = σ₂ = 1 and C = R: the attempt count is geometric with
        // success probability e^{−x}, x = λW, so the median is
        // ln 2 · E[T] up to O(e^{−x}). Taking ln p of a rounded
        // p = 1 − e^{−x} drifts from x ≈ 30 on and reads +∞ from 38.
        let m = hera_xscale().with_lambda(1e-3);
        let sm = ScheduleModel::new(m, SpeedSchedule::two_speed(1.0, 1.0).unwrap());
        for x in [30.0, 37.0, 38.0, 100.0] {
            let w = x / m.lambda;
            let median = sm.quantile_time(w, 0.5);
            assert!(median.is_finite(), "x = {x}: median {median}");
            let ratio = median / sm.expected_time(w);
            assert!(
                (ratio - std::f64::consts::LN_2).abs() < 1e-9,
                "x = {x}: ratio {ratio}"
            );
        }
    }

    #[test]
    fn depth_one_schedule_search_matches_exact_bicrit() {
        let m = hera_xscale();
        let speeds = speed_set();
        let rho = 3.0;
        let sched = solve_schedule(&m, &speeds, rho, 1).expect("feasible");
        let (s1, s2, exact) = numeric::exact_bicrit_solve(&m, &speeds, rho).expect("feasible");
        assert_eq!(sched.schedule.sigma1, s1);
        assert_eq!(sched.schedule.retries(), &[s2]);
        assert!((sched.energy_overhead - exact.objective).abs() < 1e-9 * exact.objective);
        assert!(sched.time_overhead <= rho * (1.0 + 1e-9));
    }

    #[test]
    fn deeper_schedules_never_lose() {
        // The depth-2 search space contains every depth-1 schedule
        // (constant retries), so its optimum cannot be worse.
        let m = hera_xscale().with_lambda(1e-4);
        let speeds = speed_set();
        let d1 = solve_schedule(&m, &speeds, 3.0, 1).expect("feasible");
        let d2 = solve_schedule(&m, &speeds, 3.0, 2).expect("feasible");
        assert!(d2.energy_overhead <= d1.energy_overhead * (1.0 + 1e-9));
    }

    #[test]
    fn quantile_solver_respects_the_deadline_bound() {
        let m = hera_xscale().with_lambda(1e-4);
        let speeds = speed_set();
        let (rho, q) = (3.0, 0.99);
        let sol = solve_quantile(&m, &speeds, rho, q, 1).expect("feasible");
        let sm = ScheduleModel::new(m, sol.schedule.clone());
        assert!(sm.quantile_overhead(sol.w_opt, q) <= rho * (1.0 + 1e-9));
        // A quantile bound is stricter than the mean bound, so the
        // optimal energy cannot beat the mean-constrained optimum.
        let mean = solve_schedule(&m, &speeds, rho, 1).expect("feasible");
        assert!(sol.energy_overhead >= mean.energy_overhead * (1.0 - 1e-9));
    }

    #[test]
    fn schedule_validation_rejects_bad_speeds() {
        assert!(SpeedSchedule::new(0.0, vec![1.0]).is_err());
        assert!(SpeedSchedule::new(f64::NAN, vec![1.0]).is_err());
        assert!(SpeedSchedule::new(0.5, vec![]).is_err());
        assert!(SpeedSchedule::new(0.5, vec![1.0, -1.0]).is_err());
        assert!(SpeedSchedule::new(0.5, vec![f64::INFINITY]).is_err());
        let s = SpeedSchedule::two_speed(0.5, 1.0).unwrap();
        assert_eq!(format!("{s}"), "(0.5, 1)");
    }
}
