//! Extension: patterns with several verifications per checkpoint.
//!
//! The paper's related work (§6, Benoit/Robert/Raina \[6\]) studies patterns
//! that interleave `q` verifications with one checkpoint: the pattern's
//! `W` units of work are split into `q` equal segments, each followed by a
//! verification; the checkpoint is taken after the `q`-th verification
//! succeeds. A silent error is then detected at the end of the *segment*
//! it struck, losing only part of the pattern's work — at the price of
//! `q − 1` extra verifications. This module combines that pattern shape
//! with this paper's two-speed re-execution model (`q = 1` reduces
//! exactly to Propositions 1–3).
//!
//! Model (silent errors only): per segment at speed `σ`, a silent error
//! strikes with probability `p = 1 − e^{−λW/(qσ)}`. An attempt runs
//! segments until a verification fails (probability `F = 1 − (1−p)^q`
//! overall) or all `q` pass. On failure the application recovers and
//! re-executes the whole pattern at `σ₂` until success, then checkpoints.
//! This is the instance `λᶠ = 0`, `retries = [σ₂]` of the
//! [`renewal`](crate::renewal) form, with `q` segments per attempt.

use crate::law::ErrorLaw::Exponential;
use crate::pattern::SilentModel;
use crate::renewal::renewal;
use serde::{Deserialize, Serialize};

/// Expected time of a pattern of `w` work with `q` verifications per
/// checkpoint, first execution at `sigma1`, re-executions at `sigma2`.
///
/// # Panics
/// If `q == 0`.
pub fn expected_time(m: &SilentModel, w: f64, q: u32, sigma1: f64, sigma2: f64) -> f64 {
    renewal(&m.as_mixed(), Exponential, w, q, sigma1, &[sigma2]).time
}

/// Expected energy of a pattern of `w` work with `q` verifications per
/// checkpoint (two speeds).
///
/// # Panics
/// If `q == 0`.
pub fn expected_energy(m: &SilentModel, w: f64, q: u32, sigma1: f64, sigma2: f64) -> f64 {
    renewal(&m.as_mixed(), Exponential, w, q, sigma1, &[sigma2]).energy
}

/// Time overhead `T/W`.
#[inline]
pub fn time_overhead(m: &SilentModel, w: f64, q: u32, s1: f64, s2: f64) -> f64 {
    expected_time(m, w, q, s1, s2) / w
}

/// Energy overhead `E/W`.
#[inline]
pub fn energy_overhead(m: &SilentModel, w: f64, q: u32, s1: f64, s2: f64) -> f64 {
    expected_energy(m, w, q, s1, s2) / w
}

/// Result of the `(W, q, σ₁, σ₂)` optimization.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MultiVerifSolution {
    /// Verifications per checkpoint.
    pub q: u32,
    /// First-execution speed.
    pub sigma1: f64,
    /// Re-execution speed.
    pub sigma2: f64,
    /// Optimal pattern size (work units across all `q` segments).
    pub w_opt: f64,
    /// Achieved energy overhead.
    pub energy_overhead: f64,
    /// Achieved time overhead (≤ ρ).
    pub time_overhead: f64,
}

/// Minimizes the energy overhead over `W` (numerically) and `q ∈ [1,
/// q_max]`, for a fixed speed pair, subject to `T/W ≤ rho`.
pub fn optimize_pair(
    m: &SilentModel,
    s1: f64,
    s2: f64,
    rho: f64,
    q_max: u32,
) -> Option<MultiVerifSolution> {
    let mut best: Option<MultiVerifSolution> = None;
    for q in 1..=q_max.max(1) {
        if let Some(o) = crate::numeric::minimize_with_bound(
            |w| energy_overhead(m, w, q, s1, s2),
            |w| time_overhead(m, w, q, s1, s2),
            rho,
            crate::numeric::W_MIN,
            crate::numeric::W_MAX,
        ) {
            let cand = MultiVerifSolution {
                q,
                sigma1: s1,
                sigma2: s2,
                w_opt: o.w,
                energy_overhead: o.objective,
                time_overhead: o.constraint,
            };
            if best.is_none_or(|b| cand.energy_overhead < b.energy_overhead) {
                best = Some(cand);
            }
        }
    }
    best
}

/// Full BiCrit with multi-verification patterns: minimizes over the speed
/// set and `q ∈ [1, q_max]`.
pub fn optimize(
    m: &SilentModel,
    speeds: &crate::speed::SpeedSet,
    rho: f64,
    q_max: u32,
) -> Option<MultiVerifSolution> {
    speeds
        .pairs()
        .filter_map(|(s1, s2)| optimize_pair(m, s1, s2, rho, q_max))
        .min_by(|a, b| {
            (a.energy_overhead, a.sigma1, a.sigma2, a.q)
                .partial_cmp(&(b.energy_overhead, b.sigma1, b.sigma2, b.q))
                .expect("finite overheads")
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::ResilienceCosts;
    use crate::oracle::{self, attempt_stats};
    use crate::power::PowerModel;
    use crate::speed::SpeedSet;

    fn hera_xscale() -> SilentModel {
        SilentModel::new(
            3.38e-6,
            ResilienceCosts::symmetric(300.0, 15.4),
            PowerModel::with_default_io(1550.0, 60.0, 0.15).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn q1_reduces_to_proposition_2_and_3() {
        let m = hera_xscale().with_lambda(1e-4);
        for (w, s1, s2) in [(2764.0, 0.4, 0.8), (5000.0, 1.0, 0.4)] {
            let t_q1 = expected_time(&m, w, 1, s1, s2);
            let t_p2 = oracle::prop2_time(&m, w, s1, s2);
            assert!((t_q1 - t_p2).abs() < 1e-9 * t_p2, "{t_q1} vs {t_p2}");
            let e_q1 = expected_energy(&m, w, 1, s1, s2);
            let e_p3 = oracle::prop3_energy(&m, w, s1, s2);
            assert!((e_q1 - e_p3).abs() < 1e-9 * e_p3, "{e_q1} vs {e_p3}");
        }
    }

    #[test]
    fn attempt_stats_failure_probability_is_whole_pattern_strike() {
        let m = hera_xscale().with_lambda(1e-4);
        let (_, f) = attempt_stats(&m, 4000.0, 4, 0.5);
        // F = 1 − (1−p)^q = 1 − e^{−λW/σ}: independent of q.
        let expected = crate::error_model::strike_probability(m.lambda, 4000.0 / 0.5);
        assert!((f - expected).abs() < 1e-12);
        // So the renewal form's attempt count does not depend on q.
        let n = |q| {
            crate::renewal::renewal(&m.as_mixed(), Exponential, 4000.0, q, 0.5, &[0.8]).executions
        };
        assert!((n(4) - n(1)).abs() < 1e-12 * n(1), "{} vs {}", n(4), n(1));
    }

    #[test]
    fn more_verifications_shorten_failed_attempts() {
        // With errors present, expected attempt time decreases with q
        // until the extra verifications dominate.
        let m = hera_xscale().with_lambda(5e-4);
        let (a1, _) = attempt_stats(&m, 8000.0, 1, 0.5);
        let (a4, _) = attempt_stats(&m, 8000.0, 4, 0.5);
        // q = 4 pays 3 extra verifications on success but detects earlier
        // on failure; at this error rate detection wins.
        assert!(
            a4 < a1 + 3.0 * m.costs.verification / 0.5,
            "a4 = {a4}, a1 = {a1}"
        );
    }

    #[test]
    fn moderate_error_rate_prefers_multiple_verifications() {
        // With V ≪ C, splitting the pattern into verified segments wins
        // slightly (early detection wastes less re-executed work): at
        // λ = 2e-5 on Hera/XScale the optimal q is 2.
        let m = hera_xscale().with_lambda(2e-5);
        let best = optimize_pair(&m, 0.4, 0.4, 3.0, 8).unwrap();
        assert!(best.q > 1, "expected q > 1, got {best:?}");
        // And it must beat the q = 1 solution.
        let q1 = crate::numeric::minimize_with_bound(
            |w| energy_overhead(&m, w, 1, 0.4, 0.4),
            |w| time_overhead(&m, w, 1, 0.4, 0.4),
            3.0,
            crate::numeric::W_MIN,
            crate::numeric::W_MAX,
        )
        .unwrap();
        assert!(best.energy_overhead < q1.objective);
    }

    #[test]
    fn low_error_rate_keeps_single_verification_competitive() {
        // At Hera's real λ, the optimal q is small (errors every ~40
        // patterns: extra verifications buy little).
        let m = hera_xscale();
        let best = optimize_pair(&m, 0.4, 0.4, 3.0, 8).unwrap();
        assert!(best.q <= 2, "got q = {}", best.q);
    }

    #[test]
    fn full_optimize_respects_bound_and_beats_single_verif_bicrit() {
        let m = hera_xscale().with_lambda(1e-4);
        let speeds = SpeedSet::new(vec![0.15, 0.4, 0.6, 0.8, 1.0]).unwrap();
        let best = optimize(&m, &speeds, 3.0, 6).unwrap();
        assert!(best.time_overhead <= 3.0 * (1.0 + 1e-9));
        let single = crate::numeric::exact_bicrit_solve(&m, &speeds, 3.0).unwrap();
        assert!(
            best.energy_overhead <= single.2.objective * (1.0 + 1e-9),
            "multi-verif {} vs single-verif {}",
            best.energy_overhead,
            single.2.objective
        );
    }

    #[test]
    fn infeasible_bound_returns_none() {
        let m = hera_xscale();
        assert!(optimize_pair(&m, 0.15, 0.4, 3.0, 4).is_none());
    }

    #[test]
    #[should_panic(expected = "at least one verification")]
    fn q_zero_panics() {
        let m = hera_xscale();
        expected_time(&m, 1000.0, 0, 0.5, 0.5);
    }
}
