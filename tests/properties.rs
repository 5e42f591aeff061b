//! Property-based tests (proptest) of the core invariants, across random
//! model parameters — not just the paper's published configurations.

use proptest::prelude::*;
use rexec::core::approx::FirstOrder;
use rexec::core::numeric;
use rexec::core::theorem1;
use rexec::prelude::*;

/// Random but physically sensible model parameters.
fn arb_model() -> impl Strategy<Value = SilentModel> {
    (
        1e-7..1e-4f64,    // lambda
        1.0..3000.0f64,   // C (= R)
        0.0..500.0f64,    // V
        100.0..6000.0f64, // kappa
        0.0..500.0f64,    // p_idle
        0.0..500.0f64,    // p_io
    )
        .prop_map(|(lambda, c, v, kappa, p_idle, p_io)| {
            SilentModel::new(
                lambda,
                ResilienceCosts::symmetric(c, v),
                PowerModel::new(kappa, p_idle, p_io).unwrap(),
            )
            .unwrap()
        })
}

fn arb_speed() -> impl Strategy<Value = f64> {
    0.1..1.0f64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Theorem 1's Wopt always satisfies the first-order constraint and is
    /// never beaten by nearby feasible pattern sizes.
    #[test]
    fn theorem1_is_feasible_and_locally_optimal(
        m in arb_model(),
        s1 in arb_speed(),
        s2 in arb_speed(),
        slack in 1.01..4.0f64,
    ) {
        let rho = theorem1::rho_min(&m, s1, s2) * slack;
        let sol = theorem1::optimal_pattern(&m, s1, s2, rho).unwrap();
        let t = FirstOrder::time_overhead(&m, sol.w_opt, s1, s2);
        prop_assert!(t <= rho * (1.0 + 1e-9));
        // Local optimality among feasible perturbations.
        let co = FirstOrder::energy_coefficients(&m, s1, s2);
        for factor in [0.97, 0.99, 1.01, 1.03] {
            let w = sol.w_opt * factor;
            if FirstOrder::time_overhead(&m, w, s1, s2) <= rho {
                prop_assert!(
                    co.eval(sol.w_opt) <= co.eval(w) + 1e-9 * co.eval(w),
                    "W = {} beats Wopt = {}", w, sol.w_opt
                );
            }
        }
    }

    /// The closed form agrees with the exact numeric optimizer whenever
    /// λ·Wopt is small (the regime the paper's approximation targets) —
    /// so λ is drawn low here: Wopt ~ √(C/λ) makes λ·Wopt ~ √(λC).
    #[test]
    fn theorem1_matches_exact_numeric_in_small_lambda_regime(
        m in arb_model(),
        lambda in 1e-9..2e-7f64,
        s1 in arb_speed(),
        s2 in arb_speed(),
    ) {
        let m = m.with_lambda(lambda);
        let rho = theorem1::rho_min(&m, s1, s2) * 2.0;
        let fo = theorem1::optimal_pattern(&m, s1, s2, rho).unwrap();
        prop_assume!(m.lambda * fo.w_opt / s2.min(s1) < 0.05);
        let ex = numeric::exact_pair_optimum(&m, s1, s2, rho).unwrap();
        let fo_e = FirstOrder::energy_overhead(&m, fo.w_opt, s1, s2);
        prop_assert!(
            (ex.objective - fo_e).abs() / ex.objective < 0.05,
            "exact {} vs first-order {}", ex.objective, fo_e
        );
    }

    /// ρ_min is exactly the infimum of feasible bounds.
    #[test]
    fn rho_min_is_a_sharp_threshold(
        m in arb_model(),
        s1 in arb_speed(),
        s2 in arb_speed(),
    ) {
        let rho = theorem1::rho_min(&m, s1, s2);
        prop_assert!(theorem1::optimal_pattern(&m, s1, s2, rho * 1.001).is_ok());
        prop_assert!(theorem1::optimal_pattern(&m, s1, s2, rho * 0.999).is_err());
    }

    /// The BiCrit solver never returns an infeasible or dominated answer,
    /// and relaxing ρ never increases the optimal energy.
    #[test]
    fn bicrit_energy_is_monotone_in_rho(
        m in arb_model(),
        rho_lo in 1.5..4.0f64,
        bump in 1.05..2.0f64,
    ) {
        let speeds = SpeedSet::new(vec![0.15, 0.4, 0.6, 0.8, 1.0]).unwrap();
        let solver = BiCritSolver::new(m, speeds);
        let a = solver.solve(rho_lo);
        let b = solver.solve(rho_lo * bump);
        if let (Some(a), Some(b)) = (a, b) {
            prop_assert!(b.energy_overhead <= a.energy_overhead * (1.0 + 1e-12));
        }
        if a.is_some() {
            prop_assert!(b.is_some(), "feasibility must be monotone in rho");
        }
    }

    /// Two-speed optimum never loses to the one-speed optimum.
    #[test]
    fn two_speeds_dominate_one(
        m in arb_model(),
        rho in 1.5..6.0f64,
    ) {
        let speeds = SpeedSet::new(vec![0.15, 0.4, 0.6, 0.8, 1.0]).unwrap();
        let solver = BiCritSolver::new(m, speeds);
        if let (Some(two), Some(one)) = (solver.solve(rho), solver.solve_one_speed(rho)) {
            prop_assert!(two.energy_overhead <= one.energy_overhead * (1.0 + 1e-12));
        }
    }

    /// Exact expectations are monotone in λ and reduce to the error-free
    /// values at λ = 0.
    #[test]
    fn exact_expectations_monotone_in_lambda(
        m in arb_model(),
        s1 in arb_speed(),
        s2 in arb_speed(),
        w in 100.0..20_000.0f64,
    ) {
        let t0 = m.with_lambda(0.0).expected_time(w, s1, s2);
        let t1 = m.expected_time(w, s1, s2);
        let t2 = m.with_lambda(m.lambda * 10.0).expected_time(w, s1, s2);
        prop_assert!(t0 <= t1 && t1 <= t2);
        let base = m.costs.checkpoint + (w + m.costs.verification) / s1;
        prop_assert!((t0 - base).abs() < 1e-9 * base);
        let e0 = m.with_lambda(0.0).expected_energy(w, s1, s2);
        let e1 = m.expected_energy(w, s1, s2);
        prop_assert!(e0 <= e1 * (1.0 + 1e-12));
    }

    /// The mixed model with a zero fail-stop rate equals the silent model,
    /// for arbitrary parameters.
    #[test]
    fn mixed_reduces_to_silent(
        m in arb_model(),
        s1 in arb_speed(),
        s2 in arb_speed(),
        w in 100.0..20_000.0f64,
    ) {
        let mm = MixedModel::new(
            ErrorRates::silent_only(m.lambda).unwrap(),
            m.costs,
            m.power,
        );
        let ts = m.expected_time(w, s1, s2);
        let tm = mm.expected_time(w, s1, s2);
        prop_assert!((ts - tm).abs() <= 1e-9 * ts);
        let es = m.expected_energy(w, s1, s2);
        let em = mm.expected_energy(w, s1, s2);
        prop_assert!((es - em).abs() <= 1e-9 * es);
    }

    /// Energy decomposition: expected energy is bounded below by the
    /// error-free energy and above by (attempts × single-attempt energy +
    /// recovery/checkpoint terms) — a sanity envelope.
    #[test]
    fn energy_envelope(
        m in arb_model(),
        s1 in arb_speed(),
        s2 in arb_speed(),
        w in 100.0..20_000.0f64,
    ) {
        let e = m.expected_energy(w, s1, s2);
        let error_free = m.costs.checkpoint * m.power.io_power()
            + (w + m.costs.verification) / s1 * m.power.compute_power(s1);
        prop_assert!(e >= error_free * (1.0 - 1e-12));
    }

    /// Simulator determinism: same seed, same outcome — across random
    /// configurations.
    #[test]
    fn simulator_is_deterministic(
        m in arb_model(),
        s1 in arb_speed(),
        s2 in arb_speed(),
        seed in any::<u64>(),
    ) {
        // Keep λW/σ2 bounded so patterns complete quickly.
        let w = (0.5 * s2 / m.lambda).clamp(10.0, 20_000.0);
        let cfg = SimConfig::from_silent_model(&m, w, s1, s2);
        let a = rexec::sim::simulate_pattern(&cfg, &mut SimRng::new(seed));
        let b = rexec::sim::simulate_pattern(&cfg, &mut SimRng::new(seed));
        prop_assert_eq!(a, b);
        prop_assert!(a.time > 0.0 && a.energy >= 0.0 && a.attempts >= 1);
    }

    /// Multi-verification patterns: q = 1 equals Propositions 2–3 for any
    /// parameters, and the optimal-q solution never loses to q = 1.
    #[test]
    fn multiverif_q1_identity_and_dominance(
        m in arb_model(),
        s1 in arb_speed(),
        s2 in arb_speed(),
        w in 100.0..20_000.0f64,
    ) {
        use rexec::core::multiverif;
        let t1 = multiverif::expected_time(&m, w, 1, s1, s2);
        let tp = m.expected_time(w, s1, s2);
        prop_assert!((t1 - tp).abs() <= 1e-9 * tp);
        let e1 = multiverif::expected_energy(&m, w, 1, s1, s2);
        let ep = m.expected_energy(w, s1, s2);
        prop_assert!((e1 - ep).abs() <= 1e-9 * ep);
        let rho = rexec::core::theorem1::rho_min(&m, s1, s2) * 2.0;
        if let Some(best) = multiverif::optimize_pair(&m, s1, s2, rho, 4) {
            prop_assert!(best.time_overhead <= rho * (1.0 + 1e-9));
            if let Some(q1) = rexec::core::numeric::minimize_with_bound(
                |w| multiverif::energy_overhead(&m, w, 1, s1, s2),
                |w| multiverif::time_overhead(&m, w, 1, s1, s2),
                rho,
                rexec::core::numeric::W_MIN,
                rexec::core::numeric::W_MAX,
            ) {
                prop_assert!(best.energy_overhead <= q1.objective * (1.0 + 1e-9));
            }
        }
    }

    /// The Pareto frontier is non-dominated and brackets the solver's
    /// answer for any bound inside its range.
    #[test]
    fn pareto_frontier_is_consistent_with_solver(
        m in arb_model(),
        rho_probe in 2.0..6.0f64,
    ) {
        let speeds = SpeedSet::new(vec![0.15, 0.4, 0.6, 0.8, 1.0]).unwrap();
        let solver = BiCritSolver::new(m, speeds);
        let frontier = ParetoFrontier::compute(&solver, 10.0, 60);
        prop_assert!(frontier.is_non_dominated());
        if let Some(sol) = solver.solve(rho_probe) {
            // The frontier's best energy at time ≤ ρ matches the solver
            // within the sweep resolution.
            let best_on_frontier = frontier
                .points
                .iter()
                .filter(|p| p.time_overhead <= rho_probe)
                .map(|p| p.energy_overhead)
                .fold(f64::INFINITY, f64::min);
            if best_on_frontier.is_finite() {
                prop_assert!(
                    sol.energy_overhead <= best_on_frontier * (1.0 + 1e-9),
                    "solver {} vs frontier {}", sol.energy_overhead, best_on_frontier
                );
            }
        }
    }

    /// Execution plans scale linearly in Wbase and report consistent
    /// derived quantities, for any feasible random model.
    #[test]
    fn execution_plan_invariants(
        m in arb_model(),
        w_base in 1e5..1e9f64,
    ) {
        let speeds = SpeedSet::new(vec![0.15, 0.4, 0.6, 0.8, 1.0]).unwrap();
        let solver = BiCritSolver::new(m, speeds);
        if let Some(plan) = ExecutionPlan::solve(&solver, 4.0, w_base) {
            prop_assert!(plan.expected_makespan > 0.0);
            prop_assert!(plan.expected_energy > 0.0);
            prop_assert!(plan.slowdown() >= 1.0 / 1.0001);
            prop_assert!(plan.average_power() >= m.power.p_idle * 0.999);
            let double = ExecutionPlan::solve(&solver, 4.0, 2.0 * w_base).unwrap();
            prop_assert!((double.expected_energy / plan.expected_energy - 2.0).abs() < 1e-9);
        }
    }

    /// Histogram quantiles are monotone and bracketed by the extremes —
    /// for the registry's default sketch and for the (1e-3, 1 %, 1e12)
    /// sketch `runner::outcome_sketches` makes for outcome histograms.
    #[test]
    fn histogram_quantiles_are_monotone(
        values in proptest::collection::vec(1e-2..1e6f64, 10..500),
    ) {
        use rexec::obs::HistogramSketch;
        for h in [
            HistogramSketch::with_default_resolution(),
            HistogramSketch::new(1e-3, 0.01, 1e12),
        ] {
            for &v in &values {
                h.record(v);
            }
            let mut last = h.quantile(0.0).unwrap();
            for i in 1..=20 {
                let q = h.quantile(i as f64 / 20.0).unwrap();
                prop_assert!(q >= last - 1e-12, "quantiles must be monotone");
                last = q;
            }
            prop_assert_eq!(h.quantile(0.0).unwrap(), h.min());
            prop_assert_eq!(h.quantile(1.0).unwrap(), h.max());
        }
    }
}
