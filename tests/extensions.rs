//! Integration tests locking in the EXPERIMENTS.md claims for the
//! additional studies (X-pairs, X-robust, X-pareto, X-multiverif,
//! X-continuous, X-heatmap) — so `cargo test` re-verifies the recorded
//! numbers, not just the paper's own artifacts.

use rexec::core::{continuous, multiverif};
use rexec::prelude::*;
use rexec::sweep::grid::Grid;
use rexec::sweep::heatmap::Heatmap;

fn hera_xscale() -> Configuration {
    configuration(ConfigId {
        platform: PlatformId::Hera,
        processor: ProcessorId::IntelXScale,
    })
}

#[test]
fn x_robust_ten_fold_misestimate_costs_under_five_percent() {
    // EXPERIMENTS.md: "plans computed with λ wrong by 10× ... lose at most
    // 3.5 % energy"; assert a 5 % envelope.
    let cfg = hera_xscale();
    let truth = cfg.silent_model().unwrap();
    let speeds = cfg.speed_set().unwrap();
    let oracle = BiCritSolver::new(truth, speeds.clone()).solve(3.0).unwrap();
    let oracle_e = truth.energy_overhead(oracle.w_opt, oracle.sigma1, oracle.sigma2);
    for factor in [0.1, 0.3, 3.0, 10.0] {
        let wrong = truth.with_lambda(truth.lambda * factor);
        let plan = BiCritSolver::new(wrong, speeds.clone()).solve(3.0).unwrap();
        let e = truth.energy_overhead(plan.w_opt, plan.sigma1, plan.sigma2);
        let penalty = e / oracle_e - 1.0;
        assert!(
            (0.0..0.05).contains(&(penalty + 1e-12)),
            "factor {factor}: penalty {penalty}"
        );
        // The mis-planned execution must still satisfy a slightly relaxed
        // bound under the truth (the constraint was computed with wrong λ).
        let t = truth.time_overhead(plan.w_opt, plan.sigma1, plan.sigma2);
        assert!(t < 3.0 * 1.05, "factor {factor}: T/W = {t}");
    }
}

#[test]
fn x_multiverif_recorded_gains() {
    // EXPERIMENTS.md: optimal q = 2 on Hera/XScale across the λ scan, with
    // the gain over q = 1 growing to ≈ 8.6 % at 100× the base rate.
    let cfg = hera_xscale();
    let base = cfg.silent_model().unwrap();
    let speeds = cfg.speed_set().unwrap();
    let m = base.with_lambda(base.lambda * 100.0);
    let multi = multiverif::optimize(&m, &speeds, 3.0, 8).unwrap();
    assert_eq!(multi.q, 2);
    let single = rexec::core::numeric::exact_bicrit_solve(&m, &speeds, 3.0).unwrap();
    let gain = 1.0 - multi.energy_overhead / single.2.objective;
    assert!(
        (0.06..0.11).contains(&gain),
        "gain {gain} outside the recorded ~8.6 % band"
    );
}

#[test]
fn x_continuous_recorded_gaps() {
    // EXPERIMENTS.md: XScale configurations leave 2.3–7.8 % on the table;
    // Crusoe configurations have zero gap (boundary optimum at 0.45).
    for cfg in all_configurations() {
        let m = cfg.silent_model().unwrap();
        let speeds = cfg.speed_set().unwrap();
        let gap = continuous::discretization_gap(&m, &speeds, 3.0).unwrap();
        match cfg.processor.id {
            ProcessorId::IntelXScale => {
                assert!((0.01..0.10).contains(&gap), "{}: gap {gap}", cfg.name())
            }
            ProcessorId::TransmetaCrusoe => assert!(
                gap.abs() < 5e-3,
                "{}: Crusoe gap should be ~0, got {gap}",
                cfg.name()
            ),
        }
    }
}

#[test]
fn x_heatmap_structure() {
    // EXPERIMENTS.md: pair regions form monotone bands; two distinct
    // speeds win throughout the transition bands (~31 % of cells on the
    // recorded grid).
    let map = Heatmap::compute(
        &hera_xscale(),
        &Grid::log(1e-6, 2e-3, 16),
        &Grid::linear(1.1, 8.0, 40),
    );
    let frac = map.two_speed_fraction();
    assert!(
        (0.2..0.45).contains(&frac),
        "two-speed fraction {frac} outside the recorded ~31 % band"
    );
    assert!(map.winning_pairs().len() >= 12);
    // Feasibility frontier moves right as λ grows: the first feasible ρ
    // index is non-decreasing down the rows.
    let mut last_first = 0usize;
    for i in 0..map.lambdas.len() {
        let first = (0..map.rhos.len())
            .find(|&j| map.cell(i, j).solution.is_some())
            .expect("every row has feasible cells");
        assert!(
            first >= last_first,
            "feasibility frontier must be monotone in λ"
        );
        last_first = first;
    }
}

#[test]
fn x_pareto_frontier_extremes_match_solvers() {
    // The fast end of the frontier approaches the time-only optimum
    // (the smallest first-order bound ρᵢⱼ over pairs); the
    // cheap end matches the unconstrained BiCrit optimum.
    let cfg = hera_xscale();
    let solver = cfg.solver().unwrap();
    let frontier = ParetoFrontier::compute(&solver, 20.0, 300);
    let fast = &frontier.points[0];
    assert!(fast.time_overhead <= solver.min_feasible_rho() * 1.05);
    let cheap = frontier.points.last().unwrap();
    let loose = solver.solve(20.0).unwrap();
    assert!((cheap.energy_overhead - loose.energy_overhead).abs() / loose.energy_overhead < 1e-6);
}

#[test]
fn segmented_simulator_agrees_with_multiverif_optimum() {
    // Simulate the q = 2 optimum from X-multiverif and verify the analytic
    // expectation within 4σ (fast variant of the example's check).
    let cfg = hera_xscale();
    let base = cfg.silent_model().unwrap();
    let speeds = cfg.speed_set().unwrap();
    let m = base.with_lambda(base.lambda * 30.0);
    let sol = multiverif::optimize(&m, &speeds, 3.0, 8).unwrap();
    let sim_cfg = SimConfig::from_silent_model(&m, sol.w_opt, sol.sigma1, sol.sigma2);
    let trials = 12_000u64;
    let mut time = Stats::new();
    for i in 0..trials {
        let mut rng = SimRng::for_trial(8088, i);
        time.push(simulate_pattern_segmented(&sim_cfg, sol.q, &mut rng).time);
    }
    let expect = multiverif::expected_time(&m, sol.w_opt, sol.q, sol.sigma1, sol.sigma2);
    assert!(
        time.contains(expect, 4.0),
        "sampled {} vs analytic {expect}",
        time.mean()
    );
}
