//! Acceptance tests for the closed-form fast path: bit-identical
//! summaries across thread counts (chunked RNG streams + deterministic
//! merge), and statistical identity with both the per-attempt reference
//! engine and the analytic expectations — Propositions 2–3 on
//! silent-only configs (λᶠ = 0), Propositions 4–5 on mixed fail-stop +
//! silent ones.
//!
//! The thread-count sections live in a single `#[test]` because they
//! mutate process-global state (`RAYON_NUM_THREADS`), which must not
//! race with a concurrently running sibling test.

use rexec::prelude::*;

fn hera_model() -> SilentModel {
    configuration(ConfigId {
        platform: PlatformId::Hera,
        processor: ProcessorId::IntelXScale,
    })
    .silent_model()
    .unwrap()
    .with_lambda(1e-4) // inflated λ so re-executions are actually hit
}

fn mixed_config() -> SimConfig {
    let m = hera_model();
    let mm = MixedModel::new(ErrorRates::new(8e-5, 5e-5).unwrap(), m.costs, m.power);
    SimConfig::from_mixed_model(&mm, 3000.0, 0.6, 1.0)
}

/// Two-sample z-test at z = 4 between two engines' summaries, plus a
/// count sanity check.
fn assert_statistically_identical(fast: &Summary, reference: &Summary, trials: u64, label: &str) {
    for (name, f, r) in [
        ("time", &fast.time, &reference.time),
        ("energy", &fast.energy, &reference.energy),
        ("attempts", &fast.attempts, &reference.attempts),
    ] {
        let se = (f.std_error().powi(2) + r.std_error().powi(2)).sqrt();
        let gap = (f.mean() - r.mean()).abs();
        assert!(
            gap <= 4.0 * se,
            "{label} {name}: fast-path mean {} vs reference mean {} (gap {gap:.3e} > 4·se {:.3e})",
            f.mean(),
            r.mean(),
            4.0 * se
        );
        assert_eq!(f.count(), trials);
        assert_eq!(r.count(), trials);
    }
}

#[test]
fn fast_path_is_bit_identical_and_statistically_exact() {
    let m = hera_model();
    let (w, s1, s2) = (2764.0, 0.4, 0.8);
    let cfg = SimConfig::from_silent_model(&m, w, s1, s2);

    // Bit-identity: one trial chunk = one RNG stream, and the vendored
    // rayon reduction preserves input order, so the parallel summary is
    // the sequential summary byte for byte at any worker count. The
    // mixed sampler consumes a variable number of draws per failed
    // trial, so it exercises the stream-replay discipline hardest.
    for (label, c, seed) in [("silent", cfg, 77u64), ("mixed", mixed_config(), 78)] {
        let mc = MonteCarlo::new(c, 20_000, seed).with_engine(Engine::FastPath);
        let baseline = mc.run_sequential().unwrap();
        for threads in ["1", "2", "4"] {
            std::env::set_var("RAYON_NUM_THREADS", threads);
            assert_eq!(
                mc.run().unwrap(),
                baseline,
                "{label} parallel fast path diverged at {threads} threads"
            );
        }
    }

    // Statistical identity on 10⁵ trials: the fast path samples outcomes
    // in closed form instead of replaying attempts, so its draws
    // differ from the reference engine's — but both must agree with
    // Propositions 2–3 within z = 4, and with each other within 4
    // combined standard errors (two-sample z-test).
    let trials = 100_000;
    let fast = MonteCarlo::new(cfg, trials, 31)
        .with_engine(Engine::FastPath)
        .run()
        .unwrap();
    let reference = MonteCarlo::new(cfg, trials, 32)
        .with_engine(Engine::Reference)
        .run()
        .unwrap();

    let (t_exp, e_exp) = (m.expected_time(w, s1, s2), m.expected_energy(w, s1, s2));
    assert!(
        fast.time.contains(t_exp, 4.0),
        "Prop 2: fast-path time {} vs analytic {t_exp}",
        fast.time.mean()
    );
    assert!(
        fast.energy.contains(e_exp, 4.0),
        "Prop 3: fast-path energy {} vs analytic {e_exp}",
        fast.energy.mean()
    );
    assert_statistically_identical(&fast, &reference, trials, "silent");
}

#[test]
fn mixed_fast_path_matches_reference_and_propositions_4_and_5() {
    // Same z = 4 discipline as the silent section, against the mixed
    // recursion closed forms (Propositions 4–5) and the per-attempt
    // reference engine on 10⁵ trials.
    let m = hera_model();
    let mm = MixedModel::new(ErrorRates::new(8e-5, 5e-5).unwrap(), m.costs, m.power);
    let (w, s1, s2) = (3000.0, 0.6, 1.0);
    let cfg = SimConfig::from_mixed_model(&mm, w, s1, s2);

    let trials = 100_000;
    let fast = MonteCarlo::new(cfg, trials, 31)
        .with_engine(Engine::FastPath)
        .run()
        .unwrap();
    let reference = MonteCarlo::new(cfg, trials, 32)
        .with_engine(Engine::Reference)
        .run()
        .unwrap();

    let (t_exp, e_exp) = (mm.expected_time(w, s1, s2), mm.expected_energy(w, s1, s2));
    assert!(
        fast.time.contains(t_exp, 4.0),
        "Prop 4: mixed fast-path time {} vs analytic {t_exp}",
        fast.time.mean()
    );
    assert!(
        fast.energy.contains(e_exp, 4.0),
        "Prop 5: mixed fast-path energy {} vs analytic {e_exp}",
        fast.energy.mean()
    );
    assert_statistically_identical(&fast, &reference, trials, "mixed");
}

#[test]
fn mixed_run_range_splits_glue_back_to_the_whole_run() {
    // The mixed sampler consumes a variable number of draws per failed
    // trial, so unaligned `run_range` splits only stay identical because
    // partial chunks replay their RNG stream prefix from the grid
    // origin.
    let mc = MonteCarlo::new(mixed_config(), 5_000, 909).with_engine(Engine::FastPath);
    let whole = mc.run().unwrap();
    for cut in [1u64, 255, 256, 1000, 4099] {
        let glued = mc
            .run_range(0, cut)
            .unwrap()
            .merge(mc.run_range(cut, 5_000).unwrap());
        assert_eq!(glued.time.count(), whole.time.count());
        assert_eq!(glued.time.min(), whole.time.min());
        assert_eq!(glued.time.max(), whole.time.max());
        assert_eq!(glued.attempts.min(), whole.attempts.min());
        assert_eq!(glued.attempts.max(), whole.attempts.max());
        assert!((glued.time.mean() - whole.time.mean()).abs() < 1e-9);
        assert!((glued.attempts.mean() - whole.attempts.mean()).abs() < 1e-12);
    }
}

#[test]
fn forced_fast_path_on_mixed_config_no_longer_panics() {
    // Regression: forcing Engine::FastPath on a mixed config used to
    // panic inside the rayon workers; it now runs the mixed sampler.
    let mc = MonteCarlo::new(mixed_config(), 500, 1).with_engine(Engine::FastPath);
    let summary = mc.run().unwrap();
    assert_eq!(summary.time.count(), 500);
}

#[test]
fn degenerate_config_returns_err_instead_of_panicking() {
    // A pattern that essentially never completes (hazard ≫ 1 at both
    // speeds) must be refused with a typed error from every entry point,
    // not detonate an assert mid-run.
    let m = hera_model();
    let bad = SimConfig {
        rates: ErrorRates::new(0.5, 0.5).unwrap(),
        ..SimConfig::from_silent_model(&m, 2764.0, 0.4, 0.8)
    };
    for engine in [Engine::Auto, Engine::FastPath, Engine::Reference] {
        let mc = MonteCarlo::new(bad, 100, 5).with_engine(engine);
        assert!(mc.run().is_err(), "{engine:?} accepted a degenerate config");
        assert!(mc.run_sequential().is_err());
        assert!(mc.run_range(0, 10).is_err());
    }
}
