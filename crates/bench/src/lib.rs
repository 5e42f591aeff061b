//! # rexec-bench
//!
//! The library half of the `rexec-bench` binary, the workspace's only
//! bench harness (there is no Criterion and no `cargo bench` target):
//!
//! * fixtures for its stages: the paper configurations [`hera_xscale`]
//!   (the §4.2 tables) and [`atlas_crusoe`] (Figures 2–7), and
//!   [`synthetic_solver`] with a `K`-speed set for scaling stages;
//! * [`rounds`], the one timing loop: every stage times its sides in
//!   interleaved rounds;
//! * [`stats`]: the median/IQR summaries behind `--repeat N`, the
//!   sign-test interval of a paired ratio, and the noise-band gate of
//!   `rexec-bench compare`.
//!
//! The stages themselves, and what each one times, are listed in the
//! binary's own documentation (`src/bin/rexec_bench.rs`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]
use rexec_core::{BiCritSolver, ModelError, SilentModel, SpeedSet};
use rexec_platforms::{configuration, ConfigId, Configuration, PlatformId, ProcessorId};
use std::time::Instant;

/// The Hera/XScale configuration (the §4.2 tables).
pub fn hera_xscale() -> Configuration {
    configuration(ConfigId {
        platform: PlatformId::Hera,
        processor: ProcessorId::IntelXScale,
    })
}

/// The Atlas/Crusoe configuration (Figures 2–7).
pub fn atlas_crusoe() -> Configuration {
    configuration(ConfigId {
        platform: PlatformId::Atlas,
        processor: ProcessorId::TransmetaCrusoe,
    })
}

/// A solver with a synthetic `K`-speed set (for scaling benchmarks):
/// speeds spread uniformly over `[0.2, 1.0]`.
pub fn synthetic_solver(k: usize) -> Result<BiCritSolver, ModelError> {
    let model: SilentModel = hera_xscale().silent_model()?;
    let speeds: Vec<f64> = (0..k)
        .map(|i| 0.2 + 0.8 * i as f64 / (k.max(2) - 1) as f64)
        .collect();
    Ok(BiCritSolver::new(model, SpeedSet::new(speeds)?))
}

/// Times up to three `sides` of a stage in `n` interleaved rounds. Each
/// round calls every side's work its `(calls, work)` count of times, in
/// forward order on even rounds and reversed order on odd ones (ABBA),
/// so a drift in the machine's speed weighs on every side alike.
/// Returns each side's seconds per call, one per round. A side whose
/// single call is far shorter than a millisecond takes a `calls` count
/// that brings it to about one.
pub fn rounds<const S: usize>(n: usize, mut sides: [(u32, &mut dyn FnMut()); S]) -> [Vec<f64>; S] {
    let mut secs: [Vec<f64>; S] = std::array::from_fn(|_| Vec::with_capacity(n));
    for round in 0..n {
        for i in 0..S {
            let side = if round % 2 == 0 { i } else { S - 1 - i };
            let (calls, work) = &mut sides[side];
            let t = Instant::now();
            for _ in 0..*calls {
                work();
            }
            secs[side].push(t.elapsed().as_secs_f64() / f64::from(*calls));
        }
    }
    secs
}

pub mod stats {
    //! Robust summaries for tracked benchmark runs.
    //!
    //! `rexec-bench --repeat N` reruns the whole suite N times and
    //! reports the per-stage **median** with the interquartile range,
    //! the Touati-style alternative to best-of-N: the median is a
    //! consistent location estimator under asymmetric OS noise, and the
    //! IQR gives `compare` a per-stage noise band so a regression has
    //! to clear the observed run-to-run spread, not an arbitrary
    //! percentage, before CI flags it. A ratio of two sides timed in
    //! the same rounds is the median of its per-round ratios, with the
    //! sign test's distribution-free interval
    //! ([`sign_test_interval`]).

    /// `xs` sorted ascending (NaNs sort last; the bench never emits
    /// them, but a corrupted report must not panic the comparator).
    pub fn sorted(mut xs: Vec<f64>) -> Vec<f64> {
        xs.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        xs
    }

    /// Linear-interpolation quantile (R type 7) of an ascending slice.
    /// Panics on an empty slice.
    pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
        assert!(!sorted.is_empty(), "quantile of an empty sample");
        let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        sorted[lo] + (sorted[hi] - sorted[lo]) * frac
    }

    /// Median of an ascending slice.
    pub fn median_sorted(sorted: &[f64]) -> f64 {
        quantile_sorted(sorted, 0.5)
    }

    /// `(q1, median, q3)` of an ascending slice.
    pub fn quartiles_sorted(sorted: &[f64]) -> (f64, f64, f64) {
        (
            quantile_sorted(sorted, 0.25),
            quantile_sorted(sorted, 0.5),
            quantile_sorted(sorted, 0.75),
        )
    }

    /// The sign test's distribution-free 95 % interval for the median of
    /// an ascending sample of `n`: the order statistics `x(k)` and
    /// `x(n + 1 - k)` (1-based), with `k` the largest count for which
    /// `P(B < k) <= 2.5 %`, `B ~ Binomial(n, 1/2)`. For 30 samples that
    /// is the 10th and 21st. `None` below 6 samples, where even
    /// `[min, max]` covers less than 95 %.
    pub fn sign_test_interval(sorted: &[f64]) -> Option<(f64, f64)> {
        let n = sorted.len();
        // P(B = j), stepped in log space so that 2^-n cannot underflow.
        let mut ln_pmf = n as f64 * 0.5f64.ln();
        let (mut cdf, mut k) = (0.0, 0);
        for j in 0..n {
            cdf += ln_pmf.exp();
            if cdf > 0.025 {
                break;
            }
            k = j + 1;
            ln_pmf += ((n - j) as f64 / (j + 1) as f64).ln();
        }
        (k > 0).then(|| (sorted[k - 1], sorted[n - k]))
    }

    /// One stage's robust timing summary, as stored in the report.
    #[derive(Debug, Clone, PartialEq)]
    pub struct StageSample {
        /// `"stage/name"` key, unique per report.
        pub key: String,
        /// Median wall seconds across the repeats.
        pub median_secs: f64,
        /// Interquartile range of the wall seconds (0 for a single run).
        pub iqr_secs: f64,
    }

    /// A stage whose current median fell outside the noise band.
    #[derive(Debug, Clone, PartialEq)]
    pub struct Regression {
        /// `"stage/name"` key.
        pub key: String,
        /// Baseline median seconds.
        pub base_secs: f64,
        /// Current median seconds.
        pub cur_secs: f64,
        /// Slowdown in percent of the baseline median.
        pub pct: f64,
        /// The noise band the slowdown had to clear (seconds).
        pub band_secs: f64,
    }

    /// Flags every stage present in both reports whose current median
    /// exceeds the baseline median by more than `iqr_band ×` the wider
    /// of the two IQRs **and** by more than `min_pct` percent. The IQR
    /// term absorbs run-to-run noise measured on this machine; the
    /// percentage floor keeps micro-stages (where the IQR itself is
    /// sub-microsecond) from flagging on timer granularity. Stages
    /// missing from either side are skipped — `compare` is for
    /// same-suite runs.
    pub fn regressions(
        base: &[StageSample],
        cur: &[StageSample],
        iqr_band: f64,
        min_pct: f64,
    ) -> Vec<Regression> {
        let mut out = vec![];
        for c in cur {
            let Some(b) = base.iter().find(|b| b.key == c.key) else {
                continue;
            };
            if !(b.median_secs > 0.0 && c.median_secs.is_finite()) {
                continue;
            }
            let delta = c.median_secs - b.median_secs;
            let band = iqr_band * b.iqr_secs.max(c.iqr_secs);
            let pct = delta / b.median_secs * 100.0;
            if delta > band && pct > min_pct {
                out.push(Regression {
                    key: c.key.clone(),
                    base_secs: b.median_secs,
                    cur_secs: c.median_secs,
                    pct,
                    band_secs: band,
                });
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::stats::*;
    use super::*;

    #[test]
    fn fixtures_build() {
        assert_eq!(hera_xscale().name(), "Hera/XScale");
        assert_eq!(atlas_crusoe().name(), "Atlas/Crusoe");
        let s = synthetic_solver(10).unwrap();
        assert_eq!(s.speeds().len(), 10);
        assert!(s.solve(3.0).is_some());
    }

    #[test]
    fn rounds_run_their_sides_in_abba_order() {
        let calls = std::cell::RefCell::new(String::new());
        let [a, b, c] = rounds(
            4,
            [
                (1, &mut || calls.borrow_mut().push('a')),
                (2, &mut || calls.borrow_mut().push('b')),
                (1, &mut || calls.borrow_mut().push('c')),
            ],
        );
        assert_eq!(calls.into_inner(), "abbccbbaabbccbba");
        assert!([a, b, c].iter().all(|secs| secs.len() == 4));
    }

    #[test]
    fn sign_test_interval_takes_the_binomial_order_statistics() {
        // 30 ratios: the interval is their 10th and 21st.
        let ratios = sorted((1..=30).rev().map(f64::from).collect());
        assert_eq!(sign_test_interval(&ratios), Some((10.0, 21.0)));
        // 6 is the least count with a 95 % interval: [min, max].
        assert_eq!(
            sign_test_interval(&[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
            Some((1.0, 6.0))
        );
        // Below 6 there is none, so no number is reported.
        for n in 0..6 {
            let xs: Vec<f64> = (0..n).map(f64::from).collect();
            assert_eq!(sign_test_interval(&xs), None, "{n} samples");
        }
        // Far past the point where 2^-n underflows, the interval still
        // closes in on the median.
        let many: Vec<f64> = (0..5000).map(f64::from).collect();
        let (lo, hi) = sign_test_interval(&many).unwrap();
        assert!(lo > 2400.0 && hi < 2600.0, "[{lo}, {hi}]");
    }

    #[test]
    fn quartiles_interpolate_linearly() {
        let s = sorted(vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!(s, vec![1.0, 2.0, 3.0, 4.0]);
        let (q1, med, q3) = quartiles_sorted(&s);
        assert_eq!(med, 2.5);
        assert_eq!(q1, 1.75);
        assert_eq!(q3, 3.25);
        // Odd length: the median is the middle element exactly.
        assert_eq!(median_sorted(&[1.0, 2.0, 9.0]), 2.0);
        // Single sample: every quantile is that sample.
        assert_eq!(quartiles_sorted(&[7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn regressions_respect_iqr_band_and_pct_floor() {
        let base = vec![
            StageSample {
                key: "solver/paper_k5".into(),
                median_secs: 1.0,
                iqr_secs: 0.05,
            },
            StageSample {
                key: "sim/fast".into(),
                median_secs: 0.010,
                iqr_secs: 0.004,
            },
        ];
        // 30% slower and far outside 3×IQR: flagged.
        let cur = vec![StageSample {
            key: "solver/paper_k5".into(),
            median_secs: 1.3,
            iqr_secs: 0.05,
        }];
        let r = regressions(&base, &cur, 3.0, 5.0);
        assert_eq!(r.len(), 1);
        assert_eq!(r[0].key, "solver/paper_k5");
        assert!((r[0].pct - 30.0).abs() < 1e-9);

        // 20% slower but inside 3× the (noisy) IQR: not flagged.
        let cur = vec![StageSample {
            key: "sim/fast".into(),
            median_secs: 0.012,
            iqr_secs: 0.004,
        }];
        assert!(regressions(&base, &cur, 3.0, 5.0).is_empty());

        // Outside the IQR band but under the pct floor: not flagged.
        let cur = vec![StageSample {
            key: "solver/paper_k5".into(),
            median_secs: 1.04,
            iqr_secs: 0.001,
        }];
        assert!(regressions(&base, &cur, 3.0, 5.0).is_empty());

        // Stages only on one side are skipped, not errors.
        let cur = vec![StageSample {
            key: "new/stage".into(),
            median_secs: 9.0,
            iqr_secs: 0.0,
        }];
        assert!(regressions(&base, &cur, 3.0, 5.0).is_empty());
    }
}
