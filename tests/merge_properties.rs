//! Property tests of the shard-merge algebra behind the parallel sweep
//! and Monte Carlo reductions: merging per-shard `Stats` / `HistogramSketch`
//! aggregates, or flushing them into a registry, must equal a single pass
//! over the concatenated data, for *any* partition. This is the
//! invariant that makes the parallel reductions thread-count independent.

use proptest::prelude::*;
use rexec::obs::{HistogramSketch, Registry};
use rexec::sim::Stats;

/// Positive, finite sample values in a range the default histogram
/// resolution covers comfortably.
fn arb_values() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(1e-3..1e6f64, 1..300)
}

/// Splits `values` at `cut` (scaled into range) into two shards.
fn split(values: &[f64], cut: usize) -> (&[f64], &[f64]) {
    values.split_at(cut % (values.len() + 1))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `Stats::merge` of two shards equals one pass over the
    /// concatenation: counts and extremes exactly, moments to float
    /// tolerance (Chan et al.'s pairwise update reorders the additions).
    #[test]
    fn stats_merge_of_shards_equals_single_pass(
        values in arb_values(),
        cut in 0usize..301,
    ) {
        let (left, right) = split(&values, cut);
        let mut a = Stats::new();
        left.iter().for_each(|&v| a.push(v));
        let mut b = Stats::new();
        right.iter().for_each(|&v| b.push(v));
        a.merge(&b);

        let mut all = Stats::new();
        values.iter().for_each(|&v| all.push(v));

        prop_assert_eq!(a.count(), all.count());
        prop_assert_eq!(a.min(), all.min());
        prop_assert_eq!(a.max(), all.max());
        let mean_tol = 1e-12 * all.mean().abs().max(1.0);
        prop_assert!(
            (a.mean() - all.mean()).abs() <= mean_tol,
            "mean {} vs {}", a.mean(), all.mean()
        );
        if all.count() >= 2 {
            let var_tol = 1e-9 * all.variance().abs().max(1e-12);
            prop_assert!(
                (a.variance() - all.variance()).abs() <= var_tol,
                "variance {} vs {}", a.variance(), all.variance()
            );
        }
    }

    /// Merging any k-shard partition in order equals the single pass —
    /// the shape of the reduction tree must not matter for counts.
    #[test]
    fn stats_merge_is_partition_independent(
        values in arb_values(),
        shards in 1usize..8,
    ) {
        let chunk = values.len().div_ceil(shards);
        let mut merged = Stats::new();
        for c in values.chunks(chunk) {
            let mut s = Stats::new();
            c.iter().for_each(|&v| s.push(v));
            merged.merge(&s);
        }
        let mut all = Stats::new();
        values.iter().for_each(|&v| all.push(v));
        prop_assert_eq!(merged.count(), all.count());
        prop_assert_eq!(merged.min(), all.min());
        prop_assert_eq!(merged.max(), all.max());
        prop_assert!((merged.mean() - all.mean()).abs() <= 1e-12 * all.mean().abs().max(1.0));
    }

    /// `HistogramSketch::merge_from` is *exact*: bucket counts are
    /// integers, so a merge of shards equals single-pass recording
    /// bit-for-bit — counts, extremes and every quantile. Checked for the
    /// registry's default sketch and for the (1e-3, 1 %, 1e12) sketch
    /// `MonteCarlo::run_with_histograms` records outcomes into.
    #[test]
    fn histogram_merge_of_shards_equals_single_pass(
        values in arb_values(),
        cut in 0usize..301,
    ) {
        let (left, right) = split(&values, cut);
        let sketches: [fn() -> HistogramSketch; 2] = [
            HistogramSketch::with_default_resolution,
            || HistogramSketch::new(1e-3, 0.01, 1e12),
        ];
        for sketch in sketches {
            let a = sketch();
            left.iter().for_each(|&v| a.record(v));
            let b = sketch();
            right.iter().for_each(|&v| b.record(v));
            a.merge_from(&b);

            let all = sketch();
            values.iter().for_each(|&v| all.record(v));

            prop_assert_eq!(a.count(), all.count());
            prop_assert_eq!(a.min(), all.min());
            prop_assert_eq!(a.max(), all.max());
            for q in [0.0, 0.01, 0.25, 0.5, 0.75, 0.95, 0.99, 1.0] {
                prop_assert_eq!(a.quantile(q), all.quantile(q), "q = {}", q);
            }
        }
    }
}

/// Records (counter-increment, sketch-sample) events into `registry`.
/// Uses a handful of metric names so the events exercise both repeated
/// and disjoint keys.
fn record(registry: &Registry, events: &[(u32, f64)]) {
    for &(tag, v) in events {
        match tag % 4 {
            0 => registry.counter("events.a").incr(),
            1 => registry.counter("events.b").add(u64::from(tag) + 1),
            2 => registry.sketch("lat.a").record(v),
            _ => registry.sketch("lat.b").record(v),
        }
    }
}

/// The deterministic snapshot of a fresh registry after recording each
/// partition in turn.
fn snapshot(parts: &[&[(u32, f64)]]) -> String {
    let registry = Registry::new();
    for part in parts {
        record(&registry, part);
    }
    serde_json::to_string(&registry.deterministic_value()).unwrap()
}

/// The default-resolution sketch of a partition's samples.
fn sketch_from(events: &[(u32, f64)]) -> HistogramSketch {
    let sketch = HistogramSketch::with_default_resolution();
    events.iter().for_each(|&(_, v)| sketch.record(v));
    sketch
}

fn arb_events() -> impl Strategy<Value = Vec<(u32, f64)>> {
    proptest::collection::vec((any::<u32>(), 1e-3..1e6f64), 0..200)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Flushing two partitions into the registry commutes: counters are
    /// u64 addition and sketch buckets exact integer counts, so the
    /// deterministic snapshot — every sketch quantile included — is
    /// byte-identical whichever partition lands first.
    #[test]
    fn shard_merge_is_commutative(
        xs in arb_events(),
        ys in arb_events(),
    ) {
        prop_assert_eq!(snapshot(&[&xs, &ys]), snapshot(&[&ys, &xs]));
    }

    /// `HistogramSketch::merge_from` is associative:
    /// `(a ∪ b) ∪ c == a ∪ (b ∪ c)`, so the fold order of per-worker
    /// sketches (`MonteCarlo::run_with_histograms`) cannot change the
    /// aggregate.
    #[test]
    fn shard_merge_is_associative(
        xs in arb_events(),
        ys in arb_events(),
        zs in arb_events(),
    ) {
        let (a, b, c) = (sketch_from(&xs), sketch_from(&ys), sketch_from(&zs));
        let left = a.clone();
        left.merge_from(&b);
        left.merge_from(&c);
        b.merge_from(&c);
        a.merge_from(&b);
        prop_assert_eq!(&left, &a);
        prop_assert_eq!(
            serde_json::to_string(&left).unwrap(),
            serde_json::to_string(&a).unwrap()
        );
    }

    /// An empty partition is the identity on both sides, in the registry
    /// and in a sketch merge.
    #[test]
    fn shard_merge_empty_identity(xs in arb_events()) {
        let alone = snapshot(&[&xs]);
        prop_assert_eq!(&snapshot(&[&xs, &[]]), &alone);
        prop_assert_eq!(&snapshot(&[&[], &xs]), &alone);
        let s = sketch_from(&xs);
        let merged = s.empty_like();
        merged.merge_from(&s);
        merged.merge_from(&s.empty_like());
        prop_assert_eq!(&merged, &s);
    }
}
