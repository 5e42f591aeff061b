//! The benchmark's own arithmetic: quantiles with their sample counts,
//! due-time latency, generator lateness, backlog detection, residuals,
//! the choice of undisturbed samples, and request-stream digests. All of
//! it but the `/proc/stat` reading is pure, so it is tested without a
//! daemon.

/// Linear-interpolation quantile (type 7, as R and numpy default) of
/// ascending data. `q` is clamped to `[0, 1]`; an empty slice gives NaN.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of unsorted data (NaN when empty).
pub fn median(xs: &[f64]) -> f64 {
    Dist::of(xs.to_vec()).p50
}

/// A latency or cost distribution: median, 99th percentile and the
/// number of samples both were taken from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dist {
    /// Median.
    pub p50: f64,
    /// 99th percentile. Only meaningful with at least 1000 samples (ten
    /// beyond it); the count is reported next to it for that reason.
    pub p99: f64,
    /// Number of samples.
    pub count: usize,
}

impl Dist {
    /// Summarizes `xs` (consumed and sorted).
    pub fn of(mut xs: Vec<f64>) -> Dist {
        xs.sort_by(f64::total_cmp);
        Dist {
            p50: quantile(&xs, 0.5),
            p99: quantile(&xs, 0.99),
            count: xs.len(),
        }
    }
}

/// Latency of one open-loop request, in milliseconds, timed from when
/// the request was *due* (not when the generator got round to sending
/// it), so a stall is charged to every request queued behind it. Both
/// instants are nanoseconds since the phase started.
pub fn due_latency_ms(due_ns: u64, answered_ns: u64) -> f64 {
    answered_ns.saturating_sub(due_ns) as f64 / 1e6
}

/// How late the generator sent a request, in milliseconds.
pub fn lateness_ms(due_ns: u64, sent_ns: u64) -> f64 {
    sent_ns.saturating_sub(due_ns) as f64 / 1e6
}

/// Whether the answered rate fell behind the offered rate by more than
/// 2 %, i.e. the backlog grew during the phase. `last_due_ns` is when
/// the final request was due, `last_answer_ns` when it was answered.
pub fn backlog_grew(requests: usize, last_due_ns: u64, last_answer_ns: u64) -> bool {
    if requests < 2 || last_due_ns == 0 {
        return false;
    }
    let offered = requests as f64 / last_due_ns as f64;
    let answered = requests as f64 / last_answer_ns.max(1) as f64;
    answered < 0.98 * offered
}

/// `total` minus the sum of the measured `parts`: the time no measured
/// layer accounts for. Negative when the parts over-count the total,
/// which the caller treats as an attribution failure.
pub fn residual(total: f64, parts: &[f64]) -> f64 {
    total - parts.iter().sum::<f64>()
}

/// CPU time the hypervisor stole from this machine, as a share of all
/// CPU time, between two readings of `/proc/stat` (its `steal` column).
#[derive(Debug, Clone, Copy)]
pub struct Steal {
    steal: u64,
    total: u64,
}

impl Steal {
    /// Reads the counters now (zeros where `/proc/stat` is unreadable).
    pub fn now() -> Steal {
        let text = std::fs::read_to_string("/proc/stat").unwrap_or_default();
        let ticks: Vec<u64> = text
            .lines()
            .next()
            .unwrap_or("")
            .split_whitespace()
            .skip(1)
            .take(8)
            .filter_map(|t| t.parse().ok())
            .collect();
        Steal {
            steal: ticks.get(7).copied().unwrap_or(0),
            total: ticks.iter().sum(),
        }
    }

    /// Share of CPU time stolen since `self` was read.
    pub fn share_since(self) -> f64 {
        let now = Steal::now();
        let total = now.total.saturating_sub(self.total);
        now.steal.saturating_sub(self.steal) as f64 / total.max(1) as f64
    }
}

/// Indices of the samples taken while the hypervisor left the machine
/// alone: those with a stolen share at most `CALM_STEAL`, or, when fewer
/// than a quarter of them were, the calmest quarter. A sample taken while
/// the host ran its other guests measures them, not this program: on a
/// 2-vCPU VM the wall time of an `experiments` run rose with the share
/// stolen during it (correlation 0.79 over 50 runs), and a median over
/// more than the calmest quarter lets that in whenever the host is busy
/// for most of a run.
pub fn calm(stolen: &[f64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..stolen.len()).collect();
    order.sort_by(|&a, &b| stolen[a].total_cmp(&stolen[b]));
    let quiet = order.iter().filter(|&&i| stolen[i] <= CALM_STEAL).count();
    order.truncate(quiet.max(stolen.len().div_ceil(4)));
    order.sort_unstable();
    order
}

/// Median of the samples `xs[i]` for `i` in `keep`.
pub fn median_at(xs: &[f64], keep: &[usize]) -> f64 {
    median(&keep.iter().map(|&i| xs[i]).collect::<Vec<_>>())
}

/// Stolen CPU share up to which a sample counts as undisturbed.
pub const CALM_STEAL: f64 = 0.02;

/// 64-bit FNV-1a digest of a byte stream, as `fnv1a:<16 hex>` (the
/// repository's digest spelling), recorded for every request stream so
/// two runs can be shown to have offered identical input.
pub fn fnv1a(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("fnv1a:{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_and_carry_counts() {
        let d = Dist::of(vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!(d.count, 4);
        assert_eq!(d.p50, 2.5);
        assert!((d.p99 - 3.97).abs() < 1e-12);
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        let d = Dist::of(xs);
        assert_eq!(d.count, 1000);
        assert_eq!(d.p50, 500.5);
        assert!((d.p99 - 990.01).abs() < 1e-9);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
        assert!(quantile(&[], 0.5).is_nan());
        assert_eq!(Dist::of(vec![]).count, 0);
    }

    #[test]
    fn quantiles_match_statistics_quantiles_inclusive() {
        // Python: statistics.quantiles([1, 2, 4, 8, 16], n=4,
        // method="inclusive") == [2.0, 4.0, 8.0].
        let xs = [1.0, 2.0, 4.0, 8.0, 16.0];
        assert_eq!(quantile(&xs, 0.25), 2.0);
        assert_eq!(quantile(&xs, 0.5), 4.0);
        assert_eq!(quantile(&xs, 0.75), 8.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn latency_is_timed_from_the_due_time() {
        // Requests due every 1 ms; the generator stalls 5 ms before
        // sending the first, and each answer takes 0.1 ms after sending.
        let due: Vec<u64> = (0..5).map(|i| i * 1_000_000).collect();
        let sent: Vec<u64> = due.iter().map(|&d| d.max(5_000_000)).collect();
        let answered: Vec<u64> = sent.iter().map(|&s| s + 100_000).collect();
        let lat: Vec<f64> = due
            .iter()
            .zip(&answered)
            .map(|(&d, &a)| due_latency_ms(d, a))
            .collect();
        // The stall is charged to every request queued behind it...
        assert_eq!(lat, vec![5.1, 4.1, 3.1, 2.1, 1.1]);
        // ...while timing from the send instant would hide it.
        let from_send: Vec<f64> = sent
            .iter()
            .zip(&answered)
            .map(|(&s, &a)| due_latency_ms(s, a))
            .collect();
        assert!(from_send.iter().all(|&l| (l - 0.1).abs() < 1e-12));
        let lag: Vec<f64> = due
            .iter()
            .zip(&sent)
            .map(|(&d, &s)| lateness_ms(d, s))
            .collect();
        assert_eq!(lag, vec![5.0, 4.0, 3.0, 2.0, 1.0]);
        // An answer stamped before its due time (clock skew) is 0, not
        // a wrapped-around huge value.
        assert_eq!(due_latency_ms(10, 5), 0.0);
    }

    #[test]
    fn backlog_is_flagged_only_when_answers_fall_behind() {
        // 1000 requests offered over 1 s, last answered 1 ms late: fine.
        assert!(!backlog_grew(1000, 1_000_000_000, 1_001_000_000));
        // Last answered 0.5 s late: answered rate 667/s < 98% of 1000/s.
        assert!(backlog_grew(1000, 1_000_000_000, 1_500_000_000));
        // Back-to-back phases (everything due at 0) are never flagged.
        assert!(!backlog_grew(1000, 0, 7));
    }

    #[test]
    fn residuals_subtract_the_measured_layers() {
        assert_eq!(residual(10.0, &[2.0, 3.0, 1.5]), 3.5);
        assert_eq!(residual(4.0, &[]), 4.0);
        assert!(residual(1.0, &[0.75, 0.5]) < 0.0);
    }

    #[test]
    fn calm_samples_drop_the_stolen_ones() {
        // Mostly quiet: every sample at or under the threshold stays.
        assert_eq!(calm(&[0.0, 0.3, 0.01, 0.02, 0.0]), vec![0, 2, 3, 4]);
        // A quarter quiet: only the quiet ones stay.
        assert_eq!(calm(&[0.3, 0.0, 0.2, 0.1, 0.4, 0.5, 0.02, 0.6]), vec![1, 6]);
        // Mostly stolen: the calmest quarter stays, in sample order.
        assert_eq!(calm(&[0.0, 0.3, 0.2, 0.1, 0.4, 0.5, 0.6, 0.7]), vec![0, 3]);
        assert_eq!(calm(&[0.2, 0.05, 0.4, 0.1]), vec![1]);
        assert_eq!(calm(&[0.5]), vec![0]);
        assert_eq!(median_at(&[9.0, 1.0, 5.0, 3.0], &[1, 3]), 2.0);
        assert!(calm(&[]).is_empty());
        // The meter itself reads a share in [0, 1].
        let share = Steal::now().share_since();
        assert!((0.0..=1.0).contains(&share));
    }

    #[test]
    fn digest_matches_the_harness_spelling() {
        assert_eq!(fnv1a(b""), "fnv1a:cbf29ce484222325");
        assert_eq!(fnv1a(b"a"), "fnv1a:af63dc4c8601ec8c");
        assert_ne!(fnv1a(b"ab"), fnv1a(b"ba"));
    }
}
