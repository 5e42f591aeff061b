//! Parameter quantization and the canonical table key.
//!
//! The plan cache must never return an answer that differs from a fresh
//! solve — not even in the last bit. The way to make that trivially true
//! is to quantize *before* solving: every query's parameters are snapped
//! to a coarser float grid first, the solver only ever sees quantized
//! values, and the cache key is exactly the solver input. A hit and a
//! recomputation are then the same pure function of the same bits.
//!
//! Quantization masks the low [`MANTISSA_DROP_BITS`] bits of the
//! mantissa, a relative step of ~1.5e-8 — far below the model's
//! parameter uncertainty (platform λ/C/V are three-significant-digit
//! measurements) and far above f64 noise from client-side unit
//! conversions, so near-identical re-queries coalesce onto one plan.

use rexec_core::{BiCritSolver, PowerModel, ResilienceCosts, SilentModel, SpeedSet};
use rexec_harness::Digest;
use std::sync::Arc;

/// Low mantissa bits dropped by [`quantize`]: 2^-26 relative step.
pub const MANTISSA_DROP_BITS: u32 = 26;

const MANTISSA_MASK: u64 = !((1u64 << MANTISSA_DROP_BITS) - 1);

/// FNV-1a over 64-bit words (same constants as the byte-wise
/// [`rexec_harness::Digest`], one multiply per word instead of eight —
/// this runs per query on the cache hit path).
const FNV_OFFSET: u64 = 0xcbf29ce484222325;
const FNV_PRIME: u64 = 0x100000001b3;

/// The smallest nonzero grid magnitude: the subnormal whose only set
/// bit is the lowest one [`quantize`] keeps.
const MIN_GRID: u64 = 1u64 << MANTISSA_DROP_BITS;

/// Snaps a parameter onto the quantization grid (truncation toward zero
/// in the mantissa). Strictly positive values stay strictly positive;
/// zero stays zero; NaN stays NaN; the function is monotone, so a
/// sorted speed list stays sorted.
///
/// Two edge strata need explicit handling, both NaN-hole siblings of
/// the `ensure_completes` guard fix:
///
/// * a nonzero **subnormal** whose set mantissa bits all sit in the
///   dropped range would truncate to `±0.0` — collapsing a strictly
///   positive validated parameter to zero and panicking
///   `TableParams::to_solver` on a crafted query. Such values snap *up*
///   to the smallest nonzero grid point of their sign instead;
/// * a **NaN** with its payload in the dropped bits would masquerade as
///   `±∞` after masking. NaN passes through unchanged (callers validate
///   finiteness; the grid must not manufacture infinities from it).
#[inline]
pub fn quantize(x: f64) -> f64 {
    if x.is_nan() {
        return x;
    }
    let q = f64::from_bits(x.to_bits() & MANTISSA_MASK);
    if q == 0.0 && x != 0.0 {
        return f64::from_bits((x.to_bits() & (1u64 << 63)) | MIN_GRID);
    }
    q
}

#[inline]
fn fnv_word(state: u64, word: u64) -> u64 {
    (state ^ word).wrapping_mul(FNV_PRIME)
}

/// The canonical, quantized parameter set of one candidate table: the
/// full solver identity (model costs, power, speed set). Two queries
/// with the same `TableParams` share a solver, a digest, and cache
/// entries; any differing bit separates them.
#[derive(Debug, Clone, PartialEq)]
pub struct TableParams {
    /// Silent-error rate λ (1/s), quantized.
    pub lambda: f64,
    /// Checkpoint cost C (s), quantized.
    pub checkpoint: f64,
    /// Verification cost V (s), quantized.
    pub verification: f64,
    /// Recovery cost R (s), quantized.
    pub recovery: f64,
    /// Cube-law coefficient κ (mW), quantized.
    pub kappa: f64,
    /// Static power Pidle (mW), quantized.
    pub p_idle: f64,
    /// I/O power Pio (mW), quantized.
    pub p_io: f64,
    /// Sorted, deduplicated, quantized speed set, shared by every clone
    /// (each cached plan holds its table's params, not a copy of them).
    pub speeds: Arc<[f64]>,
}

impl TableParams {
    /// Canonicalizes a validated model: every scalar quantized, speeds
    /// re-deduplicated after quantization (two near-equal speeds may
    /// land on the same grid point). Quantization is monotone, so such
    /// duplicates are adjacent, and rare enough to pay a second
    /// allocation.
    pub fn new(model: &SilentModel, speeds: &SpeedSet) -> TableParams {
        let mut qs: Arc<[f64]> = speeds.values().iter().copied().map(quantize).collect();
        if qs.windows(2).any(|w| w[0] == w[1]) {
            let mut deduped = qs.to_vec();
            deduped.dedup();
            qs = deduped.into();
        }
        TableParams {
            lambda: quantize(model.lambda),
            checkpoint: quantize(model.costs.checkpoint),
            verification: quantize(model.costs.verification),
            recovery: quantize(model.costs.recovery),
            kappa: quantize(model.power.kappa),
            p_idle: quantize(model.power.p_idle),
            p_io: quantize(model.power.p_io),
            speeds: qs,
        }
    }

    fn scalar_words(&self) -> [u64; 7] {
        [
            self.lambda.to_bits(),
            self.checkpoint.to_bits(),
            self.verification.to_bits(),
            self.recovery.to_bits(),
            self.kappa.to_bits(),
            self.p_idle.to_bits(),
            self.p_io.to_bits(),
        ]
    }

    /// Fast 64-bit FNV-1a over the parameter words — the cache-shard
    /// and bucket key. Lookups additionally compare the full params, so
    /// a hash collision can never return a wrong plan. Quantized words
    /// have their low [`MANTISSA_DROP_BITS`] bits clear and an FNV step
    /// carries low bits only into low bits, so the hash's low bits
    /// depend on the speed count alone.
    pub fn hash64(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for w in self.scalar_words() {
            h = fnv_word(h, w);
        }
        h = fnv_word(h, self.speeds.len() as u64);
        for &s in self.speeds.iter() {
            h = fnv_word(h, s.to_bits());
        }
        h
    }

    /// The table digest in the harness's `fnv1a:<16 hex>` form — the
    /// byte-wise [`rexec_harness::Digest`] over the canonical little-
    /// endian encoding, reported in every wire response so clients can
    /// tell which platform table answered them.
    pub fn digest(&self) -> String {
        let mut d = Digest::new();
        for w in self.scalar_words() {
            d.update(&w.to_le_bytes());
        }
        d.update(&(self.speeds.len() as u64).to_le_bytes());
        for &s in self.speeds.iter() {
            d.update(&s.to_bits().to_le_bytes());
        }
        d.finish()
    }

    /// Bit-exact equality (the cache's collision guard).
    pub fn same(&self, other: &TableParams) -> bool {
        self.scalar_words() == other.scalar_words()
            && self.speeds.len() == other.speeds.len()
            && self
                .speeds
                .iter()
                .zip(other.speeds.iter())
                .all(|(a, b)| a.to_bits() == b.to_bits())
    }

    /// Builds the solver for this table. Quantization preserves the
    /// constructors' domains (positive normals stay positive, zero
    /// stays zero), so this cannot fail on params that came from a
    /// validated [`SilentModel`].
    pub fn to_solver(&self) -> BiCritSolver {
        let model = SilentModel::new(
            self.lambda,
            ResilienceCosts::new(self.checkpoint, self.verification, self.recovery)
                .expect("quantization preserves cost validity"),
            PowerModel::new(self.kappa, self.p_idle, self.p_io)
                .expect("quantization preserves power validity"),
        )
        .expect("quantization preserves model validity");
        let speeds =
            SpeedSet::new(self.speeds.to_vec()).expect("quantization preserves speed validity");
        BiCritSolver::new(model, speeds)
    }
}

/// Mixes a table hash with a quantized ρ into the plan-cache key hash
/// (its low bits, like the table hash's, depend on the speed count
/// alone).
#[inline]
pub fn plan_hash(table_hash: u64, rho: f64) -> u64 {
    fnv_word(table_hash, rho.to_bits())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(lambda: f64) -> TableParams {
        let model = SilentModel::new(
            lambda,
            ResilienceCosts::new(300.0, 15.4, 300.0).unwrap(),
            PowerModel::new(1550.0, 60.0, 5.23).unwrap(),
        )
        .unwrap();
        let speeds = SpeedSet::new(vec![0.15, 0.4, 0.6, 0.8, 1.0]).unwrap();
        TableParams::new(&model, &speeds)
    }

    #[test]
    fn quantize_is_idempotent_monotone_and_sign_preserving() {
        for x in [3.38e-6, 300.0, 0.15, 1.0, 1e12, 5.23] {
            let q = quantize(x);
            assert!(q > 0.0);
            assert!(q <= x, "truncation never increases magnitude");
            assert_eq!(quantize(q), q, "idempotent");
            assert!((x - q) / x < 2.0f64.powi(-(MANTISSA_DROP_BITS as i32) + 1));
        }
        assert_eq!(quantize(0.0), 0.0);
        assert!(quantize(0.4) <= quantize(0.6));
    }

    #[test]
    fn quantize_never_collapses_nonzero_to_zero() {
        // Regression: positive subnormals whose mantissa bits all sat in
        // the dropped range quantized to 0.0, and TableParams::to_solver
        // then panicked on "quantization preserves model validity" — a
        // crafted query could kill the daemon.
        let tiny = f64::from_bits(1);
        assert!(quantize(tiny) > 0.0);
        assert!(quantize(-tiny) < 0.0);
        assert_eq!(quantize(0.0).to_bits(), 0.0f64.to_bits());
        assert_eq!(quantize(-0.0).to_bits(), (-0.0f64).to_bits());
        assert!(quantize(f64::NAN).is_nan());
        // A NaN with a low-bits-only payload must not become infinity.
        let payload_nan = f64::from_bits(0x7ff0_0000_0000_0001);
        assert!(quantize(payload_nan).is_nan());
        assert_eq!(quantize(f64::INFINITY), f64::INFINITY);
        assert_eq!(quantize(f64::NEG_INFINITY), f64::NEG_INFINITY);
    }

    #[test]
    fn subnormal_lambda_still_builds_a_solver() {
        // End-to-end form of the regression above: a validated model with
        // a subnormal rate must survive canonicalization + solver build.
        let model = SilentModel::new(
            f64::from_bits(3),
            ResilienceCosts::new(300.0, 15.4, 300.0).unwrap(),
            PowerModel::new(1550.0, 60.0, 5.23).unwrap(),
        )
        .unwrap();
        let speeds = SpeedSet::new(vec![0.15, 1.0]).unwrap();
        let t = TableParams::new(&model, &speeds);
        assert!(t.lambda > 0.0);
        let solver = t.to_solver();
        assert!(solver.model().lambda > 0.0);
    }

    #[test]
    fn quantize_properties_over_random_bit_patterns() {
        // Hand-rolled deterministic property sweep over raw bit patterns
        // (xorshift64*, no external proptest dependency): sign and
        // zero-ness preserved, idempotent, monotone, and normal-range
        // relative error bounded by the grid step.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..50_000 {
            let x = f64::from_bits(next());
            if x.is_nan() {
                assert!(quantize(x).is_nan());
                continue;
            }
            let q = quantize(x);
            assert_eq!(q.is_sign_negative(), x.is_sign_negative(), "x = {x:e}");
            assert_eq!(q == 0.0, x == 0.0, "zero-ness must be exact, x = {x:e}");
            assert_eq!(quantize(q).to_bits(), q.to_bits(), "idempotent, x = {x:e}");
            if x.is_finite() && x.abs() >= f64::MIN_POSITIVE {
                let rel = (q - x).abs() / x.abs();
                assert!(
                    rel <= 2.0f64.powi(-(MANTISSA_DROP_BITS as i32)),
                    "x = {x:e}: rel {rel:e}"
                );
            }
            let y = f64::from_bits(next());
            if !y.is_nan() && x <= y {
                assert!(
                    quantize(x) <= quantize(y),
                    "monotonicity: {x:e} <= {y:e} but {:e} > {:e}",
                    quantize(x),
                    quantize(y)
                );
            }
        }
    }

    #[test]
    fn nearby_params_coalesce_and_distant_params_split() {
        let a = table(3.38e-6);
        let b = table(3.38e-6 * (1.0 + 1e-12)); // sub-grid perturbation
        let c = table(3.39e-6); // a real parameter change
        assert!(a.same(&b));
        assert_eq!(a.hash64(), b.hash64());
        assert_eq!(a.digest(), b.digest());
        assert!(!a.same(&c));
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn speeds_that_meet_on_the_grid_are_deduplicated() {
        let model = SilentModel::new(
            3.38e-6,
            ResilienceCosts::new(300.0, 15.4, 300.0).unwrap(),
            PowerModel::new(1550.0, 60.0, 5.23).unwrap(),
        )
        .unwrap();
        let speeds = SpeedSet::new(vec![0.5, 0.5 * (1.0 + 1e-12), 1.0]).unwrap();
        let t = TableParams::new(&model, &speeds);
        assert_eq!(&t.speeds[..], &[quantize(0.5), 1.0]);
    }

    #[test]
    fn digest_uses_the_harness_format() {
        let d = table(3.38e-6).digest();
        assert!(d.starts_with("fnv1a:") && d.len() == "fnv1a:".len() + 16);
    }

    #[test]
    fn solver_round_trip_matches_quantized_model() {
        let t = table(3.38e-6);
        let solver = t.to_solver();
        assert_eq!(solver.model().lambda, t.lambda);
        assert_eq!(solver.speeds().values(), &t.speeds[..]);
    }

    #[test]
    fn plan_hash_separates_rho() {
        let h = table(3.38e-6).hash64();
        assert_ne!(plan_hash(h, 3.0), plan_hash(h, 1.775));
    }
}
