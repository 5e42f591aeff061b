//! Deterministic random-number generation for the simulator.
//!
//! A thin wrapper around ChaCha8 (fast, high-quality, reproducible across
//! platforms) exposing exactly the draws the engine needs: exponential
//! inter-arrival times of the two Poisson error processes. Seed-splitting
//! derives independent streams from a master seed so that a parallel
//! Monte Carlo run is bit-identical to a sequential one.
//!
//! Two stream granularities exist, in disjoint stream-id namespaces:
//!
//! * [`SimRng::for_trial`] — one stream per trial (stream ids
//!   `1..=trials`), used by the bit-reproducible reference engine,
//!   which derives them sixteen at a time ([`SimRng::for_trials`]);
//! * [`SimRng::for_chunk`] — one stream per fixed-size trial *chunk*
//!   (stream ids `2⁶³ | chunk`), used by the fast path so the cipher
//!   setup is amortized over a whole chunk instead of paid per trial.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Stream-id namespace tag for chunk streams: chunk streams live in the
/// top half of the 64-bit stream space, trial streams (`index + 1`) in
/// the bottom half, so the two granularities never collide for the same
/// master seed.
const CHUNK_STREAM_BASE: u64 = 1 << 63;

/// Trial streams [`SimRng::for_trials`] derives per call.
pub const TRIAL_LANES: usize = rand_chacha::LANES;

/// Simulator RNG: reproducible, splittable.
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: ChaCha8Rng,
}

impl SimRng {
    /// Creates an RNG from a master seed.
    pub fn new(seed: u64) -> Self {
        SimRng {
            inner: ChaCha8Rng::seed_from_u64(seed),
        }
    }

    /// Derives an independent stream for trial `index` from `seed`.
    ///
    /// Uses ChaCha's stream separation (the 64-bit nonce words of the
    /// cipher state) rather than seed arithmetic, so streams never
    /// overlap regardless of how much each trial consumes: two streams
    /// with different nonces generate disjoint keystreams for the whole
    /// 2⁶⁴-block counter range.
    ///
    /// **Cost cliff**: every call builds a fresh cipher — a 32-byte key
    /// expansion from `seed` plus a scalar block generation on first
    /// draw (~70 ns with that draw, on an AVX-512 x86-64 core). That is
    /// fine once per *trial*; it is a cost cliff if paid per *draw*, and
    /// it is exactly the per-trial setup the chunked
    /// [`for_chunk`](Self::for_chunk) streams amortize away in the
    /// simulator fast path. [`for_trials`](Self::for_trials) derives
    /// sixteen trial streams at once for ~22 ns each, first draw
    /// included, on the same core.
    #[inline]
    pub fn for_trial(seed: u64, index: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        rng.set_stream(index.wrapping_add(1));
        SimRng { inner: rng }
    }

    /// The streams of the [`TRIAL_LANES`] trials `first`, `first + 1`, …
    /// — lane `l` bit-identical to `for_trial(seed, first + l)` — from
    /// one key expansion and one lane-parallel pass that generates every
    /// stream's first block.
    pub fn for_trials(seed: u64, first: u64) -> [Self; TRIAL_LANES] {
        ChaCha8Rng::seed_from_u64(seed)
            .stream_heads(first.wrapping_add(1))
            .map(|inner| SimRng { inner })
    }

    /// Derives an independent stream for trial-chunk `chunk` from `seed`.
    ///
    /// One cipher serves every trial of the chunk, so the per-trial setup
    /// cost of [`for_trial`](Self::for_trial) is paid once per chunk.
    /// Chunk streams are tagged into the top half of the stream-id space
    /// (`CHUNK_STREAM_BASE`); trial streams use `1..=trials`, so the
    /// two namespaces are disjoint for any realistic trial count
    /// (`< 2⁶³`), and distinct chunks get distinct nonces — their
    /// keystreams never overlap no matter how many draws a chunk makes.
    #[inline]
    pub fn for_chunk(seed: u64, chunk: u64) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        rng.set_stream(CHUNK_STREAM_BASE | chunk);
        SimRng { inner: rng }
    }

    /// Uniform draw in `(0, 1]` (never exactly 0, so `ln` is finite).
    #[inline]
    pub fn uniform_open(&mut self) -> f64 {
        // `random::<f64>()` is in [0, 1); flip to (0, 1].
        1.0 - self.inner.random::<f64>()
    }

    /// Fills `out` with uniform draws in `(0, 1]`, bit-identical in
    /// value and order to repeated [`uniform_open`](Self::uniform_open)
    /// calls (pinned by test). Draws the raw `u64`s through the cipher's
    /// lane-parallel bulk path — whole keystream blocks generated SIMD
    /// side by side — and applies the same 53-bit mapping `rand` uses,
    /// so bulk consumers skip both the per-call cipher machinery and the
    /// scalar one-block-at-a-time keystream.
    #[inline]
    pub fn fill_uniform(&mut self, out: &mut [f64]) {
        let mut words = [0u64; 128];
        for span in out.chunks_mut(words.len()) {
            let words = &mut words[..span.len()];
            self.inner.fill_u64(words);
            for (slot, &w) in span.iter_mut().zip(words.iter()) {
                // `random::<f64>()` is (w >> 11)·2⁻⁵³ ∈ [0, 1); flip to
                // (0, 1] — identical to `uniform_open` per draw.
                *slot = 1.0 - (w >> 11) as f64 * (1.0 / (1u64 << 53) as f64);
            }
        }
    }

    /// Exponential draw with rate `lambda` (mean `1/λ`).
    ///
    /// Returns `+∞` for `lambda ≤ 0` — an error source that never fires.
    #[inline]
    pub fn exponential(&mut self, lambda: f64) -> f64 {
        if lambda <= 0.0 {
            return f64::INFINITY;
        }
        -self.uniform_open().ln() / lambda
    }
}

/// Buffered view over one RNG stream: draws come from a small local
/// array refilled in batches via [`SimRng::fill_uniform`], so the hot
/// loop touches the cipher once per [`UniformStream::BUF`] draws instead
/// of once per draw. Each refill also precomputes the natural log of the
/// whole batch in one [`crate::fastmath::ln_sweep`] pass — a vectorized
/// slice transform instead of a scalar libm call per draw — so the
/// inverse-CDF samplers read `(u, ln u)` pairs at buffer-indexing cost
/// via [`Draws::next_uniform_ln`]. Unconsumed buffered
/// draws are simply discarded when the stream is dropped — each chunk
/// owns its whole stream, so no other consumer ever observes the gap.
#[derive(Debug)]
pub struct UniformStream {
    rng: SimRng,
    buf: [f64; Self::BUF],
    ln_buf: [f64; Self::BUF],
    pos: usize,
    /// Draws below this index have their logs materialized in `ln_buf`.
    /// The log sweep runs a [`Self::SWEEP`]-slot stripe at a time, so a
    /// chunk that stops mid-buffer (every chunk does, eventually) pays
    /// for at most one partial stripe of unread logs instead of a full
    /// buffer's worth.
    swept: usize,
}

impl UniformStream {
    /// Draws buffered per refill: one lane-parallel cipher group
    /// (sixteen 16-word blocks = 128 `u64` draws), so every refill is a
    /// single full-width bulk generation.
    pub const BUF: usize = 128;

    /// Log-sweep stripe width: wide enough that the sweep runs at full
    /// SIMD throughput, narrow enough that the logs wasted on a stream's
    /// final partial stripe stay small.
    const SWEEP: usize = 32;

    /// Wraps an RNG stream (typically [`SimRng::for_chunk`]).
    pub fn new(rng: SimRng) -> Self {
        UniformStream {
            rng,
            buf: [0.0; Self::BUF],
            ln_buf: [0.0; Self::BUF],
            pos: Self::BUF,
            swept: Self::BUF,
        }
    }

    /// Out-of-line on purpose: with the bulk generation and log sweep
    /// forced cold, the per-draw accessors shrink to a compare and two
    /// loads, small enough to inline into the sampling loops (inlined
    /// `refill` bodies previously dragged the whole cipher into the
    /// accessors and pushed them past the inlining threshold, costing a
    /// real call per draw).
    #[cold]
    #[inline(never)]
    fn advance(&mut self) {
        if self.pos == Self::BUF {
            self.rng.fill_uniform(&mut self.buf);
            self.pos = 0;
            self.swept = 0;
        }
        // Uniforms are in (0, 1] — inside fastmath's positive-normal
        // domain (the smallest possible draw is 2⁻⁵³).
        let stripe = self.swept..self.swept + Self::SWEEP;
        crate::fastmath::ln_sweep(&self.buf[stripe.clone()], &mut self.ln_buf[stripe]);
        self.swept += Self::SWEEP;
    }
}

/// Where the fast-path sampler reads its chunk stream from: a
/// [`UniformStream`], which recycles one buffer, or a replay stream that
/// keeps every draw so several configs can walk the same chunk stream
/// ([`MonteCarlo::run_common`](crate::MonteCarlo::run_common)). Both
/// yield the same values in the same order for the same [`SimRng`].
pub trait Draws {
    /// Next uniform draw paired with its precomputed natural log
    /// (`fastmath::ln`, a few ulp from libm — see the module docs for
    /// the accuracy contract). The draw is identical in value and order
    /// to calling [`SimRng::uniform_open`] directly on the wrapped
    /// stream.
    fn next_uniform_ln(&mut self) -> (f64, f64);

    /// Next uniform draw in `(0, 1]`: the draw of
    /// [`next_uniform_ln`](Self::next_uniform_ln) without its log.
    /// Consumes exactly one draw, so mixing the two calls preserves the
    /// stream's draw order.
    #[inline]
    fn next_uniform(&mut self) -> f64 {
        self.next_uniform_ln().0
    }
}

impl Draws for UniformStream {
    #[inline]
    fn next_uniform_ln(&mut self) -> (f64, f64) {
        if self.pos == self.swept {
            self.advance();
        }
        let pair = (self.buf[self.pos], self.ln_buf[self.pos]);
        self.pos += 1;
        pair
    }
}

/// A chunk stream recorded as it is read, so it can be rewound and read
/// again: the common-random-numbers counterpart of [`UniformStream`].
/// It grows in the same [`UniformStream::BUF`]-draw fills and
/// `SWEEP`-wide log stripes, so every `(u, ln u)` pair is bit-identical
/// to the one a fresh [`UniformStream`] over the same [`SimRng`] yields
/// at that position. It holds the longest prefix any reader has asked
/// for; [`reset`](Self::reset) keeps the allocation for the next chunk.
#[derive(Debug)]
pub(crate) struct ReplayStream {
    rng: SimRng,
    buf: Vec<f64>,
    ln_buf: Vec<f64>,
    pos: usize,
    /// Draws below this index have their logs in `ln_buf`.
    swept: usize,
}

impl ReplayStream {
    /// An empty replay stream over `rng`.
    pub(crate) fn new(rng: SimRng) -> Self {
        ReplayStream {
            rng,
            buf: Vec::new(),
            ln_buf: Vec::new(),
            pos: 0,
            swept: 0,
        }
    }

    /// Starts over on a new stream, keeping the buffers' capacity.
    pub(crate) fn reset(&mut self, rng: SimRng) {
        self.rng = rng;
        self.buf.clear();
        self.ln_buf.clear();
        self.pos = 0;
        self.swept = 0;
    }

    /// Moves the read position back to the stream's first draw.
    pub(crate) fn rewind(&mut self) {
        self.pos = 0;
    }

    /// Sweeps the next log stripe, first appending one cipher fill when
    /// every recorded draw is already swept. Cold for the same reason as
    /// [`UniformStream`]'s refill.
    #[cold]
    #[inline(never)]
    fn advance(&mut self) {
        if self.swept == self.buf.len() {
            let end = self.buf.len() + UniformStream::BUF;
            self.buf.resize(end, 0.0);
            self.ln_buf.resize(end, 0.0);
            self.rng
                .fill_uniform(&mut self.buf[end - UniformStream::BUF..]);
        }
        let stripe = self.swept..self.swept + UniformStream::SWEEP;
        crate::fastmath::ln_sweep(&self.buf[stripe.clone()], &mut self.ln_buf[stripe]);
        self.swept += UniformStream::SWEEP;
    }
}

impl Draws for ReplayStream {
    #[inline]
    fn next_uniform_ln(&mut self) -> (f64, f64) {
        if self.pos == self.swept {
            self.advance();
        }
        let pair = (self.buf[self.pos], self.ln_buf[self.pos]);
        self.pos += 1;
        pair
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reproducible_from_seed() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.uniform_open(), b.uniform_open());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..10)
            .filter(|_| a.uniform_open() == b.uniform_open())
            .count();
        assert!(same < 10);
    }

    #[test]
    fn trial_streams_are_independent_and_reproducible() {
        let mut t0 = SimRng::for_trial(7, 0);
        let mut t1 = SimRng::for_trial(7, 1);
        let x0: Vec<f64> = (0..5).map(|_| t0.uniform_open()).collect();
        let x1: Vec<f64> = (0..5).map(|_| t1.uniform_open()).collect();
        assert_ne!(x0, x1);
        let mut t0b = SimRng::for_trial(7, 0);
        let x0b: Vec<f64> = (0..5).map(|_| t0b.uniform_open()).collect();
        assert_eq!(x0, x0b);
    }

    #[test]
    fn for_trials_lanes_are_for_trial_streams() {
        for first in [0, 5, 256, u64::MAX - 3] {
            for (l, mut lane) in SimRng::for_trials(7, first).into_iter().enumerate() {
                let mut one = SimRng::for_trial(7, first.wrapping_add(l as u64));
                for i in 0..40 {
                    assert_eq!(
                        lane.uniform_open().to_bits(),
                        one.uniform_open().to_bits(),
                        "first {first} lane {l} draw {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn exponential_mean_is_inverse_rate() {
        let mut rng = SimRng::new(123);
        let lambda = 0.25;
        let n = 200_000;
        let sum: f64 = (0..n).map(|_| rng.exponential(lambda)).sum();
        let mean = sum / n as f64;
        // Standard error is (1/λ)/√n ≈ 0.009; allow 5σ.
        assert!((mean - 4.0).abs() < 0.05, "mean = {mean}");
    }

    #[test]
    fn exponential_zero_rate_never_fires() {
        let mut rng = SimRng::new(5);
        assert!(rng.exponential(0.0).is_infinite());
        assert!(rng.exponential(-1.0).is_infinite());
    }

    #[test]
    fn uniform_open_is_in_half_open_interval() {
        let mut rng = SimRng::new(9);
        for _ in 0..10_000 {
            let u = rng.uniform_open();
            assert!(u > 0.0 && u <= 1.0);
        }
    }

    #[test]
    fn exponential_draws_are_positive_and_finite() {
        let mut rng = SimRng::new(11);
        for _ in 0..10_000 {
            let x = rng.exponential(1e-6);
            assert!(x > 0.0 && x.is_finite());
        }
    }

    #[test]
    fn fill_uniform_matches_repeated_uniform_open() {
        let mut a = SimRng::for_chunk(3, 5);
        let mut b = SimRng::for_chunk(3, 5);
        let mut batch = [0.0; 100];
        a.fill_uniform(&mut batch);
        for (i, &x) in batch.iter().enumerate() {
            assert_eq!(x, b.uniform_open(), "draw {i} diverged");
            assert!(x > 0.0 && x <= 1.0);
        }
    }

    #[test]
    fn uniform_stream_matches_unbuffered_draws() {
        // Buffer refills at BUF-draw boundaries must be invisible.
        let mut buffered = UniformStream::new(SimRng::for_chunk(17, 2));
        let mut plain = SimRng::for_chunk(17, 2);
        for i in 0..(3 * UniformStream::BUF + 7) {
            assert_eq!(buffered.next_uniform(), plain.uniform_open(), "draw {i}");
        }
    }

    #[test]
    fn uniform_ln_pairs_preserve_draw_order_and_log_values() {
        // Interleaving plain and (u, ln u) reads must walk the same
        // stream, and each precomputed log must be fastmath::ln of its
        // own draw.
        let mut paired = UniformStream::new(SimRng::for_chunk(23, 6));
        let mut plain = SimRng::for_chunk(23, 6);
        for i in 0..(3 * UniformStream::BUF + 5) {
            if i % 3 == 0 {
                assert_eq!(paired.next_uniform(), plain.uniform_open(), "draw {i}");
            } else {
                let (u, ln_u) = paired.next_uniform_ln();
                assert_eq!(u, plain.uniform_open(), "draw {i}");
                assert_eq!(ln_u.to_bits(), crate::fastmath::ln(u).to_bits(), "log {i}");
            }
        }
    }

    #[test]
    fn replay_stream_matches_a_fresh_uniform_stream_after_every_rewind() {
        // Each pass reads a different prefix — shorter, then longer than
        // what is recorded — mixing plain and (u, ln u) reads; every
        // pass must see the fresh stream's values bit for bit.
        let mut replay = ReplayStream::new(SimRng::for_chunk(29, 3));
        for len in [3 * UniformStream::BUF + 5, 40, 5 * UniformStream::BUF + 1] {
            replay.rewind();
            let mut fresh = UniformStream::new(SimRng::for_chunk(29, 3));
            for i in 0..len {
                if i % 3 == 0 {
                    let (got, want) = (replay.next_uniform(), fresh.next_uniform());
                    assert_eq!(got.to_bits(), want.to_bits(), "draw {i}");
                } else {
                    let ((u, ln_u), (v, ln_v)) =
                        (replay.next_uniform_ln(), fresh.next_uniform_ln());
                    assert_eq!(
                        (u.to_bits(), ln_u.to_bits()),
                        (v.to_bits(), ln_v.to_bits()),
                        "draw {i}"
                    );
                }
            }
        }
        // A reset starts over on the new stream.
        replay.reset(SimRng::for_chunk(29, 4));
        let mut fresh = UniformStream::new(SimRng::for_chunk(29, 4));
        for i in 0..(2 * UniformStream::BUF + 3) {
            let ((u, ln_u), (v, ln_v)) = (replay.next_uniform_ln(), fresh.next_uniform_ln());
            assert_eq!(
                (u.to_bits(), ln_u.to_bits()),
                (v.to_bits(), ln_v.to_bits()),
                "draw {i}"
            );
        }
    }

    /// Stream-separation invariant: chunk streams use distinct ChaCha
    /// nonces, so no chunk's keystream may reproduce another's across
    /// chunk boundaries, and the chunk namespace (`2⁶³ | chunk`) must be
    /// disjoint from the trial namespace (`index + 1`).
    #[test]
    fn chunk_streams_never_overlap() {
        use std::collections::HashSet;
        let seed = 2024;
        let per_stream = 512;
        let mut seen: HashSet<u64> = HashSet::new();
        for chunk in 0..8u64 {
            let mut rng = SimRng::for_chunk(seed, chunk);
            for draw in 0..per_stream {
                // An overlap between streams would replay whole 16-word
                // cipher blocks, i.e. massive bit-exact duplication; with
                // disjoint keystreams a 64-bit collision among 4096+4096
                // draws has probability ~2⁻⁴³.
                assert!(
                    seen.insert(rng.uniform_open().to_bits()),
                    "chunk {chunk} draw {draw} duplicated an earlier draw"
                );
            }
        }
        // Trial streams must not alias any chunk stream either.
        for trial in 0..8u64 {
            let mut rng = SimRng::for_trial(seed, trial);
            for draw in 0..per_stream {
                assert!(
                    seen.insert(rng.uniform_open().to_bits()),
                    "trial {trial} draw {draw} aliased a chunk stream"
                );
            }
        }
    }

    #[test]
    fn chunk_streams_are_reproducible() {
        let mut a = SimRng::for_chunk(9, 4);
        let mut b = SimRng::for_chunk(9, 4);
        for _ in 0..100 {
            assert_eq!(a.uniform_open(), b.uniform_open());
        }
    }
}
