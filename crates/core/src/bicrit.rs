//! The **BiCrit** solver (paper §3, solution procedure).
//!
//! ```text
//! minimize   E(W, σ₁, σ₂) / W
//! subject to T(W, σ₁, σ₂) / W ≤ ρ,    σ₁, σ₂ ∈ S
//! ```
//!
//! Procedure (O(K²) over the `K` available speeds):
//! 1. for each speed pair `(σᵢ, σⱼ)` compute `ρᵢⱼ` (Equation 6) and discard
//!    pairs with `ρ < ρᵢⱼ`;
//! 2. for each remaining pair compute `Wopt` (Equation 4) and the
//!    first-order energy overhead (Equation 3);
//! 3. return the pair minimizing the energy overhead.

use crate::approx::{FirstOrder, OverheadCoefficients};
use crate::pattern::SilentModel;
use crate::quadratic::{self, LANE_WIDTH};
use crate::speed::SpeedSet;
use crate::theorem1::{self, Clamp, SolveError};
use serde::{Deserialize, Serialize};

/// A fully-solved BiCrit candidate: speed pair, pattern size, overheads.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BiCritSolution {
    /// First-execution speed `σ₁`.
    pub sigma1: f64,
    /// Re-execution speed `σ₂`.
    pub sigma2: f64,
    /// Optimal pattern size `Wopt` (Theorem 1).
    pub w_opt: f64,
    /// First-order energy overhead `E(Wopt)/Wopt` (Equation 3) — the
    /// objective value, as reported in the paper's tables.
    pub energy_overhead: f64,
    /// First-order time overhead `T(Wopt)/Wopt` (Equation 2); always `≤ ρ`.
    pub time_overhead: f64,
    /// Minimum feasible bound `ρᵢⱼ` for this speed pair (Equation 6).
    pub rho_min: f64,
    /// Which constraint bound (if any) clamped `Wopt`.
    pub clamp: Clamp,
}

impl BiCritSolution {
    /// Exact (non-Taylor) energy overhead of this solution under `model`
    /// (Proposition 3 evaluated at `Wopt`).
    pub fn exact_energy_overhead(&self, model: &SilentModel) -> f64 {
        model.energy_overhead(self.w_opt, self.sigma1, self.sigma2)
    }
}

/// Row of the paper's §4.2 tables: for a fixed `σ₁`, the best `σ₂` (if any
/// feasible) with its `Wopt` and energy overhead.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpeedPairReport {
    /// The fixed first-execution speed.
    pub sigma1: f64,
    /// Best feasible solution with this `σ₁`, or `None` if no `σ₂` makes
    /// the pair feasible (rendered as dashes in the paper).
    pub best: Option<BiCritSolution>,
}

/// Per-pair invariants cached at solver construction. Everything here
/// depends on `(σ₁, σ₂)` and the model only — not on `ρ` — so one table
/// built in `O(K²)` serves every subsequent solve: a K-speed, P-point
/// sweep does the setup once instead of `O(K²·P)` recomputation.
#[derive(Debug, Clone, Copy)]
struct PairInvariants {
    /// First-execution speed `σ₁`.
    sigma1: f64,
    /// Re-execution speed `σ₂`.
    sigma2: f64,
    /// First-order time coefficients (Equation 2) — the feasibility
    /// quadratic is `linear·W² + (constant − ρ)·W + inverse ≤ 0`.
    time: OverheadCoefficients,
    /// First-order energy coefficients (Equation 3) — the objective.
    energy: OverheadCoefficients,
    /// Unconstrained energy minimizer `Wₑ` (Equation 5).
    w_e: f64,
    /// Minimum feasible bound `ρᵢⱼ` (Equation 6).
    rho_min: f64,
}

/// Counter deltas accumulated during a table scan and flushed to the
/// metrics registry once per public call, so the batched paths pay a
/// handful of atomic adds instead of several per (pair × ρ-point).
/// Totals are identical to per-call increments (addition commutes), so
/// deterministic snapshots are unaffected.
#[derive(Debug, Default, Clone, Copy)]
struct ScanCounts {
    evaluated: u64,
    infeasible: u64,
    unbounded: u64,
    clamp_lower: u64,
    clamp_upper: u64,
    clamp_unconstrained: u64,
}

impl ScanCounts {
    fn flush(&self) {
        if self.evaluated > 0 {
            rexec_obs::counter!("bicrit.pairs_evaluated").add(self.evaluated);
            rexec_obs::counter!("bicrit.table_hits").add(self.evaluated);
        }
        if self.infeasible > 0 {
            rexec_obs::counter!("bicrit.pairs_infeasible").add(self.infeasible);
        }
        if self.unbounded > 0 {
            rexec_obs::counter!("bicrit.pairs_unbounded").add(self.unbounded);
        }
        if self.clamp_lower > 0 {
            rexec_obs::counter!("bicrit.clamp_lower").add(self.clamp_lower);
        }
        if self.clamp_upper > 0 {
            rexec_obs::counter!("bicrit.clamp_upper").add(self.clamp_upper);
        }
        if self.clamp_unconstrained > 0 {
            rexec_obs::counter!("bicrit.clamp_unconstrained").add(self.clamp_unconstrained);
        }
    }
}

/// Struct-of-arrays mirror of the candidate table: one contiguous `f64`
/// column per per-pair invariant, in the same entry order as the owning
/// `PairInvariants` list. The batched solver sweeps these columns in
/// [`LANE_WIDTH`]-wide chunks, so the autovectorizer loads full SIMD
/// lanes instead of gathering fields out of 48-byte records.
#[derive(Debug, Clone, Default)]
struct SoaColumns {
    /// Feasibility-quadratic `a` = `time.linear`.
    t_linear: Vec<f64>,
    /// Feasibility-quadratic `b + ρ` = `time.constant` (`b = b₀ − ρ`).
    t_const: Vec<f64>,
    /// Feasibility-quadratic `c` = `time.inverse`.
    t_inverse: Vec<f64>,
    /// Precomputed `4·a·c` — the ρ-independent half of the discriminant
    /// (`4.0 * a * c` left-to-right, the exact product the scalar solver
    /// forms).
    fourac: Vec<f64>,
    /// Unconstrained energy minimizer `Wₑ` (Theorem-1 clamp pivot).
    w_e: Vec<f64>,
    /// Objective columns: `energy.constant` / `linear` / `inverse`.
    e_const: Vec<f64>,
    e_linear: Vec<f64>,
    e_inverse: Vec<f64>,
    /// Original sequence position of each sorted lane (the columns are
    /// sorted by ascending `b₀ = time.constant`; see `from_entries`).
    orig: Vec<u32>,
    /// Logical entry count; the columns themselves are padded to a
    /// multiple of [`LANE_WIDTH`] with infeasible sentinels.
    len: usize,
}

impl SoaColumns {
    fn from_entries<'a>(entries: impl Iterator<Item = &'a PairInvariants>) -> Self {
        let mut cols = SoaColumns::default();
        for inv in entries {
            cols.t_linear.push(inv.time.linear);
            cols.t_const.push(inv.time.constant);
            cols.t_inverse.push(inv.time.inverse);
            cols.fourac.push(4.0 * inv.time.linear * inv.time.inverse);
            cols.w_e.push(inv.w_e);
            cols.e_const.push(inv.energy.constant);
            cols.e_linear.push(inv.energy.linear);
            cols.e_inverse.push(inv.energy.inverse);
        }
        cols.len = cols.t_linear.len();
        // Sort the columns by ascending `b₀`. Feasibility at bound ρ
        // requires `b = b₀ − ρ < 0` (with `a > 0`, `c ≥ 0` both roots
        // carry the sign of `−b`), so in `b₀` order every possibly
        // feasible candidate lives in the prefix `b₀ < ρ` — one binary
        // search per ρ bounds the expensive divide/sqrt sweep to that
        // prefix. `orig` maps each sorted lane back to its entry's
        // original sequence position for winner lookup and tie-breaks.
        let mut perm: Vec<u32> = (0..cols.len as u32).collect();
        perm.sort_by(|&i, &j| {
            cols.t_const[i as usize]
                .partial_cmp(&cols.t_const[j as usize])
                .expect("kernel columns are non-NaN")
                .then(i.cmp(&j))
        });
        let apply =
            |col: &Vec<f64>| -> Vec<f64> { perm.iter().map(|&i| col[i as usize]).collect() };
        cols.t_linear = apply(&cols.t_linear);
        cols.t_const = apply(&cols.t_const);
        cols.t_inverse = apply(&cols.t_inverse);
        cols.fourac = apply(&cols.fourac);
        cols.w_e = apply(&cols.w_e);
        cols.e_const = apply(&cols.e_const);
        cols.e_linear = apply(&cols.e_linear);
        cols.e_inverse = apply(&cols.e_inverse);
        cols.orig = perm;
        // Pad to a whole number of chunks with `b₀ = +∞` sentinels:
        // infeasible and non-rare at every finite ρ (`b = +∞` puts both
        // roots at `−∞`/`−0.0`), sorted after every real candidate, so
        // the binary search never admits them and no sweep needs a
        // sub-chunk special case even if one does reach them.
        let padded = cols.len.next_multiple_of(LANE_WIDTH);
        for _ in cols.len..padded {
            cols.t_linear.push(1.0);
            cols.t_const.push(f64::INFINITY);
            cols.t_inverse.push(1.0);
            cols.fourac.push(4.0);
            cols.w_e.push(1.0);
            cols.e_const.push(1.0);
            cols.e_linear.push(1.0);
            cols.e_inverse.push(1.0);
            cols.orig.push(u32::MAX);
        }
        cols
    }

    /// Logical candidate count (excluding padding).
    fn len(&self) -> usize {
        self.len
    }

    /// Column length including the infeasible padding lanes.
    fn padded_len(&self) -> usize {
        self.t_linear.len()
    }

    /// Whether the branchless kernel models every column: the constraint
    /// must be strictly quadratic and convex (`a > 0`, i.e. `λ > 0`
    /// without underflow or sign flips) with finite coefficients and a
    /// non-negative constant term `c ≥ 0` — `a > 0 ∧ c ≥ 0` is what
    /// makes the prune sweep's `b > 0 ⇒ infeasible` shortcut an exact
    /// proof (both roots share the sign of `−b`). Degenerate tables fall
    /// back to the scalar scan, which handles every branch.
    fn kernel_safe(&self) -> bool {
        // Logical lanes only: the `b₀ = +∞` padding sentinels are part
        // of the kernel's design, not a degeneracy.
        self.t_linear[..self.len]
            .iter()
            .all(|&a| a > 0.0 && a.is_finite())
            && self.t_const[..self.len].iter().all(|x| x.is_finite())
            && self.t_inverse[..self.len]
                .iter()
                .all(|&c| c >= 0.0 && c.is_finite())
    }
}

/// Chunked-kernel bookkeeping, flushed once per public call:
/// `solver.batch.chunks` counts [`LANE_WIDTH`]-wide column sweeps and
/// `solver.batch.pairs_pruned` the infeasible candidates dropped before
/// the argmin select, so traces can attribute batched-solver work.
#[derive(Debug, Default, Clone, Copy)]
struct BatchCounts {
    chunks: u64,
    pairs_pruned: u64,
}

impl BatchCounts {
    fn flush(&self) {
        if self.chunks > 0 {
            rexec_obs::counter!("solver.batch.chunks").add(self.chunks);
            rexec_obs::counter!("solver.batch.pairs_pruned").add(self.pairs_pruned);
        }
    }
}

/// Sweep outcome marker: some lane hit a scalar-only branch (double
/// root, or `b == 0`'s symmetric roots), so the whole point must be
/// redone through the scalar scan to stay bit-identical.
struct RareLanes;

/// The fused clamp/objective/bookkeeping sweep of [`BiCritSolver::sweep_best`]
/// (step 2): Theorem-1 clamp (same ops as [`theorem1::clamp_sweep`]),
/// energy objective (same expression shape as `OverheadCoefficients::eval`),
/// `+∞`-masking of infeasible lanes into `e`, a per-lane feasibility
/// byte into `feas_b`, and the `[feasible, clamp-lower, clamp-upper,
/// rare, feasible-NaN]` tallies as `u32` sums of 0/1 (bool→int converts
/// vectorize; bool→f64 chains do not). A function boundary rather than
/// an inline block so every slice parameter carries `noalias` and the
/// vectorized loop needs no runtime overlap checks.
///
/// `lo` holds the raw lower roots on entry and the clamped `W₁` bounds
/// on exit.
#[allow(clippy::too_many_arguments)]
#[inline]
fn fused_clamp_objective(
    we: &[f64],
    ec: &[f64],
    el: &[f64],
    ei: &[f64],
    disc: &[f64],
    hi: &[f64],
    lo: &mut [f64],
    w: &mut [f64],
    e: &mut [f64],
    feas_b: &mut [u8],
) -> [u32; 5] {
    let n = we.len();
    let (ec, el, ei) = (&ec[..n], &el[..n], &ei[..n]);
    let (disc, hi) = (&disc[..n], &hi[..n]);
    let (lo, w) = (&mut lo[..n], &mut w[..n]);
    let (e, feas_b) = (&mut e[..n], &mut feas_b[..n]);
    let (mut feas_n, mut lower_n, mut upper_n) = (0u32, 0u32, 0u32);
    let (mut rare_n, mut nan_n) = (0u32, 0u32);
    for i in 0..n {
        let w1 = lo[i].max(0.0);
        let raised = if we[i] < w1 { w1 } else { we[i] };
        let wv = if raised > hi[i] { hi[i] } else { raised };
        w[i] = wv;
        lo[i] = w1;
        let raw = ec[i] + el[i] * wv + ei[i] / wv;
        let feas = theorem1::lane_feasible(disc[i], hi[i]);
        e[i] = if feas { raw } else { f64::INFINITY };
        feas_b[i] = feas as u8;
        feas_n += feas as u32;
        lower_n += (feas & (we[i] < w1)) as u32;
        upper_n += (feas & (we[i] > hi[i])) as u32;
        rare_n += (disc[i] == 0.0) as u32;
        nan_n += (feas & raw.is_nan()) as u32;
    }
    [feas_n, lower_n, upper_n, rare_n, nan_n]
}

/// Reusable scratch columns for the sweep kernel, sized to the candidate
/// table on first use and reused across the ρ grid so the batched paths
/// stay allocation-free after the first point.
#[derive(Debug, Default)]
struct SweepScratch {
    /// Effective lower feasibility bound `W₁ = max(lo, 0)` after the
    /// clamp sweep (smaller root before it).
    lo: Vec<f64>,
    /// Larger feasibility root `W₂`.
    hi: Vec<f64>,
    /// Feasibility-quadratic discriminant.
    disc: Vec<f64>,
    /// Clamped work `W = min(max(W₁, Wₑ), W₂)`.
    w: Vec<f64>,
    /// Objective `E(W)/W` column the argmin folds over.
    e: Vec<f64>,
    /// Per-lane prune hints (`1` = may be feasible, `0` = proven
    /// infeasible without roots).
    hint: Vec<u8>,
}

impl SweepScratch {
    fn ensure(&mut self, len: usize) {
        if self.lo.len() != len {
            self.lo.resize(len, 0.0);
            self.hi.resize(len, 0.0);
            self.disc.resize(len, 0.0);
            self.w.resize(len, 0.0);
            self.e.resize(len, 0.0);
            self.hint.resize(len, 0);
        }
    }
}

/// BiCrit solver over a discrete speed set.
#[derive(Debug, Clone)]
pub struct BiCritSolver {
    model: SilentModel,
    speeds: SpeedSet,
    /// Candidate table in `speeds.pairs()` order (σ₁-major, so row `i`
    /// spans `[i·K, (i+1)·K)` and the diagonal sits at stride `K + 1`).
    table: Vec<PairInvariants>,
    /// Column (SoA) view of `table`, swept by the batched kernel.
    soa: SoaColumns,
    /// Column view of the diagonal (σ, σ) entries, for the one-speed
    /// batched path.
    soa_diag: SoaColumns,
    /// Whether the chunked kernel reproduces the scalar math for this
    /// table (strictly quadratic constraint with finite columns).
    kernel_ok: bool,
}

impl BiCritSolver {
    /// Creates a solver for `model` over the available `speeds`,
    /// precomputing the per-pair candidate table (Equations 2–3, 5–6).
    ///
    /// Instrumented: `bicrit.table_builds` / `bicrit.table_pairs` count
    /// constructions and cached pairs; the `bicrit.table_build_secs`
    /// gauge records the build's wall time (gauges stay out of the
    /// deterministic snapshot, so timing does not break reproducibility).
    pub fn new(model: SilentModel, speeds: SpeedSet) -> Self {
        let _span = rexec_obs::span!("bicrit.table_build");
        let build = std::time::Instant::now();
        let table: Vec<PairInvariants> = speeds
            .pairs()
            .map(|(s1, s2)| {
                let energy = FirstOrder::energy_coefficients(&model, s1, s2);
                PairInvariants {
                    sigma1: s1,
                    sigma2: s2,
                    time: FirstOrder::time_coefficients(&model, s1, s2),
                    w_e: energy.minimizer(),
                    energy,
                    rho_min: theorem1::rho_min(&model, s1, s2),
                }
            })
            .collect();
        let soa = SoaColumns::from_entries(table.iter());
        let soa_diag = SoaColumns::from_entries(table.iter().step_by(speeds.len() + 1));
        let kernel_ok = model.lambda != 0.0 && soa.kernel_safe();
        rexec_obs::counter!("bicrit.table_builds").incr();
        rexec_obs::counter!("bicrit.table_pairs").add(table.len() as u64);
        rexec_obs::gauge!("bicrit.table_build_secs").set(build.elapsed().as_secs_f64());
        BiCritSolver {
            model,
            speeds,
            table,
            soa,
            soa_diag,
            kernel_ok,
        }
    }

    /// The underlying analytic model.
    pub fn model(&self) -> &SilentModel {
        &self.model
    }

    /// The available speeds.
    pub fn speeds(&self) -> &SpeedSet {
        &self.speeds
    }

    /// Solves Theorem 1 for one speed pair, returning the full candidate.
    ///
    /// Instrumented: `bicrit.pairs_evaluated` counts every call,
    /// `bicrit.pairs_infeasible` / `bicrit.pairs_unbounded` count the
    /// rejections, and `bicrit.clamp_*` count which Theorem-1 branch the
    /// accepted pattern took.
    pub fn solve_pair(&self, s1: f64, s2: f64, rho: f64) -> Result<BiCritSolution, SolveError> {
        rexec_obs::counter!("bicrit.pairs_evaluated").incr();
        let pat = theorem1::optimal_pattern(&self.model, s1, s2, rho).inspect_err(|e| match e {
            SolveError::Infeasible => {
                rexec_obs::counter!("bicrit.pairs_infeasible").incr();
            }
            SolveError::Unbounded => {
                rexec_obs::counter!("bicrit.pairs_unbounded").incr();
            }
        })?;
        match pat.clamp {
            Clamp::AtLower => rexec_obs::counter!("bicrit.clamp_lower").incr(),
            Clamp::AtUpper => rexec_obs::counter!("bicrit.clamp_upper").incr(),
            Clamp::Unconstrained => rexec_obs::counter!("bicrit.clamp_unconstrained").incr(),
        }
        let e = FirstOrder::energy_overhead(&self.model, pat.w_opt, s1, s2);
        let t = FirstOrder::time_overhead(&self.model, pat.w_opt, s1, s2);
        Ok(BiCritSolution {
            sigma1: s1,
            sigma2: s2,
            w_opt: pat.w_opt,
            energy_overhead: e,
            time_overhead: t,
            rho_min: theorem1::rho_min(&self.model, s1, s2),
            clamp: pat.clamp,
        })
    }

    /// Solves Theorem 1 for one cached table entry. The counter deltas go
    /// into `n` (flushed once per public call); the math is byte-for-byte
    /// the [`solve_pair`](Self::solve_pair) path, evaluated from the
    /// precomputed invariants instead of the model.
    fn solve_entry(
        &self,
        inv: &PairInvariants,
        rho: f64,
        n: &mut ScanCounts,
    ) -> Option<BiCritSolution> {
        n.evaluated += 1;
        let pat = match theorem1::optimal_pattern_from(&inv.time, inv.w_e, self.model.lambda, rho) {
            Ok(pat) => pat,
            Err(SolveError::Infeasible) => {
                n.infeasible += 1;
                return None;
            }
            Err(SolveError::Unbounded) => {
                n.unbounded += 1;
                return None;
            }
        };
        match pat.clamp {
            Clamp::AtLower => n.clamp_lower += 1,
            Clamp::AtUpper => n.clamp_upper += 1,
            Clamp::Unconstrained => n.clamp_unconstrained += 1,
        }
        Some(BiCritSolution {
            sigma1: inv.sigma1,
            sigma2: inv.sigma2,
            w_opt: pat.w_opt,
            energy_overhead: inv.energy.eval(pat.w_opt),
            time_overhead: inv.time.eval(pat.w_opt),
            rho_min: inv.rho_min,
            clamp: pat.clamp,
        })
    }

    /// Allocation-free min-scan of `entries`, ordered by
    /// `(energy_overhead, σ₁, σ₂)`. Strict `<` keeps the *first* optimum
    /// in table order, which matches `sort + first` on the ascending
    /// `pairs()` ordering (full-tuple ties are impossible over distinct
    /// speed pairs).
    fn scan_best<'a>(
        &self,
        entries: impl Iterator<Item = &'a PairInvariants>,
        rho: f64,
        n: &mut ScanCounts,
    ) -> Option<BiCritSolution> {
        let mut best: Option<BiCritSolution> = None;
        for inv in entries {
            let Some(sol) = self.solve_entry(inv, rho, n) else {
                continue;
            };
            let better = match &best {
                None => true,
                Some(b) => (sol.energy_overhead, sol.sigma1, sol.sigma2)
                    .partial_cmp(&(b.energy_overhead, b.sigma1, b.sigma2))
                    .expect("finite overheads")
                    .is_lt(),
            };
            if better {
                best = Some(sol);
            }
        }
        best
    }

    /// The column-sweep kernel over the `b₀`-sorted columns.
    ///
    /// One `partition_point` binary search finds the prefix `b₀ < rho`
    /// — the only lanes that can be feasible (`a > 0 ∧ c ≥ 0` forces
    /// both roots non-positive once `b ≥ 0`; see
    /// [`SoaColumns::kernel_safe`]) — and every pass below runs on just
    /// that prefix, so the expensive divide/sqrt work scales with the
    /// candidates that matter at this ρ, not with K². The passes, each
    /// a branchless sweep the autovectorizer turns into
    /// [`LANE_WIDTH`]-wide SIMD:
    ///
    /// 1. [`quadratic::roots_sweep`] — feasibility-interval roots and
    ///    discriminants (the divider-bound pass; kept as its own small
    ///    loop so the vector body still engages on short prefixes).
    /// 2. A fused clamp/objective/bookkeeping sweep: clamps each pair's
    ///    unconstrained optimum into its feasible interval (same ops as
    ///    [`theorem1::clamp_sweep`]), evaluates the energy objective,
    ///    masks infeasible lanes to `+∞`, records a per-lane
    ///    feasibility byte, and accumulates the feasible/clamp/rare
    ///    tallies as `u32` sums of 0/1 (bool→int converts vectorize;
    ///    bool→f64 chains do not).
    /// 3. Argmin without a scalar fold: a [`LANE_WIDTH`]-lane running
    ///    minimum over the masked objective column, horizontally
    ///    reduced, then a scan for the feasible lane attaining the
    ///    minimum with the **smallest original index** — exactly the
    ///    winner of the scalar first-wins strict-`<` fold, which keeps
    ///    the earliest table entry among equal minima. (`+∞`-masked
    ///    lanes can only match when every feasible objective is `+∞`,
    ///    where earliest-feasible is again the scalar answer.)
    ///
    /// Returns `Ok(Some(lane))` with the winning *sorted-column* lane
    /// (map through `cols.orig` for the table entry), `Ok(None)` if
    /// every candidate is infeasible at `rho`, or `Err(RareLanes)` when
    /// a prefix lane hits arithmetic the branchless math cannot
    /// reproduce — a double root (`disc == 0`, where the scalar path
    /// returns `−b/(2a)` instead of `c/q`) or a feasible NaN objective
    /// (which wins the scalar fold by arrival order, not value). The
    /// caller then redoes the whole point through the scalar scan, and
    /// nothing has been committed to the counters. (`b == 0` needs no
    /// bail: with `c ≥ 0` its discriminant is `−4ac ≤ 0`, infeasible on
    /// both paths.) Otherwise bit-identical to the scalar `scan_best`
    /// over the same entries: the sweeps replicate
    /// `solve_quadratic`/`feasible_interval_from` operation by
    /// operation, and the argmin matches the `(energy, σ₁, σ₂)` tuple
    /// order because ties resolve to the smallest original index.
    fn sweep_best(
        &self,
        cols: &SoaColumns,
        rho: f64,
        n: &mut ScanCounts,
        batch: &mut BatchCounts,
        scratch: &mut SweepScratch,
    ) -> Result<Option<usize>, RareLanes> {
        let len = cols.len();
        scratch.ensure(cols.padded_len());

        // Lanes at and past `p` have `b = b₀ − rho ≥ 0`: provably
        // infeasible, skipped wholesale (`rho` is finite here, so the
        // `+∞` padding is never admitted). Within the prefix `b < 0`
        // strictly — `b₀ < rho` implies the subtraction is negative and
        // nonzero — so the rare `b == 0` lane cannot occur in it.
        // On the sorted column the partition index equals the count of
        // `b₀ < rho`, and the branchless vectorized count beats a
        // binary search, whose data-dependent branches mispredict on
        // every ρ change.
        let p = {
            let b0 = &cols.t_const[..len];
            let mut count = 0u32;
            for &v in b0 {
                count += (v < rho) as u32;
            }
            count as usize
        };
        // Round the prefix up to a whole chunk: the extra lanes are
        // provably infeasible (`b ≥ 0`), so they change no count and
        // never win, but vector-only trip counts keep the sweeps out of
        // their scalar remainder loops. (A freak `disc == 0` among them
        // can only trigger a spurious — still correct — scalar replay.)
        let p = p.next_multiple_of(LANE_WIDTH).min(cols.padded_len());

        quadratic::roots_sweep(
            &cols.t_linear[..p],
            &cols.t_const[..p],
            &cols.t_inverse[..p],
            &cols.fourac[..p],
            rho,
            &mut scratch.lo[..p],
            &mut scratch.hi[..p],
            &mut scratch.disc[..p],
        );

        let [feas_n, lower_n, upper_n, rare_n, nan_n] = fused_clamp_objective(
            &cols.w_e[..p],
            &cols.e_const[..p],
            &cols.e_linear[..p],
            &cols.e_inverse[..p],
            &scratch.disc[..p],
            &scratch.hi[..p],
            &mut scratch.lo[..p],
            &mut scratch.w[..p],
            &mut scratch.e[..p],
            &mut scratch.hint[..p],
        );
        if rare_n + nan_n > 0 {
            return Err(RareLanes);
        }

        let best_lane = if feas_n == 0 {
            None
        } else {
            let mut m8 = [f64::INFINITY; LANE_WIDTH];
            let whole = p - p % LANE_WIDTH;
            for ch in scratch.e[..whole].chunks_exact(LANE_WIDTH) {
                for j in 0..LANE_WIDTH {
                    m8[j] = if ch[j] < m8[j] { ch[j] } else { m8[j] };
                }
            }
            // Tree-shaped horizontal reduce: 3 levels instead of a
            // 7-compare serial chain.
            let r4 = [
                m8[0].min(m8[4]),
                m8[1].min(m8[5]),
                m8[2].min(m8[6]),
                m8[3].min(m8[7]),
            ];
            let mut m = r4[0].min(r4[2]).min(r4[1].min(r4[3]));
            for &v in &scratch.e[whole..p] {
                if v < m {
                    m = v;
                }
            }
            // Among lanes attaining the minimum, the scalar fold keeps
            // the earliest table entry: minimize the original index,
            // carrying the lane in the key's low half. Select-based so
            // the scan stays branch-free (a data-dependent branch here
            // mispredicts constantly and costs more than the sweep).
            let (e, hint) = (&scratch.e[..p], &scratch.hint[..p]);
            let orig = &cols.orig[..p];
            let mut best_key = u64::MAX;
            for i in 0..p {
                let hit = (hint[i] != 0) & (e[i] == m);
                let key = ((orig[i] as u64) << 32) | i as u64;
                let key = if hit { key } else { u64::MAX };
                best_key = if key < best_key { key } else { best_key };
            }
            Some((best_key & u32::MAX as u64) as usize)
        };

        let (feas_lanes, lower, upper) = (feas_n as u64, lower_n as u64, upper_n as u64);
        n.evaluated += len as u64;
        n.infeasible += len as u64 - feas_lanes;
        n.clamp_lower += lower;
        n.clamp_upper += upper;
        n.clamp_unconstrained += feas_lanes - lower - upper;
        batch.chunks += p.div_ceil(LANE_WIDTH) as u64;
        batch.pairs_pruned += len.saturating_sub(p) as u64;
        Ok(best_lane)
    }

    /// Batched best-candidate lookup: the sweep kernel when it models
    /// this table (and `rho` is not NaN), the scalar scan otherwise —
    /// including the rare per-ρ lanes (double root / `b == 0`) the
    /// branchless math cannot reproduce. The winning record is assembled
    /// from the swept columns, which hold the scalar math bit for bit on
    /// the non-rare path.
    fn batched_best(
        &self,
        cols: &SoaColumns,
        stride: usize,
        rho: f64,
        n: &mut ScanCounts,
        batch: &mut BatchCounts,
        scratch: &mut SweepScratch,
    ) -> Option<BiCritSolution> {
        if !self.kernel_ok || !rho.is_finite() {
            return self.scan_best(self.table.iter().step_by(stride), rho, n);
        }
        match self.sweep_best(cols, rho, n, batch, scratch) {
            Ok(Some(lane)) => {
                // The swept columns already hold the scalar path's exact
                // values for a non-rare winner (`clamp_sweep` mirrors the
                // Theorem-1 clamp, the objective column mirrors
                // `OverheadCoefficients::eval`), so the record is
                // assembled without re-deriving the roots.
                let inv = &self.table[cols.orig[lane] as usize * stride];
                let w_opt = scratch.w[lane];
                let clamp = if inv.w_e < scratch.lo[lane] {
                    Clamp::AtLower
                } else if inv.w_e > scratch.hi[lane] {
                    Clamp::AtUpper
                } else {
                    Clamp::Unconstrained
                };
                Some(BiCritSolution {
                    sigma1: inv.sigma1,
                    sigma2: inv.sigma2,
                    w_opt,
                    energy_overhead: scratch.e[lane],
                    time_overhead: inv.time.eval(w_opt),
                    rho_min: inv.rho_min,
                    clamp,
                })
            }
            Ok(None) => None,
            Err(RareLanes) => self.scan_best(self.table.iter().step_by(stride), rho, n),
        }
    }

    /// All feasible candidates under bound `rho`, sorted by increasing
    /// energy overhead (ties broken towards slower `σ₁`, then slower `σ₂`
    /// for determinism).
    pub fn candidates(&self, rho: f64) -> Vec<BiCritSolution> {
        let _timer = rexec_obs::span!("bicrit.candidates");
        let mut n = ScanCounts::default();
        let mut out: Vec<BiCritSolution> = self
            .table
            .iter()
            .filter_map(|inv| self.solve_entry(inv, rho, &mut n))
            .collect();
        n.flush();
        out.sort_by(|a, b| {
            (a.energy_overhead, a.sigma1, a.sigma2)
                .partial_cmp(&(b.energy_overhead, b.sigma1, b.sigma2))
                .expect("finite overheads")
        });
        out
    }

    /// Solves BiCrit: the feasible speed pair minimizing the energy
    /// overhead, or `None` when no pair satisfies `ρ ≥ ρᵢⱼ`.
    ///
    /// Scans the candidate table without allocating; equivalent to
    /// `candidates(rho).first()`.
    pub fn solve(&self, rho: f64) -> Option<BiCritSolution> {
        let _timer = rexec_obs::span!("bicrit.solve");
        let mut n = ScanCounts::default();
        let best = self.scan_best(self.table.iter(), rho, &mut n);
        n.flush();
        best
    }

    /// Solves BiCrit for a batch of bounds through the chunked
    /// column-sweep kernel (one span and one counter flush for the whole
    /// batch). `out[p]` is exactly `solve(rhos[p])`, bit for bit.
    pub fn solve_many(&self, rhos: &[f64]) -> Vec<Option<BiCritSolution>> {
        let mut out = Vec::new();
        self.solve_many_into(rhos, &mut out);
        out
    }

    /// Zero-allocation [`solve_many`](Self::solve_many): clears and fills
    /// `out` in place, so sweep loops can reuse one buffer across grid
    /// rows instead of paying a fresh `Vec` per call.
    pub fn solve_many_into(&self, rhos: &[f64], out: &mut Vec<Option<BiCritSolution>>) {
        let _timer = rexec_obs::span!("bicrit.solve_many");
        out.clear();
        out.reserve(rhos.len());
        let mut n = ScanCounts::default();
        let mut batch = BatchCounts::default();
        let mut scratch = SweepScratch::default();
        for &rho in rhos {
            out.push(self.batched_best(&self.soa, 1, rho, &mut n, &mut batch, &mut scratch));
        }
        rexec_obs::counter!("bicrit.solve_many_points").add(rhos.len() as u64);
        batch.flush();
        n.flush();
    }

    /// Solves the **one-speed** variant (σ₂ constrained to equal σ₁) — the
    /// paper's baseline (dotted curves in Figures 2–14).
    pub fn solve_one_speed(&self, rho: f64) -> Option<BiCritSolution> {
        let mut n = ScanCounts::default();
        let best = self.scan_best(self.diagonal_entries(), rho, &mut n);
        n.flush();
        best
    }

    /// Batched [`solve_one_speed`](Self::solve_one_speed):
    /// `out[p]` is exactly `solve_one_speed(rhos[p])`.
    pub fn solve_one_speed_many(&self, rhos: &[f64]) -> Vec<Option<BiCritSolution>> {
        let mut out = Vec::new();
        self.solve_one_speed_many_into(rhos, &mut out);
        out
    }

    /// Zero-allocation [`solve_one_speed_many`](Self::solve_one_speed_many),
    /// sweeping the diagonal (σ, σ) columns through the chunked kernel.
    pub fn solve_one_speed_many_into(&self, rhos: &[f64], out: &mut Vec<Option<BiCritSolution>>) {
        let _timer = rexec_obs::span!("bicrit.solve_many");
        out.clear();
        out.reserve(rhos.len());
        let mut n = ScanCounts::default();
        let mut batch = BatchCounts::default();
        let mut scratch = SweepScratch::default();
        let stride = self.speeds.len() + 1;
        for &rho in rhos {
            out.push(self.batched_best(
                &self.soa_diag,
                stride,
                rho,
                &mut n,
                &mut batch,
                &mut scratch,
            ));
        }
        rexec_obs::counter!("bicrit.solve_many_points").add(rhos.len() as u64);
        batch.flush();
        n.flush();
    }

    /// The diagonal (σ, σ) table entries: row-major K×K puts them at
    /// stride `K + 1`.
    fn diagonal_entries(&self) -> impl Iterator<Item = &PairInvariants> {
        self.table.iter().step_by(self.speeds.len() + 1)
    }

    /// The paper's §4.2 table: for each `σ₁` in the speed set, the best
    /// feasible `σ₂` with its `Wopt` and energy overhead (or `None`).
    pub fn per_sigma1(&self, rho: f64) -> Vec<SpeedPairReport> {
        let _timer = rexec_obs::span!("bicrit.per_sigma1");
        let mut n = ScanCounts::default();
        let out = self
            .table
            .chunks(self.speeds.len())
            .map(|row| SpeedPairReport {
                sigma1: row[0].sigma1,
                best: self.scan_best(row.iter(), rho, &mut n),
            })
            .collect();
        n.flush();
        out
    }

    /// Smallest bound for which *any* speed pair is feasible:
    /// `min over (i,j) of ρᵢⱼ`.
    pub fn min_feasible_rho(&self) -> f64 {
        self.table
            .iter()
            .map(|inv| inv.rho_min)
            .fold(f64::INFINITY, f64::min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::ResilienceCosts;
    use crate::power::PowerModel;

    fn hera_xscale_solver() -> BiCritSolver {
        let model = SilentModel::new(
            3.38e-6,
            ResilienceCosts::symmetric(300.0, 15.4),
            PowerModel::with_default_io(1550.0, 60.0, 0.15).unwrap(),
        )
        .unwrap();
        let speeds = SpeedSet::new(vec![0.15, 0.4, 0.6, 0.8, 1.0]).unwrap();
        BiCritSolver::new(model, speeds)
    }

    /// One expected row: σ1, and (best σ2, Wopt, E/W) if feasible.
    type PaperRow = (f64, Option<(f64, f64, f64)>);

    /// The paper's four Hera/XScale tables (§4.2), transcribed.
    fn paper_table(rho: f64) -> Vec<PaperRow> {
        #[allow(clippy::redundant_guards)]
        match rho {
            r if r == 8.0 => vec![
                (0.15, Some((0.4, 1711.0, 466.0))),
                (0.4, Some((0.4, 2764.0, 416.0))),
                (0.6, Some((0.4, 3639.0, 674.0))),
                (0.8, Some((0.4, 4627.0, 1082.0))),
                (1.0, Some((0.4, 5742.0, 1625.0))),
            ],
            r if r == 3.0 => vec![
                (0.15, None),
                (0.4, Some((0.4, 2764.0, 416.0))),
                (0.6, Some((0.4, 3639.0, 674.0))),
                (0.8, Some((0.4, 4627.0, 1082.0))),
                (1.0, Some((0.4, 5742.0, 1625.0))),
            ],
            r if r == 1.775 => vec![
                (0.15, None),
                (0.4, None),
                (0.6, Some((0.8, 4251.0, 690.0))),
                (0.8, Some((0.4, 4627.0, 1082.0))),
                (1.0, Some((0.4, 5742.0, 1625.0))),
            ],
            r if r == 1.4 => vec![
                (0.15, None),
                (0.4, None),
                (0.6, None),
                (0.8, Some((0.4, 4627.0, 1082.0))),
                (1.0, Some((0.4, 5742.0, 1625.0))),
            ],
            _ => unreachable!(),
        }
    }

    fn check_table(rho: f64) {
        let solver = hera_xscale_solver();
        let got = solver.per_sigma1(rho);
        let want = paper_table(rho);
        assert_eq!(got.len(), want.len());
        for (g, (s1, expect)) in got.iter().zip(&want) {
            assert_eq!(g.sigma1, *s1);
            match (g.best, expect) {
                (None, None) => {}
                (Some(sol), Some((s2, w, e))) => {
                    assert_eq!(sol.sigma2, *s2, "ρ={rho} σ1={s1}: best σ2");
                    assert!(
                        (sol.w_opt - w).abs() < 1.0,
                        "ρ={rho} σ1={s1}: Wopt {} vs paper {w}",
                        sol.w_opt
                    );
                    assert!(
                        (sol.energy_overhead - e).abs() < 1.0,
                        "ρ={rho} σ1={s1}: E/W {} vs paper {e}",
                        sol.energy_overhead
                    );
                }
                (got, want) => panic!("ρ={rho} σ1={s1}: {got:?} vs paper {want:?}"),
            }
        }
    }

    #[test]
    fn reproduces_paper_table_rho_8() {
        check_table(8.0);
    }

    #[test]
    fn reproduces_paper_table_rho_3() {
        check_table(3.0);
    }

    #[test]
    fn reproduces_paper_table_rho_1_775() {
        check_table(1.775);
    }

    #[test]
    fn reproduces_paper_table_rho_1_4() {
        check_table(1.4);
    }

    #[test]
    fn overall_best_at_rho_3_is_04_04() {
        let solver = hera_xscale_solver();
        let best = solver.solve(3.0).unwrap();
        assert_eq!((best.sigma1, best.sigma2), (0.4, 0.4));
    }

    #[test]
    fn overall_best_at_rho_1_775_uses_two_speeds() {
        let solver = hera_xscale_solver();
        let best = solver.solve(1.775).unwrap();
        assert_eq!((best.sigma1, best.sigma2), (0.6, 0.8));
    }

    #[test]
    fn infeasible_when_rho_below_min() {
        let solver = hera_xscale_solver();
        let rho_star = solver.min_feasible_rho();
        assert!(solver.solve(rho_star * 0.999).is_none());
        assert!(solver.solve(rho_star * 1.001).is_some());
    }

    #[test]
    fn two_speed_never_worse_than_one_speed() {
        let solver = hera_xscale_solver();
        for rho in [1.2, 1.4, 1.775, 2.0, 2.5, 3.0, 5.0, 8.0] {
            if let (Some(two), Some(one)) = (solver.solve(rho), solver.solve_one_speed(rho)) {
                assert!(
                    two.energy_overhead <= one.energy_overhead + 1e-9,
                    "ρ={rho}: two-speed {} > one-speed {}",
                    two.energy_overhead,
                    one.energy_overhead
                );
            }
        }
    }

    #[test]
    fn solutions_respect_the_bound() {
        let solver = hera_xscale_solver();
        for rho in [1.4, 1.775, 3.0, 8.0] {
            for cand in solver.candidates(rho) {
                assert!(
                    cand.time_overhead <= rho * (1.0 + 1e-9),
                    "ρ={rho}: candidate ({},{}) violates bound: {}",
                    cand.sigma1,
                    cand.sigma2,
                    cand.time_overhead
                );
                assert!(cand.rho_min <= rho * (1.0 + 1e-9));
            }
        }
    }

    #[test]
    fn candidates_sorted_by_energy() {
        let solver = hera_xscale_solver();
        let cands = solver.candidates(3.0);
        assert!(!cands.is_empty());
        for w in cands.windows(2) {
            assert!(w[0].energy_overhead <= w[1].energy_overhead);
        }
    }

    #[test]
    fn exact_overheads_close_to_first_order() {
        let solver = hera_xscale_solver();
        let best = solver.solve(3.0).unwrap();
        let m = solver.model();
        let exact_e = best.exact_energy_overhead(m);
        let exact_t = m.time_overhead(best.w_opt, best.sigma1, best.sigma2);
        assert!((exact_e - best.energy_overhead).abs() / exact_e < 1e-2);
        assert!((exact_t - best.time_overhead).abs() / exact_t < 1e-2);
    }

    #[test]
    fn one_speed_solution_is_diagonal() {
        let solver = hera_xscale_solver();
        let one = solver.solve_one_speed(3.0).unwrap();
        assert_eq!(one.sigma1, one.sigma2);
    }

    #[test]
    fn solve_equals_first_candidate() {
        let solver = hera_xscale_solver();
        for rho in [1.2, 1.4, 1.775, 2.0, 3.0, 8.0] {
            assert_eq!(
                solver.solve(rho),
                solver.candidates(rho).first().copied(),
                "ρ={rho}"
            );
        }
    }

    #[test]
    fn solve_many_matches_per_point_solve() {
        let solver = hera_xscale_solver();
        let rhos: Vec<f64> = (0..60).map(|i| 1.1 + 0.12 * i as f64).collect();
        let batched = solver.solve_many(&rhos);
        assert_eq!(batched.len(), rhos.len());
        for (sol, &rho) in batched.iter().zip(&rhos) {
            assert_eq!(*sol, solver.solve(rho), "ρ={rho}");
        }
    }

    #[test]
    fn solve_one_speed_many_matches_per_point() {
        let solver = hera_xscale_solver();
        let rhos: Vec<f64> = (0..60).map(|i| 1.1 + 0.12 * i as f64).collect();
        let batched = solver.solve_one_speed_many(&rhos);
        for (sol, &rho) in batched.iter().zip(&rhos) {
            assert_eq!(*sol, solver.solve_one_speed(rho), "ρ={rho}");
            if let Some(s) = sol {
                assert_eq!(s.sigma1, s.sigma2);
            }
        }
    }

    #[test]
    fn kernel_matches_scalar_at_k20_including_infeasible() {
        // A K=20 table exercises the full-chunk sweep plus a remainder
        // (400 = 50 × 8 pairs, 20 = 2 × 8 + 4 diagonal entries); the grid
        // starts below min_feasible_rho so whole points are infeasible.
        let model = SilentModel::new(
            3.38e-6,
            ResilienceCosts::symmetric(300.0, 15.4),
            PowerModel::with_default_io(1550.0, 60.0, 0.15).unwrap(),
        )
        .unwrap();
        let speeds: Vec<f64> = (0..20).map(|i| 0.2 + 0.8 * i as f64 / 19.0).collect();
        let solver = BiCritSolver::new(model, SpeedSet::new(speeds).unwrap());
        let lo = solver.min_feasible_rho() * 0.5;
        let rhos: Vec<f64> = (0..120).map(|i| lo + 0.08 * i as f64).collect();
        for (sol, &rho) in solver.solve_many(&rhos).iter().zip(&rhos) {
            assert_eq!(*sol, solver.solve(rho), "ρ={rho}");
        }
        for (sol, &rho) in solver.solve_one_speed_many(&rhos).iter().zip(&rhos) {
            assert_eq!(*sol, solver.solve_one_speed(rho), "ρ={rho}");
        }
    }

    #[test]
    fn solve_many_into_reuses_buffer_and_matches() {
        let solver = hera_xscale_solver();
        let rhos: Vec<f64> = (0..40).map(|i| 1.2 + 0.15 * i as f64).collect();
        let mut buf = Vec::new();
        solver.solve_many_into(&rhos, &mut buf);
        assert_eq!(buf, solver.solve_many(&rhos));
        let cap = buf.capacity();
        // Refilling with a same-sized grid must not reallocate.
        solver.solve_many_into(&rhos, &mut buf);
        assert_eq!(buf.capacity(), cap);
        solver.solve_one_speed_many_into(&rhos, &mut buf);
        assert_eq!(buf, solver.solve_one_speed_many(&rhos));
    }

    #[test]
    fn lambda_zero_table_falls_back_to_scalar_scan() {
        let model = SilentModel::new(
            3.38e-6,
            ResilienceCosts::symmetric(300.0, 15.4),
            PowerModel::with_default_io(1550.0, 60.0, 0.15).unwrap(),
        )
        .unwrap()
        .with_lambda(0.0);
        let speeds = SpeedSet::new(vec![0.15, 0.4, 0.6, 0.8, 1.0]).unwrap();
        let solver = BiCritSolver::new(model, speeds);
        let rhos = [1.4, 3.0, 8.0];
        for (sol, &rho) in solver.solve_many(&rhos).iter().zip(&rhos) {
            assert_eq!(*sol, solver.solve(rho), "ρ={rho}");
            assert!(sol.is_none(), "λ=0 is unbounded for every pair");
        }
    }

    #[test]
    fn table_matches_uncached_solve_pair() {
        // The cached entries must be byte-for-byte the uncached math.
        let solver = hera_xscale_solver();
        for rho in [1.4, 1.775, 3.0, 8.0] {
            for cand in solver.candidates(rho) {
                let direct = solver.solve_pair(cand.sigma1, cand.sigma2, rho).unwrap();
                assert_eq!(cand, direct, "ρ={rho} ({}, {})", cand.sigma1, cand.sigma2);
            }
        }
    }

    #[test]
    fn saving_nonnegative_where_defined() {
        let solver = hera_xscale_solver();
        for rho in [1.4, 1.775, 3.0, 8.0] {
            if let (Some(two), Some(one)) = (solver.solve(rho), solver.solve_one_speed(rho)) {
                let s = 1.0 - two.energy_overhead / one.energy_overhead;
                assert!((0.0..1.0).contains(&(s + 1e-12)), "ρ={rho}: saving {s}");
            }
        }
    }
}
