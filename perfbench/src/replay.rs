//! Per-layer replay of a serve request stream through the service's
//! public calls, timed from outside: `parse_request`, `PlanSpec::resolve`,
//! `TableParams::new` + `hash64` + `quantize`, a bench-owned `PlanCache`
//! (default capacity and shards), `to_solver`, `solve_many_into`,
//! `render_answer`, and separately `PlanService::plan_batch`. Requests go
//! through in batches of the daemon's observed median size, the way a
//! worker processes them.

use crate::gen::Lines;
use rexec_core::{BiCritSolution, BiCritSolver};
use rexec_serve::{
    parse_request, quantize, render_answer, CachedPlan, PlanAnswer, PlanCache, PlanService,
    ServiceConfig, TableParams,
};
use std::sync::Arc;
use std::time::Instant;

/// Per-call samples of every replayed layer (µs unless named otherwise).
#[derive(Debug, Default)]
pub struct Layers {
    /// `parse_request`.
    pub parse: Vec<f64>,
    /// `PlanSpec::resolve`.
    pub resolve: Vec<f64>,
    /// `TableParams::new` + `hash64` + `quantize`.
    pub key: Vec<f64>,
    /// `PlanCache::get`.
    pub get: Vec<f64>,
    /// `PlanCache::insert` (misses only).
    pub insert: Vec<f64>,
    /// `TableParams::to_solver` (first sight of each table).
    pub build: Vec<f64>,
    /// `solve_many_into`, ns per ρ of each call.
    pub solve_ns_per_rho: Vec<f64>,
    /// Distinct ρ per `solve_many_into` call.
    pub rhos_per_call: Vec<f64>,
    /// `render_answer`.
    pub render: Vec<f64>,
    /// Cache hits, lookups and evictions of the bench-owned cache.
    pub hits: u64,
    /// See `hits`.
    pub lookups: u64,
    /// See `hits`.
    pub evictions: u64,
    /// Requests that did not parse or resolve (none are expected).
    pub failed: usize,
    /// Wall time of the whole replay, seconds.
    pub wall_s: f64,
}

struct Table {
    params: TableParams,
    hash: u64,
    digest: Arc<str>,
    solver: BiCritSolver,
    min_rho: Option<f64>,
}

/// One request of the batch in flight: its id, table index, table hash,
/// quantized ρ, and the plan once the cache or a solve supplied it.
struct Pending {
    id: Option<u64>,
    table: usize,
    hash: u64,
    rho: f64,
    plan: Option<CachedPlan>,
}

/// Busy-waits `ns` nanoseconds (the attribution self-test's injected
/// delay).
fn spin(ns: u64) {
    let t = Instant::now();
    while (t.elapsed().as_nanos() as u64) < ns {
        std::hint::spin_loop();
    }
}

/// Appends the µs since `*from` to `into` and restarts the lap (timed
/// replays only; the untimed instantiation compiles this away).
#[inline(always)]
fn lap<const TIMED: bool>(from: &mut Instant, into: &mut Vec<f64>) {
    if TIMED {
        let now = Instant::now();
        into.push((now - *from).as_nanos() as f64 / 1e3);
        *from = now;
    }
}

#[inline(always)]
fn stamp<const TIMED: bool>(t: &mut Instant) {
    if TIMED {
        *t = Instant::now();
    }
}

/// Replays `lines` in batches of `batch`. With `TIMED = false` the same
/// calls run without clock reads, which gives the tracing overhead.
/// `inject_parse_ns` busy-waits inside the timed `parse_request` wrapper
/// of every odd-numbered request (the attribution self-test).
pub fn layers<const TIMED: bool>(lines: &Lines, batch: usize, inject_parse_ns: u64) -> Layers {
    let defaults = ServiceConfig::default();
    let cache = PlanCache::new(defaults.plan_cache_capacity, defaults.plan_cache_shards);
    let mut tables: Vec<Table> = Vec::new();
    let mut out = Layers::default();
    let mut pending: Vec<Pending> = Vec::new();
    let mut rhos: Vec<f64> = Vec::new();
    let mut solutions: Vec<Option<BiCritSolution>> = Vec::new();
    let mut text = String::new();
    let started = Instant::now();
    let mut t = started;
    for first in (0..lines.len()).step_by(batch.max(1)) {
        pending.clear();
        for i in first..(first + batch.max(1)).min(lines.len()) {
            stamp::<TIMED>(&mut t);
            let (id, spec) = parse_request(lines.line(i));
            if inject_parse_ns > 0 && i % 2 == 1 {
                spin(inject_parse_ns);
            }
            lap::<TIMED>(&mut t, &mut out.parse);
            let Ok(resolved) = spec.map_err(drop).and_then(|s| s.resolve().map_err(drop)) else {
                out.failed += 1;
                continue;
            };
            lap::<TIMED>(&mut t, &mut out.resolve);
            let params = TableParams::new(&resolved.model, &resolved.speeds);
            let hash = params.hash64();
            let rho = quantize(resolved.rho);
            lap::<TIMED>(&mut t, &mut out.key);
            let hit = cache.get(&params, hash, rho);
            lap::<TIMED>(&mut t, &mut out.get);
            let table = match tables
                .iter()
                .position(|e| e.hash == hash && e.params.same(&params))
            {
                Some(pos) => pos,
                None => {
                    stamp::<TIMED>(&mut t);
                    let solver = params.to_solver();
                    lap::<TIMED>(&mut t, &mut out.build);
                    tables.push(Table {
                        digest: Arc::from(params.digest().as_str()),
                        params,
                        hash,
                        solver,
                        min_rho: None,
                    });
                    tables.len() - 1
                }
            };
            pending.push(Pending {
                id,
                table,
                hash,
                rho,
                plan: hit,
            });
        }
        // Misses, grouped by table with ρ deduplicated, as plan_batch does.
        for (index, entry) in tables.iter_mut().enumerate() {
            let misses = |p: &&mut Pending| p.table == index && p.plan.is_none();
            rhos.clear();
            for p in pending.iter_mut().filter(misses) {
                if !rhos.iter().any(|r| r.to_bits() == p.rho.to_bits()) {
                    rhos.push(p.rho);
                }
            }
            if rhos.is_empty() {
                continue;
            }
            stamp::<TIMED>(&mut t);
            entry.solver.solve_many_into(&rhos, &mut solutions);
            if TIMED {
                let ns = t.elapsed().as_nanos() as f64;
                out.solve_ns_per_rho.push(ns / rhos.len() as f64);
                out.rhos_per_call.push(rhos.len() as f64);
            }
            for p in pending.iter_mut().filter(misses) {
                let slot = rhos.iter().position(|r| r.to_bits() == p.rho.to_bits());
                let solution = solutions[slot.expect("every miss ρ was queued")];
                if solution.is_none() && entry.min_rho.is_none() {
                    entry.min_rho = Some(entry.solver.min_feasible_rho());
                }
                let plan = CachedPlan {
                    digest: Arc::clone(&entry.digest),
                    solution,
                    min_rho: if solution.is_none() {
                        entry.min_rho
                    } else {
                        None
                    },
                };
                stamp::<TIMED>(&mut t);
                cache.insert(&entry.params, p.hash, p.rho, plan.clone());
                lap::<TIMED>(&mut t, &mut out.insert);
                p.plan = Some(plan);
            }
        }
        for p in pending.drain(..) {
            let plan = p.plan.expect("every request was answered");
            let answer = PlanAnswer {
                digest: plan.digest,
                rho: p.rho,
                solution: plan.solution,
                min_rho: plan.min_rho,
            };
            text.clear();
            stamp::<TIMED>(&mut t);
            render_answer(&mut text, p.id, &answer);
            lap::<TIMED>(&mut t, &mut out.render);
            std::hint::black_box(&text);
        }
    }
    out.wall_s = started.elapsed().as_secs_f64();
    let stats = cache.stats();
    out.hits = stats.hits;
    out.lookups = stats.hits + stats.misses;
    out.evictions = stats.evictions;
    out
}

/// µs per request of `PlanService::plan_batch` (default configuration,
/// plan cache on) over `lines` in batches of `batch`: one sample per
/// call, the call's time divided by its batch size.
pub fn plan_batch_per_request(lines: &Lines, batch: usize) -> Vec<f64> {
    let svc = PlanService::new(ServiceConfig::default());
    let queries: Vec<_> = (0..lines.len())
        .filter_map(|i| {
            let spec = parse_request(lines.line(i)).1.ok()?;
            svc.resolve(&spec).ok()
        })
        .collect();
    let mut answers = Vec::new();
    queries
        .chunks(batch.max(1))
        .map(|chunk| {
            let t = Instant::now();
            svc.plan_batch(chunk, &mut answers);
            std::hint::black_box(&answers);
            t.elapsed().as_nanos() as f64 / 1e3 / chunk.len() as f64
        })
        .collect()
}
