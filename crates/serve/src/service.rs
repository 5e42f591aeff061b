//! The planning service core: resolve → quantize → (cache | batch-solve).
//!
//! [`PlanService`] is the transport-free heart of `rexec-serve`: it owns
//! the solver cache (one [`BiCritSolver`] per distinct quantized table,
//! so the O(K²) candidate table is built once per platform, not per
//! query) and the sharded plan cache. The TCP daemon, the in-process
//! bench stages and the tests all drive exactly this type, so what the
//! benchmarks measure is what the daemon serves.
//!
//! Determinism contract: an answer is a pure function of the quantized
//! query. Cache state, batch boundaries and worker interleavings can
//! change *when* a plan is computed, never *what* it is — `solve_many_into`
//! is bit-identical to the scalar solver (pinned in rexec-core), and
//! both paths consume the same quantized [`TableParams`].

use crate::cache::{CachedPlan, PlanCache};
use crate::quant::TableParams;
use rexec_cli::spec::{PlanSpec, SpecError};
use rexec_core::{BiCritSolution, BiCritSolver};
use rexec_obs::counter;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Service tuning knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Plan-cache capacity in plans; `0` disables the plan cache
    /// entirely (every query solves — the bench baseline).
    pub plan_cache_capacity: usize,
    /// Plan-cache shard count (lock granularity).
    pub plan_cache_shards: usize,
    /// Maximum distinct solver tables kept resident (MRU).
    pub solver_cache_capacity: usize,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            plan_cache_capacity: 65_536,
            plan_cache_shards: 16,
            solver_cache_capacity: 64,
        }
    }
}

/// A resolved, quantized query: everything the solver needs, nothing it
/// doesn't. Produced by [`PlanService::resolve`].
#[derive(Debug, Clone)]
pub struct Query {
    /// Canonical quantized table parameters.
    pub table: TableParams,
    /// Precomputed [`TableParams::hash64`].
    pub table_hash: u64,
    /// Quantized performance bound ρ.
    pub rho: f64,
}

/// The answer to one query.
#[derive(Debug, Clone)]
pub struct PlanAnswer {
    /// Digest of the table that answered (`fnv1a:<16 hex>`).
    pub digest: Arc<str>,
    /// The quantized ρ the plan was solved for.
    pub rho: f64,
    /// The optimal plan, or `None` when ρ is infeasible.
    pub solution: Option<BiCritSolution>,
    /// Smallest feasible ρ for the table, present when infeasible.
    pub min_rho: Option<f64>,
}

/// One resident solver: the quantized table, its digest, the built
/// candidate table, and the lazily computed feasibility floor.
struct SolverEntry {
    table: TableParams,
    hash: u64,
    digest: Arc<str>,
    solver: BiCritSolver,
    min_rho: OnceLock<f64>,
}

impl SolverEntry {
    fn min_rho(&self) -> f64 {
        *self.min_rho.get_or_init(|| self.solver.min_feasible_rho())
    }
}

/// The transport-free planning service.
pub struct PlanService {
    cache: Option<PlanCache>,
    solvers: Mutex<Vec<Arc<SolverEntry>>>,
    solver_cap: usize,
    solver_builds: AtomicU64,
    solver_hits: AtomicU64,
}

impl PlanService {
    /// Builds a service with the given tuning.
    pub fn new(config: ServiceConfig) -> PlanService {
        PlanService {
            cache: (config.plan_cache_capacity > 0)
                .then(|| PlanCache::new(config.plan_cache_capacity, config.plan_cache_shards)),
            solvers: Mutex::new(Vec::new()),
            solver_cap: config.solver_cache_capacity.max(1),
            solver_builds: AtomicU64::new(0),
            solver_hits: AtomicU64::new(0),
        }
    }

    /// Validates and resolves a spec through the shared CLI rule table,
    /// then quantizes it into the canonical query form.
    ///
    /// The service answers exactly the paper's mean-bounded two-speed
    /// plan; the scenario extensions (non-exponential laws via
    /// `spec.resolve()`, schedule search, quantile bounds here) are
    /// rejected with a typed error instead of being silently ignored.
    pub fn resolve(&self, spec: &PlanSpec) -> Result<Query, SpecError> {
        if spec.schedule_depth.is_some() {
            return Err(SpecError::Unsupported {
                field: "schedule_depth",
                reason: "the planning service answers the two-speed plan; re-execution \
                         schedule search is CLI-only (rexec-plan --schedule-depth)",
            });
        }
        if spec.quantile.is_some() {
            return Err(SpecError::Unsupported {
                field: "quantile",
                reason: "the planning service bounds the expected overhead; \
                         deadline-constrained planning is CLI-only (rexec-plan --quantile)",
            });
        }
        let resolved = spec.resolve()?;
        let table = TableParams::new(&resolved.model, &resolved.speeds);
        let table_hash = table.hash64();
        Ok(Query {
            table_hash,
            rho: crate::quant::quantize(resolved.rho),
            table,
        })
    }

    /// The resident solver for a table, building (and digesting) it on
    /// first sight. MRU with a capacity bound: the busiest tables stay
    /// at the front, the least recently used entry is dropped when over
    /// capacity.
    fn solver_entry(&self, table: &TableParams, hash: u64) -> Arc<SolverEntry> {
        let mut solvers = self.solvers.lock().expect("solver cache poisoned");
        if let Some(pos) = solvers
            .iter()
            .position(|e| e.hash == hash && e.table.same(table))
        {
            counter!("serve.solver.hits").incr();
            self.solver_hits.fetch_add(1, Ordering::Relaxed);
            let entry = solvers.remove(pos);
            solvers.insert(0, Arc::clone(&entry));
            return entry;
        }
        counter!("serve.solver.builds").incr();
        self.solver_builds.fetch_add(1, Ordering::Relaxed);
        let entry = Arc::new(SolverEntry {
            table: table.clone(),
            hash,
            digest: Arc::from(table.digest().as_str()),
            solver: table.to_solver(),
            min_rho: OnceLock::new(),
        });
        solvers.insert(0, Arc::clone(&entry));
        solvers.truncate(self.solver_cap);
        entry
    }

    fn answer_from(plan: CachedPlan, rho: f64) -> PlanAnswer {
        PlanAnswer {
            digest: plan.digest,
            rho,
            solution: plan.solution,
            min_rho: plan.min_rho,
        }
    }

    fn solve_one(&self, entry: &SolverEntry, rho: f64) -> CachedPlan {
        let solution = entry.solver.solve(rho);
        CachedPlan {
            digest: Arc::clone(&entry.digest),
            solution,
            min_rho: solution.is_none().then(|| entry.min_rho()),
        }
    }

    /// One-query-per-solve path: cache probe, then a scalar solve on a
    /// miss. This is the unbatched baseline the bench stage compares
    /// against (with the plan cache disabled it is exactly
    /// "resolve + `BiCritSolver::solve` per query").
    pub fn plan(&self, query: &Query) -> PlanAnswer {
        if let Some(cache) = &self.cache {
            if let Some(plan) = cache.get(&query.table, query.table_hash, query.rho) {
                counter!("serve.cache.hits").incr();
                return Self::answer_from(plan, query.rho);
            }
            counter!("serve.cache.misses").incr();
        }
        let entry = self.solver_entry(&query.table, query.table_hash);
        let plan = self.solve_one(&entry, query.rho);
        if let Some(cache) = &self.cache {
            cache.insert(&query.table, query.table_hash, query.rho, plan.clone());
        }
        Self::answer_from(plan, query.rho)
    }

    /// Convenience: resolve + [`plan`](Self::plan) in one call.
    pub fn plan_spec(&self, spec: &PlanSpec) -> Result<PlanAnswer, SpecError> {
        Ok(self.plan(&self.resolve(spec)?))
    }

    /// The batched path: probe the cache for every query, group the
    /// misses by table, and push each group's distinct ρ values through
    /// the zero-allocation `solve_many_into` struct-of-arrays kernel in
    /// one sweep. Answers land in `out` in query order.
    pub fn plan_batch(&self, queries: &[Query], out: &mut Vec<PlanAnswer>) {
        out.clear();
        out.reserve(queries.len());
        // Pass 1: cache probes; misses keep their output slot pending.
        let mut miss_idx: Vec<usize> = Vec::new();
        for (i, q) in queries.iter().enumerate() {
            let hit = self
                .cache
                .as_ref()
                .and_then(|c| c.get(&q.table, q.table_hash, q.rho));
            match hit {
                Some(plan) => {
                    counter!("serve.cache.hits").incr();
                    out.push(Self::answer_from(plan, q.rho));
                }
                None => {
                    if self.cache.is_some() {
                        counter!("serve.cache.misses").incr();
                    }
                    miss_idx.push(i);
                    out.push(PlanAnswer {
                        digest: Arc::from(""),
                        rho: q.rho,
                        solution: None,
                        min_rho: None,
                    });
                }
            }
        }
        if miss_idx.is_empty() {
            return;
        }
        // Pass 2: group misses by table (first-seen order), dedup ρ
        // within each group, and solve each group in one batched sweep.
        let mut groups: Vec<(u64, Vec<usize>)> = Vec::new();
        for &i in &miss_idx {
            let h = queries[i].table_hash;
            match groups.iter_mut().find(|(gh, _)| *gh == h) {
                Some((_, members)) => members.push(i),
                None => groups.push((h, vec![i])),
            }
        }
        let mut rhos: Vec<f64> = Vec::new();
        let mut slot_of: Vec<usize> = Vec::new(); // per member: index into rhos
        let mut solutions: Vec<Option<BiCritSolution>> = Vec::new();
        for (hash, members) in &groups {
            let entry = self.solver_entry(&queries[members[0]].table, *hash);
            rhos.clear();
            slot_of.clear();
            for &i in members {
                let bits = queries[i].rho.to_bits();
                let slot = match rhos.iter().position(|r| r.to_bits() == bits) {
                    Some(s) => s,
                    None => {
                        rhos.push(queries[i].rho);
                        rhos.len() - 1
                    }
                };
                slot_of.push(slot);
            }
            entry.solver.solve_many_into(&rhos, &mut solutions);
            for (m, &i) in members.iter().enumerate() {
                let solution = solutions[slot_of[m]];
                let plan = CachedPlan {
                    digest: Arc::clone(&entry.digest),
                    solution,
                    min_rho: solution.is_none().then(|| entry.min_rho()),
                };
                if let Some(cache) = &self.cache {
                    cache.insert(
                        &queries[i].table,
                        queries[i].table_hash,
                        queries[i].rho,
                        plan.clone(),
                    );
                }
                out[i] = Self::answer_from(plan, queries[i].rho);
            }
        }
    }

    /// Plan-cache counter snapshot (zeros when the cache is disabled).
    pub fn cache_stats(&self) -> crate::cache::CacheStats {
        self.cache.as_ref().map(|c| c.stats()).unwrap_or_default()
    }

    /// Number of plans currently cached.
    pub fn cached_plans(&self) -> usize {
        self.cache.as_ref().map(|c| c.len()).unwrap_or(0)
    }

    /// Number of resident solver tables.
    pub fn resident_solvers(&self) -> usize {
        self.solvers.lock().expect("solver cache poisoned").len()
    }

    /// `(builds, hits)` of the solver cache for this service instance.
    pub fn solver_stats(&self) -> (u64, u64) {
        (
            self.solver_builds.load(Ordering::Relaxed),
            self.solver_hits.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(platform: &str, rho: f64) -> PlanSpec {
        PlanSpec {
            platform: Some(platform.into()),
            processor: Some("xscale".into()),
            rho: Some(rho),
            ..PlanSpec::default()
        }
    }

    fn service() -> PlanService {
        PlanService::new(ServiceConfig::default())
    }

    #[test]
    fn hit_is_bit_identical_to_fresh_solve() {
        let svc = service();
        let q = svc.resolve(&spec("hera", 3.0)).unwrap();
        let first = svc.plan(&q); // miss: solves
        let second = svc.plan(&q); // hit: cached
        assert_eq!(first.solution, second.solution);
        assert_eq!(first.digest, second.digest);
        // ...and both equal a solver built directly from the table.
        let fresh = q.table.to_solver().solve(q.rho);
        assert_eq!(first.solution, fresh);
        let stats = svc.cache_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn table_change_changes_digest_and_misses() {
        let svc = service();
        let hera = svc.plan_spec(&spec("hera", 3.0)).unwrap();
        let atlas = svc.plan_spec(&spec("atlas", 3.0)).unwrap();
        assert_ne!(hera.digest, atlas.digest, "digest tracks the table");
        assert_eq!(svc.cache_stats().misses, 2, "no cross-table hit");
        assert_eq!(svc.resident_solvers(), 2);
    }

    #[test]
    fn batch_matches_scalar_bit_for_bit_and_fills_cache() {
        let svc = service();
        let queries: Vec<Query> = [1.5, 3.0, 5.0, 3.0, 0.5]
            .iter()
            .map(|&rho| svc.resolve(&spec("hera", rho)).unwrap())
            .collect();
        let mut batched = Vec::new();
        svc.plan_batch(&queries, &mut batched);
        let reference = PlanService::new(ServiceConfig {
            plan_cache_capacity: 0,
            ..ServiceConfig::default()
        });
        for (q, b) in queries.iter().zip(&batched) {
            let scalar = reference.plan(q);
            assert_eq!(b.solution, scalar.solution, "rho = {}", q.rho);
            assert_eq!(b.min_rho, scalar.min_rho);
            assert_eq!(b.digest, scalar.digest);
        }
        // Re-planning the same batch is now all hits.
        let before = svc.cache_stats().hits;
        let mut again = Vec::new();
        svc.plan_batch(&queries, &mut again);
        assert_eq!(svc.cache_stats().hits, before + queries.len() as u64);
        for (a, b) in batched.iter().zip(&again) {
            assert_eq!(a.solution, b.solution);
        }
    }

    #[test]
    fn infeasible_reports_the_feasibility_floor() {
        let svc = service();
        let a = svc.plan_spec(&spec("hera", 1.0)).unwrap();
        assert!(a.solution.is_none());
        let floor = a.min_rho.expect("infeasible answers carry min_rho");
        assert!(floor > 1.0);
        // The floor itself is feasible.
        let at_floor = svc.plan_spec(&spec("hera", floor + 1e-6)).unwrap();
        assert!(at_floor.solution.is_some());
    }

    #[test]
    fn cache_off_and_cache_on_agree() {
        let on = service();
        let off = PlanService::new(ServiceConfig {
            plan_cache_capacity: 0,
            ..ServiceConfig::default()
        });
        for rho in [1.2, 1.775, 2.5, 3.0, 10.0] {
            for platform in ["hera", "atlas", "coastal"] {
                let s = spec(platform, rho);
                let a = on.plan_spec(&s).unwrap();
                let b = off.plan_spec(&s).unwrap();
                // Twice on the caching service: second is a hit.
                let c = on.plan_spec(&s).unwrap();
                assert_eq!(a.solution, b.solution);
                assert_eq!(a.solution, c.solution);
                assert_eq!(a.min_rho, b.min_rho);
            }
        }
        assert_eq!(off.cache_stats(), crate::cache::CacheStats::default());
    }

    #[test]
    fn deterministic_eviction_under_capacity_pressure() {
        // Single shard, capacity 3: inserting rhos 1..=4 must evict
        // exactly the first, in order.
        let svc = PlanService::new(ServiceConfig {
            plan_cache_capacity: 3,
            plan_cache_shards: 1,
            ..ServiceConfig::default()
        });
        for rho in [2.0, 3.0, 4.0, 5.0] {
            svc.plan_spec(&spec("hera", rho)).unwrap();
        }
        assert_eq!(svc.cached_plans(), 3);
        assert_eq!(svc.cache_stats().evictions, 1);
        // rho=2.0 was evicted: re-planning it misses (and evicts 3.0).
        svc.plan_spec(&spec("hera", 2.0)).unwrap();
        let stats = svc.cache_stats();
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.misses, 5);
        assert_eq!(stats.evictions, 2);
        // 4.0 and 5.0 survived both evictions.
        svc.plan_spec(&spec("hera", 4.0)).unwrap();
        svc.plan_spec(&spec("hera", 5.0)).unwrap();
        assert_eq!(svc.cache_stats().hits, 2);
    }

    #[test]
    fn solver_cache_is_mru_bounded() {
        let svc = PlanService::new(ServiceConfig {
            solver_cache_capacity: 2,
            ..ServiceConfig::default()
        });
        for p in ["hera", "atlas", "coastal"] {
            svc.plan_spec(&spec(p, 3.0)).unwrap();
        }
        assert_eq!(svc.resident_solvers(), 2, "capacity bound holds");
        // hera (least recently used) was dropped; coastal and atlas
        // resident. Touching atlas is a solver hit, hera a rebuild.
        let (before, _) = svc.solver_stats();
        svc.plan_spec(&spec("atlas", 4.0)).unwrap();
        assert_eq!(svc.solver_stats().0, before);
        svc.plan_spec(&spec("hera", 4.0)).unwrap();
        assert_eq!(svc.solver_stats().0, before + 1);
    }

    #[test]
    fn scenario_extensions_are_typed_unsupported_errors() {
        let svc = service();
        let sched = PlanSpec {
            schedule_depth: Some(2),
            ..spec("hera", 3.0)
        };
        assert!(matches!(
            svc.plan_spec(&sched),
            Err(SpecError::Unsupported {
                field: "schedule_depth",
                ..
            })
        ));
        let deadline = PlanSpec {
            quantile: Some(0.99),
            ..spec("hera", 3.0)
        };
        assert!(matches!(
            svc.plan_spec(&deadline),
            Err(SpecError::Unsupported {
                field: "quantile",
                ..
            })
        ));
        let weibull = PlanSpec {
            law: Some("weibull".into()),
            shape: Some(0.7),
            ..spec("hera", 3.0)
        };
        assert!(matches!(
            svc.plan_spec(&weibull),
            Err(SpecError::Unsupported { field: "law", .. })
        ));
        // Naming the default law explicitly still plans.
        let exponential = PlanSpec {
            law: Some("exponential".into()),
            ..spec("hera", 3.0)
        };
        assert!(svc.plan_spec(&exponential).unwrap().solution.is_some());
    }

    #[test]
    fn invalid_specs_surface_spec_errors() {
        let svc = service();
        let bad = PlanSpec {
            lambda: Some(-1.0),
            ..spec("hera", 3.0)
        };
        assert!(matches!(
            svc.plan_spec(&bad),
            Err(SpecError::Invalid {
                field: "lambda",
                ..
            })
        ));
        let unknown = PlanSpec {
            platform: Some("jupiter".into()),
            ..spec("hera", 3.0)
        };
        assert!(matches!(
            svc.plan_spec(&unknown),
            Err(SpecError::UnknownName(_))
        ));
    }
}
