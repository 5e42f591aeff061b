//! The sharded plan cache.
//!
//! Keyed by the table hash plus quantized ρ; values are fully solved
//! plans. Because quantization happens *before* solving (see
//! [`crate::quant`]), a cached value is byte-for-byte what a fresh
//! solve of the same key would produce — the cache can change latency,
//! never answers.
//!
//! Sharding bounds lock contention: a query locks exactly one shard,
//! chosen by the key hash. Quantization clears the low mantissa bits of
//! every hashed word, and an FNV word step carries low bits only into
//! low bits, so the key's low bits are the same for every table with
//! the same number of speeds; FNV's sparse prime also leaves its high
//! bits nearly fixed across nearby ρ. The shard is therefore the high
//! bits of the key times an odd constant, which every key bit reaches.
//!
//! Each shard stores its plans in a ring of at most its share of the
//! capacity, in insertion order, plus an index from key hash to ring
//! slot. Once the ring is full, an insert overwrites the oldest slot:
//! eviction is FIFO per shard, so with a single writer the victim
//! sequence is fully deterministic (pinned by a test in `service.rs`).
//! A slot holds one plan: a probe compares the full table params and ρ
//! bits before declaring a hit, and a second key that collides with a
//! resident one on the 64-bit hash is left uncached — a collision costs
//! a miss, never a wrong plan.

use crate::quant::{plan_hash, TableParams};
use rexec_core::BiCritSolution;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A solved, cacheable plan: the answer to one `(table, ρ)` key.
#[derive(Debug, Clone)]
pub struct CachedPlan {
    /// The table digest (`fnv1a:<16 hex>`), shared across all plans of
    /// one table.
    pub digest: Arc<str>,
    /// The solution; `None` when ρ is infeasible for the table.
    pub solution: Option<BiCritSolution>,
    /// Smallest feasible ρ, reported when `solution` is `None`.
    pub min_rho: Option<f64>,
}

/// One resident plan. `table` shares its speeds with the inserter's
/// params, so a plan costs its fixed size and no heap block of its own.
struct Entry {
    key: u64,
    rho_bits: u64,
    table: TableParams,
    plan: CachedPlan,
}

#[derive(Default)]
struct Shard {
    /// Key hash → slot in `ring`.
    index: HashMap<u64, usize>,
    /// Resident plans in insertion order, rotated by `oldest` once full.
    ring: Vec<Entry>,
    /// The slot the next insert overwrites once the ring is full.
    oldest: usize,
}

/// Monotonic cache counters (also mirrored into rexec-obs by the
/// service layer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that required a solve.
    pub misses: u64,
    /// Entries displaced by the capacity bound.
    pub evictions: u64,
}

/// Sharded, capacity-bounded plan cache.
pub struct PlanCache {
    shards: Box<[Mutex<Shard>]>,
    shard_cap: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl PlanCache {
    /// A cache holding at most `capacity` plans across `shards` shards
    /// (each shard bounded by its share, rounded up).
    pub fn new(capacity: usize, shards: usize) -> PlanCache {
        let shards = shards.max(1);
        let shard_cap = capacity.div_ceil(shards).max(1);
        PlanCache {
            shards: (0..shards).map(|_| Mutex::new(Shard::default())).collect(),
            shard_cap,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The shard of a key: the high bits of the key times an odd
    /// constant, scaled to the shard count (multiply-shift).
    #[inline]
    fn shard_for(&self, key: u64) -> &Mutex<Shard> {
        let mixed = key.wrapping_mul(0x9e37_79b9_7f4a_7c15) as u128;
        &self.shards[((mixed * self.shards.len() as u128) >> 64) as usize]
    }

    /// Looks up the plan for `(table, ρ)`; counts a hit or a miss.
    pub fn get(&self, table: &TableParams, table_hash: u64, rho: f64) -> Option<CachedPlan> {
        let key = plan_hash(table_hash, rho);
        let shard = self.shard_for(key).lock().expect("cache shard poisoned");
        let hit = shard
            .index
            .get(&key)
            .map(|&slot| &shard.ring[slot])
            .filter(|e| e.rho_bits == rho.to_bits() && e.table.same(table))
            .map(|e| e.plan.clone());
        drop(shard);
        match hit {
            Some(plan) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(plan)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Inserts the plan for `(table, ρ)` unless its key hash is already
    /// resident: either the same key (concurrent solvers of one key
    /// insert identical values, so first-wins keeps the ring
    /// duplicate-free) or a colliding one, which stays uncached. Over
    /// capacity, the new plan takes the shard's oldest slot.
    pub fn insert(&self, table: &TableParams, table_hash: u64, rho: f64, plan: CachedPlan) {
        let key = plan_hash(table_hash, rho);
        let mut guard = self.shard_for(key).lock().expect("cache shard poisoned");
        let shard = &mut *guard;
        if shard.index.contains_key(&key) {
            return;
        }
        let entry = Entry {
            key,
            rho_bits: rho.to_bits(),
            table: table.clone(),
            plan,
        };
        let slot = if shard.ring.len() < self.shard_cap {
            shard.ring.push(entry);
            shard.ring.len() - 1
        } else {
            let slot = shard.oldest;
            shard.oldest = (slot + 1) % self.shard_cap;
            let victim = std::mem::replace(&mut shard.ring[slot], entry);
            shard.index.remove(&victim.key);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            slot
        };
        shard.index.insert(key, slot);
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Number of cached plans (takes every shard lock).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard poisoned").ring.len())
            .sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rexec_core::{PowerModel, ResilienceCosts, SilentModel, SpeedSet};

    fn model(lambda: f64) -> SilentModel {
        SilentModel::new(
            lambda,
            ResilienceCosts::new(300.0, 15.4, 300.0).unwrap(),
            PowerModel::new(1550.0, 60.0, 5.23).unwrap(),
        )
        .unwrap()
    }

    fn table(lambda: f64) -> TableParams {
        TableParams::new(&model(lambda), &SpeedSet::new(vec![0.15, 1.0]).unwrap())
    }

    fn plan(tag: f64) -> CachedPlan {
        CachedPlan {
            digest: Arc::from("fnv1a:0000000000000000"),
            solution: None,
            min_rho: Some(tag),
        }
    }

    #[test]
    fn get_insert_round_trip_and_counters() {
        let cache = PlanCache::new(8, 2);
        let t = table(1e-6);
        let h = t.hash64();
        assert!(cache.get(&t, h, 3.0).is_none());
        cache.insert(&t, h, 3.0, plan(1.0));
        let hit = cache.get(&t, h, 3.0).expect("inserted key hits");
        assert_eq!(hit.min_rho, Some(1.0));
        assert!(cache.get(&t, h, 2.0).is_none(), "other rho misses");
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 1,
                misses: 2,
                evictions: 0
            }
        );
    }

    #[test]
    fn capacity_bound_evicts_fifo_per_shard() {
        // One shard makes the global FIFO order observable.
        let cache = PlanCache::new(2, 1);
        let t = table(1e-6);
        let h = t.hash64();
        cache.insert(&t, h, 1.0, plan(1.0));
        cache.insert(&t, h, 2.0, plan(2.0));
        cache.insert(&t, h, 3.0, plan(3.0)); // evicts rho=1.0
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&t, h, 1.0).is_none(), "oldest entry evicted");
        assert!(cache.get(&t, h, 2.0).is_some());
        assert!(cache.get(&t, h, 3.0).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn duplicate_insert_is_a_no_op() {
        let cache = PlanCache::new(4, 1);
        let t = table(1e-6);
        let h = t.hash64();
        cache.insert(&t, h, 1.0, plan(1.0));
        cache.insert(&t, h, 1.0, plan(99.0));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(&t, h, 1.0).unwrap().min_rho, Some(1.0));
    }

    #[test]
    fn distinct_tables_do_not_collide() {
        let cache = PlanCache::new(8, 4);
        let (a, b) = (table(1e-6), table(2e-6));
        cache.insert(&a, a.hash64(), 3.0, plan(1.0));
        assert!(cache.get(&b, b.hash64(), 3.0).is_none());
        cache.insert(&b, b.hash64(), 3.0, plan(2.0));
        assert_eq!(cache.get(&a, a.hash64(), 3.0).unwrap().min_rho, Some(1.0));
        assert_eq!(cache.get(&b, b.hash64(), 3.0).unwrap().min_rho, Some(2.0));
    }

    #[test]
    fn one_table_fills_every_shard_to_capacity() {
        // Quantization leaves the low key bits equal for every plan of a
        // K-speed table; picking the shard from them sent every plan to
        // one shard and capped the cache at 4,096 plans.
        let speeds: Vec<f64> = (0..20).map(|i| 0.15 + 0.85 * i as f64 / 19.0).collect();
        let t = TableParams::new(&model(3.38e-6), &SpeedSet::new(speeds).unwrap());
        let h = t.hash64();
        let cache = PlanCache::new(65_536, 16);
        let mut rho = 1.5;
        let mut fill = |n: usize| {
            for _ in 0..n {
                cache.insert(&t, h, rho, plan(rho));
                rho = crate::quant::quantize(rho * (1.0 + 1e-7));
            }
        };
        // As many plans as slots: hashing spreads them over the shards,
        // not exactly evenly, so a few shards evict before the others
        // fill. Under 1 % of the plans may be evicted.
        fill(65_536);
        for shard in cache.shards.iter() {
            let len = shard.lock().unwrap().ring.len();
            assert!((4_000..=4_096).contains(&len), "shard holds {len} plans");
        }
        assert!(cache.stats().evictions < 65_536 / 100);
        // A fill past capacity leaves every shard at its share.
        fill(14_464);
        assert_eq!(cache.len(), 65_536);
    }
}
