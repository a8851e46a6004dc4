//! Content-addressed memoization of partition plans.
//!
//! Planning a nest is the expensive end of the pipeline (legality
//! analysis, reference classification, exhaustive tile-shape search).
//! [`PlanCache`] memoizes finished [`PartitionPlan`]s keyed by the
//! nest's structural fingerprint plus the machine parameters, so
//! re-compiling the same nest — common in the bench sweeps and in any
//! driver that compiles a program repeatedly — is a hash lookup.
//!
//! Plans are held behind [`Arc`], so a hit costs one reference-count
//! bump and hands out the same immutable artifact to every consumer.
//! Eviction is least-recently-used with a fixed capacity; hit, miss,
//! and eviction counters are exposed through [`CacheStats`] for the
//! bench harness.

use crate::PartitionPlan;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// What a cached plan is keyed by: the structural nest fingerprint plus
/// every compilation parameter that can change the plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// Structural fingerprint of the nest ([`crate::fingerprint()`]).
    pub fingerprint: u64,
    /// Processor count the plan targets.
    pub processors: i128,
    /// Optional 2-D mesh shape.
    pub mesh: Option<(usize, usize)>,
    /// Whether legality analysis ran (checked and unchecked plans for
    /// the same nest must not alias).
    pub checked: bool,
    /// Whether a calibrated latency model drove the tile-shape choice
    /// (calibrated and analytic plans for the same nest must not
    /// alias).
    pub calibrated: bool,
    /// Whether the plan partitions a transformed (skewed) space —
    /// skewed and rectangular plans for the same nest must not alias.
    pub skewed: bool,
    /// Whether the plan carries an embedded certificate (certified and
    /// uncertified plans for the same nest must not alias: the
    /// certificate changes the artifact bytes and widens the client's
    /// retry policy).
    pub certified: bool,
}

/// Hit/miss/eviction counters, cumulative over the cache's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to the planner.
    pub misses: u64,
    /// Entries evicted to make room.
    pub evictions: u64,
}

impl CacheStats {
    /// Hits as a fraction of all lookups (0 when no lookups yet).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Entry {
    plan: Arc<PartitionPlan>,
    last_used: u64,
}

/// Interior hit/miss/eviction counters.  Atomic so a [`CacheStats`]
/// snapshot can be taken through `&PlanCache` at any time — concurrent
/// server handlers export stats without exclusive access (the counters
/// are monotonic, so a torn multi-field read is still a valid
/// point-in-time view of each counter).
#[derive(Debug, Default)]
struct Counters {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

/// An LRU cache of finished partition plans.
pub struct PlanCache {
    map: HashMap<PlanKey, Entry>,
    capacity: usize,
    tick: u64,
    stats: Counters,
}

impl PlanCache {
    /// Default capacity used by the compiler and CLI.
    pub const DEFAULT_CAPACITY: usize = 64;

    /// A cache holding at most `capacity` plans (minimum 1).
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            map: HashMap::new(),
            capacity: capacity.max(1),
            tick: 0,
            stats: Counters::default(),
        }
    }

    /// Number of cached plans.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Maximum number of plans this cache will hold.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Snapshot of every cached entry, most-recently-used last.  The
    /// durable store uses this to compact a live cache into a fresh
    /// journal segment without holding the lock across I/O.
    pub fn entries(&self) -> Vec<(PlanKey, Arc<PartitionPlan>)> {
        let mut all: Vec<(&PlanKey, &Entry)> = self.map.iter().collect();
        all.sort_by_key(|(_, e)| e.last_used);
        all.into_iter()
            .map(|(k, e)| (*k, Arc::clone(&e.plan)))
            .collect()
    }

    /// A point-in-time snapshot of the cumulative counters.  Needs only
    /// `&self`: the counters are atomic, so concurrent readers (e.g. a
    /// server's stats endpoint) never block a lookup.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.stats.hits.load(Ordering::Relaxed),
            misses: self.stats.misses.load(Ordering::Relaxed),
            evictions: self.stats.evictions.load(Ordering::Relaxed),
        }
    }

    /// Look up a plan, counting a hit or miss and refreshing recency.
    pub fn get(&mut self, key: &PlanKey) -> Option<Arc<PartitionPlan>> {
        self.tick += 1;
        match self.map.get_mut(key) {
            Some(e) => {
                e.last_used = self.tick;
                self.stats.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(&e.plan))
            }
            None => {
                self.stats.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Like [`get`](PlanCache::get) but without touching the hit/miss
    /// counters (recency is still refreshed).  The sharded cache uses
    /// this so its own per-request accounting (hit / miss / coalesced)
    /// stays the single source of truth and a coalesced waiter is never
    /// double-counted as a miss.
    pub fn peek(&mut self, key: &PlanKey) -> Option<Arc<PartitionPlan>> {
        self.tick += 1;
        self.map.get_mut(key).map(|e| {
            e.last_used = self.tick;
            Arc::clone(&e.plan)
        })
    }

    /// Insert a plan, evicting the least-recently-used entry when full.
    pub fn insert(&mut self, key: PlanKey, plan: Arc<PartitionPlan>) {
        self.tick += 1;
        if !self.map.contains_key(&key) && self.map.len() >= self.capacity {
            if let Some(victim) = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
            {
                self.map.remove(&victim);
                self.stats.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        self.map.insert(
            key,
            Entry {
                plan,
                last_used: self.tick,
            },
        );
    }

    /// Memoize: return the cached plan for `key`, or build one with
    /// `make`, cache it, and return it.  A failed build caches nothing
    /// and hands back the planner's own error, whichever layer's it is.
    pub fn get_or_try_insert_with<E>(
        &mut self,
        key: PlanKey,
        make: impl FnOnce() -> Result<PartitionPlan, E>,
    ) -> Result<Arc<PartitionPlan>, E> {
        if let Some(plan) = self.get(&key) {
            return Ok(plan);
        }
        let plan = Arc::new(make()?);
        self.insert(key, Arc::clone(&plan));
        Ok(plan)
    }
}

impl Default for PlanCache {
    fn default() -> Self {
        Self::new(Self::DEFAULT_CAPACITY)
    }
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanCache")
            .field("len", &self.map.len())
            .field("capacity", &self.capacity)
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LegalityVerdict, PlanError};
    use alp_loopir::parse;

    fn key(fp: u64) -> PlanKey {
        PlanKey {
            fingerprint: fp,
            processors: 16,
            mesh: None,
            checked: true,
            calibrated: false,
            skewed: false,
            certified: false,
        }
    }

    fn plan(trip: i128) -> PartitionPlan {
        let nest = parse(&format!("doall (i, 0, {trip}) {{ A[i] = A[i]; }}")).unwrap();
        PartitionPlan::build(&nest, 4, None, LegalityVerdict::Unchecked).unwrap()
    }

    #[test]
    fn memoizes_and_counts() {
        let mut cache = PlanCache::new(8);
        let mut built = 0;
        for _ in 0..3 {
            let p = cache
                .get_or_try_insert_with(key(1), || {
                    built += 1;
                    Ok::<_, PlanError>(plan(63))
                })
                .unwrap();
            assert_eq!(p.tiles(), 4);
        }
        assert_eq!(built, 1, "planner ran once");
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 2,
                misses: 1,
                evictions: 0
            }
        );
        assert!((cache.stats().hit_rate() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn distinct_params_do_not_alias() {
        let mut cache = PlanCache::new(8);
        cache.insert(key(1), Arc::new(plan(63)));
        assert!(cache.get(&key(2)).is_none());
        assert!(cache
            .get(&PlanKey {
                checked: false,
                ..key(1)
            })
            .is_none());
        assert!(cache
            .get(&PlanKey {
                mesh: Some((2, 2)),
                ..key(1)
            })
            .is_none());
        assert!(cache
            .get(&PlanKey {
                calibrated: true,
                ..key(1)
            })
            .is_none());
        assert!(cache
            .get(&PlanKey {
                skewed: true,
                ..key(1)
            })
            .is_none());
        assert!(cache
            .get(&PlanKey {
                certified: true,
                ..key(1)
            })
            .is_none());
        assert!(cache.get(&key(1)).is_some());
    }

    #[test]
    fn stats_snapshot_needs_only_a_shared_reference() {
        let mut cache = PlanCache::new(4);
        cache.insert(key(1), Arc::new(plan(63)));
        cache.get(&key(1));
        cache.get(&key(2));
        // Read through &PlanCache while another shared borrow is live —
        // what a concurrent stats exporter does.
        let shared: &PlanCache = &cache;
        let a = shared.stats();
        let b = shared.stats();
        assert_eq!(a, b);
        assert_eq!((a.hits, a.misses), (1, 1));
    }

    #[test]
    fn peek_refreshes_recency_without_counting() {
        let mut cache = PlanCache::new(2);
        cache.insert(key(1), Arc::new(plan(63)));
        cache.insert(key(2), Arc::new(plan(127)));
        assert!(cache.peek(&key(1)).is_some());
        assert!(cache.peek(&key(9)).is_none());
        assert_eq!(cache.stats(), CacheStats::default(), "peek never counts");
        // The peek refreshed key 1, so key 2 is now the LRU victim.
        cache.insert(key(3), Arc::new(plan(255)));
        assert!(cache.peek(&key(2)).is_none());
        assert!(cache.peek(&key(1)).is_some());
    }

    #[test]
    fn lru_eviction() {
        let mut cache = PlanCache::new(2);
        cache.insert(key(1), Arc::new(plan(63)));
        cache.insert(key(2), Arc::new(plan(127)));
        cache.get(&key(1)); // refresh 1; 2 becomes LRU
        cache.insert(key(3), Arc::new(plan(255)));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.get(&key(2)).is_none(), "LRU entry evicted");
        assert!(cache.get(&key(1)).is_some());
        assert!(cache.get(&key(3)).is_some());
    }

    #[test]
    fn failed_build_not_cached() {
        let mut cache = PlanCache::new(2);
        let r = cache.get_or_try_insert_with(key(9), || Err(PlanError::Infeasible("boom".into())));
        assert!(r.is_err());
        assert!(cache.is_empty());
        // A later successful build fills the slot.
        cache
            .get_or_try_insert_with(key(9), || Ok::<_, PlanError>(plan(63)))
            .unwrap();
        assert_eq!(cache.len(), 1);
    }
}
