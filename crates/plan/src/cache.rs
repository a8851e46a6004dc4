//! The plan cache's key and the bounded map one shard keeps.
//!
//! Planning a nest is the expensive end of the pipeline (legality
//! analysis, reference classification, exhaustive tile-shape search), so
//! finished [`PartitionPlan`]s are memoized under a [`PlanKey`]: the
//! nest's structural fingerprint plus every parameter that can change
//! the plan.  The memoizer is
//! [`ShardedPlanCache::get_or_compute`](crate::ShardedPlanCache::get_or_compute)
//! — `ShardedPlanCache::new(1, n)` is the single-threaded cache of `n`
//! plans.  `Lru` is what each of its shards holds under the shard
//! lock: plans behind [`Arc`] (a hit is one reference-count bump and
//! every consumer sees the same immutable artifact), least-recently-used
//! eviction at a fixed capacity, and a count of the evictions; the
//! shard's text index is an `Lru` of its own.  Hits, misses and
//! coalesced waits are per request, so the shard counts them.

use crate::PartitionPlan;
use std::collections::HashMap;
use std::hash::Hash;
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

struct Entry<V> {
    value: V,
    last_used: u64,
}

/// One shard's LRU map: of finished plans by key, or of the text index's
/// items by request hash.
pub(crate) struct Lru<K = PlanKey, V = Arc<PartitionPlan>> {
    map: HashMap<K, Entry<V>>,
    capacity: usize,
    tick: u64,
    /// Entries evicted to make room, over the map's lifetime.
    pub(crate) evictions: u64,
}

impl<K: Copy + Eq + Hash, V: Clone> Lru<K, V> {
    /// A map holding at most `capacity` entries (minimum 1).
    pub(crate) fn new(capacity: usize) -> Self {
        Lru {
            map: HashMap::new(),
            capacity: capacity.max(1),
            tick: 0,
            evictions: 0,
        }
    }

    /// Number of entries.
    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }

    /// Maximum number of entries this map will hold.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// Snapshot of every entry, most-recently-used last.
    pub(crate) fn entries(&self) -> Vec<(K, V)> {
        let mut all: Vec<(&K, &Entry<V>)> = self.map.iter().collect();
        all.sort_by_key(|(_, e)| e.last_used);
        all.into_iter()
            .map(|(k, e)| (*k, e.value.clone()))
            .collect()
    }

    /// Look up an entry, refreshing its recency.
    pub(crate) fn peek(&mut self, key: &K) -> Option<&V> {
        self.tick += 1;
        self.map.get_mut(key).map(|e| {
            e.last_used = self.tick;
            &e.value
        })
    }

    /// Insert an entry, evicting the least-recently-used one when full.
    pub(crate) fn insert(&mut self, key: K, value: V) {
        self.tick += 1;
        if !self.map.contains_key(&key) && self.map.len() >= self.capacity {
            if let Some(victim) = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| *k)
            {
                self.map.remove(&victim);
                self.evictions += 1;
            }
        }
        self.map.insert(
            key,
            Entry {
                value,
                last_used: self.tick,
            },
        );
    }
}
