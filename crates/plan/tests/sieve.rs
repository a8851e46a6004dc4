//! The plan cache's eviction rule against a reference SIEVE, and the
//! hit rate it keeps on a Zipf stream.

use alp_loopir::parse;
use alp_plan::{LegalityVerdict, PartitionPlan, PlanError, PlanKey, ShardedPlanCache};
use proptest::prelude::*;
use std::sync::Arc;

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

fn plan() -> Arc<PartitionPlan> {
    let nest = parse("doall (i, 0, 63) { A[i] = A[i]; }").unwrap();
    Arc::new(PartitionPlan::build(&nest, 4, None, LegalityVerdict::Unchecked).unwrap())
}

/// SIEVE as a queue in a `Vec`, oldest first: `(key, visited)` and the
/// index the next eviction starts from.
struct Model {
    queue: Vec<(u64, bool)>,
    hand: usize,
    capacity: usize,
    evictions: u64,
}

impl Model {
    /// A lookup: marks a present key visited.
    fn get(&mut self, k: u64) -> bool {
        let found = self.queue.iter_mut().find(|e| e.0 == k);
        found.map(|e| e.1 = true).is_some()
    }

    /// An absent key joins at the head, unvisited, after the hand has
    /// evicted the first unvisited entry from where it stood.
    fn insert(&mut self, k: u64) {
        if self.queue.len() == self.capacity {
            let mut i = self.hand;
            loop {
                i %= self.queue.len();
                if !self.queue[i].1 {
                    break;
                }
                self.queue[i].1 = false;
                i += 1;
            }
            self.queue.remove(i);
            self.hand = if i == self.queue.len() { 0 } else { i };
            self.evictions += 1;
        }
        self.queue.push((k, false));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Lookups, computes and warms on one shard leave the cache with the
    /// model's keys, in the model's order, after as many evictions.
    #[test]
    fn the_cache_evicts_like_a_reference_sieve(
        capacity in 1usize..6,
        ops in proptest::collection::vec((0u8..3, 0u64..10), 0..160),
    ) {
        let cache: ShardedPlanCache = ShardedPlanCache::new(1, capacity);
        let mut model = Model { queue: Vec::new(), hand: 0, capacity, evictions: 0 };
        let plan = plan();
        for &(op, k) in &ops {
            match op {
                0 => {
                    let hit = cache.get_cached(&key(k)).is_some();
                    prop_assert_eq!(hit, model.get(k), "get {}", k);
                }
                1 => {
                    cache
                        .get_or_compute(key(k), || Ok::<_, PlanError>((*plan).clone()))
                        .unwrap();
                    if !model.get(k) {
                        model.insert(k);
                    }
                }
                _ => {
                    let warmed = cache.warm(key(k), Arc::clone(&plan));
                    let present = model.queue.iter().any(|e| e.0 == k);
                    prop_assert_eq!(warmed, !present, "warm {}", k);
                    if warmed {
                        model.insert(k);
                    }
                }
            }
        }
        let held: Vec<u64> = cache.entries().iter().map(|(k, _)| k.fingerprint).collect();
        let expected: Vec<u64> = model.queue.iter().map(|e| e.0).collect();
        prop_assert_eq!(held, expected, "ops {:?}", ops);
        prop_assert_eq!(cache.stats().evictions, model.evictions);
    }
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// A fresh Zipf(1) stream over 2 048 keys against 16 shards of 32
/// plans, the serving workload's shape: SIEVE keeps the hot set (the
/// same stream reads about 0.75 under LRU).
#[test]
fn sieve_keeps_the_zipf_hot_set() {
    const KEYS: usize = 2048;
    const REQUESTS: usize = 40_000;
    let mut cdf = Vec::with_capacity(KEYS);
    let mut total = 0.0;
    for rank in 1..=KEYS {
        total += 1.0 / rank as f64;
        cdf.push(total);
    }
    let cache: ShardedPlanCache = ShardedPlanCache::new(16, 512);
    let plan = plan();
    let mut rng = 0x2f1e_u64;
    for _ in 0..REQUESTS {
        let u = (splitmix64(&mut rng) >> 11) as f64 / (1u64 << 53) as f64 * total;
        let rank = cdf.partition_point(|&c| c <= u).min(KEYS - 1);
        cache
            .get_or_compute(key(rank as u64), || Ok((*plan).clone()))
            .unwrap();
    }
    let s = cache.stats();
    assert_eq!(s.hits + s.misses, REQUESTS as u64);
    let hit_rate = s.hits as f64 / REQUESTS as f64;
    assert!(hit_rate >= 0.77, "hit rate {hit_rate:.4}");
    assert_eq!(s.evictions, s.misses - cache.len() as u64);
}
