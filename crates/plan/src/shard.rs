//! The plan cache: a sharded, coalescing LRU — the concurrent heart of
//! `alp-serve`, and with one shard the single-threaded memoizer.
//!
//! Behind one mutex, a server with N handler threads would serialize
//! every lookup on that one lock.  [`ShardedPlanCache`] splits the key
//! space over independent shards (each its own mutex around a private
//! LRU map), so lookups for different fingerprints proceed in parallel
//! and a slow *compile* on one shard never blocks hits on another — the
//! compile itself always runs **outside** the shard lock.
//!
//! The second concurrency problem a server has is the *thundering
//! herd*: N simultaneous requests for the same cold [`PlanKey`] would
//! each pay the full compile.  [`ShardedPlanCache::get_or_compute`] —
//! the only memoizer in the tree — coalesces them: the first requester
//! becomes the **leader** and compiles; the rest find the in-flight
//! slot and block on its condvar until the leader publishes.  Exactly
//! one compile runs per in-flight key, and every waiter receives the
//! same `Arc`'d plan (or the same error — failures are shared but never
//! cached).
//!
//! A leader that *panics* mid-compile publishes an `Abandoned` state
//! from its drop guard; waiters then re-enter the protocol (one of
//! them becomes the new leader) instead of deadlocking.  This is what
//! keeps a chaos-injected tile panic from poisoning a shard.
//!
//! The third is the price of a repeat.  A key is a fingerprint, and a
//! fingerprint needs a parse of the request's text; a server that has
//! seen a text before should know its key by the text.  So each shard
//! also keeps a text index: for every recorded request whose hash (of
//! its text and the key's other parameters) falls on the shard, the
//! text and the key it parsed to ([`ShardedPlanCache::record_text`]).
//! [`ShardedPlanCache::key_by_text`] gives that key back with no parse,
//! and only after comparing text and parameters exactly.  The index
//! remembers parses, not plans: the key of a plan since evicted simply
//! misses, and the caller parses after all.  A shard's index holds at
//! most as many texts as the shard holds plans, each of at most
//! [`MAX_TEXT_BYTES`], and drops the least recently used to make room.

use crate::cache::Lru;
use crate::{PartitionPlan, PlanError, PlanKey};
use std::collections::hash_map::{DefaultHasher, RandomState};
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::{Arc, Condvar, Mutex};

/// The longest request text the text index records.  A longer one is
/// parsed every time it comes, so the index holds at most the cache's
/// capacity times this many bytes of text, however long the requests.
pub const MAX_TEXT_BYTES: usize = 4 << 10;

/// How a [`get_or_compute`](ShardedPlanCache::get_or_compute) call was
/// satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fetched {
    /// Served from the shard's cache.
    Hit,
    /// Blocked on another thread's in-flight compile of the same key.
    Coalesced,
    /// This call ran the compile (it was the leader).
    Computed,
}

impl Fetched {
    /// Stable lower-case label (used by the serve wire protocol).
    pub fn label(&self) -> &'static str {
        match self {
            Fetched::Hit => "hit",
            Fetched::Coalesced => "coalesced",
            Fetched::Computed => "computed",
        }
    }
}

/// Cumulative counters for the sharded cache.  `hits`, `misses`, and
/// `coalesced` are request-level (one per `get_or_compute` /
/// `get_cached` call); `evictions` is summed from the per-shard LRUs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardedCacheStats {
    /// Calls answered directly from a shard's cache.
    pub hits: u64,
    /// Calls that became compile leaders.
    pub misses: u64,
    /// Calls that waited on another thread's in-flight compile.
    pub coalesced: u64,
    /// LRU evictions across all shards.
    pub evictions: u64,
}

/// State of one in-flight compile slot.
enum Slot<E> {
    /// The leader is still compiling.
    Pending,
    /// The leader finished; the shared outcome (errors are shared too,
    /// but only successes were inserted into the cache).
    Done(Result<Arc<PartitionPlan>, E>),
    /// The leader panicked before publishing; waiters must retry.
    Abandoned,
}

struct InFlight<E> {
    slot: Mutex<Slot<E>>,
    cv: Condvar,
}

struct ShardState<E> {
    cache: Lru,
    inflight: HashMap<PlanKey, Arc<InFlight<E>>>,
    /// The text index: a recorded request's text and the key it parsed
    /// to, by the request's hash — for the requests whose hash falls on
    /// this shard, wherever their plans live.
    texts: Lru<u64, (Box<str>, PlanKey)>,
    // Request-level counters live per shard, under the same lock the
    // lookup already holds — no extra synchronization, and the stats
    // endpoint can expose per-shard hit rates for live capacity tuning.
    hits: u64,
    misses: u64,
    coalesced: u64,
}

/// A point-in-time view of one shard, for live capacity tuning: is the
/// shard full, and is it earning its keep?
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardOccupancy {
    /// Plans currently cached in this shard.
    pub len: usize,
    /// The shard's LRU capacity.
    pub capacity: usize,
    /// Lookups this shard answered from cache.
    pub hits: u64,
    /// Lookups that became compile leaders on this shard.
    pub misses: u64,
    /// Lookups that waited on this shard's in-flight compiles.
    pub coalesced: u64,
}

/// Removes the in-flight entry and publishes `Abandoned` unless the
/// leader defused it by publishing a real outcome first.  Runs during
/// unwinding, so a panicking compile wakes its waiters instead of
/// stranding them.
struct LeaderGuard<'a, E> {
    shard: &'a Mutex<ShardState<E>>,
    flight: &'a Arc<InFlight<E>>,
    key: PlanKey,
    defused: bool,
}

impl<E> Drop for LeaderGuard<'_, E> {
    fn drop(&mut self) {
        if self.defused {
            return;
        }
        if let Ok(mut st) = self.shard.lock() {
            st.inflight.remove(&self.key);
        }
        if let Ok(mut slot) = self.flight.slot.lock() {
            *slot = Slot::Abandoned;
        }
        self.flight.cv.notify_all();
    }
}

/// A sharded LRU plan cache with cross-thread request coalescing.
///
/// The error type `E` is generic (default [`PlanError`]) so callers
/// with richer error currencies — the serve layer shares whole
/// pipeline failures between coalesced waiters — can use the same
/// machinery; it only needs to be `Clone + Send`.
pub struct ShardedPlanCache<E = PlanError> {
    shards: Vec<Mutex<ShardState<E>>>,
    /// Keyed per cache, so request texts cannot be chosen to collide.
    text_hasher: RandomState,
}

impl<E: Clone> ShardedPlanCache<E> {
    /// Default shard count used by the server.
    pub const DEFAULT_SHARDS: usize = 16;

    /// A cache of `shards` independent shards holding at most
    /// `capacity` plans in total (each shard gets an equal slice,
    /// minimum 1 per shard).
    pub fn new(shards: usize, capacity: usize) -> Self {
        let shards = shards.max(1);
        let per_shard = (capacity / shards).max(1);
        ShardedPlanCache {
            shards: (0..shards)
                .map(|_| {
                    Mutex::new(ShardState {
                        cache: Lru::new(per_shard),
                        inflight: HashMap::new(),
                        texts: Lru::new(per_shard),
                        hits: 0,
                        misses: 0,
                        coalesced: 0,
                    })
                })
                .collect(),
            text_hasher: RandomState::new(),
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Total cached plans across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().map_or(0, |st| st.cache.len()))
            .sum()
    }

    /// True when no shard caches anything.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A point-in-time snapshot of the cumulative counters, summed
    /// over shards (each shard lock is taken briefly).
    pub fn stats(&self) -> ShardedCacheStats {
        let mut total = ShardedCacheStats::default();
        for s in &self.shards {
            if let Ok(st) = s.lock() {
                total.hits += st.hits;
                total.misses += st.misses;
                total.coalesced += st.coalesced;
                total.evictions += st.cache.evictions;
            }
        }
        total
    }

    /// Per-shard occupancy and counters — the observable that makes
    /// `--cache-capacity` tunable from live traffic instead of
    /// guesswork.
    pub fn per_shard(&self) -> Vec<ShardOccupancy> {
        self.shards
            .iter()
            .map(|s| {
                s.lock()
                    .map_or(ShardOccupancy::default(), |st| ShardOccupancy {
                        len: st.cache.len(),
                        capacity: st.cache.capacity(),
                        hits: st.hits,
                        misses: st.misses,
                        coalesced: st.coalesced,
                    })
            })
            .collect()
    }

    /// Insert a plan without touching the request counters: the replay
    /// path of the durable store, which re-warms the cache before any
    /// request has been seen.  Returns `false` when the key was already
    /// present (the existing entry is kept).
    pub fn warm(&self, key: PlanKey, plan: Arc<PartitionPlan>) -> bool {
        let mut st = self.shard_for(&key).lock().expect("shard lock");
        if st.cache.peek(&key).is_some() {
            return false;
        }
        st.cache.insert(key, plan);
        true
    }

    /// Snapshot of every cached plan across all shards — what the
    /// store compactor persists as the live set.
    pub fn entries(&self) -> Vec<(PlanKey, Arc<PartitionPlan>)> {
        self.shards
            .iter()
            .flat_map(|s| s.lock().map_or(Vec::new(), |st| st.cache.entries()))
            .collect()
    }

    fn shard_for(&self, key: &PlanKey) -> &Mutex<ShardState<E>> {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        self.shard_at(h.finish())
    }

    fn shard_at(&self, hash: u64) -> &Mutex<ShardState<E>> {
        &self.shards[(hash as usize) % self.shards.len()]
    }

    /// What a request is indexed under: a hash of its source text and of
    /// every parameter of its key but the fingerprint, which only a parse
    /// of the text would give.
    fn text_hash(&self, source: &str, key: PlanKey) -> u64 {
        self.text_hasher.hash_one((
            source,
            PlanKey {
                fingerprint: 0,
                ..key
            },
        ))
    }

    /// The key a request recorded by [`record_text`] parsed to: `source`
    /// exactly as that request sent it, with `key(f)` its key when `f` is
    /// the fingerprint of `source`.  There is no parse and no
    /// fingerprint: the request's hash finds a recorded text and key, and
    /// the answer needs that text to equal `source` and that key to equal
    /// `key` of its own fingerprint.  Nothing counts, and the plan under
    /// the key may have been evicted since: a caller looks it up as it
    /// would after a parse.
    ///
    /// [`record_text`]: ShardedPlanCache::record_text
    pub fn key_by_text(&self, source: &str, key: impl Fn(u64) -> PlanKey) -> Option<PlanKey> {
        if source.len() > MAX_TEXT_BYTES {
            return None;
        }
        let hash = self.text_hash(source, key(0));
        let mut st = self.shard_at(hash).lock().expect("shard lock");
        let (text, found) = st.texts.peek(&hash)?;
        (**text == *source && key(found.fingerprint) == *found).then_some(*found)
    }

    /// Record that `source` parsed to `key`, so that [`key_by_text`]
    /// gives the key back without a parse.  A source longer than
    /// [`MAX_TEXT_BYTES`] is not recorded; a full shard index drops its
    /// least recently used text first.
    ///
    /// [`key_by_text`]: ShardedPlanCache::key_by_text
    pub fn record_text(&self, source: &str, key: PlanKey) {
        if source.len() > MAX_TEXT_BYTES {
            return;
        }
        let hash = self.text_hash(source, key);
        (self.shard_at(hash).lock().expect("shard lock").texts).insert(hash, (source.into(), key));
    }

    /// Cache-only lookup: a hit counts and refreshes recency; a miss
    /// counts nothing (the caller decides whether to queue a compute,
    /// which will do its own accounting).  This is the server's inline
    /// fast path — under overload, cached plans are still served from
    /// here without ever touching the admission queue.
    pub fn get_cached(&self, key: &PlanKey) -> Option<Arc<PartitionPlan>> {
        let mut st = self.shard_for(key).lock().expect("shard lock");
        let found = st.cache.peek(key).cloned();
        if found.is_some() {
            st.hits += 1;
        }
        found
    }

    /// Memoize across threads: return the cached plan for `key`, wait
    /// on an in-flight compile of the same key, or run `make` as the
    /// leader, cache a success, and share the outcome with every
    /// coalesced waiter.  Failed builds are shared with waiters already
    /// blocked on the slot but cache nothing, so a later call retries.
    pub fn get_or_compute(
        &self,
        key: PlanKey,
        make: impl FnOnce() -> Result<PartitionPlan, E>,
    ) -> Result<(Arc<PartitionPlan>, Fetched), E> {
        let mut make = Some(make);
        loop {
            let shard = self.shard_for(&key);
            let flight = {
                let mut st = shard.lock().expect("shard lock");
                // Leader inserts into the cache and removes the
                // in-flight entry under one lock acquisition, so
                // "in flight" implies "not yet cached" — check the
                // in-flight map first and a waiter is never
                // double-counted as a miss.
                if let Some(f) = st.inflight.get(&key).map(Arc::clone) {
                    st.coalesced += 1;
                    f
                } else if let Some(plan) = st.cache.peek(&key).cloned() {
                    st.hits += 1;
                    return Ok((plan, Fetched::Hit));
                } else {
                    st.misses += 1;
                    let f = Arc::new(InFlight {
                        slot: Mutex::new(Slot::Pending),
                        cv: Condvar::new(),
                    });
                    st.inflight.insert(key, Arc::clone(&f));
                    drop(st);
                    // Leader path: compile OUTSIDE the shard lock, so
                    // other keys on this shard stay serviceable.
                    let mut guard = LeaderGuard {
                        shard,
                        flight: &f,
                        key,
                        defused: false,
                    };
                    let made = make.take().expect("leader runs make exactly once")().map(Arc::new);
                    {
                        let mut st = shard.lock().expect("shard lock");
                        if let Ok(plan) = &made {
                            st.cache.insert(key, Arc::clone(plan));
                        }
                        st.inflight.remove(&key);
                    }
                    guard.defused = true;
                    *f.slot.lock().expect("slot lock") = Slot::Done(made.clone());
                    f.cv.notify_all();
                    return made.map(|p| (p, Fetched::Computed));
                }
            };
            // Waiter path: block until the leader publishes.
            let mut slot = flight.slot.lock().expect("slot lock");
            loop {
                match &*slot {
                    Slot::Pending => {
                        slot = flight.cv.wait(slot).expect("slot lock");
                    }
                    Slot::Done(outcome) => {
                        return outcome.clone().map(|p| (p, Fetched::Coalesced));
                    }
                    Slot::Abandoned => break,
                }
            }
            // The leader died without publishing (panicked compile):
            // retry from the top.  If this call still holds its `make`
            // closure it may become the new leader.
            if make.is_none() {
                unreachable!("only waiters reach the retry path");
            }
        }
    }
}

impl<E: Clone> std::fmt::Debug for ShardedPlanCache<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = self.stats();
        f.debug_struct("ShardedPlanCache")
            .field("shards", &self.shards.len())
            .field("hits", &s.hits)
            .field("misses", &s.misses)
            .field("coalesced", &s.coalesced)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LegalityVerdict;
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
    fn hit_miss_and_stats() {
        let cache: ShardedPlanCache = ShardedPlanCache::new(4, 16);
        assert!(cache.is_empty());
        assert!(cache.get_cached(&key(1)).is_none());
        let (p, how) = cache.get_or_compute(key(1), || Ok(plan(63))).unwrap();
        assert_eq!(how, Fetched::Computed);
        assert_eq!(p.tiles(), 4);
        let (q, how) = cache.get_or_compute(key(1), || panic!("cached")).unwrap();
        assert_eq!(how, Fetched::Hit);
        assert!(Arc::ptr_eq(&p, &q));
        assert!(cache.get_cached(&key(1)).is_some());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.coalesced), (2, 1, 0));
        assert_eq!(cache.len(), 1);
    }

    // The per-shard LRU, through a cache of one shard.

    #[test]
    fn distinct_params_do_not_alias() {
        let cache: ShardedPlanCache = ShardedPlanCache::new(1, 8);
        cache.warm(key(1), Arc::new(plan(63)));
        let vary = |change: fn(&mut PlanKey)| {
            let mut other = key(1);
            change(&mut other);
            other
        };
        let others = [
            key(2),
            vary(|k| k.checked = false),
            vary(|k| k.mesh = Some((2, 2))),
            vary(|k| k.calibrated = true),
            vary(|k| k.skewed = true),
            vary(|k| k.certified = true),
        ];
        for other in &others {
            assert!(cache.get_cached(other).is_none(), "{other:?}");
        }
        assert!(cache.get_cached(&key(1)).is_some());
    }

    #[test]
    fn peek_refreshes_recency_without_counting() {
        let cache: ShardedPlanCache = ShardedPlanCache::new(1, 2);
        assert!(cache.warm(key(1), Arc::new(plan(63))));
        assert!(cache.warm(key(2), Arc::new(plan(127))));
        // Re-warming a present key is a peek: it keeps the entry ...
        assert!(!cache.warm(key(1), Arc::new(plan(63))));
        assert_eq!(
            cache.stats(),
            ShardedCacheStats::default(),
            "and never counts"
        );
        // ... and refreshes it, so key 2 is now the LRU victim.
        cache.warm(key(3), Arc::new(plan(255)));
        assert!(cache.get_cached(&key(2)).is_none());
        assert!(cache.get_cached(&key(1)).is_some());
    }

    #[test]
    fn lru_eviction() {
        let cache: ShardedPlanCache = ShardedPlanCache::new(1, 2);
        cache.warm(key(1), Arc::new(plan(63)));
        cache.warm(key(2), Arc::new(plan(127)));
        cache.get_cached(&key(1)); // refresh 1; 2 becomes LRU
        cache.warm(key(3), Arc::new(plan(255)));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.get_cached(&key(2)).is_none(), "LRU entry evicted");
        assert!(cache.get_cached(&key(1)).is_some());
        assert!(cache.get_cached(&key(3)).is_some());
    }

    #[test]
    fn failed_builds_are_not_cached() {
        let cache: ShardedPlanCache = ShardedPlanCache::new(2, 8);
        let r = cache.get_or_compute(key(7), || Err(PlanError::Infeasible("boom".into())));
        assert!(r.is_err());
        assert!(cache.is_empty());
        let (_, how) = cache.get_or_compute(key(7), || Ok(plan(63))).unwrap();
        assert_eq!(how, Fetched::Computed, "error was not cached");
    }

    #[test]
    fn distinct_keys_do_not_alias_across_shards() {
        let cache: ShardedPlanCache = ShardedPlanCache::new(8, 64);
        for fp in 0..32u64 {
            cache
                .get_or_compute(key(fp), || Ok(plan(63)))
                .expect("builds");
        }
        assert_eq!(cache.len(), 32);
        assert_eq!(cache.stats().misses, 32);
        for fp in 0..32u64 {
            assert!(cache.get_cached(&key(fp)).is_some(), "fp {fp}");
        }
    }

    fn texts(cache: &ShardedPlanCache) -> usize {
        (cache.shards.iter())
            .map(|s| s.lock().expect("shard lock").texts.len())
            .sum()
    }

    fn certified(fp: u64) -> PlanKey {
        PlanKey {
            certified: true,
            ..key(fp)
        }
    }

    #[test]
    fn a_text_gives_its_key_only_with_its_own_parameters() {
        let cache: ShardedPlanCache = ShardedPlanCache::new(4, 16);
        assert_eq!(cache.key_by_text("a", key), None);
        cache.record_text("a", key(1));
        assert_eq!(cache.key_by_text("a", key), Some(key(1)));
        assert_eq!(cache.key_by_text("a ", key), None);
        assert_eq!(cache.key_by_text("a", certified), None);
        // Another text of the same key is recorded beside it.
        cache.record_text("b", key(1));
        assert_eq!(cache.key_by_text("a", key), Some(key(1)));
        assert_eq!(cache.key_by_text("b", key), Some(key(1)));
        assert_eq!(texts(&cache), 2);
        // The index remembers parses, not plans, and counts nothing.
        assert!(cache.get_cached(&key(1)).is_none());
        assert_eq!(cache.stats(), ShardedCacheStats::default());
    }

    /// A hash that matches answers nothing by itself: items planted the
    /// way a collision would leave them put one request's text and key
    /// under another request's hash, and the exact comparison refuses
    /// both.
    #[test]
    fn a_hash_match_alone_answers_nothing() {
        let cache: ShardedPlanCache = ShardedPlanCache::new(2, 8);
        cache.record_text("a", key(1));
        let plant = |source: &str, params: PlanKey| {
            let hash = cache.text_hash(source, params);
            let mut st = cache.shard_at(hash).lock().unwrap();
            st.texts.insert(hash, ("a".into(), key(1)));
        };
        plant("a", certified(0));
        assert_eq!(cache.key_by_text("a", certified), None, "other parameters");
        plant("b", key(0));
        assert_eq!(cache.key_by_text("b", key), None, "another text");
        assert_eq!(cache.key_by_text("a", key), Some(key(1)));
    }

    #[test]
    fn the_text_index_holds_no_more_texts_than_entries() {
        // 4 shards of 2 plans, filled eight times over; every plan is
        // recorded under one text, and every third under a second one.
        let cache: ShardedPlanCache = ShardedPlanCache::new(4, 8);
        let again = |fp: u64| format!("again {fp}");
        for fp in 0..64u64 {
            cache.get_or_compute(key(fp), || Ok(plan(63))).unwrap();
            cache.record_text(&format!("text {fp}"), key(fp));
            if fp % 3 == 0 {
                cache.record_text(&again(fp), key(fp));
            }
        }
        assert_eq!(cache.len(), 8);
        assert!(texts(&cache) <= cache.len(), "{} texts", texts(&cache));
        for fp in 0..64u64 {
            for text in [format!("text {fp}"), again(fp)] {
                let found = cache.key_by_text(&text, key);
                assert!(found.is_none() || found == Some(key(fp)), "{text}");
            }
        }
    }

    #[test]
    fn a_text_over_the_limit_is_not_recorded() {
        let cache: ShardedPlanCache = ShardedPlanCache::new(1, 8);
        let long = "x".repeat(MAX_TEXT_BYTES + 1);
        cache.record_text(&long, key(1));
        assert_eq!((texts(&cache), cache.key_by_text(&long, key)), (0, None));
        let longest = &long[1..];
        cache.record_text(longest, key(2));
        assert_eq!(cache.key_by_text(longest, key), Some(key(2)));
    }

    #[test]
    fn abandoned_leader_wakes_waiters() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let cache: Arc<ShardedPlanCache> = Arc::new(ShardedPlanCache::new(1, 8));
        let built = Arc::new(AtomicUsize::new(0));
        // Leader panics mid-compile in its own thread.
        let c = Arc::clone(&cache);
        let leader = std::thread::spawn(move || {
            let _ = c.get_or_compute(key(5), || -> Result<PartitionPlan, PlanError> {
                std::thread::sleep(std::time::Duration::from_millis(30));
                panic!("injected compile panic");
            });
        });
        // Waiter arrives while the leader is in flight, survives the
        // abandonment, and becomes the new leader.
        std::thread::sleep(std::time::Duration::from_millis(10));
        let c = Arc::clone(&cache);
        let b = Arc::clone(&built);
        let waiter = std::thread::spawn(move || {
            c.get_or_compute(key(5), || {
                b.fetch_add(1, Ordering::SeqCst);
                Ok(plan(63))
            })
        });
        assert!(leader.join().is_err(), "leader panicked");
        let (p, _) = waiter.join().expect("waiter survives").expect("recovers");
        assert_eq!(p.tiles(), 4);
        assert_eq!(built.load(Ordering::SeqCst), 1);
        assert!(cache.get_cached(&key(5)).is_some());
    }
}
