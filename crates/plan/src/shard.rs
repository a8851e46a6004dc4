//! The plan cache: a sharded, coalescing SIEVE cache — the concurrent
//! heart of `alp-serve`, and with one shard the single-threaded
//! memoizer.
//!
//! Behind one mutex, a server with N handler threads would serialize
//! every lookup on that one lock.  [`ShardedPlanCache`] splits the key
//! space over independent shards (each its own mutex around a private
//! SIEVE map, see [`crate::cache`]), so lookups for different fingerprints proceed in parallel
//! and a slow *compile* on one shard never blocks hits on another — the
//! compile itself always runs **outside** the shard lock.
//!
//! The second concurrency problem a server has is the *thundering
//! herd*: N simultaneous requests for the same cold [`PlanKey`] would
//! each pay the full compile.  [`ShardedPlanCache::get_or_compute`] —
//! the only memoizer in the tree — coalesces them through one
//! [`OnceLock`] per key in flight: the first call to find the key
//! uncached puts the cell in the shard's in-flight map, and every call
//! that finds it there initializes it outside the lock.  `OnceLock`
//! runs one initializer at a time and hands every caller the one
//! value, so exactly one compile runs per in-flight key and every
//! caller receives the same `Arc`'d plan (or the same error — failures
//! are shared but never cached).
//!
//! A compile that *panics* leaves the cell empty, and `OnceLock` lets a
//! caller blocked on it, or the next one to come, run its own compile
//! instead of deadlocking.  This is what keeps a chaos-injected tile
//! panic from poisoning a shard.  The caller whose own compile filled
//! the cell retires it: it caches a success and removes the cell under
//! one lock acquisition.  A cell whose compile unwound with nobody
//! waiting stays in the map until the next call for its key compiles in
//! it and retires it; so the map holds at most one such cell per
//! distinct key whose compile panicked.
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
//! [`MAX_TEXT_BYTES`], and makes room by the plans' own SIEVE rule: a
//! text asked for since the hand last passed it stays, the first one
//! not asked for goes.

use crate::cache::Sieve;
use crate::{PartitionPlan, PlanError, PlanKey};
use std::collections::hash_map::{DefaultHasher, RandomState};
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::{Arc, Mutex, OnceLock};

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
    /// Received the outcome of another call's compile of the same key.
    Coalesced,
    /// This call's own compile ran.
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
/// `coalesced` are request-level: a `get_or_compute` call counts exactly
/// one of them, a `get_cached` call a hit or nothing; `evictions` is
/// summed from the per-shard SIEVE maps.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardedCacheStats {
    /// Calls answered directly from a shard's cache.
    pub hits: u64,
    /// Calls whose own compile ran, counted before it starts, so one
    /// that unwound counts too.
    pub misses: u64,
    /// Calls that received another call's outcome.
    pub coalesced: u64,
    /// Plans evicted across all shards: each the first unvisited entry
    /// its shard's SIEVE hand reached when a new key needed the room.
    pub evictions: u64,
}

/// What a compile gives every call that shares it.
type Outcome<E> = Result<Arc<PartitionPlan>, E>;

struct ShardState<E> {
    cache: Sieve,
    /// A cell per key whose compile is running or has not been retired.
    inflight: HashMap<PlanKey, Arc<OnceLock<Outcome<E>>>>,
    /// The text index: a recorded request's text and the key it parsed
    /// to, by the request's hash — for the requests whose hash falls on
    /// this shard, wherever their plans live.
    texts: Sieve<u64, (Box<str>, PlanKey)>,
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
    /// The most plans the shard's SIEVE map holds before a new key
    /// evicts one.
    pub capacity: usize,
    /// Lookups this shard answered from cache.
    pub hits: u64,
    /// Lookups on this shard whose own compile ran.
    pub misses: u64,
    /// Lookups that received another lookup's outcome on this shard.
    pub coalesced: u64,
}

/// A sharded SIEVE plan cache with cross-thread request coalescing.
///
/// The error type `E` is generic (default [`PlanError`]) so callers
/// with richer error currencies — the serve layer shares whole
/// pipeline failures between coalesced waiters — can use the same
/// machinery; it only needs to be `Clone`, and `Send + Sync` to be
/// shared across threads.
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
                        cache: Sieve::new(per_shard),
                        inflight: HashMap::new(),
                        texts: Sieve::new(per_shard),
                        hits: 0,
                        misses: 0,
                        coalesced: 0,
                    })
                })
                .collect(),
            text_hasher: RandomState::new(),
        }
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
    /// present (the existing entry is kept).  Warming is not a visit:
    /// a warmed plan nobody asks for goes the first time the SIEVE hand
    /// reaches it, and a present one keeps its bit as it was.
    pub fn warm(&self, key: PlanKey, plan: Arc<PartitionPlan>) -> bool {
        let mut st = self.shard_for(&key).lock().expect("shard lock");
        if st.cache.contains(&key) {
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
    /// first text the SIEVE hand finds unvisited.
    ///
    /// [`key_by_text`]: ShardedPlanCache::key_by_text
    pub fn record_text(&self, source: &str, key: PlanKey) {
        if source.len() > MAX_TEXT_BYTES {
            return;
        }
        let hash = self.text_hash(source, key);
        (self.shard_at(hash).lock().expect("shard lock").texts).insert(hash, (source.into(), key));
    }

    /// Cache-only lookup: a hit counts and marks the entry visited; a miss
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

    /// Memoize across threads: return the cached plan for `key`, or the
    /// outcome of the one compile of `key` in flight, run by this call's
    /// `make` when no other call's is running.  The call whose `make`
    /// ran caches a success and retires the key's cell; a failure is
    /// shared with every call that received it and cached nowhere, so a
    /// later call retries.  A call that arrives between a failed outcome
    /// and its retirement shares that failure too.
    ///
    /// Each call counts once: a `miss` when its own `make` ran (counted
    /// before `make` starts, so a compile that unwinds counts), a
    /// `coalesced` when it received another call's outcome, a `hit`
    /// from the cache.  When `make` panics, the panic goes on to this
    /// caller and the key's cell stays empty: a call blocked on it, or
    /// the next call for the key, runs its own `make` in it.
    pub fn get_or_compute(
        &self,
        key: PlanKey,
        make: impl FnOnce() -> Result<PartitionPlan, E>,
    ) -> Result<(Arc<PartitionPlan>, Fetched), E> {
        let shard = self.shard_for(&key);
        let cell = {
            let mut st = shard.lock().expect("shard lock");
            if let Some(plan) = st.cache.peek(&key).cloned() {
                st.hits += 1;
                return Ok((plan, Fetched::Hit));
            }
            Arc::clone(st.inflight.entry(key).or_default())
        };
        // The compile runs OUTSIDE the shard lock, so other keys on
        // this shard stay serviceable.
        let mut ran = false;
        let outcome = cell.get_or_init(|| {
            ran = true;
            shard.lock().expect("shard lock").misses += 1;
            make().map(Arc::new)
        });
        let mut st = shard.lock().expect("shard lock");
        if !ran {
            st.coalesced += 1;
            return outcome.clone().map(|p| (p, Fetched::Coalesced));
        }
        // Cache and retire under one lock acquisition, so "in flight"
        // implies "not cached".
        if let Ok(plan) = outcome {
            st.cache.insert(key, Arc::clone(plan));
        }
        st.inflight.remove(&key);
        outcome.clone().map(|p| (p, Fetched::Computed))
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

    // The per-shard SIEVE map, through a cache of one shard.

    #[test]
    fn warming_is_not_a_visit() {
        let cache: ShardedPlanCache = ShardedPlanCache::new(1, 2);
        assert!(cache.warm(key(1), Arc::new(plan(63))));
        assert!(cache.warm(key(2), Arc::new(plan(127))));
        // Re-warming a present key keeps the entry ...
        assert!(!cache.warm(key(1), Arc::new(plan(63))));
        assert_eq!(
            cache.stats(),
            ShardedCacheStats::default(),
            "and never counts"
        );
        // ... and marks nothing: key 1, warmed twice and never asked
        // for, is the hand's first victim.
        cache.warm(key(3), Arc::new(plan(255)));
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.get_cached(&key(1)).is_none());
        assert!(cache.get_cached(&key(2)).is_some());
        assert!(cache.get_cached(&key(3)).is_some());
    }

    #[test]
    fn a_visited_plan_outlives_an_unvisited_one() {
        let cache: ShardedPlanCache = ShardedPlanCache::new(1, 2);
        cache.warm(key(1), Arc::new(plan(63)));
        cache.warm(key(2), Arc::new(plan(127)));
        cache.get_cached(&key(1)); // visit 1; 2 is never asked for
        cache.warm(key(3), Arc::new(plan(255)));
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        assert!(
            cache.get_cached(&key(2)).is_none(),
            "unvisited entry evicted"
        );
        assert!(cache.get_cached(&key(1)).is_some());
        assert!(cache.get_cached(&key(3)).is_some());
    }

    /// Where SIEVE and LRU part: a plan asked for once keeps its place
    /// against a newer plan nobody asked for, even when the newer one
    /// is the more recently used.
    #[test]
    fn a_new_plan_nobody_asked_for_goes_before_an_old_visited_one() {
        let cache: ShardedPlanCache = ShardedPlanCache::new(1, 3);
        for fp in 1..=3 {
            cache.warm(key(fp), Arc::new(plan(63)));
        }
        cache.get_cached(&key(1));
        // Both rules evict 2 here; the hand clears 1's bit on the way
        // and stops at 3.
        cache.warm(key(4), Arc::new(plan(127)));
        assert!(cache.get_cached(&key(2)).is_none());
        cache.get_cached(&key(3));
        // LRU's victim would now be 1, the least recently used.  The
        // hand clears 3's bit and evicts 4, never asked for.
        cache.warm(key(5), Arc::new(plan(255)));
        assert_eq!(cache.stats().evictions, 2);
        assert!(cache.get_cached(&key(4)).is_none(), "SIEVE's victim");
        for fp in [1, 3, 5] {
            assert!(cache.get_cached(&key(fp)).is_some(), "fp {fp}");
        }
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
    fn an_unwound_cell_stays_until_the_next_call_compiles_in_it() {
        let cache: ShardedPlanCache = ShardedPlanCache::new(1, 8);
        let inflight = |cache: &ShardedPlanCache| cache.shards[0].lock().unwrap().inflight.len();
        let unwound = std::panic::catch_unwind(|| {
            cache.get_or_compute(key(5), || panic!("injected compile panic"))
        });
        assert!(unwound.is_err());
        assert_eq!(
            (inflight(&cache), cache.len()),
            (1, 0),
            "the empty cell stays"
        );
        let (_, how) = cache.get_or_compute(key(5), || Ok(plan(63))).unwrap();
        assert_eq!(how, Fetched::Computed);
        assert_eq!(
            (inflight(&cache), cache.len()),
            (0, 1),
            "retired and cached"
        );
        assert_eq!(cache.stats().misses, 2);
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
