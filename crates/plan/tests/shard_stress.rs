//! Stress and property tests for the sharded, coalescing plan cache.
//!
//! These run under `RUST_TEST_THREADS=2` in CI like the other
//! concurrency suites; the parallelism under test comes from the
//! threads each test spawns, not from the test harness.

use alp_loopir::parse;
use alp_plan::{Fetched, LegalityVerdict, PartitionPlan, PlanError, PlanKey, ShardedPlanCache};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::thread;
use std::time::Duration;

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

fn build_plan(trip: i128) -> PartitionPlan {
    let nest = parse(&format!("doall (i, 0, {trip}) {{ A[i] = A[i]; }}")).unwrap();
    PartitionPlan::build(&nest, 4, None, LegalityVerdict::Unchecked).unwrap()
}

/// M threads hammer K hot fingerprints; every key is compiled exactly
/// once, every requester gets the same Arc'd plan, and hit + coalesced
/// + computed accounts for every request.
#[test]
fn exactly_one_compile_per_hot_key() {
    const THREADS: usize = 16;
    const KEYS: u64 = 8;
    const ROUNDS: usize = 32;

    let cache: Arc<ShardedPlanCache> = Arc::new(ShardedPlanCache::new(4, 64));
    let compiles: Arc<Vec<AtomicUsize>> =
        Arc::new((0..KEYS).map(|_| AtomicUsize::new(0)).collect());
    let barrier = Arc::new(Barrier::new(THREADS));

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let cache = Arc::clone(&cache);
            let compiles = Arc::clone(&compiles);
            let barrier = Arc::clone(&barrier);
            thread::spawn(move || {
                barrier.wait();
                let mut seen: HashMap<u64, Arc<PartitionPlan>> = HashMap::new();
                for round in 0..ROUNDS {
                    // Walk the keys in a thread-dependent order so
                    // leaders and waiters interleave differently per
                    // thread.
                    let fp = ((t + round) as u64) % KEYS;
                    let c = Arc::clone(&compiles);
                    let (plan, _how) = cache
                        .get_or_compute(key(fp), move || {
                            c[fp as usize].fetch_add(1, Ordering::SeqCst);
                            // Widen the in-flight window so coalescing
                            // actually happens.
                            thread::sleep(Duration::from_millis(5));
                            Ok(build_plan(63 + fp as i128))
                        })
                        .expect("build succeeds");
                    if let Some(prev) = seen.get(&fp) {
                        assert!(
                            Arc::ptr_eq(prev, &plan),
                            "thread {t} saw two distinct plans for fp {fp}"
                        );
                    }
                    seen.insert(fp, plan);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("no thread panicked or deadlocked");
    }

    for fp in 0..KEYS {
        assert_eq!(
            compiles[fp as usize].load(Ordering::SeqCst),
            1,
            "fingerprint {fp} compiled more than once"
        );
    }
    let s = cache.stats();
    assert_eq!(s.misses, KEYS, "one leader per key");
    assert_eq!(
        s.hits + s.misses + s.coalesced,
        (THREADS * ROUNDS) as u64,
        "every request accounted for"
    );
    assert_eq!(s.evictions, 0, "capacity 64 never evicts 8 keys");
}

/// Concurrent requests across many distinct keys on few shards: shard
/// contention never deadlocks, and a slow compile on one key does not
/// block hits for other keys on the same shard (the compile runs
/// outside the shard lock).
#[test]
fn slow_compile_does_not_block_sibling_keys() {
    let cache: Arc<ShardedPlanCache> = Arc::new(ShardedPlanCache::new(1, 32));
    // Pre-populate one key on the single shard.
    cache
        .get_or_compute(key(100), || Ok(build_plan(63)))
        .unwrap();

    let slow_started = Arc::new(Barrier::new(2));
    let slow = {
        let cache = Arc::clone(&cache);
        let started = Arc::clone(&slow_started);
        thread::spawn(move || {
            cache
                .get_or_compute(key(200), move || {
                    started.wait();
                    thread::sleep(Duration::from_millis(200));
                    Ok(build_plan(127))
                })
                .unwrap()
        })
    };
    slow_started.wait();
    // While key 200's compile holds no lock, key 100 must still hit.
    let t0 = std::time::Instant::now();
    assert!(cache.get_cached(&key(100)).is_some());
    let (_, how) = cache
        .get_or_compute(key(100), || panic!("must be a hit"))
        .unwrap();
    assert_eq!(how, Fetched::Hit);
    assert!(
        t0.elapsed() < Duration::from_millis(150),
        "hit was serialized behind the slow compile"
    );
    slow.join().unwrap();
}

/// Per-shard SIEVE eviction: overflow a known shard set and confirm the
/// keys nobody asked for since they came (and only those) are gone,
/// while total occupancy respects the per-shard capacity.
#[test]
fn sieve_eviction_is_per_shard_correct() {
    // 1 shard × capacity 4 makes eviction order fully observable.
    let cache: ShardedPlanCache = ShardedPlanCache::new(1, 4);
    for fp in 0..4u64 {
        cache
            .get_or_compute(key(fp), || Ok(build_plan(63)))
            .unwrap();
    }
    // Visit 0, 1 and 3; 2 is the one entry nobody asked for.
    assert!(cache.get_cached(&key(0)).is_some());
    assert!(cache.get_cached(&key(1)).is_some());
    cache
        .get_or_compute(key(3), || panic!("hit"))
        .expect("hit visits 3");
    cache
        .get_or_compute(key(4), || Ok(build_plan(127)))
        .unwrap();
    assert_eq!(cache.len(), 4, "capacity respected");
    assert_eq!(cache.stats().evictions, 1);
    assert!(
        cache.get_cached(&key(2)).is_none(),
        "unvisited victim evicted"
    );
    for fp in [0u64, 1, 3, 4] {
        assert!(cache.get_cached(&key(fp)).is_some(), "fp {fp} survives");
    }
}

/// Failures propagate to every coalesced waiter but are never cached;
/// the key stays retryable.
#[test]
fn coalesced_waiters_share_the_leaders_error() {
    const WAITERS: usize = 8;
    let cache: Arc<ShardedPlanCache> = Arc::new(ShardedPlanCache::new(2, 8));
    let in_compile = Arc::new(Barrier::new(2));
    let release = Arc::new(Barrier::new(2));

    let leader = {
        let cache = Arc::clone(&cache);
        let in_compile = Arc::clone(&in_compile);
        let release = Arc::clone(&release);
        thread::spawn(move || {
            cache.get_or_compute(key(42), move || {
                in_compile.wait();
                release.wait();
                Err(PlanError::Infeasible("injected".into()))
            })
        })
    };
    in_compile.wait(); // leader is inside make(): slot is Pending
    let waiters: Vec<_> = (0..WAITERS)
        .map(|_| {
            let cache = Arc::clone(&cache);
            thread::spawn(move || cache.get_or_compute(key(42), || panic!("never the leader")))
        })
        .collect();
    // Give the waiters time to block on the in-flight slot, then let
    // the leader fail.
    thread::sleep(Duration::from_millis(50));
    release.wait();

    let leader_result = leader.join().unwrap();
    assert!(matches!(leader_result, Err(PlanError::Infeasible(_))));
    let mut coalesced_errors = 0;
    for w in waiters {
        match w.join().unwrap() {
            Err(PlanError::Infeasible(_)) => coalesced_errors += 1,
            Ok((_, Fetched::Computed)) => {
                panic!("a waiter compiled while the leader was in flight")
            }
            other => panic!("unexpected waiter outcome: {other:?}"),
        }
    }
    assert_eq!(coalesced_errors, WAITERS, "every waiter saw the error");
    assert!(cache.is_empty(), "errors are not cached");
    let (_, how) = cache
        .get_or_compute(key(42), || Ok(build_plan(63)))
        .unwrap();
    assert_eq!(how, Fetched::Computed, "key retryable after failure");
}

/// A call blocked on a compile that panics runs its own compile in the
/// same cell and counts one miss, not a coalesced wait and then a miss:
/// every call counts exactly one of hit, miss and coalesced.
#[test]
fn a_waiter_that_compiles_after_a_panicking_leader_counts_once() {
    let cache: Arc<ShardedPlanCache> = Arc::new(ShardedPlanCache::new(1, 8));
    let in_compile = Arc::new(Barrier::new(2));
    let leader = {
        let cache = Arc::clone(&cache);
        let in_compile = Arc::clone(&in_compile);
        thread::spawn(move || {
            cache.get_or_compute(key(9), move || -> Result<PartitionPlan, PlanError> {
                in_compile.wait();
                // Long enough for the waiter below to block on the cell.
                thread::sleep(Duration::from_millis(50));
                panic!("injected compile panic");
            })
        })
    };
    in_compile.wait();
    let (_, how) = cache
        .get_or_compute(key(9), || Ok(build_plan(63)))
        .expect("the waiter compiles");
    assert_eq!(how, Fetched::Computed);
    assert!(leader.join().is_err(), "the leader panicked");
    let (_, how) = cache
        .get_or_compute(key(9), || panic!("cached"))
        .expect("a hit");
    assert_eq!(how, Fetched::Hit);
    let s = cache.stats();
    assert_eq!((s.hits, s.misses, s.coalesced), (1, 2, 0));
    assert_eq!(s.hits + s.misses + s.coalesced, 3, "three calls");
}

/// Mixed random workload under contention: interleaved hot hits, cold
/// misses, and evictions settle with coherent global counters and no
/// deadlock.  splitmix64 keeps the schedule deterministic per thread.
#[test]
fn randomized_mixed_workload_settles_coherently() {
    const THREADS: usize = 12;
    const OPS: usize = 200;

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    let cache: Arc<ShardedPlanCache> = Arc::new(ShardedPlanCache::new(4, 16));
    let requests = Arc::new(AtomicUsize::new(0));
    let plans_by_fp: Arc<Mutex<HashMap<u64, i128>>> = Arc::new(Mutex::new(HashMap::new()));

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let cache = Arc::clone(&cache);
            let requests = Arc::clone(&requests);
            let plans_by_fp = Arc::clone(&plans_by_fp);
            thread::spawn(move || {
                let mut rng = 0x5eed ^ (t as u64) << 17;
                for _ in 0..OPS {
                    // 40 fingerprints over 16 slots: steady eviction
                    // pressure, Zipf-ish skew toward low fingerprints.
                    let r = splitmix64(&mut rng);
                    // Decide hot/cold and pick the fingerprint from
                    // disjoint bit ranges, so the cold tail really
                    // spans all 40 keys.
                    let fp = if !r.is_multiple_of(4) {
                        (r >> 8) % 6
                    } else {
                        (r >> 8) % 40
                    };
                    let trip = 63 + (fp as i128) * 64;
                    let (plan, _) = cache
                        .get_or_compute(key(fp), move || Ok(build_plan(trip)))
                        .expect("build succeeds");
                    // Every plan handed out for fp must partition the
                    // trip count we associate with fp (the embedded
                    // canonical source records it).
                    let expected = *plans_by_fp.lock().unwrap().entry(fp).or_insert(trip);
                    assert!(
                        plan.source.contains(&expected.to_string()),
                        "plan content aliased across fingerprints: fp {fp} expected trip \
                         {expected}, got source {:?}",
                        plan.source
                    );
                    requests.fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("no deadlock, no panic");
    }

    let s = cache.stats();
    assert_eq!(
        s.hits + s.misses + s.coalesced,
        (THREADS * OPS) as u64,
        "counters account for every request"
    );
    assert!(s.hits > 0, "hot keys hit");
    assert!(s.misses > 0, "cold keys missed");
    assert!(s.evictions > 0, "40 keys over 16 slots must evict");
    assert!(cache.len() <= 16, "occupancy bounded by capacity");
}
