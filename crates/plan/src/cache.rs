//! The plan cache's key and the bounded map one shard keeps.
//!
//! Planning a nest is the expensive end of the pipeline (legality
//! analysis, reference classification, exhaustive tile-shape search), so
//! finished [`PartitionPlan`]s are memoized under a [`PlanKey`]: the
//! nest's structural fingerprint plus every parameter that can change
//! the plan.  The memoizer is
//! [`ShardedPlanCache::get_or_compute`](crate::ShardedPlanCache::get_or_compute)
//! — `ShardedPlanCache::new(1, n)` is the single-threaded cache of `n`
//! plans.  `Sieve` is what each of its shards holds under the shard
//! lock: plans behind [`Arc`] (a hit is one reference-count bump and
//! every consumer sees the same immutable artifact), SIEVE eviction at
//! a fixed capacity, and a count of the evictions; the shard's text
//! index is a `Sieve` of its own.  Hits, misses and coalesced waits are
//! per request, so the shard counts them.
//!
//! SIEVE (Zhang et al., *SIEVE is Simpler than LRU*, NSDI 2024) keeps
//! the entries in one queue, newest at the head, and one `visited` bit
//! each.  A hit sets the bit and moves nothing.  A new key joins at the
//! head, unvisited.  To make room, a hand walks from the tail toward the
//! head, clearing set bits, and evicts the first entry whose bit was
//! clear; the survivors keep their places, the hand stays where it
//! stopped for the next eviction and wraps from the head back to the
//! tail.  A key used once since the hand last passed it is kept for
//! another round; a key never used again is gone after one.  It has no
//! parameter, and a hit writes one bit where LRU would reorder.

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

/// One queued entry; `newer` and `older` are its neighbours' keys.
struct Node<K, V> {
    value: V,
    visited: bool,
    newer: Option<K>,
    older: Option<K>,
}

/// One shard's SIEVE map: of finished plans by key, or of the text
/// index's items by request hash.  The queue is linked through the map
/// itself, so a lookup is one probe, as it would be without a queue.
pub(crate) struct Sieve<K = PlanKey, V = Arc<PartitionPlan>> {
    map: HashMap<K, Node<K, V>>,
    /// The newest entry.
    head: Option<K>,
    /// The oldest entry.
    tail: Option<K>,
    /// Where the next eviction's walk starts (the tail when `None`).
    hand: Option<K>,
    capacity: usize,
    /// Entries evicted to make room, over the map's lifetime.
    pub(crate) evictions: u64,
}

impl<K: Copy + Eq + Hash, V: Clone> Sieve<K, V> {
    /// A map holding at most `capacity` entries (minimum 1).
    pub(crate) fn new(capacity: usize) -> Self {
        Sieve {
            map: HashMap::new(),
            head: None,
            tail: None,
            hand: None,
            capacity: capacity.max(1),
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

    /// Whether `key` is present, without marking it visited.
    pub(crate) fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    /// Snapshot of every entry in queue order, oldest first.
    pub(crate) fn entries(&self) -> Vec<(K, V)> {
        let mut all = Vec::with_capacity(self.len());
        let mut at = self.tail;
        while let Some(key) = at {
            let node = &self.map[&key];
            all.push((key, node.value.clone()));
            at = node.newer;
        }
        all
    }

    /// Look up an entry, marking it visited.
    pub(crate) fn peek(&mut self, key: &K) -> Option<&V> {
        let node = self.map.get_mut(key)?;
        node.visited = true;
        Some(&node.value)
    }

    /// Insert an entry at the head, unvisited, evicting one when full.
    /// A key already present keeps its place and its bit and takes the
    /// new value.
    pub(crate) fn insert(&mut self, key: K, value: V) {
        if let Some(node) = self.map.get_mut(&key) {
            node.value = value;
            return;
        }
        if self.map.len() >= self.capacity {
            self.evict();
        }
        match self.head {
            Some(head) => self.node(head).newer = Some(key),
            None => self.tail = Some(key),
        }
        let older = self.head.replace(key);
        self.map.insert(
            key,
            Node {
                value,
                visited: false,
                newer: None,
                older,
            },
        );
    }

    /// Move the hand to the first unvisited entry, clearing the bits it
    /// passes, and unlink and drop that entry.
    fn evict(&mut self) {
        let tail = self.tail;
        let mut at = self.hand.or(tail).expect("a full map has a tail");
        while std::mem::take(&mut self.node(at).visited) {
            at = self.node(at).newer.or(tail).expect("a full map has a tail");
        }
        let Node { newer, older, .. } = self.map.remove(&at).expect("queued");
        match newer {
            Some(n) => self.node(n).older = older,
            None => self.head = older,
        }
        match older {
            Some(o) => self.node(o).newer = newer,
            None => self.tail = newer,
        }
        self.hand = newer;
        self.evictions += 1;
    }

    /// The node of a queued key.
    fn node(&mut self, key: K) -> &mut Node<K, V> {
        self.map.get_mut(&key).expect("queued keys are in the map")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The queue from the tail, oldest first: each key and its bit.
    fn queue(s: &Sieve<u64, u64>) -> Vec<(u64, bool)> {
        let mut all = Vec::new();
        let mut at = s.tail;
        while let Some(key) = at {
            all.push((key, s.map[&key].visited));
            at = s.map[&key].newer;
        }
        all
    }

    fn filled(capacity: usize, keys: &[u64]) -> Sieve<u64, u64> {
        let mut s = Sieve::new(capacity);
        for &k in keys {
            s.insert(k, k * 10);
        }
        s
    }

    #[test]
    fn new_keys_enter_unvisited_at_the_head() {
        let mut s = filled(4, &[1, 2, 3]);
        assert_eq!(queue(&s), [(1, false), (2, false), (3, false)]);
        assert_eq!(s.peek(&2), Some(&20));
        s.insert(4, 40);
        assert_eq!(queue(&s), [(1, false), (2, true), (3, false), (4, false)]);
        assert_eq!(s.entries().last(), Some(&(4, 40)));
        // A present key takes the new value and keeps place and bit.
        s.insert(2, 21);
        assert_eq!(queue(&s), [(1, false), (2, true), (3, false), (4, false)]);
        assert_eq!(s.peek(&2), Some(&21));
        assert_eq!(s.evictions, 0);
        assert!(s.contains(&3) && !s.contains(&5));
        assert_eq!(queue(&s)[2], (3, false), "contains marks nothing");
    }

    #[test]
    fn a_visited_entry_survives_one_pass_and_loses_its_bit() {
        let mut s = filled(3, &[1, 2, 3]);
        s.peek(&1);
        s.peek(&3);
        // The hand clears 1, evicts 2 and rests on 3.
        s.insert(4, 40);
        assert_eq!(queue(&s), [(1, false), (3, true), (4, false)]);
        // From 3: clears it, evicts 4, the newest but never visited.
        s.insert(5, 50);
        assert_eq!(queue(&s), [(1, false), (3, false), (5, false)]);
        // The hand had passed the head: it wraps to the tail, where 1
        // has no bit left to save it.
        s.insert(6, 60);
        assert_eq!(queue(&s), [(3, false), (5, false), (6, false)]);
        assert_eq!(s.evictions, 3);
    }

    #[test]
    fn a_full_pass_of_visited_entries_evicts_where_it_began() {
        let mut s = filled(3, &[1, 2, 3]);
        for k in [3, 1, 2] {
            s.peek(&k);
        }
        s.insert(4, 40);
        assert_eq!(queue(&s), [(2, false), (3, false), (4, false)]);
    }

    #[test]
    fn capacity_one_holds_the_latest_key() {
        let mut s = filled(0, &[1]);
        assert_eq!(s.capacity(), 1);
        s.peek(&1);
        s.insert(2, 20);
        assert_eq!(queue(&s), [(2, false)]);
        s.insert(3, 30);
        s.insert(3, 31);
        assert_eq!(s.peek(&3), Some(&31));
        assert_eq!(queue(&s), [(3, true)]);
        assert_eq!((s.len(), s.evictions), (1, 2));
    }

    #[test]
    fn evictions_count_the_keys_that_made_room() {
        let mut s = filled(4, &[]);
        let mut absent = 0;
        for k in 0..100u64 {
            absent += u64::from(!s.contains(&(k % 7)));
            s.insert(k % 7, k);
            s.peek(&(k % 3));
        }
        assert_eq!(s.len(), 4);
        assert_eq!(s.evictions, absent - 4);
    }
}
