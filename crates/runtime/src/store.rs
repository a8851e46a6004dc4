//! Shared array storage for parallel execution.
//!
//! All arrays of a nest live in one flat `Vec<AtomicU64>` indexed by the
//! element ids of [`alp_machine::ArrayLayout`], each cell holding an
//! `f64` bit pattern.  Plain assigns use relaxed loads/stores (legal
//! doalls never race on them); accumulates use a compare-exchange loop,
//! the runtime analogue of the paper's fine-grain `l$` synchronization
//! (Appendix A).
//!
//! # The accumulate contract
//!
//! Atomic accumulates land in whatever order threads interleave, and
//! the kernel adds a row-invariant destination's points as one
//! pre-summed delta per row cut, so the f64 additions into a cell are
//! associated differently from [`run_reference`]'s left fold.  A run
//! agrees with the reference bit for bit only when every such sum is
//! *exact*; [`ArrayStore::seeded`] guarantees that with small
//! integer-valued data, and callers who load their own values into an
//! accumulated array take the obligation over.  The certified relaxed
//! path ([`StoreMode::Add`]) is the exception: one thread owns each
//! cell and folds into it in iteration order, for any data.
//!
//! [`run_reference`]: crate::Executor::run_reference

use std::sync::atomic::{AtomicU64, Ordering};

/// A flat, atomically accessible f64 heap covering every array element
/// of a nest.
#[derive(Debug)]
pub struct ArrayStore {
    cells: Vec<AtomicU64>,
}

/// How a statement's value reaches its destination cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum StoreMode {
    /// [`ArrayStore::set`]: a plain assign.
    Set,
    /// A plain read-modify-write, no CAS: a certified accumulate, sound
    /// only when a certificate proves no other thread touches the cell
    /// (coverage + cross-tile write disjointness).
    Add,
    /// [`ArrayStore::fetch_add`]: an accumulate other tiles may race on.
    FetchAdd,
}

impl StoreMode {
    /// Publish `v` into `cell` the way the mode says.
    #[inline(always)]
    pub(crate) fn publish(self, cell: &AtomicU64, v: f64) {
        let add = |cur: u64| (f64::from_bits(cur) + v).to_bits();
        match self {
            StoreMode::Set => cell.store(v.to_bits(), Ordering::Relaxed),
            StoreMode::Add => cell.store(add(cell.load(Ordering::Relaxed)), Ordering::Relaxed),
            StoreMode::FetchAdd => {
                // A CAS loop that never gives up: the update is `Some`.
                let _ = cell.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |c| Some(add(c)));
            }
        }
    }
}

/// The f64 in `cell`.
#[inline(always)]
pub(crate) fn load(cell: &AtomicU64) -> f64 {
    f64::from_bits(cell.load(Ordering::Relaxed))
}

/// The deterministic seed value for element `k` under `seed`: a
/// SplitMix64-style mix of (seed, index), reduced to 0..=255.
///
/// Integer values keep every sum a nest can produce exact in f64 (far
/// below 2^53), so accumulate results are independent of the order
/// threads interleave their additions — which is what makes bitwise
/// parallel-vs-sequential comparison meaningful.
fn seeded_value(seed: u64, k: u64) -> f64 {
    let mut z = seed ^ k.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    ((z ^ (z >> 31)) & 0xFF) as f64
}

impl ArrayStore {
    /// A store of `len` elements, all 0.0.
    ///
    /// # Panics
    /// Panics if `len` exceeds `usize::MAX` (only reachable on targets
    /// where `usize` is narrower than `u64`; allocation would fail far
    /// earlier on 64-bit targets).
    pub fn zeroed(len: u64) -> Self {
        let len = usize::try_from(len).expect("store size exceeds usize");
        let mut cells = Vec::with_capacity(len);
        cells.resize_with(len, || AtomicU64::new(0f64.to_bits()));
        ArrayStore { cells }
    }

    /// A store seeded with small, deterministic, *integer-valued* f64s
    /// (integers are exact in `f64`, so summation order cannot change
    /// results and parallel runs compare bitwise against the sequential
    /// reference).
    pub fn seeded(len: u64, seed: u64) -> Self {
        let store = ArrayStore::zeroed(len);
        for (k, cell) in store.cells.iter().enumerate() {
            cell.store(seeded_value(seed, k as u64).to_bits(), Ordering::Relaxed);
        }
        store
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// True when the store holds no elements.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Read one element.
    #[inline]
    pub fn get(&self, idx: usize) -> f64 {
        load(&self.cells[idx])
    }

    /// Overwrite one element.
    #[inline]
    pub fn set(&self, idx: usize, v: f64) {
        StoreMode::Set.publish(&self.cells[idx], v);
    }

    /// Atomically add `delta` to one element (CAS loop).
    #[inline]
    pub fn fetch_add(&self, idx: usize, delta: f64) {
        StoreMode::FetchAdd.publish(&self.cells[idx], delta);
    }

    /// The `len` cells from element `first` on: one bounds check for a
    /// run of elements the kernel then indexes.
    ///
    /// # Panics
    /// Panics unless the store holds every one of them.
    #[inline]
    pub(crate) fn cells(&self, first: i64, len: usize) -> &[AtomicU64] {
        debug_assert!(first >= 0, "element id must be non-negative");
        &self.cells[first as usize..][..len]
    }

    /// Copy the current contents out as plain f64s.
    pub fn snapshot(&self) -> Vec<f64> {
        self.cells.iter().map(load).collect()
    }

    /// Overwrite the whole store from a plain f64 slice.
    ///
    /// # Panics
    /// Panics if `values.len()` differs from the store length.
    pub fn load_from(&self, values: &[f64]) {
        assert_eq!(values.len(), self.cells.len(), "length mismatch");
        for (cell, &v) in self.cells.iter().zip(values) {
            cell.store(v.to_bits(), Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_is_deterministic_and_integer_valued() {
        let a = ArrayStore::seeded(64, 7);
        let b = ArrayStore::seeded(64, 7);
        let c = ArrayStore::seeded(64, 8);
        assert_eq!(a.snapshot(), b.snapshot());
        assert_ne!(a.snapshot(), c.snapshot());
        for v in a.snapshot() {
            assert_eq!(v, v.trunc());
            assert!((0.0..=255.0).contains(&v));
        }
    }

    #[test]
    fn fetch_add_accumulates() {
        let s = ArrayStore::zeroed(4);
        s.fetch_add(2, 1.5);
        s.fetch_add(2, 2.5);
        assert_eq!(s.get(2), 4.0);
        assert_eq!(s.get(0), 0.0);
    }

    #[test]
    fn concurrent_fetch_add_loses_nothing() {
        let s = ArrayStore::zeroed(1);
        let threads = 8;
        let per_thread = 10_000;
        crossbeam::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|_| {
                    for _ in 0..per_thread {
                        s.fetch_add(0, 1.0);
                    }
                });
            }
        })
        .expect("crossbeam scope");
        assert_eq!(s.get(0), (threads * per_thread) as f64);
    }
}
