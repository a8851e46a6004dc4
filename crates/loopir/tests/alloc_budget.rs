//! Allocation budget of a parse.  A reference is its pair `(G, ā)`: the
//! array's name, one block for `G` and one for `ā`, copied at their size
//! from the one buffer the parser reads every reference's subscripts
//! into.  So what a parse allocates depends on how many loops,
//! statements and references the nest has, and not on the arrays' rank:
//! the same nest over one-, two- and three-dimensional arrays costs the
//! same count.  The count is a property of the code,
//! not of the host, and repeats exactly, so it is asserted rather than
//! timed.  This binary holds the one test: the counting allocator is
//! process-wide.

use alp_loopir::parse;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts the allocations (and reallocations) of threads that asked.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static COUNTED: Cell<bool> = const { Cell::new(false) };
}

fn count() {
    if COUNTED.with(Cell::get) {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every call is forwarded to `System` unchanged.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Heap allocations of one `parse` of `src` on this thread.
fn parse_allocations(src: &str) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTED.with(|c| c.set(true));
    let nest = parse(src);
    COUNTED.with(|c| c.set(false));
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    nest.unwrap_or_else(|e| panic!("{e}\n  nest: {src}"));
    after - before
}

/// Each row: one nest over arrays of rank 1, 2 and 3 in turn — a plain
/// store, an accumulate (whose `+=` adds a copy of its target as a
/// self-read), a strided header (which rewrites `G` and `ā` in place)
/// and a three-deep nest.
const RANKS: &[[&str; 3]] = &[
    [
        "doall (i, 1, 8) { doall (j, 1, 8) { A[i] = B[j] + C[i]; } }",
        "doall (i, 1, 8) { doall (j, 1, 8) { A[i,j] = B[j,i] + C[i,i]; } }",
        "doall (i, 1, 8) { doall (j, 1, 8) { A[i,j,i] = B[j,i,j] + C[i,i,j]; } }",
    ],
    [
        "doall (i, 1, 8) { doall (k, 1, 8) { C[i] += A[i+k-1] + B[k]; } }",
        "doall (i, 1, 8) { doall (k, 1, 8) { C[i,i] += A[i,k-1] + B[k,2*k]; } }",
        "doall (i, 1, 8) { doall (k, 1, 8) { C[i,i,k] += A[i,k,-1] + B[k,2*k,3]; } }",
    ],
    [
        "doseq (t, 1, 4) { doall (i, 0, 20, 3) { doall (j, 1, 8) { A[i] = A[i+3] + B[j]; } } }",
        "doseq (t, 1, 4) { doall (i, 0, 20, 3) { doall (j, 1, 8) { A[i,j] = A[i+3,j] + B[j,i]; } } }",
        "doseq (t, 1, 4) { doall (i, 0, 20, 3) { doall (j, 1, 8) { A[i,j,1] = A[i+3,j,1] + B[j,i,j]; } } }",
    ],
    [
        "doall (i, 1, 4) { doall (j, 1, 4) { doall (k, 1, 4) { A[i+j+k] = B[i-1] + B[k+1]; } } }",
        "doall (i, 1, 4) { doall (j, 1, 4) { doall (k, 1, 4) { A[i,j+k] = B[i-1,j] + B[i,k+1]; } } }",
        "doall (i, 1, 4) { doall (j, 1, 4) { doall (k, 1, 4) { A[i,j,k] = B[i-1,j,k] + B[i,j,k+1]; } } }",
    ],
];

#[test]
fn a_parse_allocates_the_same_count_whatever_the_arrays_rank() {
    for row in RANKS {
        let counts = row.map(parse_allocations);
        assert_eq!(
            counts, [counts[0]; 3],
            "allocations by rank 1, 2, 3 differ:\n  {row:#?}"
        );
        for src in row {
            assert_eq!(parse_allocations(src), counts[0], "count moved: {src}");
        }
    }
}
