//! Allocation budget of a cache hit.  A hit is a lookup: a request whose
//! text the server parsed before is known by that text, with no DSL
//! parse and no fingerprint, and its frame is decoded without a copy of
//! every key and value.  So what a hit allocates is the frame's objects,
//! the lookup and the reply, and not the nest: a one-statement nest and
//! a twenty-statement one cost the same count (one more, either way,
//! when the source has newlines: its escaped text decodes into one copy
//! of its own).  The count is a property
//! of the code, not of the host, and repeats exactly, so it is asserted
//! rather than timed.  This binary holds the one test: the counting
//! allocator is process-wide.

use alp_serve::{Request, Response, ServeConfig, Server};
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

/// Heap allocations `f` performs on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTED.with(|c| c.set(true));
    let out = f();
    COUNTED.with(|c| c.set(false));
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

/// Decode, answer from the cache and encode: the work a hit performs
/// between the two socket calls.
const HIT_BUDGET: u64 = 6;

/// The allocations of a hit on `source` — decode, lookup and reply,
/// encode — after a first request has planned it.
fn hit(server: &Server, source: &str) -> (u64, u64, u64) {
    let frame = Request::plan(7, source).encode();
    let warm = server.handle_now(&Request::decode(&frame).expect("decodes"));
    assert!(warm.ok, "{warm:?}");
    let once = || {
        let (req, decode) = allocations(|| Request::decode(&frame).expect("decodes"));
        let (resp, handle) = allocations(|| server.handle_now(&req));
        let (line, encode) = allocations(|| resp.encode());
        assert_eq!(resp.cache.as_deref(), Some("hit"), "{resp:?}");
        assert!(Response::decode(&line).expect("reply decodes").ok);
        (decode, handle, encode)
    };
    let counts = once();
    assert_eq!(once(), counts, "the count repeats");
    counts
}

/// A nest of `n` statements, one a line or all on one.
fn nest(n: usize, newline: &str) -> String {
    let statements: String = (0..n)
        .map(|k| format!("{newline}A{k}[i,j] = B[i,j] + B[i+{k},j+3] + C{k}[j,i];"))
        .collect();
    format!("doall (i, 1, 64) {{ doall (j, 1, 64) {{{statements}{newline}}} }}")
}

#[test]
fn a_cache_hit_allocates_the_same_for_any_nest() {
    let server = Server::new(ServeConfig::default());
    let (decode, handle, encode) = hit(&server, &nest(1, " "));
    let total = decode + handle + encode;
    assert!(
        total <= HIT_BUDGET,
        "a hit allocated {total} times (decode {decode}, lookup + reply {handle}, encode \
         {encode}); the budget is {HIT_BUDGET}"
    );
    assert_eq!(
        hit(&server, &nest(20, " ")),
        (decode, handle, encode),
        "a hit on twenty statements allocates as one on one"
    );
    // A source with newlines travels escaped, and decodes into one copy
    // of its own, however long.
    for n in [1, 20] {
        assert_eq!(
            hit(&server, &nest(n, "\n  ")),
            (decode + 1, handle, encode),
            "{n} statements, one a line"
        );
    }
}
