//! Allocation budget of a cache hit.  A hit is a lookup: what it costs
//! is the text front — frame decode, DSL parse, fingerprint — plus the
//! reply, and that front allocates per nest (names, subscript vectors,
//! the JSON object), not per token or per character.  The count is a
//! property of the code, not of the host, and repeats exactly, so it is
//! asserted rather than timed.  This binary holds the one test: the
//! counting allocator is process-wide.

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
const HIT_BUDGET: u64 = 40;

#[test]
fn a_cache_hit_allocates_per_nest_not_per_token() {
    let server = Server::new(ServeConfig::default());
    let source = "doall (i, 1, 64) { doall (j, 1, 64) { A[i,j] = B[i,j] + B[i+1,j+3]; } }";
    let frame = Request::plan(7, source).encode();
    let warm = server.handle_now(&Request::decode(&frame).expect("decodes"));
    assert_eq!(warm.cache.as_deref(), Some("computed"), "{warm:?}");

    let hit = || {
        let (req, decode) = allocations(|| Request::decode(&frame).expect("decodes"));
        let (resp, handle) = allocations(|| server.handle_now(&req));
        let (line, encode) = allocations(|| resp.encode());
        assert_eq!(resp.cache.as_deref(), Some("hit"), "{resp:?}");
        assert!(Response::decode(&line).expect("reply decodes").ok);
        (decode, handle, encode)
    };
    let (decode, handle, encode) = hit();
    let total = decode + handle + encode;
    assert!(
        total <= HIT_BUDGET,
        "a hit allocated {total} times (decode {decode}, parse + fingerprint + lookup + reply \
         {handle}, encode {encode}); the budget is {HIT_BUDGET}"
    );
    assert_eq!(hit(), (decode, handle, encode), "the count repeats");
}
