//! The counting global allocator shared by the zero-allocation tests
//! (`tests/zero_alloc.rs`, `crates/serve/tests/zero_alloc_slo.rs`;
//! each includes this file with `#[path]`).
//!
//! Counts every allocation and reallocation routed through the global
//! allocator. Deallocations are not counted: freeing is legal in a hot
//! loop only if nothing was allocated first, so `alloc + realloc == 0`
//! is the whole property.
//!
//! The tally is **per thread**. The test harness runs tests on several
//! threads and allocates on its own threads while they run, so a
//! process-wide count charges a measured window with other threads'
//! allocations. Every measured window in these tests runs on the test's
//! own thread, so its thread's count is exactly what the window did.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    // `const` init with a `Copy` value: no lazy initialisation and no
    // destructor, so reaching the counter never allocates itself.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with` rather than `with`: allocations can still happen while
    // a thread's locals are being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// The counting wrapper around the system allocator.
struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`,
// so `System`'s guarantees are the caller's; counting touches only a
// thread-local integer, never the memory handed out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations (plus reallocations) the calling thread has made so far.
pub fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}
