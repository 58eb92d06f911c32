//! A counting global allocator.
//!
//! Counting is per host thread and off by default: [`counting`] switches
//! it on for the current thread around one closure, so the benchmark
//! attributes to a call exactly the allocations that call made, and the
//! untimed remainder of the benchmark pays one thread-local load per
//! allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Forwards every request to [`System`], counting allocations made on
/// threads that have counting switched on.
pub struct CountingAlloc;

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

fn note(size: usize) {
    // `try_with`: the allocator can run while thread-locals are being torn
    // down; const-initialized cells without destructors stay readable,
    // and an inaccessible one just goes uncounted.
    let on = ON.try_with(Cell::get).unwrap_or(false);
    if on {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        let _ = BYTES.try_with(|c| c.set(c.get() + size as u64));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, so
// the `GlobalAlloc` contract holds exactly as it does for `System`. The
// counting touches only const-initialized `Cell`s, which never allocate
// and so cannot re-enter the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `alloc_zeroed`'s contract for `layout`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: `ptr`/`layout` describe a live `System` block and
        // `new_size` is valid, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Allocations observed on one thread.
#[derive(Clone, Copy, Debug, Default)]
pub struct AllocCount {
    /// Allocation and reallocation requests.
    pub allocs: u64,
    /// Bytes requested by them.
    pub bytes: u64,
}

/// Runs `f` with counting on for the current thread and returns what it
/// allocated.
pub fn counting<R>(f: impl FnOnce() -> R) -> (R, AllocCount) {
    let a0 = ALLOCS.with(Cell::get);
    let b0 = BYTES.with(Cell::get);
    ON.with(|c| c.set(true));
    let r = f();
    ON.with(|c| c.set(false));
    let count = AllocCount {
        allocs: ALLOCS.with(Cell::get) - a0,
        bytes: BYTES.with(Cell::get) - b0,
    };
    (r, count)
}
