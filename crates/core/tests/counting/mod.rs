//! The counting global allocator of this crate's allocation tests. It counts
//! the allocations (and reallocations) of the measuring thread and of the
//! workers the measured call spawns, and none of the test harness's other
//! threads, which start, report and exit while a test measures; and it keeps
//! the size of each thread's largest allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// One thread's allocations, its largest one in bytes, and whether a test
/// of this binary runs on it.
struct Tally {
    allocs: Cell<u64>,
    largest: Cell<usize>,
    test: Cell<bool>,
}

impl Drop for Tally {
    /// A thread no test runs on — a worker — hands its count over as it
    /// exits, which is before the call that joins it returns.
    fn drop(&mut self) {
        if !self.test.get() {
            WORKERS.fetch_add(self.allocs.get(), Ordering::Relaxed);
        }
    }
}

thread_local! {
    static TALLY: Tally = const {
        Tally {
            allocs: Cell::new(0),
            largest: Cell::new(0),
            test: Cell::new(false),
        }
    };
}

// A statistic: publishes no other data.
static WORKERS: AtomicU64 = AtomicU64::new(0);

fn bump(bytes: usize) {
    // After the thread's tally is destroyed, its last allocations go
    // uncounted.
    let _ = TALLY.try_with(|t| {
        t.allocs.set(t.allocs.get() + 1);
        t.largest.set(t.largest.get().max(bytes));
    });
}

struct Counting;

// SAFETY: defers every operation to `System` unchanged; the only addition
// is a thread-local counter bump, which neither unwinds nor allocates
// through this allocator (the tally's destructor is registered with the C
// runtime, which uses its own).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(layout.size());
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(new_size);
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Marks this thread as a test's and holds the binary's lock: the tests of
/// a binary share the workers' count, so each holds the lock from its first
/// allocation to its last. (A poisoned lock only means another test failed;
/// the `()` inside cannot be left inconsistent.)
pub fn serial() -> MutexGuard<'static, ()> {
    static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());
    TALLY.with(|t| t.test.set(true));
    ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner())
}

/// Heap allocations (and reallocations) `f` makes on this thread and on the
/// threads it spawns and joins.
pub fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let count = || TALLY.with(|t| t.allocs.get()) + WORKERS.load(Ordering::Relaxed);
    let before = count();
    let out = f();
    (count() - before, out)
}

/// The size in bytes of the largest allocation (or reallocation) `f` makes
/// on this thread. Not every binary measures sizes.
#[allow(dead_code)]
pub fn largest_allocation<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = TALLY.with(|t| t.largest.replace(0));
    let out = f();
    let largest = TALLY.with(|t| t.largest.replace(before.max(t.largest.get())));
    (largest, out)
}
