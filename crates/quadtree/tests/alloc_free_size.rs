//! The size kernel never touches the heap: its scratch is a pair of
//! fixed per-level arrays on the stack.

use sensjoin_quadtree::{
    encode, encoded_len_bits, encoded_wire_size, Point, PointSet, RelFlags, TreeShape,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: defers every operation to `System` unchanged; the only addition
// is a thread-local counter bump, which neither allocates (const-initialized
// `Cell`, no destructor) nor unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|c| c.set(c.get() + 1));
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn sizing_allocates_nothing() {
    let shapes = [
        TreeShape::new(&[1; 16], 2),
        TreeShape::new(&[3, 3, 3, 3, 3, 3, 2, 2, 2], 2),
        TreeShape::without_flags(&[2, 2, 2, 2, 2, 2, 1]),
    ];
    for shape in &shapes {
        let cells = 1u64 << shape.z_bits();
        for n in [0u64, 1, 2, 64, 4096] {
            // Clustered and scattered cells, three flag classes.
            let set = PointSet::from_points((0..n).map(|i| Point {
                z: (i * i * 2_654_435_761 + i) % cells,
                flags: RelFlags(1 + (i % 3) as u8),
            }));
            let want = encode(&set, shape);
            let before = ALLOCS.with(Cell::get);
            let bits = encoded_len_bits(&set, shape);
            let bytes = encoded_wire_size(&set, shape);
            let allocs = ALLOCS.with(Cell::get) - before;
            assert_eq!(allocs, 0, "{n} points");
            assert_eq!((bits, bytes), (want.len_bits, want.wire_size()));
        }
    }
}
