//! `Cell::prefill` on a table that already has every row allocates
//! nothing.
//!
//! A shard prefills on every admission, so once a cell's table is warm
//! the call must be free. Isolated in its own integration-test binary
//! because the allocator hook is process-global; the count is per
//! thread (the pattern of `bm-core`'s `dispatch_alloc.rs`), so the test
//! passes at any `--test-threads`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell as Counter;

use bm_cell::{Cell, DecoderCell, LstmCell, Scratch, TreeLeafCell};

struct CountingAlloc;

thread_local! {
    // Const-initialised and without a destructor: touching it from inside
    // the allocator never allocates.
    static ALLOCATIONS: Counter<u64> = const { Counter::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations made so far by the calling thread.
fn allocations() -> u64 {
    ALLOCATIONS.with(Counter::get)
}

#[test]
fn prefill_on_a_warm_table_allocates_nothing() {
    let tokens = [9u32, 2, 40, 2, 11, 9, 63];
    let mut s = Scratch::new();
    for cell in [
        Cell::Lstm(LstmCell::seeded(16, 24, 64, 1)),
        Cell::Decoder(DecoderCell::seeded(16, 24, 64, 2)),
        Cell::TreeLeaf(TreeLeafCell::seeded(16, 24, 64, 3)),
    ] {
        let kind = cell.kind_name();
        let before = allocations();
        cell.prefill(tokens.iter().copied(), &mut s);
        assert!(
            allocations() > before,
            "{kind}: a cold prefill computes rows"
        );
        let before = allocations();
        for _ in 0..1000 {
            cell.prefill(tokens.iter().copied(), &mut s);
            cell.prefill(tokens[2..5].iter().copied(), &mut s);
        }
        assert_eq!(
            allocations() - before,
            0,
            "{kind}: a warm prefill allocated"
        );
    }
}
