//! Zero-overhead assertions for the hot path, backed by a counting
//! global allocator.
//!
//! Isolated in its own integration-test binary because the allocator
//! hook is process-global. The count itself is per thread — libtest runs
//! the tests of a binary on parallel threads (and allocates on its own),
//! so each test sees only what its own thread allocated and passes at
//! any `--test-threads`. Two properties:
//!
//! - recording into `Counter`/`Gauge`/`Histogram` never allocates once
//!   the handle exists;
//! - the disabled path is a `None` handle, so an instrumented call site
//!   costs one branch and zero allocations.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bm_telemetry::{Counter, Telemetry};

struct CountingAlloc;

thread_local! {
    // Const-initialised and without a destructor: touching it from inside
    // the allocator never allocates and is valid for the thread's whole
    // life.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
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
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn recording_allocates_nothing() {
    let tel = Telemetry::new();
    let counter = tel.counter("hot_total");
    let gauge = tel.gauge("hot_depth");
    let hist = tel.histogram("hot_us");

    let before = allocations();
    for i in 0..100_000u64 {
        counter.add(i & 7);
        gauge.add(1);
        gauge.sub(1);
        hist.record(i * 31);
    }
    assert_eq!(
        allocations(),
        before,
        "metric recording must not allocate on the hot path"
    );
}

#[test]
fn disabled_path_is_branch_only() {
    let tel = Telemetry::disabled();
    assert!(!tel.enabled());

    // The instrumentation idiom: resolve handles once, `None` when
    // disabled, so the steady state is a single `is_some` branch.
    let counter: Option<Counter> = tel.enabled().then(|| tel.counter("never"));
    assert!(counter.is_none(), "disabled registry must yield no handle");

    let before = allocations();
    let mut observed = 0u64;
    for _ in 0..100_000 {
        if let Some(c) = &counter {
            c.inc();
            observed += 1;
        }
    }
    assert_eq!(observed, 0);
    assert_eq!(
        allocations(),
        before,
        "the disabled branch must not allocate"
    );

    // And a disabled registry records nothing even if probed directly.
    assert!(tel.snapshot().entries.is_empty());
}
