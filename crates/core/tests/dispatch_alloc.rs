//! `CellularEngine::dispatch` with nothing ready, and
//! `CellularEngine::expire` with nothing due, allocate nothing; admitting
//! a chain or a seq2seq pair allocates the same whatever its length.
//!
//! A shard thread calls `dispatch` and `expire` on every pass of its
//! loop, including the idle pass right before it parks, so the "nothing
//! to do" answers must be free. Admission keeps one record per request:
//! its node records and reverse edges are flat arrays, so their number
//! does not grow with the graph. Isolated in its own integration-test binary because the
//! allocator hook is process-global; the count is per thread (the
//! pattern of `bm-telemetry`'s `zero_overhead.rs`), so the test passes
//! at any `--test-threads`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use bm_core::{CellularEngine, RequestId, SchedulerConfig, WorkerId};
use bm_model::{LstmLm, Model, RequestInput, Seq2Seq};

struct CountingAlloc;

thread_local! {
    // Const-initialised and without a destructor: touching it from inside
    // the allocator never allocates.
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

/// Allocations made by 1000 `dispatch` calls that all find nothing.
fn idle_dispatch_allocations(engine: &mut CellularEngine) -> u64 {
    let before = allocations();
    for _ in 0..1000 {
        assert!(engine.dispatch(WorkerId(0)).is_empty());
    }
    allocations() - before
}

#[test]
fn dispatch_with_nothing_ready_allocates_nothing() {
    // Two cell types, so the pick has more than one queue to look at.
    let model = Seq2Seq::small();
    let mut engine =
        CellularEngine::new(Arc::new(model.registry().clone()), SchedulerConfig::new());
    assert_eq!(
        idle_dispatch_allocations(&mut engine),
        0,
        "an idle engine's dispatch must not allocate"
    );

    // Requests admitted and their ready nodes in flight: nothing is
    // ready until a task completes.
    for i in 0..3 {
        let input = RequestInput::Pair {
            src: vec![2, 3],
            decode_len: 2,
        };
        engine.on_arrival(RequestId(i), model.unfold(&input), 0, None);
    }
    while engine.has_ready_work() {
        assert!(!engine.dispatch(WorkerId(0)).is_empty());
    }
    assert!(engine.inflight_tasks() > 0);
    assert_eq!(
        idle_dispatch_allocations(&mut engine),
        0,
        "dispatch with every ready node in flight must not allocate"
    );
}

#[test]
fn expire_with_nothing_due_allocates_nothing() {
    let model = Seq2Seq::small();
    let mut engine =
        CellularEngine::new(Arc::new(model.registry().clone()), SchedulerConfig::new());
    let expire_allocations = |engine: &mut CellularEngine, now: u64| {
        let before = allocations();
        for _ in 0..1000 {
            assert!(engine.expire(now).is_empty());
        }
        allocations() - before
    };
    assert_eq!(
        expire_allocations(&mut engine, 0),
        0,
        "an empty engine's expire must not allocate"
    );

    // Admitted requests, some with deadlines, some in flight: none due
    // before 100.
    let input = RequestInput::Pair {
        src: vec![2, 3],
        decode_len: 2,
    };
    for (i, deadline) in [Some(100), None, Some(250)].into_iter().enumerate() {
        engine.on_arrival(RequestId(i as u64), model.unfold(&input), 0, deadline);
    }
    assert!(!engine.dispatch(WorkerId(0)).is_empty());
    assert_eq!(engine.next_deadline(), Some(100));
    assert_eq!(
        expire_allocations(&mut engine, 99),
        0,
        "expire with nothing due must not allocate"
    );
}

/// Allocations `on_arrival` makes admitting `input`'s graph, unfolded
/// beforehand, into an engine that already holds one request.
fn admission_allocations(model: &dyn Model, input: &RequestInput) -> u64 {
    let mut engine =
        CellularEngine::new(Arc::new(model.registry().clone()), SchedulerConfig::new());
    engine.on_arrival(RequestId(0), model.unfold(input), 0, None);
    let graph = model.unfold(input);
    let before = allocations();
    engine.on_arrival(RequestId(1), graph, 0, None);
    allocations() - before
}

#[test]
fn admitting_a_chain_allocates_the_same_at_any_length() {
    let model = LstmLm::small();
    let chain = |n: u32| RequestInput::Sequence((0..n).map(|t| 1 + t % 50).collect());
    let (short, long) = (
        admission_allocations(&model, &chain(8)),
        admission_allocations(&model, &chain(64)),
    );
    assert_eq!(
        short, long,
        "admitting 8 and 64 chain nodes allocated {short} and {long} times"
    );
}

#[test]
fn admitting_a_pair_allocates_the_same_at_any_source_length() {
    let model = Seq2Seq::small();
    let pair = |src_len: u32| RequestInput::Pair {
        src: (0..src_len).map(|t| 2 + t % 50).collect(),
        decode_len: 4,
    };
    let counts: Vec<u64> = [2, 8, 64]
        .map(|n| admission_allocations(&model, &pair(n)))
        .to_vec();
    assert!(
        counts.iter().all(|&c| c == counts[0]),
        "admitting pairs with 2, 8 and 64 source tokens allocated {counts:?} times"
    );
}
