//! A tagged request holds the state rows of its live frontier, not of
//! every node it executed, and its control path allocates per request,
//! not per node or task.
//!
//! A hosted shard driven by this thread serves tagged requests at
//! hidden 256, while a per-thread allocator tracks the thread's live
//! and peak heap bytes and counts its allocations: building the
//! request (a tree's nodes are one allocation, as the wire decoder
//! builds them), submission (validate, unfold, admit), every pass and
//! the resolve all run here, so the peak above the idle baseline is
//! what serving the request held at its fullest. A chain or tree
//! several times larger may hold more graph, bookkeeping and tokens per
//! node, but less than one `h` + `c` row pair per extra node — which is
//! what keeping every executed node's rows until the request resolves
//! costs.
//!
//! Allocations: a chain's rows are recycled from node to node and every
//! task buffer is the shard's, so a chain of any length allocates the
//! same. A tree still allocates the row pairs its batched levels hold
//! at once (every leaf's, then the first internal level's beside
//! them), one allocation per pair and fewer pairs than extra nodes.
//!
//! Isolated in its own binary because the allocator hook is
//! process-global; the counts are per thread (the pattern of
//! `dispatch_alloc.rs`), so the test passes at any `--test-threads`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use bm_core::{completion_queue, HostedShard, Request, Runtime, RuntimeOptions, ServeConfig};
use bm_model::{LstmLm, LstmLmConfig, Model, RequestInput, TreeLstm, TreeLstmConfig, TreeShape};

struct TrackingAlloc;

thread_local! {
    // Const-initialised and without a destructor: touching them from
    // inside the allocator never allocates.
    static LIVE: Cell<i64> = const { Cell::new(0) };
    static PEAK: Cell<i64> = const { Cell::new(0) };
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// Moves this thread's live byte count by `delta`, raising its peak.
fn track(delta: i64) {
    let live = LIVE.with(|l| {
        l.set(l.get() + delta);
        l.get()
    });
    PEAK.with(|p| p.set(p.get().max(live)));
}

unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        track(layout.size() as i64);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as i64));
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        track(new_size as i64 - layout.size() as i64);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: TrackingAlloc = TrackingAlloc;

const HIDDEN: usize = 256;

/// One node's `h` and `c` rows at hidden 256, in bytes.
const ROW_PAIR: i64 = (2 * HIDDEN * std::mem::size_of::<f32>()) as i64;

/// What serving one request cost this thread.
struct Served {
    /// Peak live bytes above the idle baseline.
    peak: i64,
    /// Heap allocations, from building the request to the outcome's
    /// drop.
    allocations: u64,
}

/// Serves `input` tagged on a fresh one-shard runtime hosted by this
/// thread, once to warm every lazily built table and scratch buffer,
/// then once measured.
fn serve(model: Arc<dyn Model>, input: &RequestInput) -> Served {
    let opts = RuntimeOptions::new().serve_config(ServeConfig::new().shards(1));
    let (rt, mut shard) = Runtime::start_hosted(model, opts, Arc::new(|| {}));
    let (queue, completions) = completion_queue();
    let run = |shard: &mut HostedShard, tag| {
        let refused = rt.submit_batch_tagged([(tag, Request::from(input))], &queue);
        assert!(refused.is_empty(), "refused: {refused:?}");
        while shard.pass(false) {}
        let (got, outcome) = completions.try_recv().expect("resolved by the passes");
        assert_eq!(got, tag);
        assert!(outcome.is_completed(), "{outcome:?}");
    };
    run(&mut shard, 0);
    let base = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(base));
    let before = ALLOCATIONS.with(Cell::get);
    run(&mut shard, 1);
    let served = Served {
        peak: PEAK.with(Cell::get) - base,
        allocations: ALLOCATIONS.with(Cell::get) - before,
    };
    drop(shard);
    rt.shutdown();
    served
}

/// Serves a small and a large request of one model, prints both
/// measurements (`--nocapture` shows them) and returns them with the
/// large request's extra node count.
fn serve_both(
    model: Arc<dyn Model>,
    small: RequestInput,
    large: RequestInput,
) -> (Served, Served, i64) {
    let extra = (large.cell_count() - small.cell_count()) as i64;
    let name = model.name().to_string();
    let (s, l) = (serve(Arc::clone(&model), &small), serve(model, &large));
    for (input, served) in [(&small, &s), (&large, &l)] {
        println!(
            "{name}, {} nodes: peak {} B above idle, {} allocations",
            input.cell_count(),
            served.peak,
            served.allocations
        );
    }
    (s, l, extra)
}

/// Serves a small and a large request of one model and asserts the
/// peak grew by less than a row pair per extra node.
fn assert_peak_tracks_live_rows(model: Arc<dyn Model>, small: RequestInput, large: RequestInput) {
    let (s, l, extra) = serve_both(model, small, large);
    let per_node = (l.peak - s.peak) as f64 / extra as f64;
    assert!(
        l.peak - s.peak < extra * ROW_PAIR,
        "peak grew {per_node:.0} B per extra node, a row pair is {ROW_PAIR} B"
    );
}

fn chain_model() -> Arc<dyn Model> {
    Arc::new(LstmLm::new(LstmLmConfig {
        hidden_size: HIDDEN,
        ..LstmLmConfig::default()
    }))
}

fn chain(n: u32) -> RequestInput {
    RequestInput::Sequence((0..n).map(|t| 1 + t % 50).collect())
}

fn tree_model() -> Arc<dyn Model> {
    Arc::new(TreeLstm::new(TreeLstmConfig {
        hidden_size: HIDDEN,
        ..TreeLstmConfig::default()
    }))
}

fn tree(leaves: usize) -> RequestInput {
    RequestInput::Tree(TreeShape::complete(leaves, 50))
}

#[test]
fn a_longer_chain_holds_less_than_a_row_pair_per_extra_node() {
    assert_peak_tracks_live_rows(chain_model(), chain(8), chain(64));
}

#[test]
fn a_larger_tree_holds_less_than_a_row_pair_per_extra_node() {
    assert_peak_tracks_live_rows(tree_model(), tree(8), tree(64));
}

#[test]
fn a_chain_allocates_the_same_at_any_length() {
    let (s, l, _) = serve_both(chain_model(), chain(8), chain(64));
    assert_eq!(
        s.allocations, l.allocations,
        "serving 8 and 64 chain nodes allocated {} and {} times",
        s.allocations, l.allocations
    );
}

#[test]
fn a_tree_allocates_less_than_once_per_extra_node() {
    let (s, l, extra) = serve_both(tree_model(), tree(8), tree(64));
    let grown = l.allocations as i64 - s.allocations as i64;
    assert!(
        grown < extra,
        "serving {extra} more tree nodes allocated {grown} more times"
    );
}
