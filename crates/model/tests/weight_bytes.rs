//! A cell holds one copy of each weight, and stepping it allocates no
//! second one.
//!
//! Small-batch RNN steps stream weights, so weight bytes are the memory
//! that counts. Isolated in its own integration-test binary because the
//! allocator hook is process-global; the counts are per thread (the
//! pattern of `bm-core`'s `dispatch_alloc.rs`), so the tests pass at any
//! `--test-threads`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use bm_cell::{RowInvocation, Scratch};
use bm_model::{LstmLm, LstmLmConfig, Model, Seq2Seq, Seq2SeqConfig};

struct ByteCountingAlloc;

thread_local! {
    // Const-initialised and without a destructor: touching them from
    // inside the allocator never allocates.
    static LIVE_BYTES: Cell<isize> = const { Cell::new(0) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note_alloc(size: usize) {
    LIVE_BYTES.with(|n| n.set(n.get() + size as isize));
    LARGEST.with(|n| n.set(n.get().max(size)));
}

fn note_dealloc(size: usize) {
    LIVE_BYTES.with(|n| n.set(n.get() - size as isize));
}

unsafe impl GlobalAlloc for ByteCountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note_dealloc(layout.size());
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_dealloc(layout.size());
        note_alloc(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: ByteCountingAlloc = ByteCountingAlloc;

/// Bytes the calling thread has allocated and not freed.
fn live_bytes() -> isize {
    LIVE_BYTES.with(Cell::get)
}

#[test]
fn seq2seq_holds_one_copy_of_each_weight() {
    // The benchmark's `seq2seq_wmt` model.
    let cfg = Seq2SeqConfig {
        embed_size: 256,
        hidden_size: 256,
        vocab: 1000,
        encoder_max_batch: 64,
        decoder_max_batch: 64,
        ..Seq2SeqConfig::default()
    };
    let before = live_bytes();
    let model = Seq2Seq::new(cfg);
    let held = live_bytes() - before;

    let (e, h, v) = (cfg.embed_size, cfg.hidden_size, cfg.vocab);
    // Per LSTM core: the embedding, `W` and `b`.
    let core = v * e + (e + h) * 4 * h + 4 * h;
    // The decoder's vocabulary projection and its bias.
    let projection = h * v + v;
    // Each core's token projection, `(vocab, 4 * hidden)`: allocated
    // with the cell, its rows computed as tokens are first stepped.
    let tables = 2 * v * 4 * h;
    let want = (4 * (2 * core + projection + tables)) as f64;
    let ratio = held as f64 / want;
    assert!(
        (0.95..=1.05).contains(&ratio),
        "building the model left {held} bytes live, {ratio:.3}x one copy of each weight \
         plus the token tables ({want} bytes)"
    );
    drop(model);
}

#[test]
fn a_chain_cells_first_gather_step_copies_no_weights() {
    // The benchmark's `chain_wmt` cell: a 2 MB `W` at hidden 256.
    let model = LstmLm::new(LstmLmConfig {
        embed_size: 256,
        hidden_size: 256,
        vocab: 1000,
        max_batch: 64,
        ..LstmLmConfig::default()
    });
    let cell = model.registry().cell(model.cell_type());
    let invs: Vec<RowInvocation<'_>> = (0..4).map(RowInvocation::token_only).collect();
    let mut scratch = Scratch::new();
    LARGEST.with(|n| n.set(0));
    let mut rows = 0;
    cell.execute_rows_in(&invs, &mut scratch, |_, _, _, _| rows += 1);
    let largest = LARGEST.with(Cell::get);
    assert_eq!(rows, invs.len());
    assert!(
        largest < 1 << 20,
        "the first gather step allocated a {largest}-byte buffer"
    );
}
