//! The per-token table: one lazily computed row per vocabulary entry.
//!
//! Two cells have a step whose result for a row is a function of that
//! row's token alone: the LSTM's input half `embed[t] · Wx` and the
//! tree leaf's whole output `[h|c]`. The embedding and weights are
//! immutable per cell type (§4.2), and by batching transparency a row
//! does not depend on the rest of its batch, so the first computation
//! of a token is every later one. Each such cell keeps a
//! [`TokenTable`] and computes a token's row only the first time a step
//! needs it: the whole table is `vocab` rows of work (0.5 GFLOP for the
//! LSTM at vocab 1000, hidden 256) that a cold start would otherwise
//! pay before its first response.

use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Cap on a table, in floats (16 MiB of f32). A cell whose table would
/// be larger has none and computes every row on every step.
const MAX_TABLE_ELEMS: usize = 1 << 22;

/// `vocab` rows of `width` floats, row `t` computed on token `t`'s
/// first use.
///
/// The rows live in one buffer the size of the whole table, written in
/// the order they are computed: the allocator hands a buffer that size
/// out without touching it, so only the pages rows were written to
/// become resident, and it is returned whole when the cell goes (rows
/// allocated one by one by the threads that step the cell cost
/// `seq2seq_wmt` 3 MiB of peak RSS). The buffer is reserved by the
/// first fill, or by [`TokenTable::reserved`] when the cell is built.
///
/// A row is recorded only after it is written, and a fill starts by
/// dropping whatever an unfinished one appended, so a panic while the
/// table was held for writing (an out-of-range token) leaves nothing
/// inconsistent, and poisoning is ignored.
#[derive(Debug)]
pub(crate) struct TokenTable(RwLock<Rows>);

#[derive(Debug)]
struct Rows {
    /// The computed rows, `width` floats each, in the order they were
    /// computed. Once reserved its capacity is the whole table, so it
    /// never moves.
    data: Vec<f32>,
    /// Per token, the index of its row in `data` once it is computed.
    slot: Vec<Option<usize>>,
    /// Complete rows in `data`.
    len: usize,
    width: usize,
}

impl Rows {
    fn row(&self, token: usize) -> Option<&[f32]> {
        let start = self.slot[token]? * self.width;
        Some(&self.data[start..start + self.width])
    }
}

impl TokenTable {
    /// An empty table, or `None` when it would exceed the cap.
    pub(crate) fn new(vocab: usize, width: usize) -> Option<Self> {
        #[cfg(test)]
        if TABLES_OFF.with(std::cell::Cell::get) {
            return None;
        }
        (vocab.saturating_mul(width) <= MAX_TABLE_ELEMS).then(|| {
            TokenTable(RwLock::new(Rows {
                data: Vec::new(),
                slot: vec![None; vocab],
                len: 0,
                width,
            }))
        })
    }

    /// The table with its buffer reserved now, by the calling thread,
    /// rather than by the first fill.
    pub(crate) fn reserved(mut self) -> Self {
        let rows = self.0.get_mut().unwrap_or_else(PoisonError::into_inner);
        rows.data.reserve_exact(rows.slot.len() * rows.width);
        self
    }

    /// Calls `read(r, row)` with the row of token `id(r)` for every
    /// `r < n`, in order.
    ///
    /// Tokens without a row are first handed to `fill` once each, in
    /// ascending order, with the rows computed so far: it must append
    /// one row of `width` floats per token it is given, in the order
    /// given.
    pub(crate) fn rows(
        &self,
        n: usize,
        id: impl Fn(usize) -> usize,
        fill: impl FnOnce(&[usize], &mut Vec<f32>),
        mut read: impl FnMut(usize, &[f32]),
    ) {
        let hit: RwLockReadGuard<'_, Rows>;
        let mut miss: RwLockWriteGuard<'_, Rows>;
        let table = self.0.read().unwrap_or_else(PoisonError::into_inner);
        let rows: &Rows = if (0..n).all(|r| table.slot[id(r)].is_some()) {
            hit = table;
            &hit
        } else {
            drop(table);
            miss = self.0.write().unwrap_or_else(PoisonError::into_inner);
            let table = &mut *miss;
            let mut missing: Vec<usize> = (0..n)
                .map(&id)
                .filter(|&t| table.slot[t].is_none())
                .collect();
            // Another step may have filled them while this one waited.
            if !missing.is_empty() {
                missing.sort_unstable();
                missing.dedup();
                // Drop what an unfinished fill appended; reserve the whole
                // table unless it already is.
                let (done, whole) = (table.len * table.width, table.slot.len() * table.width);
                table.data.truncate(done);
                table.data.reserve_exact(whole - done);
                fill(&missing, &mut table.data);
                assert_eq!(
                    table.data.len(),
                    (table.len + missing.len()) * table.width,
                    "a fill appends one row per missing token"
                );
                for &t in &missing {
                    table.slot[t] = Some(table.len);
                    table.len += 1;
                }
            }
            &miss
        };
        for r in 0..n {
            read(r, rows.row(id(r)).expect("filled above"));
        }
    }
}

#[cfg(test)]
thread_local! {
    static TABLES_OFF: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Runs `build` with token tables switched off on this thread: cells it
/// builds have none, as if their vocabulary were over the cap, so tests
/// can compare the path with a table against the path without.
#[cfg(test)]
pub(crate) fn without_tables<T>(build: impl FnOnce() -> T) -> T {
    TABLES_OFF.with(|off| off.set(true));
    let built = build();
    TABLES_OFF.with(|off| off.set(false));
    built
}
