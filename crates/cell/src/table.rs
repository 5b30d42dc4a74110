//! The per-token table: one lazily computed row per vocabulary entry.
//!
//! Two cells have a step whose result for a row is a function of that
//! row's token alone: the LSTM's input half `embed[t] · Wx` and the
//! tree leaf's whole output `[h|c]`. The embedding and weights are
//! immutable per cell type (§4.2), and by batching transparency a row
//! does not depend on the rest of its batch, so the first computation
//! of a token is every later one. Each such cell keeps a
//! [`TokenTable`] and computes a token's row only the first time a
//! request needs it (admission prefills a request's known tokens, a
//! step fills the rest): the whole table is `vocab` rows of work (0.5
//! GFLOP for the LSTM at vocab 1000, hidden 256) that a cold start
//! would otherwise pay before its first response.

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
    /// `r < n`, in order, first filling the rows it lacks as
    /// [`TokenTable::prefill`] does.
    pub(crate) fn rows(
        &self,
        n: usize,
        id: impl Fn(usize) -> usize,
        fill: impl FnOnce(&[usize], &mut Vec<f32>),
        mut read: impl FnMut(usize, &[f32]),
    ) {
        let rows = self.filled((0..n).map(&id), fill);
        for r in 0..n {
            read(r, rows.row(id(r)).expect("filled above"));
        }
    }

    /// Makes sure every token of `tokens` has a row. On a table that
    /// has them all this is one scan under the read lock: no write
    /// lock, no allocation.
    ///
    /// Tokens without a row are handed to `fill` once, in ascending
    /// order and without repeats, with the rows computed so far: it
    /// must append one row of `width` floats per token it is given, in
    /// the order given.
    pub(crate) fn prefill(
        &self,
        tokens: impl Iterator<Item = usize> + Clone,
        fill: impl FnOnce(&[usize], &mut Vec<f32>),
    ) {
        drop(self.filled(tokens, fill));
    }

    /// [`TokenTable::prefill`], returning the table still held.
    fn filled(
        &self,
        tokens: impl Iterator<Item = usize> + Clone,
        fill: impl FnOnce(&[usize], &mut Vec<f32>),
    ) -> Held<'_> {
        let table = self.0.read().unwrap_or_else(PoisonError::into_inner);
        if tokens.clone().all(|t| table.slot[t].is_some()) {
            return Held::Read(table);
        }
        drop(table);
        #[cfg(test)]
        WRITE_LOCKS.with(|n| n.set(n.get() + 1));
        let mut held = self.0.write().unwrap_or_else(PoisonError::into_inner);
        let table = &mut *held;
        let mut missing: Vec<usize> = tokens.filter(|&t| table.slot[t].is_none()).collect();
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
        Held::Write(held)
    }
}

/// The table held for reading, or for writing after a fill.
enum Held<'a> {
    Read(RwLockReadGuard<'a, Rows>),
    Write(RwLockWriteGuard<'a, Rows>),
}

impl std::ops::Deref for Held<'_> {
    type Target = Rows;

    fn deref(&self) -> &Rows {
        match self {
            Held::Read(rows) => rows,
            Held::Write(rows) => rows,
        }
    }
}

#[cfg(test)]
thread_local! {
    static TABLES_OFF: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
    /// Write locks this thread's fills have asked for.
    static WRITE_LOCKS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Write locks the calling thread's table fills have asked for.
#[cfg(test)]
pub(crate) fn write_locks() -> u64 {
    WRITE_LOCKS.with(std::cell::Cell::get)
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
