//! Resident batched state rows for chain cells.
//!
//! The §4.3 gather path pays for batching with data movement: every
//! step copies each request's recurrent state out of its slot rows into
//! a contiguous batch matrix, runs the cell, and scatters the results
//! back. For chain cells the batch composition barely changes between
//! consecutive steps — the same requests advance one token — so almost
//! all of that movement is waste.
//!
//! A [`ResidentBatch`] eliminates the gather half. Each active request's
//! state lives as a row of a persistently-allocated batch matrix pair
//! (`xh`/`aux`, laid out per [`bm_cell::ResidentLayout`]):
//!
//! - **join** (request's first step here) writes one row;
//! - **steady state** moves nothing — the fused step reads and rewrites
//!   the rows in place;
//! - **leave** swap-removes the last occupied row into the hole, so the
//!   occupied rows always form a dense prefix;
//! - **staleness** (the step's dependency is not the request's previous
//!   step of this cell type — e.g. in a model that alternates two chain
//!   cell types — so the row does not hold the state this step reads) is
//!   detected by a freshness check and repaired by re-fetching the
//!   authoritative state from the slot block — correctness never depends
//!   on a row being current. No shipped model goes stale: every chain
//!   step's one dependency is the request's previous step of the same
//!   type, or an encoder's last step feeding a decoder's first (a join).
//!
//! The scatter half remains: every node's output is still written to
//! the request's [`crate::SlotBlock`] so later gathers (tree phases,
//! gather-path steps) and the request's final result observe it.
//!
//! ## Row placement
//!
//! [`ResidentBatch::place`] arranges one task's entries at rows
//! `0..batch` in entry order, so the fused step runs over exactly the
//! dense prefix the scheduler batched this tick. Processing entries in
//! order keeps a simple invariant: when entry `i` finds its request
//! already resident at row `j`, then `j >= i` — rows displaced by
//! earlier entries only ever move to indices `>=` the current target —
//! so a single row swap suffices and placement is `O(batch)` row moves
//! worst case, zero in steady state (every request already sits at its
//! row from the previous tick).
//!
//! ## Freshness
//!
//! A row is *fresh* for entry `(request, node, dep)` iff it belongs to
//! `request` and its recorded `last_node` equals `dep` — the node whose
//! output this step consumes. Node ids are unique within a request, so
//! the check is exact regardless of how the row moved or how long
//! ago it was written. A stale row (the dependency was computed by
//! another cell type) is repaired from the slot block; a chain-start
//! entry (`dep == None`) zeroes the state portion, matching the gather
//! path's implicit zero initial state.

use std::collections::HashMap;

use bm_cell::{Cell, ResidentLayout, Scratch, StateRef};
use bm_model::NodeId;
use bm_tensor::Matrix;

use crate::ids::RequestId;

/// Churn counters of one resident batch, mirrored into telemetry by the
/// owning shard (`bm_resident_joins_total` / `bm_resident_leaves_total`
/// / `bm_resident_compactions_total` / `bm_resident_refetches_total`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResidentStats {
    /// Rows initialized for a newly-resident request.
    pub joins: u64,
    /// Rows released by eviction ([`ResidentBatch::remove`]).
    pub leaves: u64,
    /// Row moves keeping the occupied prefix dense: swap-remove fills
    /// on leave, displacements on join, and placement swaps.
    pub compaction_moves: u64,
    /// Stale rows repaired from the slot block (the step's dependency
    /// was not the request's previous step of this cell type).
    pub refetches: u64,
}

/// Per-row bookkeeping: who owns the row and which node last wrote it.
#[derive(Debug, Clone, Copy)]
struct RowMeta {
    request: RequestId,
    /// The node whose output the row currently holds. Prospective: set
    /// when the row is placed for a step, correct once the step runs.
    last_node: NodeId,
}

/// A persistent batch matrix pair holding the resident recurrent state
/// of every request currently parked on one shard for one cell type.
///
/// See the module docs for the protocol. The matrices grow
/// geometrically and never shrink; [`ResidentBatch::clear`] releases
/// all rows (but not the allocation).
#[derive(Debug)]
pub struct ResidentBatch {
    layout: ResidentLayout,
    /// `(capacity, hidden)` hidden-state rows, read and rewritten in
    /// place by the fused step.
    xh: Matrix,
    /// `(capacity, aux_width)` side matrix holding `c`.
    aux: Matrix,
    /// One entry per occupied row; `meta.len()` is the occupancy.
    meta: Vec<RowMeta>,
    map: HashMap<RequestId, usize>,
    stats: ResidentStats,
}

/// First allocation, rows. Small: a shard's steady batch is usually a
/// handful of requests, and growth is geometric from here.
const INITIAL_ROWS: usize = 8;

impl ResidentBatch {
    /// An empty resident batch for a cell with the given layout.
    pub fn new(layout: ResidentLayout) -> Self {
        ResidentBatch {
            layout,
            xh: Matrix::zeros(0, layout.xh_width()),
            aux: Matrix::zeros(0, layout.aux_width.max(1)),
            meta: Vec::new(),
            map: HashMap::new(),
            stats: ResidentStats::default(),
        }
    }

    /// Occupied rows (the dense prefix the fused step runs over).
    pub fn occupied(&self) -> usize {
        self.meta.len()
    }

    /// Allocated rows.
    pub fn capacity(&self) -> usize {
        self.xh.rows()
    }

    /// Churn counters since construction (or the last [`Self::clear`]
    /// does *not* reset them — they are monotonic).
    pub fn stats(&self) -> ResidentStats {
        self.stats
    }

    /// The layout rows follow.
    pub fn layout(&self) -> ResidentLayout {
        self.layout
    }

    /// Places `request`'s state at row `i` for a step of `node`, whose
    /// state input is `dep`'s output (`None` for a chain start).
    ///
    /// Must be called for a task's entries in order, `i = 0, 1, …` —
    /// the placement invariant (module docs) depends on it. `fetch` is
    /// consulted only when the row is missing or stale; it returns the
    /// authoritative state of `dep` (normally a slot-block read).
    ///
    /// # Panics
    ///
    /// Panics if a fetched state's widths do not match the layout.
    pub fn place<'a>(
        &mut self,
        i: usize,
        request: RequestId,
        node: NodeId,
        dep: Option<NodeId>,
        fetch: impl FnOnce() -> StateRef<'a>,
    ) {
        debug_assert!(i <= self.meta.len(), "entries must be placed in order");
        // Steady-state fast path: the request already owns row `i` from
        // its previous step, so no map lookup, no movement — just the
        // freshness check and the meta update.
        if let Some(m) = self.meta.get(i) {
            if m.request == request && dep == Some(m.last_node) {
                self.meta[i].last_node = node;
                return;
            }
        }
        let was_resident = self.map.contains_key(&request);
        let fresh = match self.map.get(&request).copied() {
            Some(j) => {
                // Entries 0..i already occupy rows 0..i, so a resident
                // row for this request can only be at j >= i.
                debug_assert!(j >= i, "placement invariant violated: {j} < {i}");
                if j != i {
                    self.swap_rows(i, j);
                    let displaced = self.meta[j].request;
                    self.map.insert(displaced, j);
                    self.map.insert(request, i);
                    self.stats.compaction_moves += 1;
                }
                dep == Some(self.meta[i].last_node)
            }
            None => {
                // Join: grow the prefix by one row. If the target row
                // is occupied, its owner moves to the new tail slot.
                self.ensure_capacity(self.meta.len() + 1);
                let tail = self.meta.len();
                if i < tail {
                    self.copy_row(i, tail);
                    let displaced = self.meta[i];
                    self.meta.push(displaced);
                    self.map.insert(displaced.request, tail);
                    self.stats.compaction_moves += 1;
                } else {
                    self.meta.push(RowMeta {
                        request,
                        last_node: node,
                    });
                }
                self.map.insert(request, i);
                self.stats.joins += 1;
                false
            }
        };
        if !fresh {
            match dep {
                None => self.zero_state(i),
                Some(_) => {
                    if was_resident {
                        self.stats.refetches += 1;
                    }
                    self.write_state(i, fetch());
                }
            }
        }
        self.meta[i] = RowMeta {
            request,
            last_node: node,
        };
    }

    /// Runs one fused step over rows `0..rows` (the entries just
    /// placed), emitting `(row, h, c, token)` per row — bitwise the
    /// outputs of the gather path over equal state rows.
    pub fn step<F>(
        &mut self,
        cell: &Cell,
        rows: usize,
        tokens: &[Option<u32>],
        scratch: &mut Scratch,
        emit: F,
    ) where
        F: FnMut(usize, &[f32], &[f32], Option<u32>),
    {
        assert!(rows <= self.meta.len(), "step past the occupied prefix");
        cell.step_resident(&mut self.xh, &mut self.aux, rows, tokens, scratch, emit);
    }

    /// Evicts `request`'s row, if resident: the last occupied row
    /// swap-fills the hole so the prefix stays dense. Returns whether a
    /// row was released.
    pub fn remove(&mut self, request: RequestId) -> bool {
        let Some(i) = self.map.remove(&request) else {
            return false;
        };
        let last = self.meta.len() - 1;
        if i != last {
            self.copy_row(last, i);
            self.meta[i] = self.meta[last];
            self.map.insert(self.meta[i].request, i);
            self.stats.compaction_moves += 1;
        }
        self.meta.pop();
        self.stats.leaves += 1;
        true
    }

    /// Releases every row (allocation retained). Rows of requests that
    /// step again are rebuilt from the slot block by the freshness
    /// check.
    pub fn clear(&mut self) {
        self.meta.clear();
        self.map.clear();
    }

    fn ensure_capacity(&mut self, rows: usize) {
        if rows <= self.xh.rows() {
            return;
        }
        let cap = rows.next_power_of_two().max(INITIAL_ROWS);
        self.xh = grow(&self.xh, cap);
        self.aux = grow(&self.aux, cap);
    }

    /// Swaps rows `i` and `j` of both matrices.
    fn swap_rows(&mut self, i: usize, j: usize) {
        swap_rows(&mut self.xh, i, j);
        swap_rows(&mut self.aux, i, j);
        self.meta.swap(i, j);
    }

    /// Copies row `src` over row `dst` in both matrices (meta is the
    /// caller's job — join and leave update it differently).
    fn copy_row(&mut self, src: usize, dst: usize) {
        copy_row(&mut self.xh, src, dst);
        copy_row(&mut self.aux, src, dst);
    }

    /// Zeroes row `i`'s state — the implicit zero initial state of a
    /// chain start.
    fn zero_state(&mut self, i: usize) {
        self.xh.row_mut(i).fill(0.0);
        self.aux.row_mut(i).fill(0.0);
    }

    /// Writes an authoritative state into row `i`.
    fn write_state(&mut self, i: usize, st: StateRef<'_>) {
        self.xh.row_mut(i).copy_from_slice(st.h);
        self.aux.row_mut(i).copy_from_slice(st.c);
    }
}

/// Reallocates `m` at `cap` rows, copying the existing rows.
fn grow(m: &Matrix, cap: usize) -> Matrix {
    let w = m.cols();
    let mut data = vec![0.0f32; cap * w];
    data[..m.len()].copy_from_slice(m.as_slice());
    Matrix::from_vec(cap, w, data)
}

fn swap_rows(m: &mut Matrix, i: usize, j: usize) {
    if i == j {
        return;
    }
    let w = m.cols();
    let (lo, hi) = (i.min(j), i.max(j));
    let (a, b) = m.as_mut_slice().split_at_mut(hi * w);
    a[lo * w..(lo + 1) * w].swap_with_slice(&mut b[..w]);
}

fn copy_row(m: &mut Matrix, src: usize, dst: usize) {
    if src == dst {
        return;
    }
    let w = m.cols();
    m.as_mut_slice()
        .copy_within(src * w..(src + 1) * w, dst * w);
}

#[cfg(test)]
mod tests {
    use super::*;
    use bm_cell::{Cell, CellState, LstmCell, RowInvocation};

    fn lstm() -> Cell {
        Cell::Lstm(LstmCell::seeded(4, 6, 50, 9))
    }

    /// The gather path's state for one invocation run alone.
    fn gather_step(cell: &Cell, inv: RowInvocation<'_>) -> CellState {
        let mut out = None;
        cell.execute_rows_in(&[inv], &mut Scratch::new(), |row, h, c, _| {
            assert_eq!(row, 0, "a batch of one emits row 0");
            out = Some(CellState {
                h: h.to_vec(),
                c: c.to_vec(),
            });
        });
        out.expect("a batch of one emits one row")
    }

    fn unreachable_fetch<'a>() -> StateRef<'a> {
        panic!("fetch called for a row expected fresh or zero-init")
    }

    /// Internal consistency: map and meta agree, occupancy matches.
    fn check_invariants(rb: &ResidentBatch) {
        assert_eq!(rb.map.len(), rb.meta.len());
        for (r, m) in rb.meta.iter().enumerate() {
            assert_eq!(rb.map.get(&m.request), Some(&r), "row {r} map mismatch");
        }
        assert!(rb.capacity() >= rb.occupied());
    }

    /// Steps requests through a ResidentBatch under churn (joins,
    /// leaves, reorderings, a simulated gather-path step) and checks every
    /// output bitwise against the gather path, with vacated rows
    /// NaN-poisoned to prove they are never read.
    #[test]
    fn churn_preserves_row_map_and_matches_gather() {
        let cell = lstm();
        let layout = cell.resident_layout().unwrap();
        let mut rb = ResidentBatch::new(layout);
        let mut scratch = Scratch::new();
        // Authoritative per-request state, as the slot block would hold
        // it: (last node id, state).
        let mut truth: HashMap<RequestId, (u32, CellState)> = HashMap::new();
        let mut next_node: HashMap<RequestId, u32> = HashMap::new();

        // One tick: place + step `batch` (request, token) pairs,
        // asserting each row's output equals the gather path's.
        let tick = |rb: &mut ResidentBatch,
                    scratch: &mut Scratch,
                    truth: &mut HashMap<RequestId, (u32, CellState)>,
                    next_node: &mut HashMap<RequestId, u32>,
                    batch: &[(u64, u32)]| {
            let cell = lstm();
            let mut expected = Vec::new();
            // Resolve every entry's placement inputs first so fetched
            // states outlive the `place` calls below.
            let mut placements: Vec<(RequestId, NodeId, Option<NodeId>, Option<CellState>)> =
                Vec::new();
            for &(r, tok) in batch {
                let req = RequestId(r);
                let n = next_node.entry(req).or_insert(0);
                let node = NodeId(*n);
                let dep = n.checked_sub(1).map(NodeId);
                *n += 1;
                let prev = truth.get(&req).map(|(_, s)| s.clone());
                expected.push(match &prev {
                    Some(s) => gather_step(&cell, RowInvocation::chain(tok, StateRef::of(s))),
                    None => gather_step(&cell, RowInvocation::token_only(tok)),
                });
                placements.push((req, node, dep, prev));
            }
            for (idx, (req, node, dep, prev)) in placements.iter().enumerate() {
                rb.place(idx, *req, *node, *dep, || {
                    let s = prev.as_ref().expect("stale fetch without prior state");
                    StateRef { h: &s.h, c: &s.c }
                });
            }
            let tokens: Vec<Option<u32>> = batch.iter().map(|&(_, t)| Some(t)).collect();
            let mut got = Vec::new();
            rb.step(&cell, batch.len(), &tokens, scratch, |row, h, c, token| {
                assert_eq!(row, got.len());
                got.push((h.to_vec(), c.to_vec(), token));
            });
            for (idx, &(r, _)) in batch.iter().enumerate() {
                let req = RequestId(r);
                let (h, c, _) = &got[idx];
                assert_eq!(&expected[idx].h, h, "req {r} h mismatch");
                assert_eq!(&expected[idx].c, c, "req {r} c mismatch");
                assert!(h.iter().chain(c.iter()).all(|v| v.is_finite()));
                truth.insert(
                    req,
                    (
                        next_node[&req] - 1,
                        CellState {
                            h: h.clone(),
                            c: c.clone(),
                        },
                    ),
                );
            }
            check_invariants(rb);
        };

        // Joins at increasing rows.
        tick(
            &mut rb,
            &mut scratch,
            &mut truth,
            &mut next_node,
            &[(0, 3), (1, 7), (2, 1)],
        );
        assert_eq!(rb.occupied(), 3);
        // Steady state, reordered (exercises placement swaps).
        tick(
            &mut rb,
            &mut scratch,
            &mut truth,
            &mut next_node,
            &[(2, 4), (0, 9), (1, 2)],
        );
        assert_eq!(rb.stats().joins, 3);
        // Leave in the middle; poison the vacated row.
        assert!(rb.remove(RequestId(0)));
        assert!(!rb.remove(RequestId(0)), "double remove is a no-op");
        let vacated = rb.occupied();
        rb.xh.row_mut(vacated).fill(f32::NAN);
        rb.aux.row_mut(vacated).fill(f32::NAN);
        check_invariants(&rb);
        // Join over the hole (displacement path) plus survivors.
        tick(
            &mut rb,
            &mut scratch,
            &mut truth,
            &mut next_node,
            &[(3, 5), (1, 8), (2, 6)],
        );
        assert_eq!(rb.occupied(), 3);
        // Simulated gather-path step: request 1 steps elsewhere (truth
        // advances, resident row goes stale), then returns — the
        // freshness check must trigger a refetch.
        {
            let req = RequestId(1);
            let n = next_node[&req];
            let (_, prev) = truth[&req].clone();
            let out = gather_step(&cell, RowInvocation::chain(11, StateRef::of(&prev)));
            truth.insert(req, (n, out));
            next_node.insert(req, n + 1);
        }
        let refetches_before = rb.stats().refetches;
        tick(
            &mut rb,
            &mut scratch,
            &mut truth,
            &mut next_node,
            &[(1, 4), (3, 2)],
        );
        assert_eq!(rb.stats().refetches, refetches_before + 1);
        // Re-join of an evicted request: zero-init must overwrite any
        // poison left in the reused tail row.
        tick(
            &mut rb,
            &mut scratch,
            &mut truth,
            &mut next_node,
            &[(4, 1), (1, 3), (2, 2), (3, 9)],
        );
        assert_eq!(rb.occupied(), 4);
        let s = rb.stats();
        assert_eq!(s.joins, 5);
        assert_eq!(s.leaves, 1);
        assert!(s.compaction_moves >= 2);
    }

    #[test]
    fn join_at_occupied_row_displaces_owner_to_tail() {
        let cell = lstm();
        let mut rb = ResidentBatch::new(cell.resident_layout().unwrap());
        // Two residents at rows 0 and 1.
        rb.place(0, RequestId(10), NodeId(0), None, unreachable_fetch);
        rb.place(1, RequestId(11), NodeId(0), None, unreachable_fetch);
        // Mark their rows so displacement is observable.
        rb.xh.row_mut(0)[0] = 10.0;
        rb.xh.row_mut(1)[0] = 11.0;
        // A new request takes row 0: request 10 must move to row 2.
        rb.place(0, RequestId(12), NodeId(0), None, unreachable_fetch);
        check_invariants(&rb);
        assert_eq!(rb.map[&RequestId(10)], 2);
        assert_eq!(rb.map[&RequestId(12)], 0);
        assert_eq!(rb.xh.row(2)[0], 10.0, "displaced row data moved with it");
        assert_eq!(rb.occupied(), 3);
    }

    #[test]
    fn capacity_grows_geometrically_and_preserves_rows() {
        let cell = lstm();
        let mut rb = ResidentBatch::new(cell.resident_layout().unwrap());
        for r in 0..INITIAL_ROWS + 1 {
            rb.place(r, RequestId(r as u64), NodeId(0), None, unreachable_fetch);
            rb.xh.row_mut(r)[0] = r as f32 + 0.5;
        }
        assert_eq!(rb.capacity(), (INITIAL_ROWS + 1).next_power_of_two());
        for r in 0..INITIAL_ROWS + 1 {
            assert_eq!(rb.xh.row(r)[0], r as f32 + 0.5);
        }
        check_invariants(&rb);
    }

    #[test]
    fn clear_releases_rows_but_keeps_allocation() {
        let cell = lstm();
        let mut rb = ResidentBatch::new(cell.resident_layout().unwrap());
        rb.place(0, RequestId(1), NodeId(0), None, unreachable_fetch);
        let cap = rb.capacity();
        rb.clear();
        assert_eq!(rb.occupied(), 0);
        assert_eq!(rb.capacity(), cap);
        // Re-join works from a cleared batch.
        rb.place(0, RequestId(1), NodeId(0), None, unreachable_fetch);
        check_invariants(&rb);
    }
}
