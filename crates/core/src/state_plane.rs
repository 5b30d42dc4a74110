//! The per-request slot-indexed state plane.
//!
//! One [`SlotBlock`] backs each admitted request: one write-once cell
//! per graph node holding the node's [`CellOutput`] (hidden state,
//! memory cell and emitted token), plus each node's expected row widths,
//! sized from its cell type. The step that computes a node *scatters*
//! its output by writing the cell; any later *gather* of the same
//! request borrows the rows in place — so dependency states flow between
//! tasks with no per-dependency copy — and the finished request moves
//! every output into its [`GraphResult`].
//!
//! A request lives on its shard's thread from admission to resolution,
//! so the block is plain single-threaded storage: no lock and no
//! atomics. A node is written at most once ever (a second write
//! panics — the engine's exactly-once submission invariant, so this is
//! a scheduler-bug detector, not a recoverable path), which is what lets
//! gathers hold shared row views while later nodes are written.

use std::cell::OnceCell;

use bm_cell::{CellOutput, CellRegistry, CellState, StateRef};
use bm_model::{reference::GraphResult, CellGraph};

/// State storage for one request: one write-once output per node.
#[derive(Debug)]
pub struct SlotBlock {
    outputs: Box<[OnceCell<CellOutput>]>,
    /// Node `i`'s `(h, c)` row widths.
    widths: Box<[(usize, usize)]>,
}

impl SlotBlock {
    /// Empty slots for every node of `graph`, expecting from each node
    /// the widths of its cell type (`h` row of `hidden_size`, `c` row of
    /// `memory_width`).
    pub fn for_graph(graph: &CellGraph, registry: &CellRegistry) -> Self {
        let widths = graph
            .nodes()
            .iter()
            .map(|node| {
                let cell = registry.cell(node.cell_type);
                (cell.hidden_size(), cell.memory_width())
            })
            .collect();
        Self::with_widths(widths)
    }

    fn with_widths(widths: Box<[(usize, usize)]>) -> Self {
        SlotBlock {
            outputs: widths.iter().map(|_| OnceCell::new()).collect(),
            widths,
        }
    }

    /// Writes node `i`'s output rows and token.
    ///
    /// # Panics
    ///
    /// Panics if the node was already written (each node executes
    /// exactly once), or if a row's width is not its cell type's.
    pub fn write(&self, i: usize, h: &[f32], c: &[f32], token: Option<u32>) {
        assert_eq!(
            (h.len(), c.len()),
            self.widths[i],
            "state slot {i} written with the wrong row widths"
        );
        let out = CellOutput {
            state: CellState {
                h: h.to_vec(),
                c: c.to_vec(),
            },
            token,
        };
        if self.outputs[i].set(out).is_err() {
            panic!("state slot {i} written twice");
        }
    }

    /// Borrows node `i`'s state rows, or `None` if the node has not
    /// executed.
    pub fn state(&self, i: usize) -> Option<StateRef<'_>> {
        self.outputs[i].get().map(|out| StateRef::of(&out.state))
    }

    /// The token node `i` emitted, if any.
    ///
    /// Meaningful only after [`SlotBlock::state`] returned `Some` for
    /// the node.
    pub fn token(&self, i: usize) -> Option<u32> {
        let out = self.outputs[i].get();
        debug_assert!(out.is_some(), "token read before the node was written");
        out.and_then(|out| out.token)
    }

    /// Moves every node's output into the request's result (`None` for
    /// never-executed nodes, e.g. past an `<eos>` cancel).
    pub fn into_result(self) -> GraphResult {
        GraphResult {
            outputs: self
                .outputs
                .into_vec()
                .into_iter()
                .map(OnceCell::into_inner)
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(widths: &[(usize, usize)]) -> SlotBlock {
        SlotBlock::with_widths(widths.into())
    }

    #[test]
    fn write_then_read_round_trips() {
        let b = block(&[(3, 3), (2, 0), (1, 1)]);
        assert!(b.state(0).is_none());
        b.write(0, &[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0], None);
        let st = b.state(0).expect("written");
        assert_eq!(st.h, &[1.0, 2.0, 3.0]);
        assert_eq!(st.c, &[4.0, 5.0, 6.0]);
        assert_eq!(b.token(0), None);

        b.write(1, &[7.0, 8.0], &[], Some(42));
        assert_eq!(b.token(1), Some(42));
        let outputs = b.into_result().outputs;
        let out = outputs[1].as_ref().expect("written");
        assert_eq!(out.state.h, vec![7.0, 8.0]);
        assert!(out.state.c.is_empty());
        assert_eq!(out.token, Some(42));
        assert!(outputs[2].is_none(), "a never-executed node has no output");
    }

    #[test]
    fn into_result_moves_the_rows_gathers_read() {
        let b = block(&[(2, 2)]);
        b.write(0, &[1.0, 2.0], &[3.0, 4.0], None);
        let (h, c) = {
            let st = b.state(0).expect("written");
            (st.h.as_ptr(), st.c.as_ptr())
        };
        let out = b.into_result().outputs.remove(0).expect("written");
        assert_eq!(out.state.h.as_ptr(), h, "h row copied, not moved");
        assert_eq!(out.state.c.as_ptr(), c, "c row copied, not moved");
    }

    #[test]
    #[should_panic(expected = "written twice")]
    fn double_write_panics() {
        let b = block(&[(1, 1)]);
        b.write(0, &[1.0], &[2.0], None);
        b.write(0, &[1.0], &[2.0], None);
    }

    #[test]
    #[should_panic(expected = "wrong row widths")]
    fn width_mismatch_panics() {
        let b = block(&[(2, 2)]);
        b.write(0, &[1.0, 2.0], &[3.0], None);
    }
}
