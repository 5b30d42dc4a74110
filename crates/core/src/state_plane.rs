//! The per-request slot-indexed state plane.
//!
//! One [`SlotBlock`] backs each admitted request: one write-once cell
//! per graph node holding the node's output (hidden state, memory cell
//! and emitted token), plus each node's expected row widths, sized from
//! its cell type, and its count of consumers yet to run. The step that
//! computes a node *scatters* its output by writing the cell; any later
//! *gather* of the same request borrows the rows in place — so
//! dependency states flow between tasks with no per-dependency copy.
//!
//! A block from [`SlotBlock::for_graph`] keeps every node's `h` and `c`
//! rows, each its own allocation, and moves them into the request's
//! [`GraphResult`] when it finishes ([`SlotBlock::into_result`]).
//!
//! A node's rows exist to be gathered by its consumers (§4.3). A
//! [`SlotBlock::releasing`] block, told each time a consumer has run
//! ([`SlotBlock::consume`]), releases a node's rows once its last
//! consumer has: a request then holds the rows of its live frontier,
//! not of everything it executed. Such a block keeps a node's `h` and
//! `c` rows in one allocation, `h` first, and hands a released
//! allocation to the request's next write while its unwritten nodes
//! still need one (freeing it otherwise), so a chain of any length
//! writes into the same few allocations and a tree's upper levels write
//! into its leaves'. The token and the executed mark stay. No consumer
//! of the last executed node has run (consumers come later in node
//! order), so its rows are always there, and the request resolves to
//! its executed count, its tokens and that node's hidden state
//! ([`SlotBlock::into_tagged`]).
//!
//! A request lives on its shard's thread from admission to resolution,
//! so the block is plain single-threaded storage: no lock and no
//! atomics. A node is written at most once ever (a second write
//! panics — the engine's exactly-once submission invariant, so this is
//! a scheduler-bug detector, not a recoverable path), which is what lets
//! gathers hold shared row views while later nodes are written.

use std::cell::{Cell, OnceCell, RefCell};
use std::mem;

use bm_cell::{CellOutput, CellRegistry, CellState, StateRef};
use bm_model::{reference::GraphResult, CellGraph, NodeId};

use crate::runtime::{ServedTiming, TaggedResult};

/// One written node. A releasing block's slot holds the `c` row after
/// the `h` row in `h` (empty once released) and leaves `c` empty.
#[derive(Debug)]
struct Slot {
    h: Vec<f32>,
    c: Vec<f32>,
    token: Option<u32>,
}

/// State storage for one request: one write-once output per node.
#[derive(Debug)]
pub struct SlotBlock {
    outputs: Box<[OnceCell<Slot>]>,
    /// Node `i`'s `(h, c)` row widths.
    widths: Box<[(usize, usize)]>,
    /// Node `i`'s consumers not yet reported by [`SlotBlock::consume`]:
    /// one per graph node listing it as a dependency, once per listing.
    consumers: Box<[u32]>,
    /// A releasing block's released row allocations waiting for a later
    /// write, never more than one per node not yet written; `None` for a
    /// block that keeps every row.
    spare: Option<RefCell<Vec<Vec<f32>>>>,
    /// Nodes not yet written.
    unwritten: Cell<usize>,
}

impl SlotBlock {
    /// Empty slots for every node of `graph`, expecting from each node
    /// the widths of its cell type (`h` row of `hidden_size`, `c` row of
    /// `memory_width`), and counting each node's consumers. The block
    /// keeps every row until it is resolved.
    pub fn for_graph(graph: &CellGraph, registry: &CellRegistry) -> Self {
        let widths = graph
            .nodes()
            .iter()
            .map(|node| {
                let cell = registry.cell(node.cell_type);
                (cell.hidden_size(), cell.memory_width())
            })
            .collect();
        let mut consumers = vec![0u32; graph.len()].into_boxed_slice();
        for d in graph.nodes().iter().flat_map(|node| node.deps.iter()) {
            consumers[d.index()] += 1;
        }
        Self::with_widths(widths, consumers)
    }

    fn with_widths(widths: Box<[(usize, usize)]>, consumers: Box<[u32]>) -> Self {
        SlotBlock {
            outputs: widths.iter().map(|_| OnceCell::new()).collect(),
            unwritten: Cell::new(widths.len()),
            widths,
            consumers,
            spare: None,
        }
    }

    /// This (unwritten) block, releasing each node's rows at its last
    /// consumer and recycling them into later writes.
    pub fn releasing(mut self) -> Self {
        self.spare = Some(RefCell::new(Vec::new()));
        self
    }

    /// Writes node `i`'s output rows and token; a releasing block writes
    /// both rows into one allocation, a released one when one is spare.
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
        if self.outputs[i].get().is_some() {
            panic!("state slot {i} written twice");
        }
        let slot = match &self.spare {
            None => Slot {
                h: h.to_vec(),
                c: c.to_vec(),
                token,
            },
            Some(spare) => {
                let mut rows = match spare.borrow_mut().pop() {
                    Some(rows) => rows,
                    None => Vec::with_capacity(h.len() + c.len()),
                };
                rows.extend_from_slice(h);
                rows.extend_from_slice(c);
                Slot {
                    h: rows,
                    c: Vec::new(),
                    token,
                }
            }
        };
        let _ = self.outputs[i].set(slot);
        self.unwritten.set(self.unwritten.get() - 1);
    }

    /// Borrows node `i`'s state rows, or `None` if the node has not
    /// executed.
    ///
    /// # Panics
    ///
    /// Panics if the rows were released after the node's last consumer
    /// ran: nothing may read them after that.
    pub fn state(&self, i: usize) -> Option<StateRef<'_>> {
        let slot = self.outputs[i].get()?;
        let (hw, cw) = self.widths[i];
        assert_eq!(
            slot.h.len() + slot.c.len(),
            hw + cw,
            "state slot {i} read after its last consumer"
        );
        let (h, tail) = slot.h.split_at(hw);
        let c = if tail.is_empty() { &slot.c } else { tail };
        Some(StateRef { h, c })
    }

    /// Reports to a releasing block that a node whose dependencies are
    /// `deps` has executed: each dependency has one consumer fewer to
    /// wait for, and one left with none releases its rows, keeping its
    /// token. A released allocation is kept for a later write of this
    /// block while fewer than one per unwritten node are spare, and
    /// freed otherwise. A block that keeps every row ignores the report.
    pub fn consume(&mut self, deps: &[NodeId]) {
        let Some(spare) = self.spare.as_mut().map(RefCell::get_mut) else {
            return;
        };
        for d in deps {
            let i = d.index();
            self.consumers[i] -= 1;
            if self.consumers[i] == 0 {
                if let Some(slot) = self.outputs[i].get_mut() {
                    let mut rows = mem::take(&mut slot.h);
                    if rows.capacity() > 0 && spare.len() < self.unwritten.get() {
                        rows.clear();
                        spare.push(rows);
                    }
                }
            }
        }
    }

    /// The token node `i` emitted, if any.
    ///
    /// Meaningful only after [`SlotBlock::state`] returned `Some` for
    /// the node.
    pub fn token(&self, i: usize) -> Option<u32> {
        let slot = self.outputs[i].get();
        debug_assert!(slot.is_some(), "token read before the node was written");
        slot.and_then(|slot| slot.token)
    }

    /// Moves every node's output into the request's result (`None` for
    /// never-executed nodes, e.g. past an `<eos>` cancel). A releasing
    /// block's `c` rows are copied out of their shared allocations.
    pub fn into_result(self) -> GraphResult {
        let outputs = self
            .outputs
            .into_vec()
            .into_iter()
            .zip(self.widths.iter())
            .map(|(slot, &(hw, _))| {
                let Slot {
                    mut h,
                    mut c,
                    token,
                } = slot.into_inner()?;
                if h.len() > hw {
                    c = h.split_off(hw);
                }
                Some(CellOutput {
                    state: CellState { h, c },
                    token,
                })
            })
            .collect();
        GraphResult { outputs }
    }

    /// Resolves the request to what a tagged response carries: the
    /// executed count, every node's token (`None` for nodes that emit
    /// none or never executed) and the last executed node's hidden state,
    /// the row [`GraphResult::final_h`] reads — moved, not copied. No
    /// consumer of that node has run, so its rows are still here.
    pub fn into_tagged(self, timing: ServedTiming) -> TaggedResult {
        let mut executed = 0;
        let mut last = None;
        let tokens = self
            .outputs
            .iter()
            .enumerate()
            .map(|(i, slot)| {
                let slot = slot.get()?;
                executed += 1;
                last = Some(i);
                slot.token
            })
            .collect();
        let mut outputs = self.outputs.into_vec();
        let final_h = last
            .and_then(|i| {
                let mut h = outputs.swap_remove(i).into_inner()?.h;
                h.truncate(self.widths[i].0);
                Some(h)
            })
            .unwrap_or_default();
        TaggedResult {
            executed,
            tokens,
            final_h,
            timing,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(widths: &[(usize, usize)]) -> SlotBlock {
        SlotBlock::with_widths(widths.into(), vec![0; widths.len()].into())
    }

    /// A block over a hand-built fan-out: node 0 feeds nodes 1 and 2,
    /// which both feed node 3.
    fn fan_out() -> SlotBlock {
        SlotBlock::with_widths(vec![(2, 2); 4].into(), vec![2, 1, 1, 0].into()).releasing()
    }

    #[test]
    fn rows_drop_at_the_last_consumer_and_the_token_stays() {
        let mut b = fan_out();
        b.write(0, &[1.0, 2.0], &[3.0, 4.0], Some(9));
        b.write(1, &[5.0, 6.0], &[7.0, 8.0], None);
        b.consume(&[NodeId(0)]);
        assert_eq!(
            b.state(0).expect("one consumer left").h,
            &[1.0, 2.0],
            "rows dropped before their second consumer ran"
        );
        b.write(2, &[0.5, 0.5], &[0.5, 0.5], None);
        b.consume(&[NodeId(0)]);
        assert!(b.outputs[0]
            .get()
            .is_some_and(|o| o.h.capacity() == 0 && o.c.capacity() == 0));
        assert_eq!(b.token(0), Some(9), "the token outlives the rows");
        b.write(3, &[1.5, 2.5], &[3.5, 4.5], Some(4));
        b.consume(&[NodeId(1), NodeId(2)]);

        let t = b.into_tagged(ServedTiming {
            arrival_us: 1,
            start_us: 2,
            completion_us: 3,
        });
        assert_eq!(t.executed, 4);
        assert_eq!(t.tokens, [Some(9), None, None, Some(4)]);
        assert_eq!(t.final_h, [1.5, 2.5], "the sink keeps its rows");
        assert_eq!(t.timing.completion_us, 3);
    }

    #[test]
    fn later_writes_reuse_released_rows_while_nodes_remain() {
        // A chain 0 → 1 → 2 → 3: each node consumes its predecessor.
        let mut b =
            SlotBlock::with_widths(vec![(2, 2); 4].into(), vec![1, 1, 1, 0].into()).releasing();
        b.write(0, &[1.0, 2.0], &[3.0, 4.0], None);
        b.write(1, &[5.0, 6.0], &[7.0, 8.0], None);
        let rows0 = b.state(0).expect("written").h.as_ptr();
        b.consume(&[NodeId(0)]);
        b.write(2, &[0.5, 1.5], &[2.5, 3.5], None);
        let st = b.state(2).expect("written");
        assert_eq!((st.h, st.c), (&[0.5, 1.5][..], &[2.5, 3.5][..]));
        assert_eq!(st.h.as_ptr(), rows0, "node 2 did not reuse node 0's rows");
        // One node left to write: one released allocation is kept, the
        // other freed.
        b.consume(&[NodeId(1)]);
        b.consume(&[NodeId(2)]);
        let spare = |b: &SlotBlock| b.spare.as_ref().expect("releasing").borrow().len();
        assert_eq!(spare(&b), 1);
        b.write(3, &[9.0, 9.0], &[9.0, 9.0], Some(1));
        assert_eq!(spare(&b), 0);
        let t = b.into_tagged(ServedTiming {
            arrival_us: 0,
            start_us: 0,
            completion_us: 0,
        });
        assert_eq!(t.final_h, [9.0, 9.0]);
    }

    #[test]
    #[should_panic(expected = "read after its last consumer")]
    fn a_released_row_is_never_read() {
        let mut b = fan_out();
        b.write(0, &[1.0, 2.0], &[3.0, 4.0], None);
        b.consume(&[NodeId(0)]);
        b.consume(&[NodeId(0)]);
        let _ = b.state(0);
    }

    #[test]
    fn for_graph_counts_each_listing_as_a_consumer() {
        let m = bm_model::LstmLm::small();
        let g = bm_model::Model::unfold(&m, &bm_model::RequestInput::Sequence(vec![1, 2, 3]));
        let b = SlotBlock::for_graph(&g, bm_model::Model::registry(&m));
        assert_eq!(&*b.consumers, &[1, 1, 0]);
    }

    #[test]
    fn into_tagged_moves_the_last_executed_row() {
        let b = block(&[(2, 2), (2, 2), (2, 2)]);
        b.write(0, &[1.0, 2.0], &[3.0, 4.0], Some(7));
        b.write(1, &[5.0, 6.0], &[7.0, 8.0], None);
        let h = b.state(1).expect("written").h.as_ptr();
        let t = b.into_tagged(ServedTiming {
            arrival_us: 0,
            start_us: 0,
            completion_us: 0,
        });
        assert_eq!(t.executed, 2, "a never-executed node is not counted");
        assert_eq!(t.tokens, [Some(7), None, None]);
        assert_eq!(t.final_h.as_ptr(), h, "final h copied, not moved");
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
    fn a_block_that_keeps_its_rows_ignores_consumers() {
        let mut b = SlotBlock::with_widths(vec![(2, 2); 2].into(), vec![1, 0].into());
        b.write(0, &[1.0, 2.0], &[3.0, 4.0], None);
        b.write(1, &[5.0, 6.0], &[7.0, 8.0], None);
        b.consume(&[NodeId(0)]);
        let st = b.state(0).expect("kept");
        assert_eq!((st.h, st.c), (&[1.0, 2.0][..], &[3.0, 4.0][..]));
    }

    #[test]
    fn a_releasing_block_resolves_to_every_row() {
        let b = block(&[(2, 2), (1, 0)]).releasing();
        b.write(0, &[1.0, 2.0], &[3.0, 4.0], Some(5));
        b.write(1, &[6.0], &[], None);
        let st = b.state(0).expect("written");
        assert_eq!((st.h, st.c), (&[1.0, 2.0][..], &[3.0, 4.0][..]));
        let outputs = b.into_result().outputs;
        let out = outputs[0].as_ref().expect("written");
        assert_eq!(
            (&out.state.h[..], &out.state.c[..]),
            (&[1.0, 2.0][..], &[3.0, 4.0][..])
        );
        assert_eq!(out.token, Some(5));
        let out = outputs[1].as_ref().expect("written");
        assert_eq!((&out.state.h[..], out.state.c.len()), (&[6.0][..], 0));
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
