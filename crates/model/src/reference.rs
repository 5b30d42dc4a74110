//! A trivially correct, unbatched reference executor for cell graphs.
//!
//! This executor runs one node at a time (batch size 1) in topological
//! order. It exists purely as a correctness oracle: the cellular batching
//! runtime — which executes the same nodes in dynamically formed batches,
//! interleaved with other requests — must produce bit-identical outputs,
//! because batched cell execution is transparent (see the `bm-cell`
//! property tests). It has no kernel of its own: each node is one
//! `Cell::execute_rows_in` call over a batch of one, whose emitted row
//! is copied into an owned [`CellOutput`]. Its independence from the
//! runtime is the schedule — no batching, no resident rows, no state
//! arena — not the arithmetic.

use bm_cell::{CellOutput, CellRegistry, CellState, RowInvocation, Scratch, StateRef};

use crate::graph::{CellGraph, NodeId, TokenSource};

/// The full result of executing one request's cell graph.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphResult {
    /// Per-node outputs in node order; `None` for nodes cancelled by an
    /// upstream `<eos>` termination.
    pub outputs: Vec<Option<CellOutput>>,
}

impl GraphResult {
    /// Tokens emitted by token-emitting nodes, in node order.
    ///
    /// For a Seq2Seq graph this is the decoded sentence.
    pub fn decoded_tokens(&self) -> Vec<u32> {
        self.outputs
            .iter()
            .flatten()
            .filter_map(|o| o.token)
            .collect()
    }

    /// The final hidden state of the last executed node, if any.
    pub fn final_h(&self) -> Option<&[f32]> {
        self.outputs
            .iter()
            .rev()
            .flatten()
            .next()
            .map(|o| o.state.h.as_slice())
    }

    /// Number of nodes actually executed (not cancelled).
    pub fn executed_count(&self) -> usize {
        self.outputs.iter().flatten().count()
    }
}

/// Executes `graph` one node at a time.
///
/// # Panics
///
/// Panics if the graph is invalid for `registry` (call
/// [`CellGraph::validate`] first) or if a `FromDep` token source points
/// at a cancelled dependency.
pub fn execute_graph(graph: &CellGraph, registry: &CellRegistry) -> GraphResult {
    let mut outputs: Vec<Option<CellOutput>> = Vec::with_capacity(graph.len());
    // Nodes transitively downstream of an <eos> hit are cancelled.
    let mut cancelled = vec![false; graph.len()];
    for (id, node) in graph.iter() {
        if node.deps.iter().any(|d| cancelled[d.index()]) {
            cancelled[id.index()] = true;
            outputs.push(None);
            continue;
        }
        let states: Vec<StateRef<'_>> = node
            .deps
            .iter()
            .map(|d| {
                StateRef::of(
                    &outputs[d.index()]
                        .as_ref()
                        .expect("dependency executed")
                        .state,
                )
            })
            .collect();
        let token = resolve_token(node.token, &node.deps, &outputs);
        let mut out = None;
        registry.cell(node.cell_type).execute_rows_in(
            &[RowInvocation::new(token, &states)],
            // A fresh arena per node: no scratch history to share
            // with the runtime's recycled buffers.
            &mut Scratch::new(),
            |_, h, c, token| {
                out = Some(CellOutput {
                    state: CellState {
                        h: h.to_vec(),
                        c: c.to_vec(),
                    },
                    token,
                })
            },
        );
        let out = out.expect("batch of one yields one output");
        // <eos> termination: this node still completes, but everything
        // downstream of it is cancelled.
        if let (Some(eos), Some(tok)) = (node.eos, out.token) {
            if tok == eos {
                cancelled[id.index()] = true;
                outputs.push(Some(out));
                continue;
            }
        }
        outputs.push(Some(out));
    }
    GraphResult { outputs }
}

/// Resolves a node's token input given the outputs computed so far.
pub fn resolve_token(
    source: TokenSource,
    deps: &[NodeId],
    outputs: &[Option<CellOutput>],
) -> Option<u32> {
    match source {
        TokenSource::None => None,
        TokenSource::Fixed(t) => Some(t),
        TokenSource::FromDep(k) => {
            let dep = deps[k];
            Some(
                outputs[dep.index()]
                    .as_ref()
                    .expect("token dependency executed")
                    .token
                    .expect("token dependency emitted a token"),
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LstmLm, Model, RequestInput, Seq2Seq, TreeLstm, TreeShape};

    #[test]
    fn lstm_chain_executes_all_nodes() {
        let m = LstmLm::small();
        let g = m.unfold(&RequestInput::Sequence(vec![1, 2, 3]));
        let r = execute_graph(&g, m.registry());
        assert_eq!(r.executed_count(), 3);
        assert!(r.final_h().is_some());
        assert!(r.decoded_tokens().is_empty());
    }

    #[test]
    fn seq2seq_decodes_expected_length() {
        let m = Seq2Seq::small();
        let g = m.unfold(&RequestInput::Pair {
            src: vec![2, 3],
            decode_len: 4,
        });
        let r = execute_graph(&g, m.registry());
        assert_eq!(r.executed_count(), 6);
        assert_eq!(r.decoded_tokens().len(), 4);
    }

    #[test]
    fn treelstm_root_state_depends_on_all_leaves() {
        let m = TreeLstm::small();
        let t1 = TreeShape::internal(TreeShape::leaf(1), TreeShape::leaf(2));
        let t2 = TreeShape::internal(TreeShape::leaf(1), TreeShape::leaf(3));
        let r1 = execute_graph(&m.unfold(&RequestInput::Tree(t1)), m.registry());
        let r2 = execute_graph(&m.unfold(&RequestInput::Tree(t2)), m.registry());
        assert_ne!(r1.final_h(), r2.final_h());
    }

    #[test]
    fn execution_is_deterministic() {
        let m = Seq2Seq::small();
        let input = RequestInput::Pair {
            src: vec![5, 6, 7],
            decode_len: 3,
        };
        let r1 = execute_graph(&m.unfold(&input), m.registry());
        let r2 = execute_graph(&m.unfold(&input), m.registry());
        assert_eq!(r1, r2);
    }

    #[test]
    fn eos_cancels_downstream() {
        use crate::seq2seq::Seq2SeqConfig;
        // Force every decoded token to terminate: with eos matching
        // whatever the decoder emits is data-dependent, so instead build
        // a model where eos_terminates is on and scan until we find an
        // input whose first decoded token repeats. Simpler: mark eos as
        // the token the first decode step emits.
        let m = Seq2Seq::new(Seq2SeqConfig {
            eos_terminates: false,
            ..Seq2SeqConfig::default()
        });
        let input = RequestInput::Pair {
            src: vec![2],
            decode_len: 5,
        };
        let base = execute_graph(&m.unfold(&input), m.registry());
        let first_tok = base.decoded_tokens()[0];

        // Rebuild the graph with eos = first emitted token.
        let mut g = m.unfold(&input);
        for i in 1..g.len() {
            g.set_eos(crate::NodeId(i as u32), first_tok);
        }
        let r = execute_graph(&g, m.registry());
        // Encoder (1 node) + first decoder execute; the rest cancel.
        assert_eq!(r.executed_count(), 2);
        assert_eq!(r.decoded_tokens(), vec![first_tok]);
    }
}
