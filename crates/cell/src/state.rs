//! Per-invocation cell state, inputs and outputs.
//!
//! The runtime keeps the outputs of each executed cell node as
//! per-request rows in its slot blocks. The §4.3 gather path
//! (`Cell::execute_rows_in`) assembles a batched task by copying the
//! rows each [`RowInvocation`] borrows into contiguous matrices, runs
//! the cell once and hands every result row to the caller to scatter;
//! the resident-state path ([`ResidentLayout`], `Cell::step_resident`)
//! instead keeps each chain request's recurrent state parked in a row
//! of a persistent batch matrix, so steady-state steps move no state at
//! all and only the scatter (the write of results to the slot block)
//! remains. [`StateRef`] and [`RowInvocation`] are the borrowed per-row
//! inputs of both; [`CellState`] and [`CellOutput`] are owned copies of
//! one emitted row, which the slot block stores per node and the
//! reference executor and tests keep.

/// The recurrent state one cell invocation produces for one request:
/// the hidden row `h` and the memory-cell row `c` every cell kind
/// carries.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CellState {
    /// Hidden state row.
    pub h: Vec<f32>,
    /// Memory cell row.
    pub c: Vec<f32>,
}

impl CellState {
    /// A zero state of hidden width `h` with a memory cell of the same width.
    pub fn zeros(h: usize) -> Self {
        CellState {
            h: vec![0.0; h],
            c: vec![0.0; h],
        }
    }

    /// Width of the hidden state.
    pub fn width(&self) -> usize {
        self.h.len()
    }
}

/// How a chain cell lays its recurrent state out across the two
/// persistent matrices of a resident batch (`xh` and `aux`).
///
/// Chain cells that opt into the resident-state plane keep each active
/// request's state as one row shared between:
///
/// - `xh`, the `(capacity, hidden)` hidden-state rows the recurrent half
///   of the fused affine reads and the gate kernel rewrites in place
///   (the input half comes from the token, not from the rows);
/// - `aux`, a `(capacity, aux_width)` side matrix holding `c`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResidentLayout {
    /// Hidden-state width.
    pub hidden: usize,
    /// Row width of the `aux` matrix: the `c` width, equal to `hidden`.
    pub aux_width: usize,
}

impl ResidentLayout {
    /// Total column count of the resident `xh` matrix: the hidden
    /// width, as rows hold `h` only.
    pub fn xh_width(&self) -> usize {
        self.hidden
    }
}

/// A borrowed view of one predecessor state: raw rows living in someone
/// else's storage (a slot-block output, an owned [`CellState`], a batch
/// matrix).
#[derive(Debug, Clone, Copy)]
pub struct StateRef<'a> {
    /// Hidden state row.
    pub h: &'a [f32],
    /// Memory cell row.
    pub c: &'a [f32],
}

impl<'a> StateRef<'a> {
    /// Borrows an owned [`CellState`].
    pub fn of(state: &'a CellState) -> Self {
        StateRef {
            h: &state.h,
            c: &state.c,
        }
    }
}

const EMPTY_STATE: StateRef<'static> = StateRef { h: &[], c: &[] };

/// One invocation's inputs within a batched task, as borrowed rows.
///
/// `states` holds 0, 1 or 2 predecessor states depending on the cell's
/// arity (0 for tree leaves and chain starts, 1 for chain cells, 2 for
/// tree internal cells); `token` is the input word id for token-taking
/// cells. States are raw row slices stored inline (no per-invocation
/// `Vec`), so the runtime can point invocations straight at slot-block
/// rows when gathering a batch.
#[derive(Debug, Clone, Copy)]
pub struct RowInvocation<'a> {
    token: Option<u32>,
    states: [StateRef<'a>; 2],
    n_states: u8,
}

impl<'a> RowInvocation<'a> {
    /// An invocation with only a token (tree leaf, or chain start with an
    /// implicit zero state).
    pub fn token_only(token: u32) -> Self {
        RowInvocation {
            token: Some(token),
            states: [EMPTY_STATE; 2],
            n_states: 0,
        }
    }

    /// A chain-cell invocation: one token plus the predecessor state.
    pub fn chain(token: u32, prev: StateRef<'a>) -> Self {
        RowInvocation {
            token: Some(token),
            states: [prev, EMPTY_STATE],
            n_states: 1,
        }
    }

    /// A tree-internal invocation combining two child states.
    pub fn tree(left: StateRef<'a>, right: StateRef<'a>) -> Self {
        RowInvocation {
            token: None,
            states: [left, right],
            n_states: 2,
        }
    }

    /// An invocation from an arbitrary token and state list, as resolved
    /// by the runtime from a task entry.
    ///
    /// # Panics
    ///
    /// Panics if more than two states are supplied.
    pub fn new(token: Option<u32>, states_in: &[StateRef<'a>]) -> Self {
        assert!(
            states_in.len() <= 2,
            "invocation with {} states",
            states_in.len()
        );
        let mut states = [EMPTY_STATE; 2];
        states[..states_in.len()].copy_from_slice(states_in);
        RowInvocation {
            token,
            states,
            n_states: states_in.len() as u8,
        }
    }

    /// Input token id, if the cell consumes one.
    pub fn token(&self) -> Option<u32> {
        self.token
    }

    /// Predecessor states, in cell-defined order.
    pub fn states(&self) -> &[StateRef<'a>] {
        &self.states[..self.n_states as usize]
    }
}

/// One invocation's outputs.
#[derive(Debug, Clone, PartialEq)]
pub struct CellOutput {
    /// The produced recurrent state.
    pub state: CellState,
    /// The produced token (decoder cells only).
    pub token: Option<u32>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_state_shape() {
        let s = CellState::zeros(4);
        assert_eq!(s.width(), 4);
        assert_eq!(s.c.len(), 4);
        assert!(s.h.iter().chain(s.c.iter()).all(|&v| v == 0.0));
    }

    #[test]
    fn row_invocation_mirrors_owned_constructors() {
        let s = CellState::zeros(3);
        let chain = RowInvocation::chain(5, StateRef::of(&s));
        assert_eq!(chain.token(), Some(5));
        assert_eq!(chain.states().len(), 1);
        assert_eq!(chain.states()[0].h.len(), 3);

        let only = RowInvocation::token_only(1);
        assert!(only.states().is_empty());

        let tree = RowInvocation::tree(StateRef::of(&s), StateRef::of(&s));
        assert_eq!(tree.token(), None);
        assert_eq!(tree.states().len(), 2);
    }
}
