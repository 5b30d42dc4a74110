//! Owned outputs for the integration tests.

use bm_cell::{Cell, CellOutput, CellState, RowInvocation, Scratch};

/// Runs `cell.execute_rows_in` through `scratch` and copies each emitted
/// row into a [`CellOutput`], asserting in every build that the cell
/// keeps the `emit` contract the scatter relies on — one row per
/// invocation, in batch order.
pub fn outputs_in(
    cell: &Cell,
    inputs: &[RowInvocation<'_>],
    scratch: &mut Scratch,
) -> Vec<CellOutput> {
    let mut outs: Vec<CellOutput> = Vec::with_capacity(inputs.len());
    cell.execute_rows_in(inputs, scratch, |row, h, c, token| {
        assert_eq!(row, outs.len(), "cells emit rows in batch order");
        outs.push(CellOutput {
            state: CellState {
                h: h.to_vec(),
                c: c.to_vec(),
            },
            token,
        });
    });
    assert_eq!(outs.len(), inputs.len(), "one row per invocation");
    outs
}
