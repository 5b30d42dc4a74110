//! Every cell kind round-trips through its weight bundle with identical
//! identity (the restored cell registers as the original's type) and
//! identical batched outputs.

mod support;

use std::sync::Arc;

use bm_cell::{
    Cell, CellRegistry, CellState, DecoderCell, LstmCell, RowInvocation, Scratch, StateRef,
    TreeInternalCell, TreeLeafCell,
};
use support::outputs_in;

fn cells() -> Vec<Arc<Cell>> {
    vec![
        Cell::Lstm(LstmCell::seeded(6, 8, 24, 11)),
        Cell::Decoder(DecoderCell::seeded(6, 8, 24, 14)),
        Cell::TreeLeaf(TreeLeafCell::seeded(6, 8, 24, 15)),
        Cell::TreeInternal(TreeInternalCell::seeded(8, 16)),
    ]
    .into_iter()
    .map(Arc::new)
    .collect()
}

fn sample_invocations(cell: &Cell) -> Vec<bm_cell::CellOutput> {
    let z = CellState::zeros(cell.hidden_size());
    let invs = match cell.state_arity() {
        2 => [RowInvocation::tree(StateRef::of(&z), StateRef::of(&z)); 2],
        _ => [RowInvocation::token_only(1), RowInvocation::token_only(7)],
    };
    outputs_in(cell, &invs, &mut Scratch::new())
}

/// Whether `restored` registers as `original`'s cell type.
fn same_type(original: &Arc<Cell>, restored: &Arc<Cell>) -> bool {
    let mut reg = CellRegistry::new();
    let id = reg.register("original", Arc::clone(original), 0, 1, 8);
    reg.register("restored", Arc::clone(restored), 0, 1, 8) == id
}

#[test]
fn all_kinds_round_trip() {
    for cell in cells() {
        let bundle = cell.to_bundle();
        let restored =
            Arc::new(Cell::from_bundle(cell.kind_name(), &bundle).expect("round trip succeeds"));
        assert!(
            same_type(&cell, &restored),
            "{} type changed",
            cell.kind_name()
        );
        assert_eq!(
            sample_invocations(&cell),
            sample_invocations(&restored),
            "{} outputs changed",
            cell.kind_name()
        );
    }
}

#[test]
fn bundle_serialization_round_trip() {
    for cell in cells() {
        let mut buf = Vec::new();
        cell.to_bundle().write_to(&mut buf).unwrap();
        let bundle = bm_tensor::io::WeightBundle::read_from(&mut buf.as_slice()).unwrap();
        let restored = Arc::new(Cell::from_bundle(cell.kind_name(), &bundle).unwrap());
        assert!(
            same_type(&cell, &restored),
            "{} type changed",
            cell.kind_name()
        );
    }
}

#[test]
fn unknown_kind_rejected() {
    let bundle = cells()[0].to_bundle();
    assert!(Cell::from_bundle("transformer", &bundle).is_err());
}

#[test]
fn wrong_kind_bundle_rejected() {
    // A tree-leaf bundle cannot reconstruct an LSTM (missing fused
    // gate weights).
    let leaf = cells()
        .into_iter()
        .find(|c| c.kind_name() == "tree_leaf")
        .expect("a tree_leaf cell");
    assert!(Cell::from_bundle("lstm", &leaf.to_bundle()).is_err());
}
