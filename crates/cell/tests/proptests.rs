//! Property-based tests for batched cell execution.
//!
//! The load-bearing invariant of the whole system is *batching
//! transparency*: executing a set of invocations as one batch must give
//! exactly the same per-invocation outputs as executing them one at a
//! time (or as any partition into sub-batches). Cellular batching's
//! correctness rests on this.

mod support;

use bm_cell::{
    Cell, CellOutput, CellState, DecoderCell, LstmCell, RowInvocation, Scratch, StateRef,
    TreeInternalCell, TreeLeafCell,
};
use std::sync::OnceLock;

use bm_tensor::io::WeightBundle;
use bm_tensor::{ops, Matrix};
use proptest::prelude::*;

const VOCAB: usize = 24;

/// Widths of the capped chain cells: a token table would hold
/// `vocab · 4 · hidden` = 4 194 604 floats, just over the cells' cap of
/// `1 << 22`, so they seed each step from the embedded tokens. 244 gate
/// columns and 17 191 vocabulary columns are ragged for every tier.
const CAPPED_EMBED: usize = 7;
const CAPPED_HIDDEN: usize = 61;
const CAPPED_VOCAB: usize = 17_191;
const _: () = assert!(CAPPED_VOCAB * 4 * CAPPED_HIDDEN > 1 << 22);

/// One batched step with a fresh scratch arena, through the
/// batch-order-checking collector.
fn outputs(cell: &Cell, inputs: &[RowInvocation<'_>]) -> Vec<CellOutput> {
    support::outputs_in(cell, inputs, &mut Scratch::new())
}

fn cells() -> Vec<Cell> {
    vec![
        Cell::Lstm(LstmCell::seeded(6, 8, VOCAB, 11)),
        Cell::Decoder(DecoderCell::seeded(6, 8, VOCAB, 14)),
        Cell::TreeLeaf(TreeLeafCell::seeded(6, 8, VOCAB, 15)),
        Cell::TreeInternal(TreeInternalCell::seeded(8, 16)),
    ]
}

/// Builds a valid invocation for `cell` from a token and a pool of states.
fn invocation<'a>(
    cell: &Cell,
    token: u32,
    pool: &'a [CellState],
    pick: usize,
) -> RowInvocation<'a> {
    let n = pool.len();
    let state = |i: usize| StateRef::of(&pool[i % n]);
    match cell.state_arity() {
        0 => RowInvocation::token_only(token),
        1 => RowInvocation::chain(token, state(pick)),
        2 => RowInvocation::tree(state(pick), state(pick + 1)),
        _ => unreachable!(),
    }
}

/// A pool of plausible recurrent states produced by actually running the
/// cell.
fn state_pool(cell: &Cell) -> Vec<CellState> {
    match cell.state_arity() {
        0 => vec![CellState::zeros(cell.hidden_size())],
        _ => {
            // Bootstrap: leaf-like invocation through a compatible path.
            let seedless = match cell {
                Cell::TreeInternal(_) => {
                    let z = CellState::zeros(cell.hidden_size());
                    let out = outputs(
                        cell,
                        &[RowInvocation::tree(StateRef::of(&z), StateRef::of(&z))],
                    );
                    out.into_iter().map(|o| o.state).collect::<Vec<_>>()
                }
                _ => outputs(
                    cell,
                    &[
                        RowInvocation::token_only(1),
                        RowInvocation::token_only(2),
                        RowInvocation::token_only(3),
                    ],
                )
                .into_iter()
                .map(|o| o.state)
                .collect::<Vec<_>>(),
            };
            seedless
        }
    }
}

/// `x · w + b` by the serial reference product, bias added after.
fn affine_serial(x: &Matrix, w: &Matrix, b: &Matrix) -> Matrix {
    let mut pre = x.matmul_serial(w);
    for r in 0..pre.rows() {
        for (v, &bv) in pre.row_mut(r).iter_mut().zip(b.row(0)) {
            *v += bv;
        }
    }
    pre
}

/// `act(x · W_g + b_g)` from the bundle's per-gate matrices: the
/// serial reference product and the composed scalar activations. The
/// tree cells run one fused product per step; the per-gate formula of
/// Tai et al. survives as this oracle.
fn gate(bundle: &WeightBundle, g: &str, x: &Matrix, act: fn(&Matrix) -> Matrix) -> Matrix {
    let w = bundle.get(&format!("w{g}")).expect("gate weights");
    let b = bundle.get(&format!("b{g}")).expect("gate bias");
    act(&affine_serial(x, w, b))
}

/// One LSTM step as a chain cell's bundle states it, independent of how
/// the cell splits and packs `W`: `z = [x|h] · W + b` by the serial
/// reference product over the embedded tokens and previous states, then
/// `i, f, g, o = split(z, 4)`, `c' = σ(f)·c + σ(i)·tanh(g)`,
/// `h' = σ(o)·tanh(c')` from composed scalar ops. For a decoder also
/// each row's word, the argmax of `h' · proj_w + proj_b`.
fn lstm_formula(
    bundle: &WeightBundle,
    ids: &[usize],
    h_prev: &Matrix,
    c_prev: &Matrix,
) -> (Matrix, Matrix, Option<Vec<u32>>) {
    let get = |name: &str| bundle.get(name).expect(name);
    let x = ops::embedding(get("embed"), ids);
    let z = affine_serial(&ops::concat_cols(&[&x, h_prev]), get("w"), get("b"));
    let g = ops::split_cols(&z, 4);
    let (i, f, u, o) = (
        ops::sigmoid(&g[0]),
        ops::sigmoid(&g[1]),
        ops::tanh(&g[2]),
        ops::sigmoid(&g[3]),
    );
    let c = ops::add(&ops::mul(&f, c_prev), &ops::mul(&i, &u));
    let h = ops::mul(&o, &ops::tanh(&c));
    let words = bundle.get("proj_w").map(|proj_w| {
        let logits = affine_serial(&h, proj_w, get("proj_b"));
        (0..h.rows())
            .map(|r| ops::argmax_row(logits.row(r)) as u32)
            .collect()
    });
    (h, c, words)
}

/// The chain cells over a vocabulary too large for a token table, and
/// their bundles, built once.
fn capped_chain_cells() -> &'static [(Cell, WeightBundle)] {
    static CELLS: OnceLock<Vec<(Cell, WeightBundle)>> = OnceLock::new();
    CELLS.get_or_init(|| {
        let (e, h, v) = (CAPPED_EMBED, CAPPED_HIDDEN, CAPPED_VOCAB);
        [
            Cell::Lstm(LstmCell::seeded(e, h, v, 31)),
            Cell::Decoder(DecoderCell::seeded(e, h, v, 33)),
        ]
        .into_iter()
        .map(|cell| {
            let bundle = cell.to_bundle();
            (cell, bundle)
        })
        .collect()
    })
}

/// Row `r`'s previous state in a chain case: a deterministic wave, or
/// `None` for a chain start (implicit zero state).
fn chain_state(seed: u64, r: usize, hidden: usize, start: bool) -> Option<CellState> {
    let wave = |scale: f32, phase: u64| -> Vec<f32> {
        (0..hidden)
            .map(|j| {
                let t = (seed.wrapping_mul(31) + phase + (r * hidden + j) as u64) % 97;
                (t as f32 / 48.0 - 1.0) * scale
            })
            .collect()
    };
    (!start).then(|| CellState {
        h: wave(0.9, 0),
        c: wave(2.5, 13),
    })
}

/// Asserts each output's `(h, c)` equals row `r` of `h`/`c`.
fn assert_rows(out: &[CellOutput], h: &Matrix, c: &Matrix) -> Result<(), TestCaseError> {
    prop_assert_eq!(out.len(), h.rows());
    for (r, o) in out.iter().enumerate() {
        prop_assert_eq!(&o.state.h[..], h.row(r));
        prop_assert_eq!(&o.state.c[..], c.row(r));
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn fused_tree_steps_equal_the_per_gate_formula(
        tokens in proptest::collection::vec(0u32..VOCAB as u32, 1..=9),
        seed in 0u64..1000,
    ) {
        // Hidden 20 with embed 7: the fused widths (60, 100) are ragged
        // for every tier's panel group.
        let leaf = Cell::TreeLeaf(TreeLeafCell::seeded(7, 20, VOCAB, seed));
        let lb = leaf.to_bundle();
        let ids: Vec<usize> = tokens.iter().map(|&t| t as usize).collect();
        let x = ops::embedding(lb.get("embed").expect("embed"), &ids);
        let (i, o, u) = (
            gate(&lb, "i", &x, ops::sigmoid),
            gate(&lb, "o", &x, ops::sigmoid),
            gate(&lb, "u", &x, ops::tanh),
        );
        let c = ops::mul(&i, &u);
        let h = ops::mul(&o, &ops::tanh(&c));
        let invs: Vec<_> = tokens.iter().map(|&t| RowInvocation::token_only(t)).collect();
        let kids = outputs(&leaf, &invs);
        assert_rows(&kids, &h, &c)?;

        // Pair each leaf with its successor (wrapping): as many internal
        // rows as leaves.
        let internal = Cell::TreeInternal(TreeInternalCell::seeded(20, seed ^ 0xabc));
        let ib = internal.to_bundle();
        let n = kids.len();
        let right = |r: usize| &kids[(r + 1) % n].state;
        let rows = |f: &dyn Fn(usize) -> Vec<f32>| {
            Matrix::from_vec(n, f(0).len(), (0..n).flat_map(f).collect())
        };
        let hs = rows(&|r| [&kids[r].state.h[..], &right(r).h[..]].concat());
        let cl = rows(&|r| kids[r].state.c.clone());
        let cr = rows(&|r| right(r).c.clone());
        let (i, fl, fr, o, u) = (
            gate(&ib, "i", &hs, ops::sigmoid),
            gate(&ib, "fl", &hs, ops::sigmoid),
            gate(&ib, "fr", &hs, ops::sigmoid),
            gate(&ib, "o", &hs, ops::sigmoid),
            gate(&ib, "u", &hs, ops::tanh),
        );
        let c = ops::add(
            &ops::mul(&i, &u),
            &ops::add(&ops::mul(&fl, &cl), &ops::mul(&fr, &cr)),
        );
        let h = ops::mul(&o, &ops::tanh(&c));
        let pairs: Vec<_> = (0..n)
            .map(|r| RowInvocation::tree(StateRef::of(&kids[r].state), StateRef::of(right(r))))
            .collect();
        assert_rows(&outputs(&internal, &pairs), &h, &c)?;
    }

    #[test]
    fn fused_lstm_steps_equal_the_bundle_formula(
        rows in proptest::collection::vec((any::<u32>(), any::<bool>()), 1..=9),
        seed in 0u64..1000,
        capped in any::<bool>(),
    ) {
        // Hidden 19 with embed 7: 76 gate columns, ragged for every
        // tier's panel group; capped cells step without a token table.
        let seeded;
        let cells: &[(Cell, WeightBundle)] = if capped {
            capped_chain_cells()
        } else {
            seeded = [
                Cell::Lstm(LstmCell::seeded(7, 19, VOCAB, seed)),
                Cell::Decoder(DecoderCell::seeded(7, 19, VOCAB, seed ^ 2)),
            ]
            .map(|cell| {
                let bundle = cell.to_bundle();
                (cell, bundle)
            });
            &seeded
        };
        for (cell, bundle) in cells {
            let hidden = cell.hidden_size();
            let vocab = bundle.get("embed").expect("embed").rows();
            let ids: Vec<usize> = rows.iter().map(|&(t, _)| t as usize % vocab).collect();
            let states: Vec<Option<CellState>> = rows
                .iter()
                .enumerate()
                .map(|(r, &(_, start))| chain_state(seed, r, hidden, start))
                .collect();
            let zero = CellState::zeros(hidden);
            let prev = |r: usize| states[r].as_ref().unwrap_or(&zero);
            let n = rows.len();
            let h_prev = Matrix::from_vec(n, hidden, (0..n).flat_map(|r| prev(r).h.clone()).collect());
            let c_prev = Matrix::from_vec(n, hidden, (0..n).flat_map(|r| prev(r).c.clone()).collect());
            let (h, c, words) = lstm_formula(bundle, &ids, &h_prev, &c_prev);
            let want_tokens = words.unwrap_or_default();

            // The gather path.
            let invs: Vec<RowInvocation<'_>> = ids
                .iter()
                .zip(&states)
                .map(|(&id, st)| match st {
                    Some(st) => RowInvocation::chain(id as u32, StateRef::of(st)),
                    None => RowInvocation::token_only(id as u32),
                })
                .collect();
            let gathered = outputs(cell, &invs);
            assert_rows(&gathered, &h, &c)?;
            let tokens: Vec<u32> = gathered.iter().filter_map(|o| o.token).collect();
            prop_assert_eq!(&tokens, &want_tokens, "{} gathered words", cell.kind_name());

            // The resident path, over rows parked in a batch one row
            // taller than the step.
            let layout = cell.resident_layout().expect("chain cell");
            let mut xh = Matrix::filled(n + 1, layout.xh_width(), 9.0);
            let mut aux = Matrix::filled(n + 1, layout.aux_width, 9.0);
            for r in 0..n {
                xh.row_mut(r).copy_from_slice(h_prev.row(r));
                aux.row_mut(r).copy_from_slice(c_prev.row(r));
            }
            let step_tokens: Vec<Option<u32>> = ids.iter().map(|&id| Some(id as u32)).collect();
            let mut resident = Vec::new();
            cell.step_resident(&mut xh, &mut aux, n, &step_tokens, &mut Scratch::new(), |r, h, c, token| {
                assert_eq!(r, resident.len(), "rows in batch order");
                resident.push(CellOutput {
                    state: CellState { h: h.to_vec(), c: c.to_vec() },
                    token,
                });
            });
            assert_rows(&resident, &h, &c)?;
            let tokens: Vec<u32> = resident.iter().filter_map(|o| o.token).collect();
            prop_assert_eq!(&tokens, &want_tokens, "{} resident words", cell.kind_name());
            prop_assert!(xh.row(n).iter().chain(aux.row(n)).all(|&v| v == 9.0), "row past the step");
        }
    }

    #[test]
    fn batched_execution_is_transparent(
        tokens in proptest::collection::vec(0u32..VOCAB as u32, 1..12),
        picks in proptest::collection::vec(0usize..8, 12),
    ) {
        // Every case runs every cell kind, so each kind's `emit`
        // order is checked by the collector on every case.
        for cell in &cells() {
            let pool = state_pool(cell);
            let invs: Vec<RowInvocation<'_>> = tokens
                .iter()
                .enumerate()
                .map(|(i, &t)| invocation(cell, t, &pool, picks[i % picks.len()]))
                .collect();

            // One big batch.
            let batched = outputs(cell, &invs);

            // One at a time.
            let sequential: Vec<_> = invs
                .iter()
                .flat_map(|inv| outputs(cell, std::slice::from_ref(inv)))
                .collect();

            prop_assert_eq!(&batched, &sequential);

            // An arbitrary split into two sub-batches.
            if invs.len() >= 2 {
                let mid = invs.len() / 2;
                let mut split = outputs(cell, &invs[..mid]);
                split.extend(outputs(cell, &invs[mid..]));
                prop_assert_eq!(&batched, &split);
            }
        }
    }

    #[test]
    fn scratch_reuse_is_transparent(
        tokens in proptest::collection::vec(0u32..VOCAB as u32, 1..10),
        picks in proptest::collection::vec(0usize..8, 10),
        cell_idx in 0..cells().len(),
    ) {
        // A worker reuses one Scratch arena across many steps; recycled
        // buffers must never leak state between steps or change a bit.
        let cell = &cells()[cell_idx];
        let pool = state_pool(cell);
        let invs: Vec<RowInvocation<'_>> = tokens
            .iter()
            .enumerate()
            .map(|(i, &t)| invocation(cell, t, &pool, picks[i % picks.len()]))
            .collect();
        let fresh: Vec<_> = invs
            .iter()
            .map(|inv| outputs(cell, std::slice::from_ref(inv)))
            .collect();
        let mut scratch = Scratch::new();
        for _ in 0..2 {
            let reused: Vec<_> = invs
                .iter()
                .map(|inv| support::outputs_in(cell, std::slice::from_ref(inv), &mut scratch))
                .collect();
            prop_assert_eq!(&fresh, &reused);
        }
        let batched = support::outputs_in(cell, &invs, &mut scratch);
        prop_assert_eq!(outputs(cell, &invs), batched);
    }

    #[test]
    fn outputs_are_finite(
        tokens in proptest::collection::vec(0u32..VOCAB as u32, 1..8),
        cell_idx in 0..cells().len(),
    ) {
        let cell = &cells()[cell_idx];
        let pool = state_pool(cell);
        let invs: Vec<RowInvocation<'_>> = tokens
            .iter()
            .map(|&t| invocation(cell, t, &pool, t as usize))
            .collect();
        for out in outputs(cell, &invs) {
            prop_assert!(out.state.h.iter().all(|v| v.is_finite()));
            prop_assert!(out.state.c.iter().all(|v| v.is_finite()));
            if let Some(tok) = out.token {
                prop_assert!((tok as usize) < VOCAB);
            }
        }
    }

    #[test]
    fn flops_monotone_and_positive(batch in 1usize..64, cell_idx in 0..cells().len()) {
        let cell = &cells()[cell_idx];
        prop_assert!(cell.flops(batch) > 0);
        prop_assert!(cell.flops(batch + 1) > cell.flops(batch));
    }
}
