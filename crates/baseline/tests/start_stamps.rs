//! Each baseline stamps a batch's start where the driver runs it: a
//! batch dispatched behind a busy device starts when the batch before
//! it completes, not when its requests arrived.

use std::sync::Arc;

use bm_baseline::{
    DynGraphConfig, DynGraphServer, IdealServer, PadKind, PaddingConfig, PaddingServer,
};
use bm_device::{CostProfile, GpuCostModel};
use bm_model::{LstmLm, Model, RequestInput, TreeLstm, TreeShape};
use bm_sim::{simulate, Server, SimOptions};

/// Runs a blocker at 0 and two requests at 1 and 2 µs on one device:
/// the two wait for the blocker, batch together, and start at its
/// completion.
fn assert_second_batch_starts_at_first_completion(
    server: &mut dyn Server,
    inputs: [RequestInput; 3],
) {
    let arrivals: Vec<_> = (0..).zip(inputs).collect();
    let out = simulate(server, &arrivals, SimOptions::default());
    let mut done = out.completions.clone();
    done.sort_by_key(|&(id, ..)| id);
    let [(_, _, blocker_start, blocker_done), (_, _, start_1, done_1), (_, _, start_2, done_2)] =
        done[..]
    else {
        panic!("three completions expected, got {done:?}");
    };
    assert_eq!(blocker_start, 0);
    assert_eq!((start_1, start_2), (blocker_done, blocker_done));
    assert_eq!(done_1, done_2, "the two batch together");
}

fn tree() -> RequestInput {
    RequestInput::Tree(TreeShape::complete(16, 100))
}

#[test]
fn padding_starts_a_queued_batch_at_the_previous_completion() {
    let m = LstmLm::small();
    let profile = CostProfile::paper_scale(m.registry(), 1024, 30_000);
    let mut srv = PaddingServer::new(
        PaddingConfig {
            bucket_width: 10,
            max_len: 330,
            max_batch: 512,
            kind: PadKind::Lstm {
                cell: m.cell_type(),
            },
            accumulation_timeout_us: None,
        },
        GpuCostModel::v100(),
        profile,
    );
    let seq = |n| RequestInput::Sequence(vec![1; n]);
    assert_second_batch_starts_at_first_completion(&mut srv, [seq(100), seq(2), seq(9)]);
}

#[test]
fn dynamic_graph_starts_a_queued_batch_at_the_previous_completion() {
    for cfg in [DynGraphConfig::fold(64), DynGraphConfig::dynet(64)] {
        let m = Arc::new(TreeLstm::small());
        let profile = CostProfile::paper_scale(m.registry(), 1024, 30_000);
        let mut srv = DynGraphServer::new(m, cfg, GpuCostModel::v100(), profile);
        assert_second_batch_starts_at_first_completion(&mut srv, [tree(), tree(), tree()]);
    }
}

#[test]
fn ideal_starts_a_queued_batch_at_the_previous_completion() {
    let m = Arc::new(TreeLstm::small());
    let profile = CostProfile::paper_scale(m.registry(), 1024, 30_000);
    let mut srv = IdealServer::new(m, tree(), 64, GpuCostModel::v100(), profile);
    assert_second_batch_starts_at_first_completion(&mut srv, [tree(), tree(), tree()]);
}
