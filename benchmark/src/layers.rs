//! Isolated layer probes: each layer's public functions timed from
//! outside, single-threaded, on the run's generated request stream.
//!
//! Every probe runs [`BATCHES`] timed batches and reports the median
//! cost per unit (call, row, node or task). A batch is one span in the
//! trace. Beside wall time each batch reads the process's CPU time, so
//! a kernel that fans out over the compute pool is charged its real CPU
//! in the budget.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use bm_cell::{Cell, CellRegistry, CellState, RowInvocation, Scratch, StateRef};
use bm_core::{
    partition, CellularEngine, Request, RequestId, ResidentBatch, SchedulerConfig, ServedTiming,
    SlotBlock, WorkerId,
};
use bm_model::{CellGraph, Model, NodeId};
use bm_net::{wire, NetResponse};
use bm_tensor::gemm::{gemm_acc_into, gemm_into};
use bm_tensor::{ops, ComputePool, Matrix, PackedWeights};

use crate::host;
use crate::loadgen::Stream;
use crate::stats::median;
use crate::trace::Trace;

/// Timed batches per probe; the reported cost is their median.
const BATCHES: usize = 5;

/// Requests kept active in the engine probe (so tasks batch ≈ 8 rows).
const ENGINE_ACTIVE: usize = 8;

/// Graphs a state-plane pass touches (bounds the probe's memory).
const STATE_GRAPHS: usize = 64;

/// Batch sizes the cell and kernel probes run at.
pub const BATCH_SIZES: [usize; 3] = [1, 8, 64];

/// Time and work of one timed region inside a probe pass.
#[derive(Debug, Clone, Copy, Default)]
struct Sample {
    ns: u64,
    units: u64,
}

/// Times `f`, crediting it with `units` units of work.
fn timed(units: u64, f: impl FnOnce()) -> Sample {
    let t = Instant::now();
    f();
    Sample {
        ns: t.elapsed().as_nanos() as u64,
        units,
    }
}

/// A measured cost: wall time per unit, and the CPU time per unit
/// estimated from the batch's CPU-to-wall ratio.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Cost {
    /// Wall nanoseconds per unit.
    pub wall_ns: f64,
    /// CPU nanoseconds per unit, all threads.
    pub cpu_ns: f64,
}

/// Runs probes against a time budget and records their spans.
pub struct Prober<'a> {
    trace: &'a mut Trace,
    parent: u64,
    batch: Duration,
}

impl<'a> Prober<'a> {
    /// A prober whose every batch lasts about `batch`.
    pub fn new(trace: &'a mut Trace, parent: u64, batch: Duration) -> Self {
        Prober {
            trace,
            parent,
            batch,
        }
    }

    /// Runs `pass` repeatedly for [`BATCHES`] batches; each call returns
    /// `K` timed regions. Returns the median per-unit cost of each.
    fn measure<const K: usize>(
        &mut self,
        name: &str,
        mut pass: impl FnMut() -> [Sample; K],
    ) -> [Cost; K] {
        let mut wall: [Vec<f64>; K] = std::array::from_fn(|_| Vec::with_capacity(BATCHES));
        let mut ratio = Vec::with_capacity(BATCHES);
        for _ in 0..BATCHES {
            let start_ns = self.trace.now_ns();
            let cpu0 = host::live_threads_cpu_ns();
            let t0 = Instant::now();
            let mut sums = [Sample::default(); K];
            loop {
                for (sum, s) in sums.iter_mut().zip(pass()) {
                    sum.ns += s.ns;
                    sum.units += s.units;
                }
                if t0.elapsed() >= self.batch {
                    break;
                }
            }
            let wall_ns = t0.elapsed().as_nanos() as f64;
            let cpu_ns = host::live_threads_cpu_ns().saturating_sub(cpu0) as f64;
            ratio.push(cpu_ns / wall_ns);
            for (w, s) in wall.iter_mut().zip(sums) {
                w.push(s.ns as f64 / s.units.max(1) as f64);
            }
            let end_ns = self.trace.now_ns();
            self.trace.push(
                &format!("probe.{name}"),
                start_ns,
                end_ns,
                self.parent,
                crate::trace::NONE,
            );
        }
        let ratio = median(&ratio);
        std::array::from_fn(|k| {
            let wall_ns = median(&wall[k]);
            Cost {
                wall_ns,
                cpu_ns: wall_ns * ratio,
            }
        })
    }

    /// [`Prober::measure`] for a pass that is one timed region.
    fn measure_one(&mut self, name: &str, mut pass: impl FnMut() -> Sample) -> Cost {
        self.measure(name, || [pass()])[0]
    }
}

/// Costs of the four `bm_net::wire` functions and the frame sizes.
#[derive(Debug, Clone, Copy, Default)]
pub struct WireCosts {
    /// `encode_submit`, per frame.
    pub encode_submit: Cost,
    /// `decode_frame` of a submit frame.
    pub decode_submit: Cost,
    /// `encode_response` of a completed response.
    pub encode_response: Cost,
    /// `decode_frame` of a response frame.
    pub decode_response: Cost,
    /// Mean submit frame size, bytes.
    pub submit_bytes: f64,
    /// Mean response frame size, bytes.
    pub response_bytes: f64,
}

/// Probes the wire codec on the run's requests and expected responses.
pub fn probe_wire(p: &mut Prober<'_>, stream: &Stream) -> WireCosts {
    let n = stream.requests.len() as u64;
    let responses: Vec<NetResponse> = stream
        .expected
        .iter()
        .map(|e| NetResponse::Completed {
            timing: ServedTiming {
                arrival_us: 1_000,
                start_us: 1_100,
                completion_us: 2_000,
            },
            executed: e.executed,
            tokens: e.tokens.clone(),
        })
        .collect();
    let frames = |encode: &dyn Fn(&mut Vec<u8>, u32, usize)| -> Vec<Vec<u8>> {
        (0..stream.requests.len())
            .map(|i| {
                let mut buf = Vec::new();
                encode(&mut buf, i as u32, i);
                buf
            })
            .collect()
    };
    let submit_frames = frames(&|buf, corr, i| wire::encode_submit(buf, corr, &stream.requests[i]));
    let response_frames = frames(&|buf, corr, i| wire::encode_response(buf, corr, &responses[i]));
    let mean_len = |f: &[Vec<u8>]| f.iter().map(Vec::len).sum::<usize>() as f64 / f.len() as f64;

    let mut buf = Vec::with_capacity(4096);
    let encode_submit = p.measure_one("net.wire.encode_submit", || {
        timed(n, || {
            for (i, req) in stream.requests.iter().enumerate() {
                buf.clear();
                wire::encode_submit(&mut buf, i as u32, req);
                black_box(&buf);
            }
        })
    });
    let encode_response = p.measure_one("net.wire.encode_response", || {
        timed(n, || {
            for (i, resp) in responses.iter().enumerate() {
                buf.clear();
                wire::encode_response(&mut buf, i as u32, resp);
                black_box(&buf);
            }
        })
    });
    let decode = |p: &mut Prober<'_>, name: &str, frames: &[Vec<u8>]| {
        p.measure_one(name, || {
            timed(n, || {
                for f in frames {
                    black_box(wire::decode_frame(f).expect("own frame decodes"));
                }
            })
        })
    };
    WireCosts {
        encode_submit,
        encode_response,
        decode_submit: decode(p, "net.wire.decode_submit", &submit_frames),
        decode_response: decode(p, "net.wire.decode_response", &response_frames),
        submit_bytes: mean_len(&submit_frames),
        response_bytes: mean_len(&response_frames),
    }
}

/// Costs of unfolding, partitioning and scheduling the requests.
#[derive(Debug, Clone, Copy, Default)]
pub struct ControlCosts {
    /// `Model::unfold`, per request.
    pub unfold: Cost,
    /// `bm_core::partition`, per request.
    pub partition: Cost,
    /// `CellularEngine::on_request`, per request.
    pub on_request: Cost,
    /// `CellularEngine::dispatch`, per task formed.
    pub dispatch_per_task: Cost,
    /// `on_task_started` + `on_task_completed`, per task.
    pub complete_per_task: Cost,
    /// All engine calls together, per graph node.
    pub per_node: Cost,
    /// Mean graph nodes per request.
    pub nodes_per_req: f64,
}

/// Probes `Model::unfold`, `partition` and the engine driven as a pure
/// state machine (tasks complete the moment they are dispatched).
pub fn probe_control(p: &mut Prober<'_>, model: &dyn Model, stream: &Stream) -> ControlCosts {
    let n = stream.requests.len() as u64;
    let graphs: Vec<CellGraph> = stream
        .requests
        .iter()
        .map(|r| model.unfold(&r.input))
        .collect();
    let nodes: u64 = graphs.iter().map(|g| g.len() as u64).sum();

    let unfold = p.measure_one("model.unfold", || {
        timed(n, || {
            for r in &stream.requests {
                black_box(model.unfold(&r.input));
            }
        })
    });
    let partition_cost = p.measure_one("core.partition", || {
        timed(n, || {
            for g in &graphs {
                black_box(partition(g));
            }
        })
    });

    let registry = Arc::new(model.registry().clone());
    let engine_costs = p.measure("core.engine", || {
        engine_pass(&registry, &graphs, &stream.requests, nodes)
    });
    ControlCosts {
        unfold,
        partition: partition_cost,
        on_request: engine_costs[0],
        dispatch_per_task: engine_costs[1],
        complete_per_task: engine_costs[2],
        per_node: engine_costs[3],
        nodes_per_req: nodes as f64 / n as f64,
    }
}

/// Drives every graph through a fresh engine with [`ENGINE_ACTIVE`]
/// requests in flight. Regions: `on_request`, `dispatch`,
/// started+completed, and their sum per node.
fn engine_pass(
    registry: &Arc<CellRegistry>,
    graphs: &[CellGraph],
    requests: &[Request],
    nodes: u64,
) -> [Sample; 4] {
    let mut engine = CellularEngine::new(Arc::clone(registry), SchedulerConfig::new());
    let mut pending = graphs.iter().cloned().zip(requests).enumerate();
    let (mut admit, mut dispatch, mut complete) =
        (Sample::default(), Sample::default(), Sample::default());
    let (mut active, mut clock) = (0usize, 0u64);
    loop {
        while active < ENGINE_ACTIVE {
            let Some((id, (graph, req))) = pending.next() else {
                break;
            };
            clock += 1;
            let t = Instant::now();
            engine.on_request(RequestId(id as u64), graph, clock, req);
            admit.ns += t.elapsed().as_nanos() as u64;
            admit.units += 1;
            active += 1;
        }
        if active == 0 {
            break;
        }
        let t = Instant::now();
        let tasks = engine.dispatch(WorkerId(0));
        dispatch.ns += t.elapsed().as_nanos() as u64;
        dispatch.units += tasks.len() as u64;
        assert!(
            !tasks.is_empty(),
            "engine idle with {active} active requests"
        );
        for task in tasks {
            let emitted = vec![None; task.entries.len()];
            clock += 1;
            let t = Instant::now();
            engine.on_task_started(task.id, clock);
            let done = engine.on_task_completed(task.id, &emitted, clock);
            complete.ns += t.elapsed().as_nanos() as u64;
            complete.units += 1;
            active -= done.len();
        }
    }
    let total = Sample {
        ns: admit.ns + dispatch.ns + complete.ns,
        units: nodes,
    };
    [admit, dispatch, complete, total]
}

/// Costs of the slot-indexed state plane.
#[derive(Debug, Clone, Copy, Default)]
pub struct StateCosts {
    /// `SlotBlock::for_graph` (and its drop), per request.
    pub alloc: Cost,
    /// `SlotBlock::write`, per node row pair.
    pub write: Cost,
    /// `SlotBlock::state`, per node.
    pub read: Cost,
}

/// Probes `SlotBlock::{for_graph, write, state}`.
pub fn probe_state_plane(p: &mut Prober<'_>, model: &dyn Model, stream: &Stream) -> StateCosts {
    let registry = model.registry();
    let graphs: Vec<CellGraph> = stream
        .requests
        .iter()
        .take(STATE_GRAPHS)
        .map(|r| model.unfold(&r.input))
        .collect();
    let rows: u64 = graphs.iter().map(|g| g.len() as u64).sum();
    let widest = registry
        .iter()
        .map(|m| m.cell.hidden_size())
        .max()
        .unwrap_or(0);
    let row = vec![0.25f32; widest];

    let alloc = p.measure_one("core.state_plane.alloc", || {
        timed(graphs.len() as u64, || {
            for g in &graphs {
                black_box(SlotBlock::for_graph(g, registry));
            }
        })
    });
    let rw = p.measure("core.state_plane.write+read", || {
        let blocks: Vec<SlotBlock> = graphs
            .iter()
            .map(|g| SlotBlock::for_graph(g, registry))
            .collect();
        let write = timed(rows, || {
            for (g, block) in graphs.iter().zip(&blocks) {
                for (id, node) in g.iter() {
                    let cell = registry.cell(node.cell_type);
                    block.write(
                        id.index(),
                        &row[..cell.hidden_size()],
                        &row[..cell.memory_width()],
                        None,
                    );
                }
            }
        });
        let read = timed(rows, || {
            for (g, block) in graphs.iter().zip(&blocks) {
                for i in 0..g.len() {
                    let st = block.state(i).expect("row just written");
                    black_box(st.h[0] + st.c.first().copied().unwrap_or(0.0));
                }
            }
        });
        [write, read]
    });
    StateCosts {
        alloc,
        write: rw[0],
        read: rw[1],
    }
}

/// Per-row step cost of one cell at each of [`BATCH_SIZES`].
pub type StepCosts = [Cost; BATCH_SIZES.len()];

/// Costs of one registered cell type.
#[derive(Debug, Clone, Default)]
pub struct CellCosts {
    /// `Cell::flops(1)`.
    pub flops_per_row: f64,
    /// Bytes one step at batch 64 touches, computed from tensor sizes.
    pub bytes_per_step_b64: f64,
    /// `Cell::execute_rows_in` (the gather path), per row.
    pub gather: StepCosts,
    /// `Cell::step_resident`, per row; `None` without a resident layout.
    pub resident: Option<StepCosts>,
    /// `ResidentBatch::step`, per row.
    pub resident_batch_step: Option<StepCosts>,
    /// `ResidentBatch::place`, per row, over chains of the workload's
    /// mean length (so one join is amortised as the server amortises it).
    pub place: Option<Cost>,
    /// `ResidentBatch::remove`, per call.
    pub remove: Option<Cost>,
}

impl CellCosts {
    /// CPU ns per row of the path the server takes for this cell
    /// (resident when the cell has a layout), at mean batch size
    /// `batch`, interpolated between the probed sizes on a log axis.
    pub fn step_cpu_ns(&self, batch: f64) -> f64 {
        let costs = self.resident.as_ref().unwrap_or(&self.gather);
        let x = batch.max(1.0).log2();
        let xs: Vec<f64> = BATCH_SIZES.iter().map(|&b| (b as f64).log2()).collect();
        for i in 1..xs.len() {
            if x <= xs[i] || i == xs.len() - 1 {
                let t = ((x - xs[i - 1]) / (xs[i] - xs[i - 1])).clamp(0.0, 1.0);
                return costs[i - 1].cpu_ns + (costs[i].cpu_ns - costs[i - 1].cpu_ns) * t;
            }
        }
        costs[0].cpu_ns
    }
}

/// Bytes one step of `cell` at batch `b` touches: the matrix-multiply
/// weights once (`flops(1) / 2` elements — each weight does one
/// multiply-add per row) plus each row's input and output state rows.
/// Computed from tensor sizes, not measured.
fn bytes_per_step(cell: &Cell, b: usize) -> f64 {
    let weights = cell.flops(1) as f64 / 2.0;
    let row_state = (cell.state_arity() + 1) * (cell.hidden_size() + cell.memory_width());
    4.0 * (weights + (b * row_state) as f64)
}

/// Where probed steps emit their rows: nothing is scattered, the
/// outputs are only kept alive.
fn sink(_row: usize, h: &[f32], _c: &[f32], token: Option<u32>) {
    black_box((h[0], token));
}

/// Probes one cell: the gather step, and for chain cells the resident
/// step and the `ResidentBatch` bookkeeping around it.
pub fn probe_cell(p: &mut Prober<'_>, name: &str, cell: &Cell, chain_len: usize) -> CellCosts {
    let state = CellState {
        h: vec![0.05; cell.hidden_size()],
        c: vec![0.05; cell.memory_width()],
    };
    let sref = StateRef::of(&state);
    let token = |i: usize| cell.takes_token().then_some(2 + (i % 100) as u32);
    let mut scratch = Scratch::new();

    let gather = BATCH_SIZES.map(|b| {
        let states = [sref; 2];
        let invs: Vec<RowInvocation<'_>> = (0..b)
            .map(|i| RowInvocation::new(token(i), &states[..cell.state_arity()]))
            .collect();
        p.measure_one(&format!("cell.{name}.gather_step.b{b}"), || {
            timed(b as u64, || cell.execute_rows_in(&invs, &mut scratch, sink))
        })
    });

    let mut out = CellCosts {
        flops_per_row: cell.flops(1) as f64,
        bytes_per_step_b64: bytes_per_step(cell, 64),
        gather,
        ..CellCosts::default()
    };
    let Some(layout) = cell.resident_layout() else {
        return out;
    };

    out.resident = Some(BATCH_SIZES.map(|b| {
        let mut xh = Matrix::zeros(b, layout.xh_width());
        let mut aux = Matrix::zeros(b, layout.aux_width.max(1));
        let tokens: Vec<Option<u32>> = (0..b).map(token).collect();
        p.measure_one(&format!("cell.{name}.resident_step.b{b}"), || {
            timed(b as u64, || {
                cell.step_resident(&mut xh, &mut aux, b, &tokens, &mut scratch, sink)
            })
        })
    }));

    // A resident batch holding `b` chains at their first node.
    let seated = |b: usize| {
        let mut rb = ResidentBatch::new(layout);
        for i in 0..b {
            rb.place(i, RequestId(i as u64), NodeId(0), None, || {
                unreachable!("chain start")
            });
        }
        rb
    };
    out.resident_batch_step = Some(BATCH_SIZES.map(|b| {
        let mut rb = seated(b);
        let tokens: Vec<Option<u32>> = (0..b).map(token).collect();
        p.measure_one(&format!("core.resident.step.b{b}"), || {
            timed(b as u64, || rb.step(cell, b, &tokens, &mut scratch, sink))
        })
    }));

    // Chains of the workload's mean length joining, advancing in place
    // and leaving, eight at a time: the placement the worker does
    // around every step, with no step in between.
    let b = 8usize;
    let len = chain_len.max(1);
    let mut next_request = 0u64;
    let churn = p.measure(&format!("core.resident.{name}.place+remove"), || {
        let mut rb = ResidentBatch::new(layout);
        let base = next_request;
        next_request += b as u64;
        let place = timed((b * len) as u64, || {
            for node in 0..len as u32 {
                let dep = node.checked_sub(1).map(NodeId);
                for i in 0..b {
                    rb.place(i, RequestId(base + i as u64), NodeId(node), dep, || {
                        unreachable!("rows stay fresh without migration")
                    });
                }
            }
        });
        let remove = timed(b as u64, || {
            for i in 0..b {
                black_box(rb.remove(RequestId(base + i as u64)));
            }
        });
        [place, remove]
    });
    out.place = Some(churn[0]);
    out.remove = Some(churn[1]);
    out
}

/// Kernel throughput at the workload's recurrent product `(k, n)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct GemmRates {
    /// `gemm_into`, Gflop/s at batch 8.
    pub gemm_b8: f64,
    /// `gemm_into`, Gflop/s at batch 64.
    pub gemm_b64: f64,
    /// `gemm_acc_into`, Gflop/s at batch 64.
    pub gemm_acc_b64: f64,
    /// Threads of the global compute pool.
    pub pool_threads: usize,
}

/// Probes `gemm_into` / `gemm_acc_into` at `(k, n) = (hidden, 4·hidden)`
/// — the live `h·Wh` product of an LSTM-family step — with the pool the
/// cells themselves would pick (`ops::auto_pool`).
pub fn probe_gemm(p: &mut Prober<'_>, hidden: usize) -> GemmRates {
    let (k, n) = (hidden, 4 * hidden);
    let weights: Vec<f32> = (0..k * n).map(|i| ((i % 13) as f32 - 6.0) * 0.01).collect();
    let packed = PackedWeights::pack(k, n, &weights);
    let bias = vec![0.1f32; n];
    let rate = |p: &mut Prober<'_>, name: &str, m: usize, acc: bool| {
        let a = vec![0.5f32; m * k];
        let mut out = vec![0.0f32; m * n];
        let pool = ops::auto_pool(m, k, n);
        let flops = (2 * m * k * n) as u64;
        let cost = p.measure_one(name, || {
            timed(flops, || {
                if acc {
                    gemm_acc_into(&a, m, k, &packed, Some(&bias), &mut out, pool);
                } else {
                    gemm_into(&a, m, k, &packed, Some(&bias), &mut out, pool);
                }
                black_box(&out);
            })
        });
        // flop per ns is Gflop/s.
        1.0 / cost.wall_ns
    };
    GemmRates {
        gemm_b8: rate(p, "tensor.gemm.b8", 8, false),
        gemm_b64: rate(p, "tensor.gemm.b64", 64, false),
        gemm_acc_b64: rate(p, "tensor.gemm_acc.b64", 64, true),
        pool_threads: ComputePool::global().threads(),
    }
}
