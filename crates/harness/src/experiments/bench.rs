//! `repro bench`: the kernel benchmark-regression harness.
//!
//! Times the hot-path kernels rebuilt by the compute overhaul — packed
//! GEMM, fused affine, in-place activations, the fused batched LSTM cell
//! step — against the seed's serial compositions, the packed GEMM at the
//! row counts cellular batching forms, plus a small real serving run
//! for a headline requests/s figure. Results are emitted as
//! tables and as machine-readable `BENCH_kernels.json` (schema
//! `bm-bench/v1`) so CI can assert the numbers stay finite and positive
//! without depending on absolute machine speed.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

use bm_cell::{
    Cell, CellOutput, CellState, InvocationInput, LstmCell, RowInvocation, Scratch, StateRef,
};
use bm_core::{Request, RequestId, ResidentBatch, Runtime, RuntimeOptions, ServeConfig, SlotBlock};
use bm_metrics::Table;
use bm_model::{LstmLm, Model, NodeId, RequestInput};
use bm_tensor::{gemm, ops, xavier_uniform, ComputePool, Matrix, PackedWeights};

use crate::experiments::{fig3, Scale};

/// One measured kernel: best-case wall time and derived rate.
#[derive(Debug, Clone)]
pub struct KernelBench {
    /// Bench name as it appears in tables and JSON.
    pub name: String,
    /// Best (minimum) nanoseconds per operation across samples.
    pub ns_per_op: f64,
    /// Throughput in GFLOP/s (elementwise ops count one flop/element).
    pub gflops: f64,
}

fn sample_counts(scale: Scale) -> (usize, usize) {
    match scale {
        Scale::Quick => (1, 5),
        Scale::Full => (2, 15),
    }
}

/// Best wall time of `f` in nanoseconds, after warmup. The minimum, not
/// the median: on a shared single-core host, competing load adds large
/// one-sided spikes, and the best observed run is the stable estimator
/// of what the kernel itself costs.
fn best_ns(scale: Scale, mut f: impl FnMut()) -> f64 {
    let (warmup, iters) = sample_counts(scale);
    for _ in 0..warmup {
        f();
    }
    (0..iters)
        .map(|_| {
            let start = Instant::now();
            f();
            start.elapsed().as_secs_f64() * 1e9
        })
        .fold(f64::INFINITY, f64::min)
}

fn bench(scale: Scale, name: &str, flops: f64, f: impl FnMut()) -> KernelBench {
    let ns = best_ns(scale, f);
    KernelBench {
        name: name.to_string(),
        ns_per_op: ns,
        gflops: flops / ns,
    }
}

/// Measures a head-to-head pair with interleaved samples (A, B, A, B, …)
/// so both sides see the same noise environment; each side keeps its
/// best run.
fn bench_pair(
    scale: Scale,
    name_a: &str,
    name_b: &str,
    flops: f64,
    mut a: impl FnMut(),
    mut b: impl FnMut(),
) -> (KernelBench, KernelBench) {
    let (warmup, iters) = sample_counts(scale);
    for _ in 0..warmup {
        a();
        b();
    }
    let (mut best_a, mut best_b) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..iters {
        let start = Instant::now();
        a();
        best_a = best_a.min(start.elapsed().as_secs_f64() * 1e9);
        let start = Instant::now();
        b();
        best_b = best_b.min(start.elapsed().as_secs_f64() * 1e9);
    }
    (
        KernelBench {
            name: name_a.to_string(),
            ns_per_op: best_a,
            gflops: flops / best_a,
        },
        KernelBench {
            name: name_b.to_string(),
            ns_per_op: best_b,
            gflops: flops / best_b,
        },
    )
}

/// The seed's batched LSTM step, reproduced verbatim from the pre-overhaul
/// composition: serial i-k-j matmul, broadcast bias add, allocating
/// `split_cols`/`sigmoid`/`tanh`/`mul`/`add` chain (~8 intermediate
/// allocations per step). This is the regression baseline the fused path
/// is measured against.
fn seed_lstm_step(
    embed: &Matrix,
    w: &Matrix,
    b: &Matrix,
    ids: &[usize],
    h: &Matrix,
    c: &Matrix,
) -> (Matrix, Matrix) {
    let x = ops::embedding(embed, ids);
    let xh = ops::concat_cols(&[&x, h]);
    let mut z = xh.matmul_serial(w);
    let bias = b.row(0);
    for r in 0..z.rows() {
        for (o, &bv) in z.row_mut(r).iter_mut().zip(bias.iter()) {
            *o += bv;
        }
    }
    let gates = ops::split_cols(&z, 4);
    let i = ops::sigmoid(&gates[0]);
    let f = ops::sigmoid(&gates[1]);
    let g = ops::tanh(&gates[2]);
    let o = ops::sigmoid(&gates[3]);
    let c_new = ops::add(&ops::mul(&f, c), &ops::mul(&i, &g));
    let h_new = ops::mul(&o, &ops::tanh(&c_new));
    (h_new, c_new)
}

/// Measures the kernel suite. The headline pair is the batched LSTM cell
/// step at batch 64, hidden 512 — the shape of the paper's §2.2
/// microbenchmark — fused vs seed composition.
fn kernel_suite(scale: Scale) -> (Vec<KernelBench>, f64) {
    let mut out = Vec::new();

    // GEMM at the LSTM b64/h512 shape: (64, 1024) x (1024, 2048).
    let (m, k, n) = (64usize, 1024usize, 2048usize);
    let a = xavier_uniform(m, k, 31);
    let w = xavier_uniform(k, n, 32);
    let bias = Matrix::zeros(1, n);
    let gemm_flops = (2 * m * k * n) as f64;
    out.push(bench(scale, "gemm_packed_b64_h512", gemm_flops, || {
        std::hint::black_box(a.matmul(&w));
    }));
    out.push(bench(scale, "gemm_serial_b64_h512", gemm_flops, || {
        std::hint::black_box(a.matmul_serial(&w));
    }));
    let mut affine_out = Matrix::zeros(m, n);
    out.push(bench(
        scale,
        "affine_fused_b64_h512",
        gemm_flops + (m * n) as f64,
        || {
            ops::affine_into(&a, &w, &bias, &mut affine_out);
            std::hint::black_box(&affine_out);
        },
    ));

    // In-place vs allocating activations, 256x1024.
    let act = xavier_uniform(256, 1024, 33);
    let elems = act.len() as f64;
    out.push(bench(scale, "sigmoid_alloc_256x1024", elems, || {
        std::hint::black_box(ops::sigmoid(&act));
    }));
    let mut act_mut = act.clone();
    out.push(bench(scale, "sigmoid_inplace_256x1024", elems, || {
        ops::sigmoid_inplace(&mut act_mut);
        std::hint::black_box(&act_mut);
    }));

    // The headline cell step, fused vs seed composition.
    let cell = LstmCell::seeded(512, 512, 1024, 41);
    let cell_enum = Cell::Lstm(cell.clone());
    let state = {
        let o = cell_enum.execute_batch(&[InvocationInput::token_only(1)]);
        o.into_iter().next().unwrap().state
    };
    let invs: Vec<InvocationInput<'_>> = (0..64)
        .map(|i| InvocationInput::chain((i % 1024) as u32, &state))
        .collect();
    let step_flops = cell_enum.flops(64) as f64;
    let mut scratch = Scratch::new();

    // Seed baseline over the same weights and inputs, measured
    // interleaved with the fused path so the speedup ratio is immune to
    // background-load drift.
    let bundle = cell_enum.to_bundle();
    let embed = bundle.get("embed").expect("embed weights").clone();
    let w_lstm = bundle.get("w").expect("gate weights").clone();
    let b_lstm = bundle.get("b").expect("gate bias").clone();
    let ids: Vec<usize> = (0..64).map(|i| i % 1024).collect();
    let mut h_prev = Matrix::zeros(64, 512);
    let mut c_prev = Matrix::zeros(64, 512);
    for r in 0..64 {
        h_prev.row_mut(r).copy_from_slice(&state.h);
        c_prev.row_mut(r).copy_from_slice(&state.c);
    }
    let (fused, seed) = bench_pair(
        scale,
        "lstm_step_fused_b64_h512",
        "lstm_step_seed_b64_h512",
        step_flops,
        || {
            std::hint::black_box(cell_enum.execute_batch_in(&invs, &mut scratch));
        },
        || {
            std::hint::black_box(seed_lstm_step(
                &embed, &w_lstm, &b_lstm, &ids, &h_prev, &c_prev,
            ));
        },
    );

    let speedup = seed.ns_per_op / fused.ns_per_op;
    out.push(fused);
    out.push(seed);
    (out, speedup)
}

/// A small real serving run: requests/s sustained by one shard of the
/// threaded runtime over the chain LSTM model.
fn serving_rps(scale: Scale) -> f64 {
    let (requests, len) = match scale {
        Scale::Quick => (24, 6),
        Scale::Full => (192, 10),
    };
    let model = std::sync::Arc::new(LstmLm::small());
    let rt = Runtime::start(
        model,
        RuntimeOptions::new().serve_config(ServeConfig::new().shards(1)),
    );
    let start = Instant::now();
    let handles: Vec<_> = (0..requests)
        .map(|i| {
            let tokens: Vec<u32> = (0..len).map(|t| ((i * 7 + t * 3) % 1000) as u32).collect();
            rt.submit_request(Request::new(RequestInput::Sequence(tokens)))
                .expect("submit")
        })
        .collect();
    let mut completed = 0usize;
    for h in handles {
        if h.wait().is_completed() {
            completed += 1;
        }
    }
    let secs = start.elapsed().as_secs_f64();
    rt.shutdown();
    completed as f64 / secs
}

/// Head-to-head gather microbench: the slot-indexed state arena against
/// the seed's data plane — a globally locked `HashMap<(request, node),
/// CellOutput>` whose gather cloned one owned `CellOutput` per batch row.
/// Both sides assemble the same 64-row batch-input matrix from published
/// node states; the arena side reads slot rows in place (one atomic load
/// per row, zero clones, zero allocations).
fn state_plane_suite(scale: Scale) -> (KernelBench, KernelBench, f64) {
    let model = LstmLm::small();
    let rows = 64usize;
    let input = RequestInput::Sequence((0..rows as u32).map(|t| t % 50).collect());
    let graph = model.unfold(&input);
    let registry = model.registry();
    let hidden = 64usize;

    let h: Vec<f32> = (0..hidden).map(|i| i as f32 * 0.25).collect();
    let c: Vec<f32> = (0..hidden).map(|i| i as f32 * 0.5).collect();

    // Arena side: every node published once, the steady state a gather
    // observes.
    let block = SlotBlock::for_graph(&graph, registry);
    for i in 0..rows {
        block.write(i, &h, &c, None);
    }

    // Seed side: the same states behind the old global store.
    let store: Mutex<HashMap<(u64, u32), CellOutput>> = Mutex::new(
        (0..rows)
            .map(|i| {
                let out = CellOutput::state_only(CellState {
                    h: h.clone(),
                    c: c.clone(),
                });
                ((0u64, i as u32), out)
            })
            .collect(),
    );

    let mut xh_arena = Matrix::zeros(rows, hidden);
    let mut xh_map = Matrix::zeros(rows, hidden);
    // One gather is sub-microsecond; time a burst of them per sample so
    // each measurement sits well above clock resolution. The speedup is
    // a ratio, so the burst size cancels.
    let reps = 256usize;
    let elems = (reps * rows * hidden) as f64;
    let (arena, locked) = bench_pair(
        scale,
        "gather_slot_arena_b64_h64",
        "gather_locked_map_b64_h64",
        elems,
        || {
            for _ in 0..reps {
                for r in 0..rows {
                    let st = block.state(r).expect("published");
                    xh_arena.row_mut(r).copy_from_slice(st.h);
                }
                std::hint::black_box(&xh_arena);
            }
        },
        || {
            for _ in 0..reps {
                for r in 0..rows {
                    let out = store
                        .lock()
                        .expect("unpoisoned")
                        .get(&(0, r as u32))
                        .cloned()
                        .expect("published");
                    xh_map.row_mut(r).copy_from_slice(&out.state.h);
                }
                std::hint::black_box(&xh_map);
            }
        },
    );
    let speedup = locked.ns_per_op / arena.ns_per_op;
    (arena, locked, speedup)
}

/// One resident-vs-gather chain-step measurement plus the bit-identity
/// check between the two paths.
#[derive(Debug, Clone)]
pub struct ResidentBench {
    /// Steady-state gather-path step, ns per step (batched chain
    /// requests; state copied in from per-request rows every step).
    pub gather_step_ns: f64,
    /// Steady-state resident-path step, ns per step (same weights and
    /// batch; state parked in `ResidentBatch` rows).
    pub resident_step_ns: f64,
    /// `gather_step_ns / resident_step_ns`.
    pub speedup: f64,
    /// Resident step with one leave + one rejoin per tick, ns per step
    /// (the churn overhead of swap-remove and join-with-fetch).
    pub churn_step_ns: f64,
    /// Whether one step produced bitwise-identical outputs on both
    /// paths — the smoke-level mirror of the runtime identity proptest.
    pub identity: bool,
}

/// Measures the resident-state plane against the gather path at the
/// execution level the runtime workers run: per step, the gather side
/// rebuilds row invocations pointing at per-request state rows, copies
/// them into a contiguous batch and runs the full `[x|h]·W` affine; the
/// resident side places (a no-op when fresh) rows parked in a
/// [`ResidentBatch`] and runs the split affine — cached token
/// projection plus the `h·Wh` fold continuation, half the multiplies.
/// Both sides keep the production scatter (the emit copy-out), so the
/// difference isolated is exactly what the plane eliminates: the
/// gather and the `x`-half of the GEMM.
///
/// The shape follows the paper's microbenchmark configuration (§2.2:
/// one `b × 2h` by `2h × 4h` matmul per step, embed == hidden) at
/// hidden 256, batch 64.
fn resident_suite(scale: Scale) -> ResidentBench {
    let (embed, hidden, vocab, batch) = (256usize, 256usize, 1000usize, 64usize);
    let cell = Cell::Lstm(LstmCell::seeded(embed, hidden, vocab, 71));
    let layout = cell.resident_layout().expect("chain cell");
    let mut scratch = Scratch::new();

    // Per-request states after one warm-up step from zero.
    let states: Vec<CellState> = (0..batch)
        .map(|r| {
            let o = cell.execute_batch(&[InvocationInput::token_only((r % vocab) as u32)]);
            o.into_iter().next().unwrap().state
        })
        .collect();
    let tokens: Vec<u32> = (0..batch).map(|r| ((r * 13 + 5) % vocab) as u32).collect();
    let tokens_opt: Vec<Option<u32>> = tokens.iter().map(|&t| Some(t)).collect();

    // Identity: one step over the same states, both paths, compared
    // bitwise.
    let invs: Vec<RowInvocation<'_>> = states
        .iter()
        .zip(&tokens)
        .map(|(s, &t)| RowInvocation::chain(t, StateRef::of(s)))
        .collect();
    let mut want: Vec<(Vec<f32>, Vec<f32>)> = Vec::new();
    cell.execute_rows_in(&invs, &mut scratch, |_, h, c, _| {
        want.push((h.to_vec(), c.to_vec()));
    });
    let mut rb = ResidentBatch::new(layout);
    for (i, s) in states.iter().enumerate() {
        rb.place(i, RequestId(i as u64), NodeId(1), Some(NodeId(0)), || {
            StateRef::of(s)
        });
    }
    let mut got: Vec<(Vec<f32>, Vec<f32>)> = Vec::new();
    rb.step(&cell, batch, &tokens_opt, &mut scratch, |_, h, c, _| {
        got.push((h.to_vec(), c.to_vec()));
    });
    let identity = want == got;

    // Steady state, interleaved: `reps` chain steps per sample. One
    // step is a few µs, so a burst per sample sits well above clock
    // resolution; per-step figures divide the burst back out.
    let reps = 8usize;
    let flops = (reps as u64 * cell.flops(batch)) as f64;
    let mut scratch_res = Scratch::new();
    let mut scratch_gat = Scratch::new();
    let mut res_out = states.clone();
    let mut prev = states.clone();
    let mut next = states.clone();
    let mut t_node: u32 = 1;
    let (resident, gather) = bench_pair(
        scale,
        "chain_step_resident_b64_h256",
        "chain_step_gather_b64_h256",
        flops,
        || {
            for _ in 0..reps {
                t_node += 1;
                for i in 0..batch {
                    rb.place(
                        i,
                        RequestId(i as u64),
                        NodeId(t_node),
                        Some(NodeId(t_node - 1)),
                        || unreachable!("steady-state rows are always fresh"),
                    );
                }
                rb.step(
                    &cell,
                    batch,
                    &tokens_opt,
                    &mut scratch_res,
                    |row, h, c, _| {
                        res_out[row].h.copy_from_slice(h);
                        res_out[row].c.copy_from_slice(c);
                    },
                );
            }
            std::hint::black_box(&res_out);
        },
        || {
            for _ in 0..reps {
                let invs: Vec<RowInvocation<'_>> = prev
                    .iter()
                    .zip(&tokens)
                    .map(|(s, &t)| RowInvocation::chain(t, StateRef::of(s)))
                    .collect();
                cell.execute_rows_in(&invs, &mut scratch_gat, |row, h, c, _| {
                    next[row].h.copy_from_slice(h);
                    next[row].c.copy_from_slice(c);
                });
                std::mem::swap(&mut prev, &mut next);
            }
            std::hint::black_box(&prev);
        },
    );

    // Churn: one request leaves and rejoins every tick on top of the
    // steady step — the swap-remove + join-with-fetch overhead.
    let mut rb_churn = ResidentBatch::new(layout);
    let mut scratch_churn = Scratch::new();
    let zero = CellState::zeros(hidden);
    let mut churn_out = states.clone();
    let mut ct: u32 = 0;
    let mut victim = 0u64;
    let churn_total = best_ns(scale, || {
        for _ in 0..reps {
            ct += 1;
            rb_churn.remove(RequestId(victim));
            victim = (victim + 1) % batch as u64;
            for i in 0..batch {
                rb_churn.place(
                    i,
                    RequestId(i as u64),
                    NodeId(ct),
                    ct.checked_sub(1).map(NodeId),
                    || StateRef::of(&zero),
                );
            }
            rb_churn.step(
                &cell,
                batch,
                &tokens_opt,
                &mut scratch_churn,
                |row, h, c, _| {
                    churn_out[row].h.copy_from_slice(h);
                    churn_out[row].c.copy_from_slice(c);
                },
            );
        }
        std::hint::black_box(&churn_out);
    });

    let gather_step_ns = gather.ns_per_op / reps as f64;
    let resident_step_ns = resident.ns_per_op / reps as f64;
    ResidentBench {
        gather_step_ns,
        resident_step_ns,
        speedup: gather_step_ns / resident_step_ns,
        churn_step_ns: churn_total / reps as f64,
        identity,
    }
}

/// Pool-parallel packed-GEMM scaling over the batch-row dimension:
/// `affine_rows_into` serial vs spread across a [`ComputePool`] sized
/// to the host.
#[derive(Debug, Clone)]
pub struct PoolScaling {
    /// Batch rows of the measured affine.
    pub batch: usize,
    /// Pool participants (host `available_parallelism`).
    pub workers: usize,
    /// Serial (no pool) best time, ns.
    pub serial_ns: f64,
    /// Pooled best time, ns.
    pub pool_ns: f64,
    /// Whether the host has more than one core. On a single-core host
    /// the pooled run cannot win, so CI gates strict superiority on
    /// this flag.
    pub multi_core: bool,
}

/// Measures [`PoolScaling`] at the gather-path fused-affine shape,
/// hidden 256, batch 256 — `(256, 512) x (512, 1024)`, 268 MFLOP — and
/// returns the raw kernel entries for the benches table. The product is
/// that large on purpose: waking a parked worker costs 50-200 µs on a
/// 2-vCPU virtual machine, and at batch 64 (34 MFLOP, ~0.45 ms serial)
/// the pooled run never clears that noise. Even here the ratio ranges
/// from 1.0x to 1.9x between runs on such a host — the worker's core is
/// not always there to be woken. Also spot-checks that the pooled
/// result is bitwise identical to the serial one (the property
/// bm-tensor's proptests pin at every pool size).
fn pool_scaling_suite(scale: Scale) -> (PoolScaling, Vec<KernelBench>) {
    let (m, k, n) = (256usize, 512usize, 1024usize);
    let x = xavier_uniform(m, k, 81);
    let w = xavier_uniform(k, n, 82);
    let b = Matrix::zeros(1, n);
    let mut out_serial = Matrix::zeros(m, n);
    let mut out_pool = Matrix::zeros(m, n);
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let pool = ComputePool::new(workers);
    let flops = (2 * m * k * n) as f64;
    let pooled_name = format!("affine_rows_pool{workers}_b256");
    let (serial, pooled) = bench_pair(
        scale,
        "affine_rows_serial_b256",
        &pooled_name,
        flops,
        || {
            ops::affine_rows_into(&x, m, &w, &b, &mut out_serial, None);
            std::hint::black_box(&out_serial);
        },
        || {
            ops::affine_rows_into(&x, m, &w, &b, &mut out_pool, Some(&pool));
            std::hint::black_box(&out_pool);
        },
    );
    assert_eq!(
        out_serial.as_slice(),
        out_pool.as_slice(),
        "pooled affine diverged from serial"
    );
    let scaling = PoolScaling {
        batch: m,
        workers,
        serial_ns: serial.ns_per_op,
        pool_ns: pooled.ns_per_op,
        multi_core: workers > 1,
    };
    (scaling, vec![serial, pooled])
}

/// One point of the small-batch GEMM sweep.
#[derive(Debug, Clone)]
pub struct SmallBatchPoint {
    /// `gemm_into` or `gemm_acc_into`.
    pub op: &'static str,
    /// Rows of the left-hand side (the task's batch size).
    pub m: usize,
    /// Inner dimension.
    pub k: usize,
    /// Output columns.
    pub n: usize,
    /// Best nanoseconds per call.
    pub ns_per_op: f64,
    /// `2·m·k·n / ns_per_op`.
    pub gflops: f64,
}

/// Row counts of the sweep: every tile height, the first tail after a
/// full tile, two full tiles, and a batch large enough to amortise
/// everything.
pub const SMALL_BATCH_ROWS: &[usize] = &[1, 2, 3, 4, 5, 8, 64];

/// Weight shapes of the sweep: the LSTM recurrent half at hidden 256,
/// the decoder's ragged vocabulary projection, one tree-internal gate.
pub const SMALL_BATCH_SHAPES: &[(usize, usize)] = &[(256, 1024), (256, 1000), (512, 256)];

/// Times the packed GEMM, serial, at the row counts cellular batching
/// actually forms (mean 1.2-5.5 rows per task at the benchmark's high
/// rate). The property on display: a row block of 1, 2 or 3 rows is one
/// pass over the weights, so it costs no more than the 4-row block.
fn small_batch_suite(scale: Scale) -> Vec<SmallBatchPoint> {
    let mut out = Vec::new();
    // One call is 5-500 µs; a burst per sample keeps the short ones
    // well above clock resolution.
    let reps = 16usize;
    for &(k, n) in SMALL_BATCH_SHAPES {
        let w = xavier_uniform(k, n, 91);
        let bias = xavier_uniform(1, n, 92);
        for &m in SMALL_BATCH_ROWS {
            let a = xavier_uniform(m, k, 93);
            let flops = (2 * m * k * n) as f64;
            let mut y = vec![0.0f32; m * n];
            type Gemm = fn(
                &[f32],
                usize,
                usize,
                &PackedWeights,
                Option<&[f32]>,
                &mut [f32],
                Option<&ComputePool>,
            );
            for (op, f) in [
                ("gemm_into", gemm::gemm_into as Gemm),
                ("gemm_acc_into", gemm::gemm_acc_into as Gemm),
            ] {
                let ns = best_ns(scale, || {
                    for _ in 0..reps {
                        f(
                            a.as_slice(),
                            m,
                            k,
                            w.packed(),
                            Some(bias.row(0)),
                            &mut y,
                            None,
                        );
                    }
                    std::hint::black_box(&y);
                }) / reps as f64;
                out.push(SmallBatchPoint {
                    op,
                    m,
                    k,
                    n,
                    ns_per_op: ns,
                    gflops: flops / ns,
                });
            }
        }
    }
    out
}

/// Figure 3 (top) reduced to one ratio: the throughput (rows per second
/// of a batched LSTM step) of the largest measured batch over that of
/// batch 2. A wall-clock ratio, so it lives here, behind the CI gate on
/// `BENCH_kernels.json`, rather than in a tier-1 test.
///
/// Since a 2-row step already makes a single pass over the weights, the
/// CPU curve is close to flat from batch 2 on; what the largest batch
/// still adds is the second core on the GEMM and the amortised per-step
/// overhead. The gate is therefore that batching never *costs*
/// throughput, not that it multiplies it.
#[derive(Debug, Clone)]
pub struct Fig3Cpu {
    /// Rows per second at batch 2.
    pub small_ops_per_s: f64,
    /// Rows per second at the largest measured batch.
    pub large_ops_per_s: f64,
}

impl Fig3Cpu {
    /// `large_ops_per_s / small_ops_per_s`.
    pub fn batching_gain(&self) -> f64 {
        self.large_ops_per_s / self.small_ops_per_s
    }
}

fn fig3_cpu(scale: Scale) -> Fig3Cpu {
    // Best of a few curves: one curve is a handful of steps per batch.
    let curves = match scale {
        Scale::Quick => 3,
        Scale::Full => 5,
    };
    let mut best = Fig3Cpu {
        small_ops_per_s: 0.0,
        large_ops_per_s: 0.0,
    };
    for _ in 0..curves {
        let (_, curve) = fig3::cpu_curve(scale);
        let rows_per_s = |&(b, us): &(usize, f64)| b as f64 / (us / 1e6);
        let small = curve.first().map(rows_per_s).expect("batch 2 is measured");
        let large = curve.last().map(rows_per_s).expect("batch 2 is measured");
        best.small_ops_per_s = best.small_ops_per_s.max(small);
        best.large_ops_per_s = best.large_ops_per_s.max(large);
    }
    best
}

/// Renders `BENCH_runtime.json` (schema `bm-bench-runtime/v1`): the
/// state-plane gather pair and the resident-vs-gather chain step.
fn runtime_to_json(
    arena: &KernelBench,
    locked: &KernelBench,
    gather_speedup: f64,
    resident: &ResidentBench,
) -> String {
    format!(
        "{{\n  \"schema\": \"bm-bench-runtime/v1\",\n  \"state_plane\": \
         {{\"slot_arena_ns\": {:.1}, \"locked_map_ns\": {:.1}, \"gather_speedup\": {gather_speedup:.2}}},\n  \
         \"resident\": {{\"gather_step_ns\": {:.1}, \"resident_step_ns\": {:.1}, \
         \"speedup\": {:.2}, \"churn_step_ns\": {:.1}, \"identity\": {}}}\n}}\n",
        arena.ns_per_op,
        locked.ns_per_op,
        resident.gather_step_ns,
        resident.resident_step_ns,
        resident.speedup,
        resident.churn_step_ns,
        resident.identity
    )
}

/// Renders the machine-readable regression file (schema `bm-bench/v1`).
fn to_json(
    benches: &[KernelBench],
    small_batch: &[SmallBatchPoint],
    fig3: &Fig3Cpu,
    speedup: f64,
    rps: f64,
    pool: &PoolScaling,
) -> String {
    let mut s = String::from("{\n  \"schema\": \"bm-bench/v1\",\n  \"benches\": [\n");
    for (i, b) in benches.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"ns_per_op\": {:.1}, \"gflops\": {:.4}}}{}\n",
            b.name,
            b.ns_per_op,
            b.gflops,
            if i + 1 < benches.len() { "," } else { "" }
        ));
    }
    s.push_str("  ],\n  \"small_batch\": [\n");
    for (i, p) in small_batch.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"op\": \"{}\", \"m\": {}, \"k\": {}, \"n\": {}, \"ns_per_op\": {:.1}, \
             \"gflops\": {:.4}}}{}\n",
            p.op,
            p.m,
            p.k,
            p.n,
            p.ns_per_op,
            p.gflops,
            if i + 1 < small_batch.len() { "," } else { "" }
        ));
    }
    s.push_str(&format!(
        "  ],\n  \"fig3_cpu\": {{\"small_ops_per_s\": {:.1}, \"large_ops_per_s\": {:.1}, \
         \"batching_gain\": {:.3}}},\n",
        fig3.small_ops_per_s,
        fig3.large_ops_per_s,
        fig3.batching_gain()
    ));
    s.push_str(&format!(
        "  \"pool_scaling\": {{\"batch\": {}, \"workers\": {}, \"serial_ns\": {:.1}, \
         \"pool_ns\": {:.1}, \"multi_core\": {}}},\n",
        pool.batch, pool.workers, pool.serial_ns, pool.pool_ns, pool.multi_core
    ));
    s.push_str(&format!(
        "  \"headline\": {{\"serving_rps\": {rps:.1}, \"lstm_b64_h512_speedup\": {speedup:.2}}}\n}}\n"
    ));
    s
}

/// Runs the experiment, writing `BENCH_kernels.json` and
/// `BENCH_runtime.json` into `out_dir`.
///
/// # Panics
///
/// Panics if any measurement is non-finite or non-positive (the smoke
/// contract CI relies on), or if the output directory is unwritable.
pub fn run(scale: Scale, out_dir: &Path) -> Vec<Table> {
    let (mut benches, speedup) = kernel_suite(scale);
    let rps = serving_rps(scale);
    let (arena, locked, gather_speedup) = state_plane_suite(scale);
    let resident = resident_suite(scale);
    let (pool, pool_benches) = pool_scaling_suite(scale);
    benches.extend(pool_benches);
    let small_batch = small_batch_suite(scale);
    let fig3 = fig3_cpu(scale);

    for b in &benches {
        assert!(
            b.ns_per_op.is_finite() && b.ns_per_op > 0.0,
            "bench {} has bad ns_per_op {}",
            b.name,
            b.ns_per_op
        );
        assert!(
            b.gflops.is_finite() && b.gflops > 0.0,
            "bench {} has bad gflops {}",
            b.name,
            b.gflops
        );
    }
    for p in &small_batch {
        assert!(
            p.ns_per_op.is_finite() && p.ns_per_op > 0.0 && p.gflops.is_finite(),
            "small-batch point {p:?} is not a measurement"
        );
    }
    assert!(
        fig3.batching_gain().is_finite() && fig3.batching_gain() > 0.0,
        "bad fig3 batching gain {fig3:?}"
    );
    assert!(
        speedup.is_finite() && speedup > 0.0,
        "bad speedup {speedup}"
    );
    assert!(rps.is_finite() && rps > 0.0, "bad serving rate {rps}");
    for b in [&arena, &locked] {
        assert!(
            b.ns_per_op.is_finite() && b.ns_per_op > 0.0,
            "bench {} has bad ns_per_op {}",
            b.name,
            b.ns_per_op
        );
    }
    assert!(
        gather_speedup.is_finite() && gather_speedup > 0.0,
        "bad gather speedup {gather_speedup}"
    );
    for (metric, v) in [
        ("gather_step_ns", resident.gather_step_ns),
        ("resident_step_ns", resident.resident_step_ns),
        ("speedup", resident.speedup),
        ("churn_step_ns", resident.churn_step_ns),
    ] {
        assert!(
            v.is_finite() && v > 0.0,
            "resident bench has bad {metric} {v}"
        );
    }
    assert!(
        resident.identity,
        "resident path diverged bitwise from the gather path"
    );
    for (metric, v) in [("serial_ns", pool.serial_ns), ("pool_ns", pool.pool_ns)] {
        assert!(
            v.is_finite() && v > 0.0,
            "pool scaling has bad {metric} {v}"
        );
    }

    std::fs::create_dir_all(out_dir).expect("create output directory");
    let json_path = out_dir.join("BENCH_kernels.json");
    std::fs::write(
        &json_path,
        to_json(&benches, &small_batch, &fig3, speedup, rps, &pool),
    )
    .expect("write BENCH_kernels.json");
    eprintln!("wrote {}", json_path.display());
    let runtime_path = out_dir.join("BENCH_runtime.json");
    std::fs::write(
        &runtime_path,
        runtime_to_json(&arena, &locked, gather_speedup, &resident),
    )
    .expect("write BENCH_runtime.json");
    eprintln!("wrote {}", runtime_path.display());

    let mut kernels = Table::new(
        "Kernel benchmarks (best-of-N wall time)",
        &["bench", "ns_per_op", "gflops"],
    );
    for b in &benches {
        kernels.push_row(vec![
            b.name.clone(),
            format!("{:.0}", b.ns_per_op),
            format!("{:.3}", b.gflops),
        ]);
    }
    let mut sweep = Table::new(
        "Small-batch packed GEMM, serial (best-of-N wall time)",
        &["op", "k", "n", "m", "us_per_call", "gflops", "vs_4_rows"],
    );
    for p in &small_batch {
        let four = small_batch
            .iter()
            .find(|q| (q.op, q.k, q.n, q.m) == (p.op, p.k, p.n, 4))
            .expect("the sweep includes 4 rows");
        sweep.push_row(vec![
            p.op.into(),
            p.k.to_string(),
            p.n.to_string(),
            p.m.to_string(),
            format!("{:.1}", p.ns_per_op / 1e3),
            format!("{:.1}", p.gflops),
            format!("{:.2}", p.ns_per_op / four.ns_per_op),
        ]);
    }
    let mut state_plane = Table::new(
        "State-plane gather (64 rows, hidden 64)",
        &["bench", "ns_per_op", "gflops"],
    );
    for b in [&arena, &locked] {
        state_plane.push_row(vec![
            b.name.clone(),
            format!("{:.0}", b.ns_per_op),
            format!("{:.3}", b.gflops),
        ]);
    }
    let mut resident_tbl = Table::new(
        "Resident state plane (chain LSTM, batch 64, hidden 256)",
        &["path", "ns_per_step"],
    );
    resident_tbl.push_row(vec![
        "gather".into(),
        format!("{:.0}", resident.gather_step_ns),
    ]);
    resident_tbl.push_row(vec![
        "resident".into(),
        format!("{:.0}", resident.resident_step_ns),
    ]);
    resident_tbl.push_row(vec![
        "resident + churn (1 leave/join per tick)".into(),
        format!("{:.0}", resident.churn_step_ns),
    ]);
    let mut headline = Table::new("Headline", &["metric", "value"]);
    headline.push_row(vec![
        "LSTM step b64/h512 speedup vs seed".into(),
        format!("{speedup:.2}x"),
    ]);
    headline.push_row(vec![
        "serving throughput (req/s)".into(),
        format!("{rps:.0}"),
    ]);
    headline.push_row(vec![
        "state-plane gather speedup (arena vs locked map)".into(),
        format!("{gather_speedup:.2}x"),
    ]);
    headline.push_row(vec![
        "resident-state steady-step speedup vs gather".into(),
        format!("{:.2}x", resident.speedup),
    ]);
    headline.push_row(vec![
        format!(
            "pool-parallel affine b256 ({} workers{})",
            pool.workers,
            if pool.multi_core {
                ""
            } else {
                ", single-core host"
            }
        ),
        format!("{:.2}x", pool.serial_ns / pool.pool_ns),
    ]);
    headline.push_row(vec![
        "Figure 3 CPU throughput, largest batch vs batch 2".into(),
        format!("{:.2}x", fig3.batching_gain()),
    ]);
    vec![kernels, state_plane, resident_tbl, headline, sweep]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_step_matches_fused_path_bitwise() {
        // The regression baseline must compute the same function as the
        // fused path, or the speedup comparison is meaningless.
        let cell = LstmCell::seeded(16, 16, 32, 5);
        let cell_enum = Cell::Lstm(cell);
        let state = {
            let o = cell_enum.execute_batch(&[InvocationInput::token_only(3)]);
            o.into_iter().next().unwrap().state
        };
        let invs: Vec<InvocationInput<'_>> = (0..4)
            .map(|i| InvocationInput::chain(i as u32, &state))
            .collect();
        let fused = cell_enum.execute_batch(&invs);

        let bundle = cell_enum.to_bundle();
        let embed = bundle.get("embed").unwrap();
        let w = bundle.get("w").unwrap();
        let b = bundle.get("b").unwrap();
        let ids: Vec<usize> = (0..4).collect();
        let mut h = Matrix::zeros(4, 16);
        let mut c = Matrix::zeros(4, 16);
        for r in 0..4 {
            h.row_mut(r).copy_from_slice(&state.h);
            c.row_mut(r).copy_from_slice(&state.c);
        }
        let (h2, c2) = seed_lstm_step(embed, w, b, &ids, &h, &c);
        for (r, out) in fused.iter().enumerate() {
            assert_eq!(out.state.h.as_slice(), h2.row(r));
            assert_eq!(out.state.c.as_slice(), c2.row(r));
        }
    }

    #[test]
    fn runtime_bench_json_is_well_formed() {
        let arena = KernelBench {
            name: "gather_slot_arena_b64_h64".into(),
            ns_per_op: 1000.0,
            gflops: 4.0,
        };
        let locked = KernelBench {
            name: "gather_locked_map_b64_h64".into(),
            ns_per_op: 2500.0,
            gflops: 1.6,
        };
        let resident = ResidentBench {
            gather_step_ns: 9000.0,
            resident_step_ns: 6000.0,
            speedup: 1.5,
            churn_step_ns: 6500.0,
            identity: true,
        };
        let j = runtime_to_json(&arena, &locked, 2.5, &resident);
        assert!(j.contains("\"schema\": \"bm-bench-runtime/v1\""));
        assert!(j.contains("\"slot_arena_ns\": 1000.0"));
        assert!(j.contains("\"locked_map_ns\": 2500.0"));
        assert!(j.contains("\"gather_speedup\": 2.50"));
        assert!(j.contains("\"gather_step_ns\": 9000.0"));
        assert!(j.contains("\"resident_step_ns\": 6000.0"));
        assert!(j.contains("\"churn_step_ns\": 6500.0"));
        assert!(j.contains("\"identity\": true"));
    }

    #[test]
    fn bench_json_is_well_formed() {
        let benches = vec![KernelBench {
            name: "x".into(),
            ns_per_op: 10.0,
            gflops: 1.5,
        }];
        let pool = PoolScaling {
            batch: 64,
            workers: 4,
            serial_ns: 80000.0,
            pool_ns: 30000.0,
            multi_core: true,
        };
        let sweep = vec![SmallBatchPoint {
            op: "gemm_into",
            m: 3,
            k: 256,
            n: 1000,
            ns_per_op: 20000.0,
            gflops: 76.8,
        }];
        let fig3 = Fig3Cpu {
            small_ops_per_s: 4.0e5,
            large_ops_per_s: 6.0e5,
        };
        let j = to_json(&benches, &sweep, &fig3, 2.5, 100.0, &pool);
        assert!(j.contains("\"schema\": \"bm-bench/v1\""));
        assert!(j.contains(
            "{\"op\": \"gemm_into\", \"m\": 3, \"k\": 256, \"n\": 1000, \
             \"ns_per_op\": 20000.0, \"gflops\": 76.8000}"
        ));
        assert!(j.contains("\"batching_gain\": 1.500"));
        assert!(j.contains("\"lstm_b64_h512_speedup\": 2.50"));
        assert!(j.contains("\"serving_rps\": 100.0"));
        assert!(j.contains("\"pool_scaling\""));
        assert!(j.contains("\"workers\": 4"));
        assert!(j.contains("\"multi_core\": true"));
    }
}
