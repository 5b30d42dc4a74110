//! Tensor-substrate kernel benchmarks.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use bm_cell::{Cell, InvocationInput, LstmCell, Scratch};
use bm_harness::experiments::bench::{SMALL_BATCH_ROWS, SMALL_BATCH_SHAPES};
use bm_tensor::{gemm, ops, xavier_uniform, Matrix};

fn bench_matmul(c: &mut Criterion) {
    let mut g = c.benchmark_group("matmul");
    for &n in &[64usize, 128, 256] {
        let a = xavier_uniform(n, n, 1);
        let b = xavier_uniform(n, n, 2);
        g.throughput(Throughput::Elements((2 * n * n * n) as u64));
        g.bench_with_input(BenchmarkId::new("square", n), &n, |bench, _| {
            bench.iter(|| std::hint::black_box(a.matmul(&b)));
        });
    }
    // The LSTM shape: (batch, 2h) x (2h, 4h) with h = 128.
    for &batch in &[4usize, 64, 256] {
        let a = xavier_uniform(batch, 256, 3);
        let b = xavier_uniform(256, 512, 4);
        g.throughput(Throughput::Elements((2 * batch * 256 * 512) as u64));
        g.bench_with_input(BenchmarkId::new("lstm_shape", batch), &batch, |bench, _| {
            bench.iter(|| std::hint::black_box(a.matmul(&b)));
        });
    }
    g.finish();
}

fn bench_gather_scatter(c: &mut Criterion) {
    let mut g = c.benchmark_group("gather");
    let x = xavier_uniform(1024, 256, 5);
    let idx: Vec<usize> = (0..512).map(|i| (i * 7) % 1024).collect();
    g.throughput(Throughput::Elements((512 * 256) as u64));
    g.bench_function("gather_rows_512x256", |bench| {
        bench.iter(|| std::hint::black_box(ops::gather_rows(&x, &idx)));
    });
    let src = xavier_uniform(512, 256, 6);
    g.bench_function("scatter_rows_512x256", |bench| {
        let mut dst = Matrix::zeros(1024, 256);
        bench.iter(|| {
            ops::scatter_rows(&mut dst, &src, &idx);
            std::hint::black_box(&dst);
        });
    });
    g.finish();
}

fn bench_elementwise(c: &mut Criterion) {
    let mut g = c.benchmark_group("elementwise");
    let x = xavier_uniform(256, 1024, 7);
    g.throughput(Throughput::Elements(x.len() as u64));
    g.bench_function("sigmoid_256x1024", |bench| {
        bench.iter(|| std::hint::black_box(ops::sigmoid(&x)));
    });
    g.bench_function("tanh_256x1024", |bench| {
        bench.iter(|| std::hint::black_box(ops::tanh(&x)));
    });
    g.bench_function("softmax_256x1024", |bench| {
        bench.iter(|| std::hint::black_box(ops::softmax(&x)));
    });
    g.bench_function("argmax_256x1024", |bench| {
        bench.iter(|| std::hint::black_box(ops::argmax(&x)));
    });
    g.finish();
}

fn bench_packed_vs_serial(c: &mut Criterion) {
    let mut g = c.benchmark_group("gemm");
    // The headline kernel shape: batched LSTM step at batch 64,
    // hidden 512 — (64, 1024) x (1024, 2048).
    let a = xavier_uniform(64, 1024, 11);
    let b = xavier_uniform(1024, 2048, 12);
    let bias = Matrix::zeros(1, 2048);
    g.throughput(Throughput::Elements((2usize * 64 * 1024 * 2048) as u64));
    g.bench_function("packed_b64_h512", |bench| {
        bench.iter(|| std::hint::black_box(a.matmul(&b)));
    });
    g.bench_function("serial_reference_b64_h512", |bench| {
        bench.iter(|| std::hint::black_box(a.matmul_serial(&b)));
    });
    g.bench_function("fused_affine_b64_h512", |bench| {
        let mut out = Matrix::zeros(64, 2048);
        bench.iter(|| {
            ops::affine_into(&a, &b, &bias, &mut out);
            std::hint::black_box(&out);
        });
    });
    g.finish();
}

/// The packed GEMM, serial, at the row counts cellular batching forms:
/// the same sweep `repro bench` writes to `BENCH_kernels.json`
/// (`small_batch`), here with Criterion's statistics.
fn bench_small_batch(c: &mut Criterion) {
    let mut g = c.benchmark_group("gemm_small_batch");
    for &(k, n) in SMALL_BATCH_SHAPES {
        let w = xavier_uniform(k, n, 31);
        let bias = xavier_uniform(1, n, 32);
        for &m in SMALL_BATCH_ROWS {
            let a = xavier_uniform(m, k, 33);
            let mut y = vec![0.0f32; m * n];
            g.throughput(Throughput::Elements((2 * m * k * n) as u64));
            g.bench_function(format!("gemm_into/{k}x{n}/m{m}"), |bench| {
                bench.iter(|| {
                    let bias = Some(bias.row(0));
                    gemm::gemm_into(a.as_slice(), m, k, w.packed(), bias, &mut y, None);
                    std::hint::black_box(&y);
                });
            });
            g.bench_function(format!("gemm_acc_into/{k}x{n}/m{m}"), |bench| {
                bench.iter(|| {
                    let bias = Some(bias.row(0));
                    gemm::gemm_acc_into(a.as_slice(), m, k, w.packed(), bias, &mut y, None);
                    std::hint::black_box(&y);
                });
            });
        }
    }
    g.finish();
}

fn bench_inplace_activations(c: &mut Criterion) {
    let mut g = c.benchmark_group("inplace");
    let x = xavier_uniform(256, 1024, 13);
    g.throughput(Throughput::Elements(x.len() as u64));
    g.bench_function("sigmoid_inplace_256x1024", |bench| {
        let mut y = x.clone();
        bench.iter(|| {
            ops::sigmoid_inplace(&mut y);
            std::hint::black_box(&y);
        });
    });
    g.bench_function("tanh_inplace_256x1024", |bench| {
        let mut y = x.clone();
        bench.iter(|| {
            ops::tanh_inplace(&mut y);
            std::hint::black_box(&y);
        });
    });
    g.finish();
}

fn bench_lstm_cell_step(c: &mut Criterion) {
    let mut g = c.benchmark_group("lstm_cell");
    // Figure-3 scale cell step: batch 64, embed 512, hidden 512.
    let cell = Cell::Lstm(LstmCell::seeded(512, 512, 1024, 21));
    let state = {
        let out = cell.execute_batch(&[InvocationInput::token_only(1)]);
        out.into_iter().next().unwrap().state
    };
    let invs: Vec<InvocationInput<'_>> = (0..64)
        .map(|i| InvocationInput::chain(i as u32 % 1024, &state))
        .collect();
    g.throughput(Throughput::Elements(cell.flops(64)));
    g.bench_function("step_b64_h512", |bench| {
        let mut scratch = Scratch::new();
        bench.iter(|| std::hint::black_box(cell.execute_batch_in(&invs, &mut scratch)));
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_matmul,
    bench_gather_scatter,
    bench_elementwise,
    bench_packed_vs_serial,
    bench_small_batch,
    bench_inplace_activations,
    bench_lstm_cell_step
);
criterion_main!(benches);
