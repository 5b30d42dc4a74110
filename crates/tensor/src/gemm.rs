//! Packed, cache-blocked GEMM with a bitwise-stable accumulation order.
//!
//! Weight matrices are immutable per cell type (§4.2: a cell type is
//! *defined* by its weights), so the right-hand side of every hot matmul
//! is packed once, when the cell is built, into cache-friendly column
//! panels. The panels are the only copy of a weight a cell keeps:
//! [`PackedWeights::unpack`] gives back the exact row-major matrix for
//! the rare reader that needs one (writing a bundle), and
//! [`PackedWeights::bits_eq`] compares two weights without unpacking.
//! This module holds the packed representation and the micro-kernels.
//!
//! # One pass over the weights per call
//!
//! Batching pays because one fetch of the weights serves every row of a
//! step (§2.2, Figure 3), and at the sizes cellular batching forms — one
//! to a few rows per task — a step *is* a weight stream: the 1-row call
//! moves every packed byte once and does two flops on it. So the loop
//! nest is panel group outer, row block inner (`gemm_block_impl`): a
//! group of up to four panels is fetched once and every row block of up
//! to [`MR`] rows runs its `R x P` register tiles (`kernel`, accumulators
//! in registers across the whole `k` loop) against it while it sits in
//! L1/L2, then the next group. A call of *any* `m` is therefore exactly
//! one pass over the packed weights, where a row-outer nest streams the
//! whole matrix once per 4-row block (a 512x1280 product at 8 rows: two
//! passes of 2.6 MB). The tile width `P` is sized to
//! each ISA tier's register file (`gemm_block`), and is the only thing
//! that differs between tiers.
//!
//! # Serpentine passes
//!
//! What one pass costs depends on where the bytes are. Measured on the
//! build host (2 MiB of L2 per core; `k = 512`, best of four processes),
//! a 1-row call streams packed weights at
//!
//! | packed size, MB | 0.5 | 1.0 | 1.6 | 2.1 | 2.6 | 3.0 | 4.1 |
//! |---|---|---|---|---|---|---|---|
//! | same order every pass, GB/s | 108 | 108 | 77 | 56 | 35 | 30 | 27 |
//! | serpentine, GB/s | 106 | 109 | 94 | 72 | 57 | 46 | 39 |
//!
//! — walked in the same ascending order every time, a matrix that does
//! not fit L2 falls to L3 speed *entirely*, not just for the excess: an
//! LRU-like cache has always just evicted what the next pass reads
//! first. So each [`PackedWeights`] carries one parity bit, flipped per
//! call, that selects ascending or descending panel-group order: a pass
//! starts where the previous pass over the same matrix ended and hits on
//! whatever that left resident (the tree-internal cell's 2.6 MB at one
//! row: 75 -> 43 us). Output columns are independent folds, so neither
//! the direction nor the nest order changes a bit, and a matrix that
//! fits L2 is unaffected.
//!
//! # Bitwise stability
//!
//! Every output element is the ascending-`k` fold
//! `acc = (..((0 + a[i][0]*b[0][j]) + a[i][1]*b[1][j])..)` computed with
//! separate f32 multiplies and adds (Rust never contracts to FMA), with
//! an optional bias added exactly once after the fold. That is the same
//! expression tree as the naive serial reference
//! ([`crate::Matrix::matmul_serial`]), so packed, blocked and
//! pool-parallel execution all produce bit-identical results — the
//! blocking changes *which* elements are computed together, never the
//! per-element fold order. There is deliberately no k-splitting (partial
//! sums would change the fold shape).

use std::sync::atomic::{AtomicBool, Ordering};

use crate::matrix::Matrix;
use crate::pool::ComputePool;

/// Panel width: output columns per packed panel. One accumulator of
/// `NR` `f32` lanes is one 512-bit register, two 256-bit or four 128-bit
/// ones.
pub const NR: usize = 16;

/// Tallest register tile: the most rows that share one pass over the
/// packed weights. With `MR = 4` the widest tier holds `4 x 4`
/// accumulators in 16 of its 32 registers (see `gemm_block` for each
/// tier's budget).
pub const MR: usize = 4;

/// One `k`-step of one panel: `NR` adjacent output columns, aligned to a
/// cache line so a full-width vector load never straddles two lines.
#[derive(Clone, Copy)]
#[repr(C, align(64))]
struct Lanes([f32; NR]);

/// A weight matrix repacked into `NR`-wide, k-major column panels.
///
/// Panel `p` covers output columns `p*NR .. min((p+1)*NR, n)` and stores
/// `k` rows of `NR` lanes (`panel[kk][jj] = b[kk][p*NR + jj]`), padded
/// with `+0.0` on the ragged right edge. Padded lanes are computed but
/// never written back, so the padding can't leak into results; and since
/// every padding lane of every packing is the same `+0.0`, two packings
/// of one shape have equal panels exactly when their matrices are equal
/// bit for bit.
pub struct PackedWeights {
    k: usize,
    n: usize,
    /// The panels, starting at the first cache-line boundary of a plain
    /// `f32` allocation one line longer than they need. Not a
    /// `Vec<Lanes>`: an over-aligned allocation goes through the
    /// allocator's `posix_memalign` path, which cost 6-14 % of peak RSS
    /// on the benchmark's chain workloads; unaligned panels cost the
    /// 1-row call half its speed.
    buf: Vec<f32>,
    /// Direction of the next pass: set means descending panel-group
    /// order. Flipped by every call so consecutive passes are serpentine
    /// (module docs). It publishes nothing — either value gives the same
    /// bits — so relaxed ordering suffices, and callers sharing one
    /// matrix across threads merely alternate less regularly.
    descending: AtomicBool,
}

impl PackedWeights {
    /// All-zero panels for a `(k, n)` matrix.
    fn zeroed(k: usize, n: usize) -> Self {
        PackedWeights {
            k,
            n,
            buf: vec![0.0; (n.div_ceil(NR) * k + 1) * NR],
            descending: AtomicBool::new(false),
        }
    }

    /// Packs a row-major `(k, n)` matrix into column panels.
    ///
    /// # Panics
    ///
    /// Panics if `b.len() != k * n`.
    pub fn pack(k: usize, n: usize, b: &[f32]) -> Self {
        assert_eq!(b.len(), k * n, "pack: data does not match shape");
        let mut rest = b;
        Self::pack_rows(k, n, |row| {
            let (head, tail) = rest.split_at(n);
            row.copy_from_slice(head);
            rest = tail;
        })
    }

    /// Packs a `(k, n)` matrix given one row at a time: `next_row` fills
    /// row 0, then row 1, and so on, each into the same `n`-float
    /// buffer. A weight generated or read row by row is packed without
    /// ever being held whole, so packing it needs no row-major copy
    /// beside the panels.
    pub fn pack_rows(k: usize, n: usize, mut next_row: impl FnMut(&mut [f32])) -> Self {
        let mut packed = Self::zeroed(k, n);
        let panels = packed.panels_mut();
        let mut row = vec![0.0; n];
        for kk in 0..k {
            next_row(&mut row);
            for (p, lanes) in row.chunks(NR).enumerate() {
                panels[p * k + kk].0[..lanes.len()].copy_from_slice(lanes);
            }
        }
        packed
    }

    /// The row-major `(k, n)` matrix this was packed from, bit for bit:
    /// `unpack(pack(m)) == m` for every `m`, `-0.0` and NaN payloads
    /// included (packing only copies `f32`s).
    pub fn unpack(&self) -> Matrix {
        let (k, n) = (self.k, self.n);
        let mut m = Matrix::zeros(k, n);
        let out = m.as_mut_slice();
        for (p, panel) in self.panels().chunks_exact(k.max(1)).enumerate() {
            let j0 = p * NR;
            let w = NR.min(n - j0);
            for (kk, lanes) in panel.iter().enumerate() {
                out[kk * n + j0..kk * n + j0 + w].copy_from_slice(&lanes.0[..w]);
            }
        }
        m
    }

    /// Whether `self` and `other` pack one shape and the same bits in
    /// every element (so `-0.0` differs from `0.0`, and a NaN equals its
    /// copy), stopping at the first difference. Compares the panels as
    /// they are, padding included: padding is always `+0.0`, so equal
    /// panels are equal matrices.
    pub fn bits_eq(&self, other: &PackedWeights) -> bool {
        (self.k, self.n) == (other.k, other.n)
            && self
                .panels()
                .iter()
                .zip(other.panels())
                .all(|(a, b)| a.0.map(f32::to_bits) == b.0.map(f32::to_bits))
    }

    /// All panels back to back, `k` [`Lanes`] each.
    fn panels(&self) -> &[Lanes] {
        // SAFETY: `Lanes` is `repr(C)` over `[f32; NR]`, so any `NR`
        // floats at a 64-byte boundary are a valid `Lanes`; `align_to`
        // returns only such correctly aligned, in-bounds elements.
        let (_, panels, _) = unsafe { self.buf.align_to::<Lanes>() };
        &panels[..self.n.div_ceil(NR) * self.k]
    }

    fn panels_mut(&mut self) -> &mut [Lanes] {
        // SAFETY: as in `panels`; the borrow of `buf` is unique.
        let (_, panels, _) = unsafe { self.buf.align_to_mut::<Lanes>() };
        &mut panels[..self.n.div_ceil(NR) * self.k]
    }

    /// Inner dimension (rows of the original weight matrix).
    #[inline]
    pub fn k(&self) -> usize {
        self.k
    }

    /// Output dimension (columns of the original weight matrix).
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }
}

impl From<&Matrix> for PackedWeights {
    /// Packs a weight matrix; see [`PackedWeights::pack`].
    fn from(m: &Matrix) -> Self {
        PackedWeights::pack(m.rows(), m.cols(), m.as_slice())
    }
}

impl Clone for PackedWeights {
    fn clone(&self) -> Self {
        // The copy's buffer may sit at another offset within its cache
        // line, so copy panel to panel, not buffer to buffer.
        let mut copy = Self::zeroed(self.k, self.n);
        copy.panels_mut().copy_from_slice(self.panels());
        copy
    }
}

impl std::fmt::Debug for PackedWeights {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PackedWeights")
            .field("k", &self.k)
            .field("n", &self.n)
            .finish_non_exhaustive()
    }
}

/// `*mut f32` that may cross threads; used to hand each pool chunk its
/// own disjoint output rows. All unsafety stays inside [`gemm_into`].
struct SendPtr(*mut f32);
// SAFETY: the one field is a pointer into the caller's output slice,
// which `gemm_into` keeps borrowed until the pool has finished every
// chunk; each chunk derives a slice over rows no other chunk touches.
unsafe impl Send for SendPtr {}
// SAFETY: shared access only copies the pointer out (`get`); every
// write through it goes to a chunk's own disjoint rows, as for `Send`.
unsafe impl Sync for SendPtr {}

impl SendPtr {
    /// Accessor so closures capture the (Sync) wrapper, not the raw
    /// pointer field.
    #[inline]
    fn get(&self) -> *mut f32 {
        self.0
    }
}

/// Computes `out = a * packed (+ bias)` where `a` is row-major `(m, k)`.
///
/// `bias`, when present, must have length `n` and is added once per
/// output element after the full-k fold (the fused `affine`).
///
/// With a pool of more than one thread and more than `MR` rows, output
/// rows are chunked evenly across the pool; chunks write disjoint
/// slices, so results are bitwise identical regardless of pool size.
/// Each chunk is one pass over the weights, all in the call's one
/// direction.
///
/// # Panics
///
/// Panics if slice lengths disagree with `m`/`k`/`packed`.
pub fn gemm_into(
    a: &[f32],
    m: usize,
    k: usize,
    packed: &PackedWeights,
    bias: Option<&[f32]>,
    out: &mut [f32],
    pool: Option<&ComputePool>,
) {
    gemm_into_seeded(a, m, k, packed, bias, out, pool, false);
}

/// Fold continuation: computes `out = (out + a * packed) (+ bias)` with
/// the accumulator *seeded from the existing contents of `out`* instead
/// of zero.
///
/// Per output element this extends the ascending-`k` fold: if `out`
/// holds `fold(0, t_0..t_p)` (e.g. a precomputed input-projection row),
/// the result is `fold(fold(0, t_0..t_p), u_0..u_k) (+ bias)` — the
/// exact expression tree of one [`gemm_into`] over the concatenated
/// inner dimension with the bias added once at the very end. This is
/// what lets the resident-state plane split `[x|h]·W` into a cached
/// `x·Wx` row plus a live `h·Wh` continuation without changing a single
/// bit.
///
/// # Panics
///
/// Panics if slice lengths disagree with `m`/`k`/`packed`.
pub fn gemm_acc_into(
    a: &[f32],
    m: usize,
    k: usize,
    packed: &PackedWeights,
    bias: Option<&[f32]>,
    out: &mut [f32],
    pool: Option<&ComputePool>,
) {
    gemm_into_seeded(a, m, k, packed, bias, out, pool, true);
}

/// Shared body of [`gemm_into`] / [`gemm_acc_into`]; `seed` selects
/// whether accumulators start from zero or from `out`'s current values.
#[allow(clippy::too_many_arguments)]
fn gemm_into_seeded(
    a: &[f32],
    m: usize,
    k: usize,
    packed: &PackedWeights,
    bias: Option<&[f32]>,
    out: &mut [f32],
    pool: Option<&ComputePool>,
    seed: bool,
) {
    let n = packed.n;
    assert_eq!(a.len(), m * k, "gemm: lhs length mismatch");
    assert_eq!(packed.k, k, "gemm: inner dimension mismatch");
    assert_eq!(out.len(), m * n, "gemm: output length mismatch");
    if let Some(b) = bias {
        assert_eq!(b.len(), n, "gemm: bias length mismatch");
    }
    let descending = packed.descending.fetch_xor(true, Ordering::Relaxed);
    let threads = pool.map_or(1, ComputePool::threads);
    // Every chunk streams the weights once, so a split only pays from
    // the second row block on, and never into more chunks than there
    // are row blocks. Chunks are as even as possible, not rounded to
    // `MR`: a tail block costs no more than a full one.
    if threads > 1 && m > MR {
        let pool = pool.expect("threads > 1 implies a pool");
        let rows_per = m.div_ceil(threads.min(m.div_ceil(MR)));
        let chunks = m.div_ceil(rows_per);
        let out_ptr = SendPtr(out.as_mut_ptr());
        pool.run(chunks, &|c| {
            let r0 = c * rows_per;
            let r1 = (r0 + rows_per).min(m);
            // SAFETY: chunks cover disjoint row ranges of `out`, and the
            // pool blocks until every chunk completes.
            let out_chunk =
                unsafe { std::slice::from_raw_parts_mut(out_ptr.get().add(r0 * n), (r1 - r0) * n) };
            gemm_block(a, packed, bias, out_chunk, r0, seed, descending);
        });
    } else {
        gemm_block(a, packed, bias, out, 0, seed, descending);
    }
}

/// Computes output rows `row0 ..` of the product into `out_chunk`
/// (`out_chunk.len() / n` rows) in one pass over the weights, panel
/// groups last to first if `descending`, dispatching to the widest
/// vector ISA the host supports (AVX-512F, then AVX2, then the baseline
/// build).
///
/// The tiers are the *same* element-wise mul/add fold compiled with
/// wider lanes and a register tile sized to the tier's register file;
/// IEEE-754 multiplies and adds are value-identical at any vector width
/// and Rust never contracts them to FMA, so every tier produces
/// bit-identical output (`tests::every_isa_tier_agrees_bit_for_bit` and
/// the proptests in `tests/proptests.rs` pin this down).
fn gemm_block(
    a: &[f32],
    packed: &PackedWeights,
    bias: Option<&[f32]>,
    out_chunk: &mut [f32],
    row0: usize,
    seed: bool,
    descending: bool,
) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: the feature check above guarantees AVX-512F is
            // available.
            unsafe { gemm_block_avx512(a, packed, bias, out_chunk, row0, seed, descending) };
            return;
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            // SAFETY: the feature check above guarantees AVX2 is available.
            unsafe { gemm_block_avx2(a, packed, bias, out_chunk, row0, seed, descending) };
            return;
        }
    }
    gemm_block_baseline(a, packed, bias, out_chunk, row0, seed, descending);
}

/// AVX-512F tier: a panel step is one zmm, so of the 32 registers a
/// 4x4 / 3x4 / 2x4 tile holds at most 16 accumulators plus the 4 panel
/// vectors of the current `k` step. A lone row takes 4 panels too: four
/// independent add chains already outrun the weight stream.
///
/// # Safety
///
/// The caller must have checked that the host supports AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn gemm_block_avx512(
    a: &[f32],
    packed: &PackedWeights,
    bias: Option<&[f32]>,
    out_chunk: &mut [f32],
    row0: usize,
    seed: bool,
    descending: bool,
) {
    gemm_block_impl::<4, 4>(a, packed, bias, out_chunk, row0, seed, descending);
}

/// AVX2 tier: a panel step is two ymm, so of the 16 registers an Rx1
/// tile holds at most 8 accumulators plus the 2 panel vectors, and a
/// lone row takes 4 panels (8 accumulators).
///
/// # Safety
///
/// The caller must have checked that the host supports AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gemm_block_avx2(
    a: &[f32],
    packed: &PackedWeights,
    bias: Option<&[f32]>,
    out_chunk: &mut [f32],
    row0: usize,
    seed: bool,
    descending: bool,
) {
    gemm_block_impl::<1, 4>(a, packed, bias, out_chunk, row0, seed, descending);
}

/// Baseline tier (SSE2 on x86-64, NEON on aarch64): a panel step is
/// four 128-bit registers, so tiles are one panel wide and a lone row
/// takes 2 panels (8 accumulators).
fn gemm_block_baseline(
    a: &[f32],
    packed: &PackedWeights,
    bias: Option<&[f32]>,
    out_chunk: &mut [f32],
    row0: usize,
    seed: bool,
    descending: bool,
) {
    gemm_block_impl::<1, 2>(a, packed, bias, out_chunk, row0, seed, descending);
}

/// Portable body of the pass: panel groups of `P1` panels outermost, in
/// ascending or descending order, and inside a group every row block of
/// 1..=[`MR`] rows, full or tail, in register tiles of `PM` panels (2..=4
/// rows) or `P1` panels (a lone row). `PM` divides `P1`, so both tile
/// widths cut a group at the same panels and no output element is
/// touched twice. `#[inline(always)]` so each ISA wrapper specialises
/// the kernels under its own target features.
#[inline(always)]
fn gemm_block_impl<const PM: usize, const P1: usize>(
    a: &[f32],
    packed: &PackedWeights,
    bias: Option<&[f32]>,
    out_chunk: &mut [f32],
    row0: usize,
    seed: bool,
    descending: bool,
) {
    const { assert!(P1.is_multiple_of(PM)) };
    let (k, n) = (packed.k, packed.n);
    if n == 0 {
        return;
    }
    let w = Panels {
        k,
        n,
        lanes: packed.panels(),
    };
    let rows = out_chunk.len() / n;
    let panels = n.div_ceil(NR);
    let groups = panels.div_ceil(P1);
    for g in 0..groups {
        let p0 = P1 * if descending { groups - 1 - g } else { g };
        let group = p0..(p0 + P1).min(panels);
        #[cfg(test)]
        tests::GROUPS_VISITED.with_borrow_mut(|v| v.push(p0));
        let mut i0 = 0;
        while i0 < rows {
            let mr = MR.min(rows - i0);
            let a_blk = &a[(row0 + i0) * k..(row0 + i0 + mr) * k];
            let out_blk = &mut out_chunk[i0 * n..(i0 + mr) * n];
            match mr {
                4 => row_block::<4, PM>(a_blk, w, group.clone(), bias, out_blk, seed),
                3 => row_block::<3, PM>(a_blk, w, group.clone(), bias, out_blk, seed),
                2 => row_block::<2, PM>(a_blk, w, group.clone(), bias, out_blk, seed),
                _ => row_block::<1, P1>(a_blk, w, group.clone(), bias, out_blk, seed),
            }
            i0 += mr;
        }
    }
}

/// The packed `(k, n)` weights as the kernels see them.
#[derive(Clone, Copy)]
struct Panels<'a> {
    k: usize,
    n: usize,
    lanes: &'a [Lanes],
}

/// `R` rows against the panels of one group, `P` panels at a time.
#[inline(always)]
fn row_block<const R: usize, const P: usize>(
    a: &[f32],
    w: Panels<'_>,
    group: std::ops::Range<usize>,
    bias: Option<&[f32]>,
    out: &mut [f32],
    seed: bool,
) {
    for p0 in group.step_by(P) {
        kernel::<R, P>(a, w, p0, bias, out, seed);
    }
}

/// The micro-kernel: `R` rows of `a` against panels `p0 .. p0 + P`,
/// `R x P` accumulators of `NR` lanes held in registers across the whole
/// `k` loop, each the ascending-`k` fold of separate multiply and add.
///
/// A ragged last group (fewer than `P` panels left) re-reads the final
/// panel in the surplus positions and discards those accumulators, so
/// there is one kernel per row count and no per-panel tail.
#[inline(always)]
fn kernel<const R: usize, const P: usize>(
    a: &[f32],
    Panels { k, n, lanes }: Panels<'_>,
    p0: usize,
    bias: Option<&[f32]>,
    out: &mut [f32],
    seed: bool,
) {
    let last = n.div_ceil(NR) - 1;
    // Slices of length exactly `k`, so the `k` loop indexes them without
    // bounds checks. Rows `R..MR` alias a live row and are never read.
    let a_rows: [&[f32]; MR] = std::array::from_fn(|r| &a[(r % R) * k..][..k]);
    let panels: [&[Lanes]; P] = std::array::from_fn(|p| &lanes[(p0 + p).min(last) * k..][..k]);
    // Panels of this group that exist, and the output columns of one.
    let live = P.min(last + 1 - p0);
    let cols = |p: usize| ((p0 + p) * NR, NR.min(n - (p0 + p) * NR));

    let mut acc = [[[0.0f32; NR]; P]; MR];
    if seed {
        // Padded lanes (`w..NR`) stay zero and are never written back.
        for (r, acc_r) in acc.iter_mut().enumerate().take(R) {
            for (p, acc_rp) in acc_r.iter_mut().enumerate().take(live) {
                let (j0, w) = cols(p);
                acc_rp[..w].copy_from_slice(&out[r * n + j0..][..w]);
            }
        }
    }
    // One binding per row rather than one indexed array: LLVM promotes an
    // accumulator array to registers only while it is small, and the
    // 1 KiB of a 4x4 tile would be stored back to the stack every step.
    let [mut c0, mut c1, mut c2, mut c3] = acc;
    for kk in 0..k {
        let mut b = [[0.0f32; NR]; P];
        for p in 0..P {
            b[p] = panels[p][kk].0;
        }
        c0 = axpy(c0, a_rows[0][kk], &b);
        if R > 1 {
            c1 = axpy(c1, a_rows[1][kk], &b);
        }
        if R > 2 {
            c2 = axpy(c2, a_rows[2][kk], &b);
        }
        if R > 3 {
            c3 = axpy(c3, a_rows[3][kk], &b);
        }
    }
    for (r, acc_r) in [c0, c1, c2, c3].iter().enumerate().take(R) {
        for (p, acc_rp) in acc_r.iter().enumerate().take(live) {
            let (j0, w) = cols(p);
            let orow = &mut out[r * n + j0..][..w];
            match bias {
                Some(b) => {
                    for jj in 0..w {
                        orow[jj] = acc_rp[jj] + b[j0 + jj];
                    }
                }
                None => orow.copy_from_slice(&acc_rp[..w]),
            }
        }
    }
}

/// One `k` step of one row: `acc[p][j] += v * b[p][j]`, multiply and add
/// kept separate. By value, so the accumulators never have an address.
#[inline(always)]
fn axpy<const P: usize>(mut acc: [[f32; NR]; P], v: f32, b: &[[f32; NR]; P]) -> [[f32; NR]; P] {
    for p in 0..P {
        for jj in 0..NR {
            acc[p][jj] += v * b[p][jj];
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    thread_local! {
        /// First panel of every panel group `gemm_block_impl` visited on
        /// this thread, in order: what "one pass" and "serpentine" mean.
        pub(super) static GROUPS_VISITED: RefCell<Vec<usize>> = const { RefCell::new(Vec::new()) };
    }

    fn naive(a: &[f32], m: usize, k: usize, b: &[f32], n: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for kk in 0..k {
                let av = a[i * k + kk];
                for j in 0..n {
                    out[i * n + j] += av * b[kk * n + j];
                }
            }
        }
        out
    }

    fn seq(len: usize, scale: f32) -> Vec<f32> {
        (0..len).map(|i| ((i % 23) as f32 - 11.0) * scale).collect()
    }

    #[test]
    fn packed_matches_naive_on_awkward_shapes() {
        for &(m, k, n) in &[
            (1, 1, 1),
            (1, 7, 8),
            (3, 5, 9),
            (4, 8, 8),
            (5, 16, 17),
            (13, 31, 3),
            (64, 33, 40),
        ] {
            let a = seq(m * k, 0.25);
            let b = seq(k * n, 0.5);
            let packed = PackedWeights::pack(k, n, &b);
            let mut out = vec![0.0f32; m * n];
            gemm_into(&a, m, k, &packed, None, &mut out, None);
            assert_eq!(out, naive(&a, m, k, &b, n), "shape ({m},{k},{n})");
        }
    }

    type Tier = fn(&[f32], &PackedWeights, Option<&[f32]>, &mut [f32], usize, bool, bool);

    /// Every tier body this host can execute, narrowest first.
    fn tiers() -> Vec<(&'static str, Tier)> {
        let mut tiers: Vec<(&'static str, Tier)> = vec![("baseline", gemm_block_baseline)];
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                // SAFETY: AVX2 support was just checked.
                tiers.push(("avx2", |a, p, b, o, r0, s, d| unsafe {
                    gemm_block_avx2(a, p, b, o, r0, s, d)
                }));
            }
            if std::arch::is_x86_feature_detected!("avx512f") {
                // SAFETY: AVX-512F support was just checked.
                tiers.push(("avx512", |a, p, b, o, r0, s, d| unsafe {
                    gemm_block_avx512(a, p, b, o, r0, s, d)
                }));
            }
        }
        tiers
    }

    #[test]
    fn every_isa_tier_agrees_bit_for_bit() {
        // `gemm_block` only ever runs the widest tier the host has, so
        // call each body directly: every row-block height and tail, in
        // both directions, over widths that are ragged for each tier's
        // group (not a multiple of `NR` times 2 or 4), where on the
        // AVX2 and baseline tiers the lone-row tile of a tail block is
        // wider than the multi-row tile of the blocks before it.
        for m in 1..=9 {
            for &(k, n) in &[
                (1, 1),
                (5, 15),
                (9, 16),
                (33, 17),
                (12, 65),
                (7, 127),
                (3, 300),
            ] {
                let a = seq(m * k, 0.25);
                let b = seq(k * n, 0.5);
                let bias = seq(n, 1.3);
                let packed = PackedWeights::pack(k, n, &b);
                let want = naive(&a, m, k, &b, n);
                // Seeded with the product itself, bias at the end: the
                // fold over `[a|a] * [b;b]`. A seeded element touched
                // twice would fold `a * b` in a third time.
                let aa: Vec<f32> = a.chunks(k).flat_map(|r| [r, r].concat()).collect();
                let mut twice = naive(&aa, m, 2 * k, &[&b[..], &b[..]].concat(), n);
                for row in twice.chunks_mut(n) {
                    row.iter_mut().zip(&bias).for_each(|(o, bv)| *o += bv);
                }
                for (name, tier) in tiers() {
                    for descending in [false, true] {
                        let mut plain = vec![f32::NAN; m * n];
                        tier(&a, &packed, None, &mut plain, 0, false, descending);
                        assert_eq!(plain, want, "{name} ({m},{k},{n}) {descending}");
                        let mut seeded = want.clone();
                        tier(&a, &packed, Some(&bias), &mut seeded, 0, true, descending);
                        assert_eq!(seeded, twice, "{name} seeded ({m},{k},{n}) {descending}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_call_is_one_pass_and_consecutive_calls_alternate() {
        // 9 rows are three row blocks; 300 columns are 19 panels, a
        // ragged last group on every tier.
        let (m, k, n) = (9, 6, 300);
        let a = seq(m * k, 0.25);
        let b = seq(k * n, 0.5);
        let packed = PackedWeights::pack(k, n, &b);
        let want = naive(&a, m, k, &b, n);
        let mut passes = Vec::new();
        for _ in 0..4 {
            GROUPS_VISITED.with_borrow_mut(Vec::clear);
            let mut out = vec![f32::NAN; m * n];
            gemm_into(&a, m, k, &packed, None, &mut out, None);
            assert_eq!(out, want);
            passes.push(GROUPS_VISITED.with_borrow(Vec::clone));
        }
        let ascending = &passes[0];
        assert!(ascending.len() > 1, "several groups: {ascending:?}");
        assert!(
            ascending.windows(2).all(|w| w[0] < w[1]),
            "every group once, in order: {ascending:?}"
        );
        assert_eq!(ascending[0], 0);
        let descending: Vec<usize> = ascending.iter().rev().copied().collect();
        assert_eq!(passes[1], descending);
        assert_eq!(&passes[2], ascending);
        assert_eq!(passes[3], descending);
        // A clone starts its own serpentine.
        GROUPS_VISITED.with_borrow_mut(Vec::clear);
        gemm_into(&a, m, k, &packed.clone(), None, &mut vec![0.0; m * n], None);
        assert_eq!(&GROUPS_VISITED.with_borrow(Vec::clone), ascending);
        // A pooled call is one flip however many chunks it splits into:
        // four calls so far, so it runs ascending and the serial call
        // after it descending.
        let pool = ComputePool::new(3);
        let mut out = vec![f32::NAN; m * n];
        gemm_into(&a, m, k, &packed, None, &mut out, Some(&pool));
        assert_eq!(out, want);
        GROUPS_VISITED.with_borrow_mut(Vec::clear);
        gemm_into(&a, m, k, &packed, None, &mut out, None);
        assert_eq!(GROUPS_VISITED.with_borrow(Vec::clone), descending);
    }

    #[test]
    fn bias_is_added_once_after_the_fold() {
        let (m, k, n) = (6, 10, 11);
        let a = seq(m * k, 0.1);
        let b = seq(k * n, 0.3);
        let bias = seq(n, 2.0);
        let packed = PackedWeights::pack(k, n, &b);
        let mut out = vec![0.0f32; m * n];
        gemm_into(&a, m, k, &packed, Some(&bias), &mut out, None);
        let mut want = naive(&a, m, k, &b, n);
        for i in 0..m {
            for j in 0..n {
                want[i * n + j] += bias[j];
            }
        }
        assert_eq!(out, want);
    }

    #[test]
    fn pool_chunking_is_bitwise_identical() {
        let (m, k, n) = (37, 24, 19);
        let a = seq(m * k, 0.2);
        let b = seq(k * n, 0.4);
        let packed = PackedWeights::pack(k, n, &b);
        let mut serial = vec![0.0f32; m * n];
        gemm_into(&a, m, k, &packed, None, &mut serial, None);
        let pool = ComputePool::new(4);
        for _ in 0..8 {
            let mut par = vec![0.0f32; m * n];
            gemm_into(&a, m, k, &packed, None, &mut par, Some(&pool));
            assert_eq!(par, serial);
        }
    }

    #[test]
    fn acc_fold_split_is_bitwise_identical_to_one_fold() {
        // Split the inner dimension at an arbitrary boundary `e`: a
        // zero-seeded GEMM over the first `e` terms followed by an
        // accumulator-seeded continuation over the rest (bias at the
        // end) must reproduce the single full fold bit for bit — the
        // property the resident plane's cached input projection relies
        // on.
        for &(m, e, h, n) in &[(1, 1, 1, 1), (3, 5, 7, 9), (6, 16, 16, 64), (13, 7, 31, 20)] {
            let k = e + h;
            let a = seq(m * k, 0.23);
            let b = seq(k * n, 0.41);
            let bias = seq(n, 1.7);
            let full = PackedWeights::pack(k, n, &b);
            let mut want = vec![0.0f32; m * n];
            gemm_into(&a, m, k, &full, Some(&bias), &mut want, None);

            // Deinterleave a into its x (first e cols) and h halves.
            let ax: Vec<f32> = (0..m).flat_map(|i| a[i * k..i * k + e].to_vec()).collect();
            let ah: Vec<f32> = (0..m)
                .flat_map(|i| a[i * k + e..(i + 1) * k].to_vec())
                .collect();
            let wx = PackedWeights::pack(e, n, &b[..e * n]);
            let wh = PackedWeights::pack(h, n, &b[e * n..]);
            let mut got = vec![0.0f32; m * n];
            gemm_into(&ax, m, e, &wx, None, &mut got, None);
            gemm_acc_into(&ah, m, h, &wh, Some(&bias), &mut got, None);
            assert_eq!(got, want, "split ({m},{e}+{h},{n})");
        }
    }

    #[test]
    fn acc_pool_chunking_is_bitwise_identical() {
        let (m, k, n) = (37, 24, 19);
        let a = seq(m * k, 0.2);
        let b = seq(k * n, 0.4);
        let packed = PackedWeights::pack(k, n, &b);
        let mut serial = seq(m * n, 0.05);
        let par_init = serial.clone();
        gemm_acc_into(&a, m, k, &packed, None, &mut serial, None);
        let pool = ComputePool::new(4);
        for _ in 0..8 {
            let mut par = par_init.clone();
            gemm_acc_into(&a, m, k, &packed, None, &mut par, Some(&pool));
            assert_eq!(par, serial);
        }
    }

    #[test]
    fn unpack_returns_the_packed_bits() {
        // Ragged and exact widths, one-row and empty matrices, and values
        // `==` cannot tell apart or does not equal: `-0.0` and NaNs with
        // payloads and either sign.
        let specials = [
            -0.0f32,
            f32::from_bits(0x7fc0_0001),
            f32::from_bits(0xffa0_0002),
            f32::NAN,
            f32::INFINITY,
            f32::MIN_POSITIVE / 2.0,
        ];
        for &(k, n) in &[
            (1, 1),
            (1, 17),
            (3, 16),
            (5, 15),
            (2, 33),
            (4, 1000),
            (0, 3),
        ] {
            let mut b = seq(k * n, 0.5);
            for (i, &v) in specials.iter().enumerate() {
                if let Some(slot) = b.get_mut(i * 7) {
                    *slot = v;
                }
            }
            let packed = PackedWeights::pack(k, n, &b);
            let back = packed.unpack();
            assert_eq!(back.shape(), (k, n));
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(back.as_slice()), bits(&b), "({k},{n})");
            assert!(PackedWeights::from(&back).bits_eq(&packed), "({k},{n})");
        }
    }

    #[test]
    fn bits_eq_compares_shape_and_every_bit() {
        let b = seq(5 * 15, 0.5);
        let packed = PackedWeights::pack(5, 15, &b);
        assert!(packed.bits_eq(&packed.clone()));
        assert!(!packed.bits_eq(&PackedWeights::pack(15, 5, &b)));
        assert!(!packed.bits_eq(&PackedWeights::pack(3, 25, &b)));
        for (i, v) in [(0, 1.0f32), (11, -0.0), (40, f32::NAN)] {
            let mut changed = b.clone();
            if changed[i].to_bits() == v.to_bits() {
                changed[i] = 7.0;
            } else {
                changed[i] = v;
            }
            assert!(
                !packed.bits_eq(&PackedWeights::pack(5, 15, &changed)),
                "{i}"
            );
        }
        // A NaN equals its copy.
        let mut nan = b.clone();
        nan[3] = f32::NAN;
        let nan = PackedWeights::pack(5, 15, &nan);
        assert!(nan.bits_eq(&nan.clone()));
    }

    #[test]
    fn zero_k_with_bias_writes_bias() {
        let packed = PackedWeights::pack(0, 3, &[]);
        let bias = [1.0, 2.0, 3.0];
        let mut out = vec![9.0f32; 6];
        gemm_into(&[], 2, 0, &packed, Some(&bias), &mut out, None);
        assert_eq!(out, vec![1.0, 2.0, 3.0, 1.0, 2.0, 3.0]);
    }
}
