//! Dense `f32` tensor math substrate for the BatchMaker reproduction.
//!
//! The paper's workloads (LSTM, Seq2Seq, TreeLSTM with hidden size 1024)
//! only require dense 2-D tensors whose first dimension is the batch
//! dimension, plus a handful of kernels: matrix multiplication, bias
//! addition, element-wise activations, row gather/scatter (the "gather"
//! memory copies of §4.3), concatenation, row-wise argmax/softmax, and
//! embedding lookup.
//!
//! This crate implements exactly those kernels in Rust with no external
//! BLAS, so the whole repository is self-contained. The matrix multiply
//! packs the (immutable, per-cell-type) weight operand into cache-blocked
//! panels once — cells keep only the panels — and runs a
//! register-accumulating micro-kernel over them
//! ([`gemm`]), optionally chunked across a persistent [`ComputePool`];
//! results are bitwise identical to the serial reference fold in every
//! configuration. A [`Scratch`] arena lets steady-state serving recycle
//! batch buffers instead of allocating per step. The serving
//! *experiments* use the calibrated device cost model in `bm-device`
//! instead of wall-clock CPU math.
//!
//! # Examples
//!
//! ```
//! use bm_tensor::{ops, Matrix, PackedWeights};
//!
//! let x = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let w = PackedWeights::from(&Matrix::eye(2));
//! let mut y = Matrix::zeros(2, 2);
//! ops::affine_into(&x, &w, &Matrix::zeros(1, 2), &mut y);
//! assert_eq!(y, x);
//! assert_eq!(w.unpack(), Matrix::eye(2));
//! ```

pub mod activation;
mod error;
mod gates;
pub mod gemm;
mod init;
pub mod io;
mod matrix;
pub mod ops;
pub mod pool;
mod scratch;

pub use error::TensorError;
pub use gemm::PackedWeights;
pub use init::{xavier_uniform, xavier_uniform_rows};
pub use matrix::Matrix;
pub use pool::ComputePool;
pub use scratch::Scratch;
