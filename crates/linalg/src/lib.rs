//! # qsc-linalg
//!
//! Minimal dense and sparse linear algebra substrate for the LP solvers in
//! `qsc-lp`. Implemented from scratch (no external linear-algebra crates):
//!
//! * [`DenseMatrix`] — row-major dense matrices with matrix/vector products.
//! * [`Cholesky`] — Cholesky factorization with optional diagonal
//!   regularization, used by the interior-point normal equations.
//! * [`SparseMatrix`] — CSR sparse matrices for LP constraint storage.
//! * [`vec_ops`] — small vector helpers (dot, norms, axpy).
//! * [`lanes`] — the lane-kernel substrate under `vec_ops` (and under
//!   `qsc_core::kernels`): fixed-width unrolled f64 blocks that
//!   autovectorize on stable Rust, with a pinned canonical reduction order
//!   for sums and sequential-semantics min/max scans (see the module docs
//!   for the determinism contract).

#![forbid(unsafe_code)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod cholesky;
pub mod dense;
pub mod lanes;
pub mod sparse;
pub mod vec_ops;

pub use cholesky::Cholesky;
pub use dense::DenseMatrix;
pub use sparse::SparseMatrix;
