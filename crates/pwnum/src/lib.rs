//! # pwnum — numerical kernels for the PT-IM rt-TDDFT reproduction
//!
//! Self-contained complex arithmetic and dense linear algebra, written for
//! the sizes this code base actually uses:
//!
//! * [`complex`] — the `Complex64` scalar type.
//! * [`cvec`] — BLAS-1 kernels over coefficient/grid vectors (the inner
//!   loops of the Fock exchange operator and the mixers).
//! * [`cmat`] — dense row-major matrices for N×N subspace objects
//!   (σ, overlap matrices, rotations).
//! * [`gemm`] — op-aware matrix products with thread parallelism.
//! * [`bands`] — tall-and-skinny kernels over band-major wavefunction
//!   blocks (overlap `Φ^HΦ`, rotations `ΦQ`).
//! * [`eig`] — Hermitian eigendecomposition (Householder tridiagonal
//!   reduction + implicit-shift QL, phase-gauged eigenvectors), used to
//!   diagonalize the occupation matrix σ (paper Eq. 11).
//! * [`chol`] — Cholesky factorization/solves (orthonormalization,
//!   projector inverses, ACE construction, the Anderson mixer's
//!   regularized normal equations).
//! * [`parallel`] — scoped-thread `parallel for` helpers (the OpenMP
//!   analog of the paper's node-level parallelism).
//! * [`backend`] — the hot kernels, one implementation each: GEMM,
//!   band overlap/rotations (one register-tiled micro-kernel in the
//!   private `tiled` module, bit for bit the scalar kernels above),
//!   batched grid transforms, the fused exchange pair pipelines, and the
//!   process-wide buffer pool; each opens its `gemm.*` / `fft.*` /
//!   `xch.*` span.
//! * [`precision`] — the mixed-precision subsystem: the `Complex32`
//!   scalar with `CVec32`/`CMat32` storage, demote/promote conversion
//!   kernels, two-sum-compensated fp64 accumulation, and the
//!   [`PrecisionPolicy`] mapping pipeline stages to fp64/fp32 — the
//!   paper's fp32 exchange/FFT playbook for throughput hardware.
//!
//! No external math dependencies: every routine is implemented here and
//! validated by unit + property tests.

pub mod backend;
pub mod bands;
pub mod chol;
pub mod cmat;
pub mod complex;
pub mod cvec;
pub mod eig;
pub mod gemm;
pub mod parallel;
pub mod persist;
pub mod precision;
mod tiled;
mod waves;

pub use backend::PairTask;
pub use cmat::CMat;
pub use complex::{c64, Complex64};
pub use eig::{eigh, EigH};
pub use precision::{c32, CMat32, CVec32, Complex32, PrecisionPolicy, StagePrecision};
