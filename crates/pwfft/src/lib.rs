//! # pwfft — FFTs for plane-wave DFT grids
//!
//! A self-contained mixed-radix complex FFT library sized for the grids of
//! the PT-IM rt-TDDFT reproduction:
//!
//! * [`plan`] — 1D plans (radix 2/3/4/5 kernels + generic prime radix),
//!   unnormalized forward / `1/n`-normalized inverse, allocation-free
//!   `_with` entry points for hot loops.
//! * [`fft3`] — in-place 3D transforms over row-major grids with
//!   backend-routed batched entry points
//!   ([`fft3::Fft3::forward_many_with`]) mirroring the paper's
//!   multi-batch cuFFT strategy: a [`pwnum::backend::Backend`] owns the
//!   slab decomposition and thread count (DESIGN.md §3).
//!
//! * [`plan32`] / [`fft32`] — the single-precision twins ([`Plan32`],
//!   [`Fft32`]): fp32 twiddles and butterflies with the same mixed-radix
//!   structure, feeding the mixed-precision exchange pipeline through
//!   [`pwnum::backend::Backend::fused_pair_solve32`] at half the memory
//!   traffic and twice the SIMD width.
//!
//! * `tile` (private) — the one kernel behind every 3-D pass of both
//!   precisions: each plan compiled into a flat schedule, 16 lines at a
//!   time gathered from the strided grid into an L1 tile, all butterfly
//!   levels there, one store back (DESIGN.md §11). Written once over the
//!   real scalar; bitwise equal to the per-line 1-D plans.
//!
//! All grid sizes used by the physics code are 2/3/5-smooth, matching the
//! paper's production grids (e.g. 60×90×120 for 1536 Si atoms).

pub mod fft3;
pub mod fft32;
pub mod plan;
pub mod plan32;
mod tile;

pub use fft3::{ConvolvePass, Fft3, FftPass};
pub use fft32::{ConvolvePass32, Fft32};
pub use plan::Plan;
pub use plan32::Plan32;
