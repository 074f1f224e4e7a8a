//! # pwdft-repro
//!
//! Umbrella crate for the Rust reproduction of *"Large Scale
//! Finite-Temperature Real-Time Time Dependent Density Functional Theory
//! Calculation with Hybrid Functional on ARM and GPU Systems"* (IPPS 2025).
//!
//! The workspace implements, from scratch:
//!
//! * [`pwnum`] — complex arithmetic, dense linear algebra, and the
//!   pluggable compute-backend layer ([`pwnum::backend`]) every hot
//!   primitive dispatches through (the product runs the
//!   accelerator-style `Blocked`; the scalar/threaded `Reference` is
//!   the test oracle),
//! * [`pwfft`] — mixed-radix FFTs over plane-wave grids, every 3-D
//!   pass one L1-tiled kernel, with backend-routed batched transforms,
//! * [`mpisim`] — a thread-backed MPI-like runtime with a virtual-clock
//!   network model,
//! * [`pwdft`] — the plane-wave Kohn–Sham DFT substrate (Hamiltonian,
//!   SCF, screened Fock exchange, ACE),
//! * [`ptim`] — the paper's contribution: PT-IM and PT-IM-ACE
//!   finite-temperature rt-TDDFT propagators, serial and distributed,
//! * [`perfmodel`] — calibrated performance models of the Fugaku (ARM)
//!   and A100 (GPU) platforms used for the scaling studies,
//! * [`pwobs`] — the unified tracing/metrics registry every layer
//!   reports into (scoped spans, counters/gauges, chrome-trace /
//!   Fig. 9 phase-table / JSONL-stream exporters).
//!
//! See `DESIGN.md` for the system inventory and the per-experiment index,
//! and `EXPERIMENTS.md` for paper-vs-measured results.

pub use mpisim;
pub use perfmodel;
pub use ptim;
pub use pwdft;
pub use pwfft;
pub use pwnum;
pub use pwobs;
