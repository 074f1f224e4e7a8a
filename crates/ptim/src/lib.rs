//! # ptim — the paper's contribution: finite-temperature rt-TDDFT with
//! hybrid functional via parallel-transport implicit-midpoint integration
//!
//! Implements, on top of the [`pwdft`] substrate:
//!
//! * [`ptim`] — the PT-IM propagator (paper Alg. 1): implicit midpoint in
//!   the parallel-transport gauge, fixed point solved with Anderson
//!   mixing, dense (σ-diagonalized) Fock exchange.
//! * [`ptim_ace`] — PT-IM-ACE (Fig. 4b): double SCF loop whose predictor
//!   and inner loop are PT-IM's, with frozen low-rank ACE exchange.
//! * [`rk4`] — the RK4 reference propagator (Fig. 7 baseline).
//! * [`laser`] — the 380 nm pulse and the length-gauge sawtooth operator.
//! * [`observables`] — dipole/energy/σ trajectory recording (Figs. 7, 8).
//! * [`distributed`] — band-parallel PT-IM over [`mpisim`] with the
//!   paper's wavefunction-exchange strategies (Bcast, ring, asynchronous
//!   ring, and the ring-pipelined overlapped exchange) and SHM-backed
//!   σ/overlap matrices. It runs the one PT-IM body of [`ptim`] on this
//!   rank's band block. Band blocks move between ranks on one
//!   crate-private ring driver (`grid2d`, the band-block ring), which
//!   also runs the Fock exchange of every
//!   [`distributed::ExchangeStrategy`].
//! * [`resilience`] — checkpoint/restart (versioned, checksummed,
//!   atomically written snapshots of `(Φ, σ, t)`), the step-level
//!   recovery ladder (fp64 promotion → dt halving → checkpoint restore),
//!   and the resilient run driver (DESIGN.md §12).
//!
//! All three propagators run in one step envelope (solve and pool
//! accounting, the NaN-input guard, the fp32 drift guard). The PT ones
//! are written over a crate-private band-space interface holding one PT
//! map (projection included), one midpoint fixed point and one Löwdin
//! step; DESIGN.md §3 tables which propagator uses which.
//!
//! Everything is exercised against invariants (trace/Hermiticity of σ,
//! orthonormality, energy conservation, gauge invariance) and against the
//! RK4 reference.

pub mod distributed;
pub mod engine;
mod grid2d;
pub mod laser;
pub mod observables;
pub mod propagate;
pub mod ptim;
pub mod ptim_ace;
pub mod resilience;
pub mod rk4;
mod space;
pub mod state;

pub use engine::{HybridParams, TdEngine};
pub use laser::LaserPulse;
pub use observables::Recorder;
pub use propagate::StepStats;
pub use resilience::{
    step_with_recovery, Checkpoint, CheckpointError, CheckpointMeta, CheckpointPolicy,
    Propagator, RecoveryPolicy,
};
pub use ptim::{ptim_step, PtimConfig};
pub use ptim_ace::{ptim_ace_step, PtimAceConfig};
pub use rk4::{rk4_step, Rk4Config};
pub use state::TdState;
