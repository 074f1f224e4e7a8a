//! # perfmodel — calibrated performance model of the paper's platforms
//!
//! Substitution (DESIGN.md §2): the paper's Figs. 9–11 and Table I were
//! measured on Fugaku (up to 960 nodes) and an A100 cluster (up to 192
//! nodes). This crate prices the *same algorithm schedules the real code
//! executes* (kernel counts from the `ptim` implementation, communication
//! patterns from `mpisim`) with a roofline model of each platform and
//! closed-form network costs, reproducing the figures' shape: who wins,
//! by what factor, and where the crossovers fall.
//!
//! * [`platform`] — A64FX / A100 rank models (peak, bandwidth, network).
//! * [`workload`] — the silicon systems of Sec. VI.
//! * [`comm`] — bcast/ring/allreduce/alltoallv closed forms, cross-
//!   validated against `mpisim` runs in the integration suite.
//! * [`schedule`] — per-step cost of each optimization stage
//!   (BL → Diag → ACE → Ring → Async; Fig. 9, Table I).
//! * [`scaling`] — strong/weak scaling sweeps (Figs. 10, 11).
//! * [`memory`] — per-rank footprint and the SHM mechanism's effect
//!   (Sec. IV-B3, capacity limits of Fig. 11).
//! * [`calibration`] — every numeric claim of the evaluation as data,
//!   with a model self-check separating fitted anchors from predictions.

pub mod calibration;
pub mod comm;
pub mod memory;
pub mod platform;
pub mod scaling;
pub mod schedule;
pub mod workload;

pub use platform::Platform;
pub use scaling::{parallel_efficiency, strong_scaling, weak_scaling, ScalePoint};
pub use schedule::{
    dist_step_sim_time, dist_step_sim_time_pw, step_time, CommBreakdown, DistStepShape,
    StepBreakdown, Variant,
};
pub use workload::Workload;
