//! # pwdft — plane-wave Kohn–Sham DFT substrate
//!
//! The Rust analog of the PWDFT package the paper builds on: everything
//! needed to prepare and propagate finite-temperature hybrid-functional
//! electronic structure on a plane-wave grid.
//!
//! * [`lattice`] — silicon supercells (the paper's 48–3072-atom systems).
//! * [`gvec`] — plane-wave grids, cutoff spheres, kinetic operator.
//! * [`pseudo`] — analytic local pseudopotential (ONCV substitute).
//! * [`ewald`] — ion–ion Ewald summation.
//! * [`xc`] — LDA exchange-correlation (Slater + PZ81).
//! * [`wavefunction`] — band-major orbital blocks, orthonormalization.
//! * [`density`] — mixed-state density (baseline pair loop vs the paper's
//!   σ-diagonalization, Eq. 11–12).
//! * [`fock`] — screened Fock exchange: Alg. 2 baseline (O(N³) FFTs) and
//!   the diagonalized form (Eq. 13, O(N²) FFTs).
//! * [`ace`] — adaptively compressed exchange (Sec. IV-A2).
//! * [`hamiltonian`] — assembled `HΦ` with pluggable exchange modes.
//! * [`davidson`] — blocked preconditioned eigensolver.
//! * [`smearing`] — Fermi–Dirac occupations (8000 K production setting).
//! * [`spectral`] — density of states, gap detection, fractional-manifold
//!   diagnostics.
//! * [`mixing`] — Anderson mixing (history 20, as in Sec. VI).
//! * [`scf`] — LDA + hybrid(ACE) ground-state drivers producing the
//!   rt-TDDFT initial state `(Φ(0), σ(0))`.
//! * [`system`] — bundled static system data.
//! * [`energy`] — total-energy bookkeeping.

pub mod ace;
pub mod davidson;
pub mod density;
pub mod energy;
pub mod ewald;
pub mod fock;
pub mod gvec;
pub mod hamiltonian;
pub mod lattice;
pub mod mixing;
pub mod pseudo;
pub mod scf;
pub mod smearing;
pub mod spectral;
pub mod system;
pub mod wavefunction;
pub mod xc;

pub use ace::AceOperator;
pub use fock::{FockApplyStats, FockOperator, FockOptions, SolveCounters};
pub use gvec::PwGrid;
pub use hamiltonian::{Exchange, Hamiltonian};
pub use lattice::Cell;
pub use scf::{scf_hybrid, scf_lda, GroundState, HybridConfig, ScfConfig};
pub use system::DftSystem;
pub use wavefunction::Wavefunction;
