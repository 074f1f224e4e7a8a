//! Shared machinery for the time propagators: density/Hamiltonian
//! assembly at a given `(Φ, σ, t)` and total-energy evaluation.

use crate::laser::{external_potential, sawtooth_x, LaserPulse};
use crate::state::TdState;
use pwdft::density::{density_from_natural_with, natural_orbitals_with, NaturalOrbitals};
use pwdft::energy::{external_energy, kinetic_energy, EnergyBreakdown};
use pwdft::fock::SolveCounters;
use pwdft::hamiltonian::{build_hxc_with, Exchange, Hamiltonian};
use pwdft::{DftSystem, FockApplyStats, FockOperator, FockOptions, Wavefunction};
use pwnum::backend::{default_backend, BackendHandle};
use pwnum::cmat::CMat;
use pwnum::Complex64;
use std::sync::Arc;

/// Hybrid-functional parameters for the dynamics.
#[derive(Clone, Copy, Debug)]
pub struct HybridParams {
    /// Mixing fraction α (paper: 0.25). Zero disables Fock exchange.
    pub alpha: f64,
    /// Screening ω (bohr⁻¹; HSE06: 0.106).
    pub omega: f64,
    /// Exchange-operator options (occupation screening cutoff, precision
    /// policy), forwarded to every exchange evaluation the propagators
    /// trigger.
    pub fock: FockOptions,
}

impl Default for HybridParams {
    fn default() -> Self {
        HybridParams {
            alpha: 0.25,
            omega: pwdft::fock::HSE_OMEGA,
            fock: FockOptions::default(),
        }
    }
}

/// Bound engine: system + laser + functional choice.
pub struct TdEngine<'s> {
    /// The static system.
    pub sys: &'s DftSystem,
    /// The laser pulse.
    pub laser: LaserPulse,
    /// Hybrid parameters.
    pub hybrid: HybridParams,
    /// Compute backend every hot primitive of the propagators routes
    /// through (FFT batches, Fock solves, band ops, subspace GEMMs).
    pub backend: BackendHandle,
    /// Shared precision counters: every Fock operator the engine
    /// constructs records its fp64/fp32 Poisson solves here, and the
    /// propagators snapshot the totals around each step to fill
    /// [`StepStats`](crate::StepStats).
    pub counters: Arc<SolveCounters>,
    /// Periodic-checkpoint policy consulted by the
    /// [`resilience::run`](crate::resilience::run) driver (`None` = no
    /// checkpointing). Install with [`Self::with_checkpoints`].
    pub checkpoints: Option<crate::resilience::CheckpointPolicy>,
    /// Cached sawtooth x-coordinate.
    x_saw: Vec<f64>,
}

/// Everything derived from one `(Φ, σ, t)` evaluation point. In the
/// distributed step the orbitals are this rank's bands; occupations,
/// `Q`, density and potentials are complete on every rank.
pub struct EvalPoint {
    /// Natural orbitals and occupations of σ.
    pub nat: NaturalOrbitals,
    /// Natural orbitals in real space.
    pub nat_r: Vec<pwnum::Complex64>,
    /// Electron density.
    pub rho: Vec<f64>,
    /// Hartree + XC potential.
    pub vhxc: Vec<f64>,
    /// External (laser) potential.
    pub vext: Vec<f64>,
    /// Hartree energy.
    pub e_hartree: f64,
    /// Semi-local XC energy.
    pub e_xc: f64,
}

impl<'s> TdEngine<'s> {
    /// Creates the engine on the process default backend.
    pub fn new(sys: &'s DftSystem, laser: LaserPulse, hybrid: HybridParams) -> Self {
        Self::with_backend(sys, laser, hybrid, default_backend().clone())
    }

    /// Creates the engine on an explicit compute backend (the paper's
    /// ARM-vs-GPU split: pick per `perfmodel::platform`).
    pub fn with_backend(
        sys: &'s DftSystem,
        laser: LaserPulse,
        hybrid: HybridParams,
        backend: BackendHandle,
    ) -> Self {
        let x_saw = sawtooth_x(&sys.grid);
        TdEngine {
            sys,
            laser,
            hybrid,
            backend,
            counters: Arc::new(SolveCounters::default()),
            checkpoints: None,
            x_saw,
        }
    }

    /// Installs a periodic-checkpoint policy (consumed by
    /// [`resilience::run`](crate::resilience::run)).
    pub fn with_checkpoints(mut self, policy: crate::resilience::CheckpointPolicy) -> Self {
        self.checkpoints = Some(policy);
        self
    }

    /// A Fock operator on the engine's grid, backend, and scheduler
    /// options — the one construction every exchange evaluation shares.
    /// Solve counts route into the engine's shared [`SolveCounters`].
    pub fn fock_operator(&self) -> FockOperator<'s> {
        FockOperator::with_options(
            &self.sys.grid,
            self.hybrid.omega,
            self.backend.clone(),
            self.hybrid.fock,
        )
        .with_counters(self.counters.clone())
    }

    /// The same engine with the precision policy promoted to all-fp64 —
    /// what the drift monitor reruns a tripped step on. Shares the
    /// counters (and the backend) so cost accounting stays unified.
    pub fn promoted(&self) -> TdEngine<'s> {
        let mut hybrid = self.hybrid;
        hybrid.fock.precision = hybrid.fock.precision.promoted();
        TdEngine {
            sys: self.sys,
            laser: self.laser.clone(),
            hybrid,
            backend: self.backend.clone(),
            counters: self.counters.clone(),
            checkpoints: self.checkpoints.clone(),
            x_saw: self.x_saw.clone(),
        }
    }

    /// The laser potential at time `t`.
    pub fn vext_at(&self, t: f64) -> Vec<f64> {
        let mut v = vec![0.0; self.sys.grid.len()];
        external_potential(&self.x_saw, self.laser.field(t), &mut v);
        v
    }

    /// Evaluates density, potentials and natural orbitals at `(Φ, σ, t)`.
    pub fn eval(&self, phi: &Wavefunction, sigma: &CMat, t: f64) -> EvalPoint {
        let _s = pwobs::span("grid.eval");
        let be = &*self.backend;
        let nat = natural_orbitals_with(be, phi, sigma);
        let rho = density_from_natural_with(be, &self.sys.grid, &self.sys.fft, &nat);
        self.point(nat, rho, t)
    }

    /// The evaluation point of natural orbitals with their density at
    /// time `t`: adds the real-space orbitals, potentials and energies.
    pub(crate) fn point(&self, nat: NaturalOrbitals, rho: Vec<f64>, t: f64) -> EvalPoint {
        let nat_r = nat.phi.to_real_all_with(&*self.backend, &self.sys.fft);
        let hxc = build_hxc_with(&*self.backend, &self.sys.grid, &self.sys.fft, &rho);
        let (vhxc, vext, e_hartree, e_xc) = (hxc.vhxc, self.vext_at(t), hxc.e_hartree, hxc.e_xc);
        EvalPoint { nat, nat_r, rho, vhxc, vext, e_hartree, e_xc }
    }

    /// The Hamiltonian at the potentials `(vhxc, vext)` with the given
    /// exchange term; a dense term brings the engine's Fock operator.
    pub(crate) fn hamiltonian(&self, vhxc: &[f64], vext: &[f64], x: Exchange) -> Hamiltonian<'s> {
        let fock = matches!(x, Exchange::Dense { .. }).then(|| self.fock_operator());
        Hamiltonian::with_backend(
            &self.sys.grid,
            &self.sys.vloc,
            vhxc,
            vext,
            self.hybrid.alpha,
            x,
            fock,
            self.backend.clone(),
        )
    }

    /// Builds the dense-exchange Hamiltonian at an evaluation point.
    /// Every `apply` of the result performs one full `VxΨ` (the paper's
    /// expensive operation) on an arbitrary block Ψ: the asymmetric,
    /// N²-solve enumerator. The propagators apply H only to the block the
    /// point was evaluated at, and take the pair-symmetric self-image form
    /// of that apply instead (DESIGN.md §3).
    pub fn hamiltonian_dense(&self, ev: &EvalPoint) -> Hamiltonian<'s> {
        let exchange = if self.hybrid.alpha != 0.0 {
            Exchange::Dense { nat_r: ev.nat_r.clone(), occ: ev.nat.occ.clone() }
        } else {
            Exchange::None
        };
        self.hamiltonian(&ev.vhxc, &ev.vext, exchange)
    }

    /// Builds a Hamiltonian using a *fixed* ACE exchange operator (the
    /// inner-loop Hamiltonian of PT-IM-ACE). The operator is shared, not
    /// copied: pass an `Arc` to build many Hamiltonians on one ACE, or an
    /// owned operator for a single use.
    pub fn hamiltonian_ace(
        &self,
        ev: &EvalPoint,
        ace: impl Into<Arc<pwdft::AceOperator>>,
    ) -> Hamiltonian<'s> {
        self.hamiltonian(&ev.vhxc, &ev.vext, Exchange::Ace(ace.into()))
    }

    /// Full exchange images `W = VxΦ` for the state (used to build ACE).
    /// Returns `(W, E_x)` with `W` masked to the cutoff sphere.
    ///
    /// One pair-symmetric apply on the natural orbitals covers both
    /// outputs: `Vx Φ̃` gives `Ex` directly, and by linearity
    /// `Vx Φ = (Vx Φ̃) Qᴴ` — a band rotation instead of the second (and
    /// previously asymmetric, unhalved) Fock application.
    pub fn exchange_images(&self, phi: &Wavefunction, sigma: &CMat) -> (Wavefunction, f64) {
        let (w, ex, _) = self.exchange_images_stats(phi, sigma);
        (w, ex)
    }

    /// [`Self::exchange_images`] also returning the scheduler's
    /// [`FockApplyStats`], so callers with a
    /// nonzero screening cutoff can read the dropped weight
    /// (`skipped_weight`) and bound the approximation error.
    pub fn exchange_images_stats(
        &self,
        phi: &Wavefunction,
        sigma: &CMat,
    ) -> (Wavefunction, f64, FockApplyStats) {
        let be = &*self.backend;
        let nat = natural_orbitals_with(be, phi, sigma);
        let nat_r = nat.phi.to_real_all_with(be, &self.sys.fft);
        self.images(&nat, &nat_r)
    }

    /// The masked images `W = VxΦ` of the block `Φ = Φ̃Qᴴ` whose natural
    /// orbitals are `nat` (`nat_r` in real space), with `E_x` and the
    /// apply's stats: one pair-symmetric apply on `Φ̃`, then one real-space
    /// rotation by `Qᴴ` (DESIGN.md §3).
    pub(crate) fn images(
        &self,
        nat: &NaturalOrbitals,
        nat_r: &[Complex64],
    ) -> (Wavefunction, f64, FockApplyStats) {
        let be = &*self.backend;
        let fock = self.fock_operator();
        let (vx_nat, stats) = fock.apply_pure_stats(nat_r, &nat.occ);
        // Exchange energy in the natural basis: Ex = Σ d_i <φ̃_i|Vx|φ̃_i>.
        let ex = fock.exchange_energy(nat_r, &nat.occ, &vx_nat, self.sys.grid.dv());
        // Rotate the images back to the original orbital gauge.
        let mut vx_r = vec![Complex64::ZERO; vx_nat.len()];
        be.rotate(&vx_nat, &nat.q.herm(), self.sys.grid.len(), &mut vx_r);
        let mut w = Wavefunction::from_real_with(be, &self.sys.grid, &self.sys.fft, vx_r);
        w.mask(&self.sys.grid);
        (w, ex, stats)
    }

    /// Electronic dipole along x: `d_x = -∫ x_saw ρ dV`.
    pub fn dipole_x(&self, rho: &[f64]) -> f64 {
        -self
            .x_saw
            .iter()
            .zip(rho)
            .map(|(x, r)| x * r)
            .sum::<f64>()
            * self.sys.grid.dv()
    }

    /// Total energy of a state (hartree). One pair-symmetric Fock
    /// evaluation when hybrid exchange is active.
    pub fn total_energy(&self, state: &TdState) -> EnergyBreakdown {
        let ev = self.eval(&state.phi, &state.sigma, state.time);
        let exact_exchange = if self.hybrid.alpha != 0.0 {
            self.hybrid.alpha * self.images(&ev.nat, &ev.nat_r).1
        } else {
            0.0
        };
        EnergyBreakdown {
            kinetic: kinetic_energy(&self.sys.grid, &ev.nat.phi, &ev.nat.occ),
            eei: self.sys.eei_energy(&ev.rho),
            hartree: ev.e_hartree,
            xc: ev.e_xc,
            exact_exchange,
            external: external_energy(&self.sys.grid, &ev.vext, &ev.rho),
            ewald: self.sys.e_ewald,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwdft::Cell;
    use pwnum::c64;

    fn engine_fixture(alpha: f64) -> (DftSystem, LaserPulse) {
        let sys = DftSystem::with_dims(Cell::silicon_supercell(1, 1, 1), 2.0, [6, 6, 6]);
        let _ = alpha;
        (sys, LaserPulse::off())
    }

    fn toy_state(sys: &DftSystem, n: usize) -> TdState {
        let phi = Wavefunction::random(&sys.grid, n, 17);
        let mut sigma = CMat::from_real_diag(&vec![0.6; n]);
        sigma[(0, 1)] = c64(0.1, 0.05);
        sigma[(1, 0)] = c64(0.1, -0.05);
        TdState { phi, sigma, time: 0.0 }
    }

    #[test]
    fn eval_density_integrates_to_trace() {
        let (sys, laser) = engine_fixture(0.0);
        let eng = TdEngine::new(&sys, laser, HybridParams { alpha: 0.0, omega: 0.1, ..Default::default() });
        let st = toy_state(&sys, 4);
        let ev = eng.eval(&st.phi, &st.sigma, 0.0);
        let ne = pwdft::density::electron_count(&sys.grid, &ev.rho);
        assert!((ne - st.electron_count()).abs() < 1e-8);
    }

    #[test]
    fn dipole_of_symmetric_density_vanishes() {
        let (sys, laser) = engine_fixture(0.0);
        let eng = TdEngine::new(&sys, laser, HybridParams { alpha: 0.0, omega: 0.1, ..Default::default() });
        // Uniform density: zero dipole by symmetry of the sawtooth.
        let rho = vec![1.0; sys.grid.len()];
        assert!(eng.dipole_x(&rho).abs() < 1e-9);
    }

    #[test]
    fn hamiltonian_hermitian_with_field() {
        let (sys, _) = engine_fixture(0.0);
        let laser = LaserPulse { e0: 0.02, omega: 0.12, t_center: 10.0, t_width: 5.0 };
        let eng = TdEngine::new(&sys, laser, HybridParams { alpha: 0.25, omega: 0.2, ..Default::default() });
        let st = toy_state(&sys, 3);
        let ev = eng.eval(&st.phi, &st.sigma, 10.0);
        let h = eng.hamiltonian_dense(&ev);
        let hm = {
            let hphi = h.apply(&st.phi);
            st.phi.overlap(&hphi)
        };
        assert!(hm.hermiticity_error() < 1e-8, "err {}", hm.hermiticity_error());
    }

    #[test]
    fn total_energy_gauge_invariance() {
        // E must be invariant under Φ -> ΦU, σ -> U^H σ U (same density
        // matrix P).
        let (sys, laser) = engine_fixture(0.25);
        let eng = TdEngine::new(&sys, laser, HybridParams { alpha: 0.25, omega: 0.2, ..Default::default() });
        let st = toy_state(&sys, 3);
        let e0 = eng.total_energy(&st).total();

        // Unitary from a random Hermitian.
        let h = pwnum::cmat::random_hermitian(3, {
            let mut s = 33u64;
            move || {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(11);
                (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            }
        });
        let u = pwnum::eigh(&h).vectors;
        let mut st2 = st.clone();
        st2.phi = st.phi.rotated(&u);
        // σ' = U^H σ U.
        let su = st.sigma.matmul(&u);
        st2.sigma = pwnum::gemm::gemm(
            pwnum::Complex64::ONE,
            &u,
            pwnum::gemm::Op::ConjTrans,
            &su,
            pwnum::gemm::Op::None,
            pwnum::Complex64::ZERO,
            None,
        );
        let e1 = eng.total_energy(&st2).total();
        assert!((e0 - e1).abs() < 1e-8, "gauge dependence: {e0} vs {e1}");
    }

    #[test]
    fn exchange_images_build_valid_ace() {
        let (sys, laser) = engine_fixture(0.25);
        let eng = TdEngine::new(&sys, laser, HybridParams { alpha: 0.25, omega: 0.2, ..Default::default() });
        let st = toy_state(&sys, 3);
        let (w, ex) = eng.exchange_images(&st.phi, &st.sigma);
        assert!(ex < 0.0);
        let ace = pwdft::AceOperator::build(&st.phi, &w);
        // ACE reproduces W on the span.
        let mut out = vec![pwnum::Complex64::ZERO; st.phi.data.len()];
        ace.apply_add(&st.phi, 1.0, &mut out);
        let diff = pwnum::cvec::max_abs_diff(&out, &w.data);
        let scale = w.data.iter().map(|z| z.abs()).fold(0.0f64, f64::max);
        assert!(diff < 1e-8 * scale.max(1e-10), "{diff}");
    }
}
