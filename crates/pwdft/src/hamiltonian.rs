//! The Kohn–Sham Hamiltonian `H = T + V_loc + V_H + V_xc + V_ext + α·V_x`.
//!
//! `apply` is the `HΦ` of the paper: kinetic in G-space, all local
//! potentials fused into one real-space multiply, and the exchange term
//! either as the dense (diagonalized) Fock operator or as an ACE
//! operator — exactly the two modes PT-IM alternates between.

use crate::ace::AceOperator;
use crate::fock::FockOperator;
use crate::gvec::PwGrid;
use crate::wavefunction::Wavefunction;
use crate::xc;
use pwfft::Fft3;
use pwnum::backend::{default_backend, Backend, BackendHandle};
use pwnum::cmat::CMat;
use pwnum::complex::Complex64;
use pwnum::cvec;
use pwnum::parallel::par_chunks_mut;
use std::sync::Arc;

/// How the exchange term enters `HΦ`.
pub enum Exchange {
    /// Semi-local only (no Fock exchange).
    None,
    /// Dense screened Fock exchange from natural orbitals (real space)
    /// with occupations — O(N²) Poisson solves per application.
    Dense {
        /// Natural orbitals `φ̃ = ΦQ` in real space, band-major.
        nat_r: Vec<Complex64>,
        /// Occupations `d_i` of the natural orbitals.
        occ: Vec<f64>,
    },
    /// Low-rank ACE operator — two GEMMs per application. Shared, so
    /// the Hamiltonians of one inner SCF loop reuse a single operator.
    Ace(Arc<AceOperator>),
}

/// Hartree potential and energy from the density:
/// `V_H(G) = 4π ρ_G / G²` (G ≠ 0), `E_H = ½ ∫ V_H ρ dV`.
pub fn hartree_potential(grid: &PwGrid, fft: &Fft3, rho: &[f64]) -> (Vec<f64>, f64) {
    hartree_potential_with(&**default_backend(), grid, fft, rho)
}

/// [`hartree_potential`] on an explicit compute backend.
pub fn hartree_potential_with(
    backend: &dyn Backend,
    grid: &PwGrid,
    fft: &Fft3,
    rho: &[f64],
) -> (Vec<f64>, f64) {
    let ng = grid.len();
    assert_eq!(rho.len(), ng);
    let mut work: Vec<Complex64> = rho.iter().map(|&r| Complex64::from_re(r)).collect();
    fft.forward_many_with(backend, &mut work, 1);
    // 4π/G² with the jellium convention at G = 0. Applied inline: the
    // kernel is a pure function of the grid, and materializing it per
    // call would cost an ng-sized allocation every SCF iteration.
    let four_pi = 4.0 * std::f64::consts::PI;
    for (w, &g2) in work.iter_mut().zip(&grid.g2) {
        if g2 < 1e-12 {
            *w = Complex64::ZERO;
        } else {
            *w = w.scale(four_pi / g2);
        }
    }
    fft.inverse_many_with(backend, &mut work, 1);
    let vh: Vec<f64> = work.iter().map(|z| z.re).collect();
    let eh = 0.5 * vh.iter().zip(rho).map(|(v, r)| v * r).sum::<f64>() * grid.dv();
    (vh, eh)
}

/// The assembled Hamiltonian for one time/SCF point.
pub struct Hamiltonian<'g> {
    /// Grid reference.
    pub grid: &'g PwGrid,
    /// FFT plans for the grid.
    pub fft: Fft3,
    /// Total local potential `V_loc + V_H + V_xc + V_ext` on the grid.
    pub vtot: Vec<f64>,
    /// Hybrid mixing fraction α (0 for semilocal).
    pub alpha: f64,
    /// Exchange mode.
    pub exchange: Exchange,
    /// Dense Fock machinery (kernel + plans), needed for `Exchange::Dense`
    /// and for building ACE operators.
    pub fock: Option<FockOperator<'g>>,
    /// Compute backend every FFT/band primitive of `apply` routes through.
    pub backend: BackendHandle,
}

impl<'g> Hamiltonian<'g> {
    /// Assembles the Hamiltonian from potential pieces.
    /// `vloc` is the static ionic potential, `vhxc` the density-dependent
    /// Hartree+XC part, `vext` the (possibly zero) time-dependent field.
    pub fn new(
        grid: &'g PwGrid,
        vloc: &[f64],
        vhxc: &[f64],
        vext: &[f64],
        alpha: f64,
        exchange: Exchange,
        fock: Option<FockOperator<'g>>,
    ) -> Self {
        // Inherit the Fock operator's backend when present so the dense
        // exchange and the local parts run on the same device model.
        let backend = fock
            .as_ref()
            .map(|f| f.backend().clone())
            .unwrap_or_else(|| default_backend().clone());
        Self::with_backend(grid, vloc, vhxc, vext, alpha, exchange, fock, backend)
    }

    /// [`Self::new`] with an explicit compute backend. When a
    /// [`FockOperator`] is supplied it must share the same backend so
    /// one `apply` never splits across two device models.
    #[allow(clippy::too_many_arguments)]
    pub fn with_backend(
        grid: &'g PwGrid,
        vloc: &[f64],
        vhxc: &[f64],
        vext: &[f64],
        alpha: f64,
        exchange: Exchange,
        fock: Option<FockOperator<'g>>,
        backend: BackendHandle,
    ) -> Self {
        assert_eq!(vloc.len(), grid.len());
        assert_eq!(vhxc.len(), grid.len());
        assert_eq!(vext.len(), grid.len());
        if let Some(f) = &fock {
            assert_eq!(
                f.backend().name(),
                backend.name(),
                "Hamiltonian and its FockOperator must share one backend kind"
            );
        }
        let vtot: Vec<f64> =
            vloc.iter().zip(vhxc).zip(vext).map(|((a, b), c)| a + b + c).collect();
        Hamiltonian { grid, fft: grid.fft(), vtot, alpha, exchange, fock, backend }
    }

    /// Computes `H ψ` for a block of orbitals (G-space in, G-space out,
    /// cutoff-masked).
    pub fn apply(&self, psi: &Wavefunction) -> Wavefunction {
        let ng = self.grid.len();
        assert_eq!(psi.ng, ng);
        let be = &*self.backend;
        let mut out = Wavefunction::zeros_like(psi);

        // Real-space copies of the input bands (batched inverse FFT).
        let psi_r = psi.to_real_all_with(be, &self.fft);

        // Dense exchange acts on the real-space block as a whole.
        let vx_r: Option<Vec<Complex64>> = match &self.exchange {
            Exchange::Dense { nat_r, occ } => {
                let fock = self
                    .fock
                    .as_ref()
                    .expect("Exchange::Dense requires a FockOperator");
                Some(fock.apply_diag(nat_r, occ, &psi_r))
            }
            _ => None,
        };

        // Potential part in real space, band-parallel: V_tot ψ (+ α·Vx).
        let mut work = be.take_buffer_copy(&psi_r);
        par_chunks_mut(&mut work, ng, |b, wband| {
            for (w, &v) in wband.iter_mut().zip(&self.vtot) {
                *w = w.scale(v);
            }
            if let Some(vx) = &vx_r {
                cvec::axpy(Complex64::from_re(self.alpha), &vx[b * ng..(b + 1) * ng], wband);
            }
        });
        // Back to G-space as one batched forward FFT.
        self.fft.forward_many_with(be, &mut work, psi.n_bands);
        // Kinetic + potential in G space, band-parallel.
        par_chunks_mut(&mut out.data, ng, |b, ob| {
            let band_in = &psi.data[b * ng..(b + 1) * ng];
            let wband = &work[b * ng..(b + 1) * ng];
            for ((o, w), (&g2, c)) in
                ob.iter_mut().zip(wband).zip(self.grid.g2.iter().zip(band_in))
            {
                *o = *w + c.scale(0.5 * g2);
            }
        });
        be.recycle_buffer(work);

        // ACE exchange acts in G-space on the whole block.
        if let Exchange::Ace(ace) = &self.exchange {
            ace.apply_add(psi, self.alpha, &mut out.data);
        }

        out.mask(self.grid);
        out
    }

    /// Subspace matrix `Hm[i][j] = <ψ_i|H|ψ_j>` (the `Φ*HΦ` of the σ
    /// dynamics, Eq. 6).
    pub fn matrix_elements(&self, psi: &Wavefunction) -> CMat {
        let hpsi = self.apply(psi);
        psi.overlap_with(&*self.backend, &hpsi).hermitian_part()
    }
}

impl Wavefunction {
    /// Zero block with the same shape/scales as `other`.
    pub fn zeros_like(other: &Wavefunction) -> Wavefunction {
        Wavefunction {
            n_bands: other.n_bands,
            ng: other.ng,
            ip_scale: other.ip_scale,
            data: vec![Complex64::ZERO; other.data.len()],
        }
    }
}

/// Density-dependent potentials + energies in one bundle.
pub struct HxcResult {
    /// `V_H + V_xc` on the grid.
    pub vhxc: Vec<f64>,
    /// Hartree energy.
    pub e_hartree: f64,
    /// Semi-local XC energy.
    pub e_xc: f64,
}

/// Builds `V_H + V_xc` and the corresponding energies from a density.
pub fn build_hxc(grid: &PwGrid, fft: &Fft3, rho: &[f64]) -> HxcResult {
    build_hxc_with(&**default_backend(), grid, fft, rho)
}

/// [`build_hxc`] on an explicit compute backend.
pub fn build_hxc_with(
    backend: &dyn Backend,
    grid: &PwGrid,
    fft: &Fft3,
    rho: &[f64],
) -> HxcResult {
    let (vh, e_hartree) = hartree_potential_with(backend, grid, fft, rho);
    let mut vxc = vec![0.0; grid.len()];
    let e_xc = xc::xc_energy_potential(rho, grid.dv(), &mut vxc);
    let vhxc: Vec<f64> = vh.iter().zip(&vxc).map(|(a, b)| a + b).collect();
    HxcResult { vhxc, e_hartree, e_xc }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lattice::Cell;
    use pwnum::cvec;

    fn setup() -> (Cell, PwGrid) {
        let cell = Cell::silicon_supercell(1, 1, 1);
        let grid = PwGrid::with_dims(&cell, 3.0, [8, 8, 8]);
        (cell, grid)
    }

    #[test]
    fn hartree_of_cosine_density() {
        // ρ(r) = cos(G1·x) has V_H = (4π/G1²) cos(G1 x) exactly.
        let (cell, grid) = setup();
        let fft = grid.fft();
        let g1 = 2.0 * std::f64::consts::PI / cell.lengths[0];
        let rho: Vec<f64> = (0..grid.len())
            .map(|i| {
                let r = grid.r_coord(i);
                (g1 * r[0]).cos()
            })
            .collect();
        let (vh, _) = hartree_potential(&grid, &fft, &rho);
        let scale = 4.0 * std::f64::consts::PI / (g1 * g1);
        for (i, v) in vh.iter().enumerate() {
            let r = grid.r_coord(i);
            let expect = scale * (g1 * r[0]).cos();
            assert!((v - expect).abs() < 1e-9, "point {i}: {v} vs {expect}");
        }
    }

    #[test]
    fn hartree_energy_positive_for_inhomogeneous_density() {
        let (_, grid) = setup();
        let fft = grid.fft();
        let rho: Vec<f64> = (0..grid.len())
            .map(|i| {
                let r = grid.r_coord(i);
                1.0 + 0.3 * (2.0 * std::f64::consts::PI * r[1] / grid.lengths[1]).sin()
            })
            .collect();
        let (_, eh) = hartree_potential(&grid, &fft, &rho);
        assert!(eh > 0.0, "Hartree energy {eh}");
        // Uniform density has zero Hartree energy under the jellium convention.
        let (_, eh0) = hartree_potential(&grid, &fft, &vec![1.0; grid.len()]);
        assert!(eh0.abs() < 1e-12);
    }

    #[test]
    fn hamiltonian_is_hermitian() {
        let (_, grid) = setup();
        let zeros = vec![0.0; grid.len()];
        let vloc: Vec<f64> = (0..grid.len())
            .map(|i| {
                let r = grid.r_coord(i);
                -0.5 * (2.0 * std::f64::consts::PI * r[0] / grid.lengths[0]).cos()
            })
            .collect();
        let h = Hamiltonian::new(&grid, &vloc, &zeros, &zeros, 0.0, Exchange::None, None);
        let psi = Wavefunction::random(&grid, 4, 5);
        let hm = {
            let hpsi = h.apply(&psi);
            psi.overlap(&hpsi)
        };
        assert!(hm.hermiticity_error() < 1e-9, "err {}", hm.hermiticity_error());
    }

    #[test]
    fn kinetic_eigenstate_of_free_hamiltonian() {
        // With zero potential, a single plane wave is an eigenstate with
        // eigenvalue |G|²/2.
        let (_, grid) = setup();
        let zeros = vec![0.0; grid.len()];
        let h = Hamiltonian::new(&grid, &zeros, &zeros, &zeros, 0.0, Exchange::None, None);
        let mut psi = Wavefunction::zeros(&grid, 1);
        // Pick a masked-in G index with nonzero |G|².
        let idx = grid
            .mask
            .iter()
            .enumerate()
            .position(|(i, &m)| m && grid.g2[i] > 0.1)
            .expect("grid has a usable G");
        psi.band_mut(0)[idx] = Complex64::ONE;
        let hpsi = h.apply(&psi);
        let expect = 0.5 * grid.g2[idx];
        assert!((hpsi.band(0)[idx].re - expect).abs() < 1e-10);
        // All other components ~0.
        let leak: f64 = hpsi
            .band(0)
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != idx)
            .map(|(_, z)| z.abs())
            .fold(0.0, f64::max);
        assert!(leak < 1e-10);
    }

    #[test]
    fn dense_and_ace_exchange_agree_on_span() {
        let (_, grid) = setup();
        let fft = grid.fft();
        let zeros = vec![0.0; grid.len()];
        let phi = Wavefunction::random(&grid, 3, 55);
        let occ = vec![1.0, 0.8, 0.3];
        let phi_r = phi.to_real_all(&fft);

        // Dense path.
        let fock = FockOperator::new(&grid, 0.2);
        let hd = Hamiltonian::new(
            &grid,
            &zeros,
            &zeros,
            &zeros,
            0.25,
            Exchange::Dense { nat_r: phi_r.clone(), occ: occ.clone() },
            Some(fock),
        );
        let out_dense = hd.apply(&phi);

        // ACE path built from the same exchange.
        let fock2 = FockOperator::new(&grid, 0.2);
        let vx = fock2.apply_diag(&phi_r, &occ, &phi_r);
        let w = Wavefunction::from_real(&grid, &fft, vx);
        // ACE must be built on *masked* W to match the masked dense output.
        let mut wm = w;
        wm.mask(&grid);
        let ace = AceOperator::build(&phi, &wm);
        let ha = Hamiltonian::new(
            &grid,
            &zeros,
            &zeros,
            &zeros,
            0.25,
            Exchange::Ace(Arc::new(ace)),
            None,
        );
        let out_ace = ha.apply(&phi);

        let scale = out_dense.data.iter().map(|z| z.abs()).fold(0.0f64, f64::max);
        let diff = cvec::max_abs_diff(&out_dense.data, &out_ace.data);
        assert!(diff < 1e-8 * scale.max(1.0), "dense vs ACE H: {diff}");
    }

    #[test]
    fn external_field_shifts_diagonal() {
        let (_, grid) = setup();
        let zeros = vec![0.0; grid.len()];
        let ones = vec![0.7; grid.len()];
        let psi = Wavefunction::random(&grid, 2, 8);
        let h0 = Hamiltonian::new(&grid, &zeros, &zeros, &zeros, 0.0, Exchange::None, None);
        let h1 = Hamiltonian::new(&grid, &zeros, &zeros, &ones, 0.0, Exchange::None, None);
        let m0 = h0.matrix_elements(&psi);
        let m1 = h1.matrix_elements(&psi);
        // Constant potential adds 0.7·I on an orthonormal block.
        for i in 0..2 {
            assert!((m1[(i, i)].re - m0[(i, i)].re - 0.7).abs() < 1e-10);
        }
    }
}
