//! Adaptively Compressed Exchange (ACE) operator — paper Sec. IV-A2.
//!
//! Given `W = Vx Φ` on the current orbital set, Lin's construction
//! (Ref. \[37\]) builds the rank-N operator
//!
//! ```text
//! M = Φ^H W            (Hermitian, negative semi-definite)
//! -M = L L^H           (Cholesky)
//! ξ = W L^{-H}
//! V_ACE = -ξ ξ^H
//! ```
//!
//! which reproduces `Vx` *exactly* on span(Φ) while applying as two thin
//! GEMMs instead of N² Poisson solves. PT-IM-ACE keeps two of these
//! (`V_ACE` at `t_n` and `t_{n+1/2}`) fixed across an inner SCF loop,
//! cutting Fock evaluations per step from ~25 to ~5 (Fig. 4b).

use crate::fock::{FockApplyStats, FockOperator};
use crate::gvec::PwGrid;
use crate::wavefunction::Wavefunction;
use pwfft::Fft3;
use pwnum::backend::{default_backend, BackendHandle};
use pwnum::chol::{cholesky, invert_lower};
use pwnum::cmat::CMat;
use pwnum::complex::Complex64;
use pwnum::precision::{self, Complex32, CVec32, StagePrecision};

/// The compressed exchange operator `V_ACE = -ξ ξ^H`.
///
/// Carries the compute backend it was built on; both GEMMs of every
/// application route through it. Under a reduced subspace-GEMM precision
/// stage (see [`PrecisionPolicy`](pwnum::precision::PrecisionPolicy)) a
/// demoted copy of ξ is cached at build time and every apply runs the
/// overlap/rotation pair in fp32, promoting the result into the fp64
/// output — half the GEMM traffic per application.
#[derive(Clone, Debug)]
pub struct AceOperator {
    /// Projection vectors ξ (band-major, same space as the wavefunctions
    /// used to build the operator — here G-space).
    pub xi: Wavefunction,
    /// Demoted projection vectors, cached when `gemm_stage` is reduced.
    xi32: Option<CVec32>,
    /// Precision of the apply-side subspace GEMMs.
    gemm_stage: StagePrecision,
    /// Compute backend for the overlap/rotation pair of each apply.
    backend: BackendHandle,
}

impl AceOperator {
    /// Builds the operator from the orbital block `phi` and the
    /// *precomputed* exchange images `w = Vx Φ` (both G-space), on the
    /// process default backend.
    ///
    /// A small diagonal shift is added before the Cholesky factorization
    /// to tolerate exactly-zero exchange on empty bands.
    pub fn build(phi: &Wavefunction, w: &Wavefunction) -> AceOperator {
        Self::build_with(default_backend().clone(), phi, w)
    }

    /// [`Self::build`] on an explicit compute backend (fp64 applies).
    pub fn build_with(
        backend: BackendHandle,
        phi: &Wavefunction,
        w: &Wavefunction,
    ) -> AceOperator {
        Self::build_with_policy(backend, phi, w, StagePrecision::Fp64)
    }

    /// [`Self::build_with`] with an explicit apply-side subspace-GEMM
    /// precision stage. The compression itself (overlap, Cholesky,
    /// rotation) always runs in fp64 — only the per-apply GEMM pair is
    /// reduced, and only when `gemm_stage` is.
    pub fn build_with_policy(
        backend: BackendHandle,
        phi: &Wavefunction,
        w: &Wavefunction,
        gemm_stage: StagePrecision,
    ) -> AceOperator {
        let _s = pwobs::span("xch.ace_build");
        assert_eq!(phi.n_bands, w.n_bands);
        assert_eq!(phi.ng, w.ng);
        let m = phi.overlap_with(&*backend, w); // M = Φ^H W
        // -M should be HPD (up to noise); regularize relative to its scale.
        let n = m.rows();
        let mut neg_m = m.scaled(Complex64::from_re(-1.0)).hermitian_part();
        let scale = neg_m.fro_norm().max(1e-300) / n as f64;
        for i in 0..n {
            neg_m[(i, i)] += Complex64::from_re(1e-12 * scale.max(1e-12));
        }
        let l = cholesky(&neg_m).expect("ACE: -Φ^H VxΦ not positive definite");
        // ξ = W L^{-H}: Q = (L^{-1})^H.
        let q = invert_lower(&l).herm();
        let xi = w.rotated_with(&*backend, &q);
        let xi32 = gemm_stage.reduced().then(|| precision::demote(&xi.data));
        AceOperator { xi, xi32, gemm_stage, backend }
    }

    /// Builds the operator directly from a [`FockOperator`] and the
    /// current orbitals with (diagonal) occupations — the rebuild step of
    /// the ACE double loop. Because the exchange images are computed on
    /// the orbital block *itself*, the evaluation rides the Hermitian
    /// pair-symmetric scheduler under the Fock operator's
    /// [`FockOptions`](crate::fock::FockOptions) (~half the Poisson
    /// solves, occupation-screened).
    ///
    /// Returns the operator, the masked exchange images `W = VxΦ`, the
    /// exchange energy `Ex`, and the scheduler stats.
    pub fn build_from_fock(
        fock: &FockOperator,
        grid: &PwGrid,
        fft: &Fft3,
        phi: &Wavefunction,
        occ: &[f64],
    ) -> (AceOperator, Wavefunction, f64, FockApplyStats) {
        let backend = fock.backend().clone();
        let be = &*backend;
        let phi_r = phi.to_real_all_with(be, fft);
        let (vx_r, stats) = fock.apply_pure_stats(&phi_r, occ);
        let ex = fock.exchange_energy(&phi_r, occ, &vx_r, grid.dv());
        let mut w = Wavefunction::from_real_with(be, grid, fft, vx_r);
        w.mask(grid);
        let ace =
            Self::build_with_policy(backend, phi, &w, fock.options().precision.subspace_gemm);
        (ace, w, ex, stats)
    }

    /// Applies `scale · V_ACE` to a block `psi` (G-space), *adding* the
    /// result into `out` (band-major G-space buffer of the same shape):
    /// `out_j += -scale · Σ_k ξ_k <ξ_k|ψ_j>`. `scale` carries the hybrid
    /// mixing fraction α.
    pub fn apply_add(&self, psi: &Wavefunction, scale: f64, out: &mut [Complex64]) {
        let _s = pwobs::span("xch.ace_apply");
        assert_eq!(psi.ng, self.xi.ng);
        assert_eq!(out.len(), psi.data.len());
        if self.gemm_stage.reduced() {
            // Reduced subspace-GEMM stage: both GEMMs run in fp32 on the
            // cached demoted ξ, and the fp32 result block is promoted
            // into the fp64 output in one pass. Scratch comes from the
            // backend's fp32 pool so this hot per-apply path stays
            // allocation-free in steady state.
            let xi32 = self.xi32.as_ref().expect("reduced gemm stage caches demoted ξ");
            let be = &*self.backend;
            let ng = self.xi.ng;
            let mut psi32 = be.take_scratch32(psi.data.len());
            precision::demote_into(&psi.data, &mut psi32);
            let c32 = be.overlap32(xi32, &psi32, ng, self.xi.ip_scale as f32);
            let mut acc32 = be.take_scratch32(out.len());
            acc32.fill(Complex32::ZERO);
            be.rotate_acc32(
                Complex32::from_re(-scale as f32),
                xi32,
                &c32,
                ng,
                &mut acc32,
            );
            precision::promote_acc(&acc32, out);
            be.recycle_buffer32(psi32);
            be.recycle_buffer32(acc32);
            return;
        }
        // C[k][j] = <ξ_k | ψ_j>
        let c = self.xi.overlap_with(&*self.backend, psi);
        self.backend.rotate_acc(
            Complex64::from_re(-scale),
            &self.xi.data,
            &c,
            self.xi.ng,
            out,
        );
    }

    /// Exchange energy on a state: `Ex = Σ_j d_j <ψ_j|V_ACE|ψ_j>`
    /// = `-Σ_j d_j Σ_k |<ξ_k|ψ_j>|²`.
    pub fn exchange_energy(&self, psi: &Wavefunction, occ: &[f64]) -> f64 {
        assert_eq!(occ.len(), psi.n_bands);
        let c = self.xi.overlap_with(&*self.backend, psi);
        let mut e = 0.0;
        for j in 0..psi.n_bands {
            if occ[j].abs() < crate::fock::DEFAULT_OCC_CUTOFF {
                continue;
            }
            let mut s = 0.0;
            for k in 0..self.xi.n_bands {
                s += c[(k, j)].norm_sqr();
            }
            e -= occ[j] * s;
        }
        e
    }

    /// Matrix elements `A[i][j] = <ψ_i|V_ACE|ψ_j>` (for σ dynamics).
    pub fn matrix_elements(&self, psi: &Wavefunction) -> CMat {
        let c = self.xi.overlap_with(&*self.backend, psi); // k×j
        // A = -C^H C.
        self.backend.gemm(
            Complex64::from_re(-1.0),
            &c,
            pwnum::gemm::Op::ConjTrans,
            &c,
            pwnum::gemm::Op::None,
            Complex64::ZERO,
            None,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::density::natural_orbitals;
    use crate::fock::FockOperator;
    use crate::gvec::PwGrid;
    use crate::lattice::Cell;
    use pwnum::eigh;
    use pwnum::precision::StagePrecision;

    fn build_test_ace() -> (PwGrid, Wavefunction, Wavefunction, AceOperator, Vec<f64>) {
        let cell = Cell::silicon_supercell(1, 1, 1);
        let grid = PwGrid::with_dims(&cell, 2.0, [6, 6, 6]);
        let fft = grid.fft();
        let phi = Wavefunction::random(&grid, 4, 91);
        // σ from Fermi-like occupations (diagonal for simplicity here).
        let h = pwnum::cmat::random_hermitian(4, {
            let mut s = 5u64;
            move || {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(3);
                (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5
            }
        });
        let e = eigh(&h);
        let dvals: Vec<f64> = e.values.iter().map(|&w| 1.0 / (1.0 + (2.0 * w).exp())).collect();
        let sigma = {
            let dm = CMat::from_real_diag(&dvals);
            let vd = e.vectors.matmul(&dm);
            pwnum::gemm::gemm(
                Complex64::ONE,
                &vd,
                pwnum::gemm::Op::None,
                &e.vectors,
                pwnum::gemm::Op::ConjTrans,
                Complex64::ZERO,
                None,
            )
            .hermitian_part()
        };
        let fock = FockOperator::new(&grid, 0.2);
        let nat = natural_orbitals(&phi, &sigma);
        let nat_r = nat.phi.to_real_all(&fft);
        let phi_r = phi.to_real_all(&fft);
        let vx_r = fock.apply_diag(&nat_r, &nat.occ, &phi_r);
        let w = Wavefunction::from_real(&grid, &fft, vx_r);
        let ace = AceOperator::build(&phi, &w);
        (grid, phi, w, ace, nat.occ)
    }

    #[test]
    fn build_from_fock_matches_manual_build() {
        // The one-call rebuild (pair-symmetric apply + mask + compress)
        // equals the manual sequence scf_hybrid used to spell out.
        let cell = Cell::silicon_supercell(1, 1, 1);
        let grid = PwGrid::with_dims(&cell, 2.0, [6, 6, 6]);
        let fft = grid.fft();
        let mut phi = Wavefunction::random(&grid, 4, 19);
        phi.orthonormalize_lowdin();
        let occ = vec![1.0, 0.9, 0.4, 0.1];
        let fock = FockOperator::new(&grid, 0.2);

        let (ace, w, ex, stats) = AceOperator::build_from_fock(&fock, &grid, &fft, &phi, &occ);
        assert!(stats.symmetric, "rebuild must take the pair-symmetric path");
        assert_eq!(stats.solves, 4 * 5 / 2);
        assert!(ex < 0.0);

        let phi_r = phi.to_real_all(&fft);
        let psi_copy = phi_r.clone(); // force the asymmetric reference path
        let vx_r = fock.apply_diag(&phi_r, &occ, &psi_copy);
        let mut w_ref = Wavefunction::from_real(&grid, &fft, vx_r);
        w_ref.mask(&grid);
        let scale = w_ref.data.iter().map(|z| z.abs()).fold(0.0f64, f64::max);
        assert!(w.max_abs_diff(&w_ref) < 1e-9 * scale.max(1.0));

        let ace_ref = AceOperator::build(&phi, &w_ref);
        let mut out = vec![Complex64::ZERO; phi.data.len()];
        let mut out_ref = vec![Complex64::ZERO; phi.data.len()];
        ace.apply_add(&phi, 1.0, &mut out);
        ace_ref.apply_add(&phi, 1.0, &mut out_ref);
        assert!(pwnum::cvec::max_abs_diff(&out, &out_ref) < 1e-8 * scale.max(1.0));
    }

    #[test]
    fn reduced_subspace_gemm_tracks_fp64_apply() {
        // The fp32 apply path (demoted ξ cache, overlap32 + rotate_acc32
        // + promote) must track the fp64 apply at fp32 accuracy, on a
        // nonzero accumulation target and through build_from_fock with a
        // reduced subspace_gemm stage.
        let (grid, phi, w, _, _) = build_test_ace();
        let be = pwnum::backend::default_backend().clone();
        for stage in [StagePrecision::Fp32, StagePrecision::Fp32Promoted] {
            let ace64 = AceOperator::build_with(be.clone(), &phi, &w);
            let ace32 = AceOperator::build_with_policy(be.clone(), &phi, &w, stage);
            let seed: Vec<Complex64> = (0..phi.data.len())
                .map(|k| Complex64::new((k as f64 * 0.1).sin(), (k as f64 * 0.2).cos()))
                .collect();
            let mut out64 = seed.clone();
            let mut out32 = seed;
            ace64.apply_add(&phi, 0.25, &mut out64);
            ace32.apply_add(&phi, 0.25, &mut out32);
            let scale = out64.iter().map(|z| z.abs()).fold(0.0f64, f64::max);
            let diff = pwnum::cvec::max_abs_diff(&out64, &out32);
            assert!(
                diff < 1e-5 * scale.max(1.0),
                "{stage:?}: reduced ACE apply drift {diff} (scale {scale})"
            );
        }
        // The FockOperator policy propagates into build_from_fock.
        let fock = FockOperator::with_options(
            &grid,
            0.2,
            be,
            crate::fock::FockOptions {
                precision: pwnum::precision::PrecisionPolicy {
                    subspace_gemm: StagePrecision::Fp32Promoted,
                    ..pwnum::precision::PrecisionPolicy::mixed()
                },
                ..Default::default()
            },
        );
        let fft = grid.fft();
        let occ = vec![1.0, 0.9, 0.4, 0.1];
        let (ace, w2, _, stats) = AceOperator::build_from_fock(&fock, &grid, &fft, &phi, &occ);
        assert!(stats.solves_fp32 > 0);
        assert!(ace.xi32.is_some(), "reduced stage must cache demoted ξ");
        // It still reproduces W on the span to mixed-precision accuracy.
        let mut out = vec![Complex64::ZERO; phi.data.len()];
        ace.apply_add(&phi, 1.0, &mut out);
        let scale = w2.data.iter().map(|z| z.abs()).fold(0.0f64, f64::max);
        let diff = pwnum::cvec::max_abs_diff(&out, &w2.data);
        assert!(diff < 1e-4 * scale.max(1e-10), "ACE span defect {diff}");
    }

    #[test]
    fn ace_reproduces_vx_on_span() {
        // V_ACE Φ must equal W = Vx Φ exactly (the defining property).
        let (_, phi, w, ace, _) = build_test_ace();
        let mut out = vec![Complex64::ZERO; phi.data.len()];
        ace.apply_add(&phi, 1.0, &mut out);
        let scale = w.data.iter().map(|z| z.abs()).fold(0.0f64, f64::max);
        let diff = pwnum::cvec::max_abs_diff(&out, &w.data);
        assert!(diff < 1e-8 * scale.max(1.0), "ACE defect {diff} (scale {scale})");
    }

    #[test]
    fn ace_matrix_elements_match_direct() {
        let (_, phi, w, ace, _) = build_test_ace();
        let a = ace.matrix_elements(&phi);
        let direct = phi.overlap(&w); // <φ_i|Vx|φ_j>
        assert!(a.max_abs_diff(&direct) < 1e-8, "diff {}", a.max_abs_diff(&direct));
        assert!(a.hermiticity_error() < 1e-9);
    }

    #[test]
    fn ace_is_negative_semidefinite() {
        let (_, phi, _, ace, _) = build_test_ace();
        let a = ace.matrix_elements(&phi);
        let e = eigh(&a);
        for w in &e.values {
            assert!(*w < 1e-9, "V_ACE eigenvalue must be ≤ 0: {w}");
        }
    }

    #[test]
    fn exchange_energy_consistent() {
        let (_, phi, w, ace, occ) = build_test_ace();
        let e_ace = ace.exchange_energy(&phi, &occ);
        // Direct: Σ_i d_i <φ_i|W_i>.
        let s = phi.overlap(&w);
        let mut e_direct = 0.0;
        for (i, &d) in occ.iter().enumerate() {
            e_direct += d * s[(i, i)].re;
        }
        assert!((e_ace - e_direct).abs() < 1e-8, "{e_ace} vs {e_direct}");
        assert!(e_ace < 0.0);
    }

    #[test]
    fn apply_is_linear() {
        let (grid, phi, _, ace, _) = build_test_ace();
        let psi = Wavefunction::random(&grid, 2, 17);
        // V(αψ) = α Vψ.
        let mut v1 = vec![Complex64::ZERO; psi.data.len()];
        ace.apply_add(&psi, 1.0, &mut v1);
        let alpha = Complex64::new(0.3, -1.2);
        let mut psi2 = psi.clone();
        for z in psi2.data.iter_mut() {
            *z *= alpha;
        }
        let mut v2 = vec![Complex64::ZERO; psi.data.len()];
        ace.apply_add(&psi2, 1.0, &mut v2);
        for (a, b) in v1.iter().zip(&v2) {
            assert!((*a * alpha - *b).abs() < 1e-9);
        }
        let _ = phi;
    }
}
