//! Blocked, preconditioned Davidson eigensolver for the lowest Kohn–Sham
//! states.
//!
//! One iteration: Rayleigh–Ritz on the current block, residual
//! computation, kinetic-energy preconditioning, subspace expansion with
//! the preconditioned residuals, and a 2N-dimensional Ritz step. This is
//! the standard workhorse for plane-wave DFT at the block sizes used here
//! (tens of bands); robustness (rank filtering of the expanded subspace)
//! is favoured over micro-optimization.

use crate::gvec::PwGrid;
use crate::hamiltonian::Hamiltonian;
use crate::wavefunction::Wavefunction;
use pwnum::cmat::CMat;
use pwnum::complex::Complex64;
use pwnum::eigh;

/// Result of a Davidson solve.
pub struct EigResult {
    /// Ritz vectors (orthonormal, ascending eigenvalue order).
    pub phi: Wavefunction,
    /// Ritz values.
    pub eigs: Vec<f64>,
    /// Final maximum residual norm.
    pub residual: f64,
    /// Iterations used.
    pub iterations: usize,
}

/// Runs up to `max_iter` Davidson iterations from the starting block,
/// stopping when every residual norm falls below `tol`.
pub fn davidson(
    h: &Hamiltonian,
    grid: &PwGrid,
    mut phi: Wavefunction,
    max_iter: usize,
    tol: f64,
) -> EigResult {
    let n = phi.n_bands;
    let ng = phi.ng;
    let mut eigs = vec![0.0; n];
    let mut res_max = f64::INFINITY;
    let mut iterations = 0;

    for it in 0..max_iter {
        iterations = it + 1;
        // Rayleigh-Ritz on the current block.
        let mut hphi = h.apply(&phi);
        let hm = phi.overlap(&hphi).hermitian_part();
        let e = eigh(&hm);
        phi = phi.rotated(&e.vectors);
        hphi = hphi.rotated(&e.vectors);
        eigs.copy_from_slice(&e.values);

        // Residuals r_i = Hφ_i - ε_i φ_i.
        let mut resid = hphi.clone();
        for (i, &ei) in eigs.iter().enumerate() {
            let band_phi = phi.band(i).to_vec();
            pwnum::cvec::axpy(Complex64::from_re(-ei), &band_phi, resid.band_mut(i));
        }
        res_max = (0..n)
            .map(|i| (pwnum::cvec::norm_sqr(resid.band(i)) * phi.ip_scale).sqrt())
            .fold(0.0f64, f64::max);
        if res_max < tol {
            break;
        }

        // Precondition: t_i(G) = -r_i(G) / max(|G|²/2 - ε_i, floor).
        let mut t = resid;
        for (i, &ei) in eigs.iter().enumerate() {
            for (z, g2) in t.band_mut(i).iter_mut().zip(&grid.sphere_g2) {
                let denom = (0.5 * g2 - ei).max(0.25);
                *z = z.scale(-1.0 / denom);
            }
        }

        // Normalize each direction first: residual norms shrink as the
        // iteration converges, and the rank filter below must judge
        // *linear dependence*, not magnitude.
        for i in 0..n {
            let band = t.band_mut(i);
            let nrm = pwnum::cvec::norm(band);
            if nrm > 1e-300 {
                pwnum::cvec::rscale(1.0 / nrm, band);
            }
        }

        // Project out the current block: t -= φ (φ^H t).
        let proj = phi.overlap(&t);
        let mut corr = vec![Complex64::ZERO; t.data.len()];
        pwnum::bands::rotate(&phi.data, &proj, ng, &mut corr);
        for (a, b) in t.data.iter_mut().zip(&corr) {
            *a -= *b;
        }

        // Filter near-null directions and orthonormalize t.
        let keep = filtered_orthonormalize(&mut t, 1e-8);
        if keep == 0 {
            break; // Nothing new to add: converged to working precision.
        }

        // Ritz in the expanded space [φ, t'].
        let ht = h.apply(&t);
        let dim = n + keep;
        let mut big_h = CMat::zeros(dim, dim);
        let h_pp = phi.overlap(&hphi);
        let h_pt = phi.overlap(&ht);
        let h_tt = t.overlap(&ht);
        for i in 0..n {
            for j in 0..n {
                big_h[(i, j)] = h_pp[(i, j)];
            }
            for j in 0..keep {
                big_h[(i, n + j)] = h_pt[(i, j)];
                big_h[(n + j, i)] = h_pt[(i, j)].conj();
            }
        }
        for i in 0..keep {
            for j in 0..keep {
                big_h[(n + i, n + j)] = h_tt[(i, j)];
            }
        }
        let be = eigh(&big_h.hermitian_part());
        // New block = lowest n Ritz vectors of the expanded space.
        let mut new_phi = Wavefunction::zeros_like(&phi);
        for col in 0..n {
            let q_phi = CMat::from_fn(n, 1, |r, _| be.vectors[(r, col)]);
            let q_t = CMat::from_fn(keep, 1, |r, _| be.vectors[(n + r, col)]);
            let dst = new_phi.band_mut(col);
            let mut tmp = vec![Complex64::ZERO; ng];
            pwnum::bands::rotate(&phi.data, &q_phi, ng, &mut tmp);
            dst.copy_from_slice(&tmp);
            pwnum::bands::rotate_acc(Complex64::ONE, &t.data, &q_t, ng, dst);
        }
        phi = new_phi;
        phi.orthonormalize_cholesky();
    }

    EigResult { phi, eigs, residual: res_max, iterations }
}

/// Löwdin-orthonormalizes a block, dropping directions whose overlap
/// eigenvalue is below `eps`; returns the retained count and truncates
/// the block in place.
fn filtered_orthonormalize(t: &mut Wavefunction, eps: f64) -> usize {
    let s = t.overlap(t);
    let e = eigh(&s);
    let n = t.n_bands;
    let kept: Vec<usize> = (0..n).filter(|&i| e.values[i] > eps).collect();
    if kept.is_empty() {
        t.n_bands = 0;
        t.data.clear();
        return 0;
    }
    let mut q = CMat::zeros(n, kept.len());
    for (c, &i) in kept.iter().enumerate() {
        let w = 1.0 / e.values[i].sqrt();
        for r in 0..n {
            q[(r, c)] = e.vectors[(r, i)].scale(w);
        }
    }
    let rotated = t.rotated(&q);
    *t = rotated;
    kept.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hamiltonian::Exchange;
    use crate::lattice::Cell;

    #[test]
    fn free_electron_spectrum() {
        // Zero potential: eigenvalues must be the lowest |G|²/2 values.
        let cell = Cell::silicon_supercell(1, 1, 1);
        let grid = PwGrid::with_dims(&cell, 3.0, [8, 8, 8]);
        let zeros = vec![0.0; grid.len()];
        let h = Hamiltonian::new(&grid, &zeros, &zeros, &zeros, 0.0, Exchange::None, None);
        let phi0 = Wavefunction::random(&grid, 5, 3);
        let r = davidson(&h, &grid, phi0, 60, 1e-8);
        // Exact: sorted |G|²/2 over the sphere.
        let mut kin: Vec<f64> = grid.sphere_g2.iter().map(|g| 0.5 * g).collect();
        kin.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for (i, (e, k)) in r.eigs.iter().zip(&kin).take(5).enumerate() {
            assert!((e - k).abs() < 1e-6, "state {i}: {e} vs {k}");
        }
        assert!(r.residual < 1e-6);
    }

    #[test]
    fn cosine_potential_lowers_ground_state() {
        let cell = Cell::silicon_supercell(1, 1, 1);
        let grid = PwGrid::with_dims(&cell, 3.0, [8, 8, 8]);
        let zeros = vec![0.0; grid.len()];
        let v: Vec<f64> = (0..grid.len())
            .map(|i| {
                let r = grid.r_coord(i);
                -0.8 * (2.0 * std::f64::consts::PI * r[0] / grid.lengths[0]).cos()
            })
            .collect();
        let h0 = Hamiltonian::new(&grid, &zeros, &zeros, &zeros, 0.0, Exchange::None, None);
        let hv = Hamiltonian::new(&grid, &v, &zeros, &zeros, 0.0, Exchange::None, None);
        let e0 = davidson(&h0, &grid, Wavefunction::random(&grid, 3, 3), 50, 1e-7).eigs[0];
        let ev = davidson(&hv, &grid, Wavefunction::random(&grid, 3, 3), 50, 1e-7).eigs[0];
        assert!(ev < e0, "attractive potential must lower E0: {ev} vs {e0}");
    }

    #[test]
    fn eigenvectors_are_orthonormal_and_satisfy_heq() {
        let cell = Cell::silicon_supercell(1, 1, 1);
        let grid = PwGrid::with_dims(&cell, 3.0, [8, 8, 8]);
        let zeros = vec![0.0; grid.len()];
        let v: Vec<f64> = (0..grid.len())
            .map(|i| {
                let r = grid.r_coord(i);
                -0.4 * (2.0 * std::f64::consts::PI * r[2] / grid.lengths[2]).cos()
                    - 0.2 * (2.0 * std::f64::consts::PI * r[1] / grid.lengths[1]).sin()
            })
            .collect();
        let h = Hamiltonian::new(&grid, &v, &zeros, &zeros, 0.0, Exchange::None, None);
        let r = davidson(&h, &grid, Wavefunction::random(&grid, 4, 11), 80, 1e-8);
        let s = r.phi.overlap(&r.phi);
        assert!(s.max_abs_diff(&CMat::identity(4)) < 1e-8);
        // H φ_i ≈ ε_i φ_i.
        let hphi = h.apply(&r.phi);
        for i in 0..4 {
            let mut diff = hphi.band(i).to_vec();
            pwnum::cvec::axpy(Complex64::from_re(-r.eigs[i]), r.phi.band(i), &mut diff);
            let rn = (pwnum::cvec::norm_sqr(&diff) * r.phi.ip_scale).sqrt();
            assert!(rn < 1e-6, "residual of state {i}: {rn}");
        }
    }
}
