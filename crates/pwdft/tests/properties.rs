//! Property-based tests for the plane-wave DFT substrate.

use proptest::prelude::*;
use pwdft::density::{
    density_from_natural, density_mixed_baseline, electron_count, natural_orbitals,
};
use pwdft::hamiltonian::hartree_potential;
use pwdft::smearing::occupations;
use pwdft::{Cell, FockOperator, PwGrid, Wavefunction};
use pwnum::cmat::CMat;
use pwnum::complex::{c64, Complex64};
use pwnum::eigh;

fn grid() -> PwGrid {
    PwGrid::with_dims(&Cell::silicon_supercell(1, 1, 1), 2.0, [6, 6, 6])
}

/// Builds a Hermitian σ with eigenvalues in (0,1) from raw entries.
fn make_sigma(n: usize, raw: &[f64]) -> CMat {
    let mut h = CMat::zeros(n, n);
    let mut k = 0;
    for i in 0..n {
        for j in i..n {
            let re = raw[k % raw.len()];
            let im = raw[(k + 1) % raw.len()];
            k += 2;
            if i == j {
                h[(i, j)] = Complex64::from_re(re);
            } else {
                h[(i, j)] = c64(re, im);
                h[(j, i)] = c64(re, -im);
            }
        }
    }
    let e = eigh(&h);
    let d: Vec<f64> = e.values.iter().map(|w| 1.0 / (1.0 + (2.0 * w).exp())).collect();
    let dm = CMat::from_real_diag(&d);
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
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn density_baseline_equals_diag_any_sigma(
        raw in proptest::collection::vec(-1.0f64..1.0, 32),
        seed in 0u64..1000,
    ) {
        let g = grid();
        let wf = Wavefunction::random(&g, 4, seed);
        let sigma = make_sigma(4, &raw);
        let a = density_mixed_baseline(&g, &wf, &sigma);
        let nat = natural_orbitals(&wf, &sigma);
        let b = density_from_natural(&g, &nat);
        for (x, y) in a.iter().zip(&b) {
            prop_assert!((x - y).abs() < 1e-9);
        }
        // Nonnegative density, correct electron count.
        prop_assert!(a.iter().all(|&r| r > -1e-10));
        let ne = electron_count(&g, &a);
        prop_assert!((ne - 2.0 * sigma.trace().re).abs() < 1e-7);
    }

    #[test]
    fn fock_baseline_equals_diag_any_sigma(
        raw in proptest::collection::vec(-1.0f64..1.0, 24),
        seed in 0u64..100,
    ) {
        let g = grid();
        let wf = Wavefunction::random(&g, 3, seed);
        let sigma = make_sigma(3, &raw);
        let fock = FockOperator::new(&g, 0.2);
        let phi_r = wf.to_real_all(&g);
        let base = fock.apply_mixed_baseline(&phi_r, &sigma);
        let nat = natural_orbitals(&wf, &sigma);
        let nat_r = nat.phi.to_real_all(&g);
        let diag = fock.apply_diag(&nat_r, &nat.occ, &phi_r);
        let scale = base.iter().map(|z| z.abs()).fold(0.0f64, f64::max).max(1e-10);
        let diff = pwnum::cvec::max_abs_diff(&base, &diag);
        prop_assert!(diff < 1e-8 * scale, "diff {diff} scale {scale}");
    }

    #[test]
    fn hartree_is_linear_and_positive(
        amps in proptest::collection::vec(-0.5f64..0.5, 4),
    ) {
        let g = grid();
        let fft = g.fft();
        let make_rho = |scale: f64| -> Vec<f64> {
            (0..g.len())
                .map(|i| {
                    let r = g.r_coord(i);
                    let mut v = 1.0;
                    for (k, a) in amps.iter().enumerate() {
                        v += scale * a
                            * (2.0 * std::f64::consts::PI * (k + 1) as f64 * r[0]
                                / g.lengths[0])
                                .cos();
                    }
                    v
                })
                .collect()
        };
        let rho1 = make_rho(1.0);
        let rho2 = make_rho(2.0);
        let (v1, e1) = hartree_potential(&g, &fft, &rho1);
        let (v2, _) = hartree_potential(&g, &fft, &rho2);
        // Linearity of the potential in the non-uniform part.
        for i in 0..g.len() {
            prop_assert!((v2[i] - 2.0 * v1[i]).abs() < 1e-9);
        }
        // Hartree energy of the fluctuating part is nonnegative.
        prop_assert!(e1 >= -1e-12);
    }

    #[test]
    fn occupations_conserve_electron_count(
        eigs in proptest::collection::vec(-1.0f64..1.0, 8..30),
        ne_frac in 0.1f64..0.9,
        kt in 0.001f64..0.05,
    ) {
        let ne = (2.0 * eigs.len() as f64 * ne_frac).max(1.0);
        let (mu, occ) = occupations(&eigs, ne, kt);
        let total: f64 = 2.0 * occ.iter().sum::<f64>();
        prop_assert!((total - ne).abs() < 1e-8);
        prop_assert!(occ.iter().all(|&f| (0.0..=1.0).contains(&f)));
        // Monotonicity w.r.t. eigenvalue ordering.
        let mut pairs: Vec<(f64, f64)> = eigs.iter().cloned().zip(occ.iter().cloned()).collect();
        pairs.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        for w in pairs.windows(2) {
            prop_assert!(w[1].1 <= w[0].1 + 1e-12);
        }
        prop_assert!(mu.is_finite());
    }

    #[test]
    fn orthonormalization_idempotent_under_rotation(
        seed in 0u64..500,
        angles in proptest::collection::vec(-1.0f64..1.0, 9),
    ) {
        let g = grid();
        let mut wf = Wavefunction::random(&g, 3, seed);
        // Random unitary from a Hermitian generator.
        let hgen = make_sigma(3, &angles);
        let u = eigh(&hgen).vectors;
        wf = wf.rotated(&u);
        // Still orthonormal after the unitary rotation.
        let s = wf.overlap(&wf);
        prop_assert!(s.max_abs_diff(&CMat::identity(3)) < 1e-9);
        // Löwdin on an orthonormal set is identity.
        let mut l = wf.clone();
        l.orthonormalize_lowdin();
        prop_assert!(wf.max_abs_diff(&l) < 1e-8);
    }
}
