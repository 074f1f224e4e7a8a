//! Property suite for the Hermitian pair-symmetric Fock scheduler:
//! agreement with the asymmetric path on random mixed states (degenerate
//! occupations, zero tails, non-power-of-two grids) and with paper
//! Alg. 2's baseline triple loop, bitwise-neutral screening at
//! `occ_cutoff = 0`, and the FFT-volume guarantee — at most `n(n+1)/2`
//! Poisson solves for `n` occupied bands, asserted through the
//! operator's solve counters.

use pwdft::fock::{FockOptions, ScreenedKernel};
use pwdft::{Cell, FockOperator, PwGrid, Wavefunction};
use pwnum::cmat::CMat;
use pwnum::complex::Complex64;
use pwnum::cvec;
use std::sync::Arc;

/// Non-power-of-two (2/3/5-smooth) test grid, the paper's grid family.
fn smooth_grid() -> PwGrid {
    let cell = Cell::silicon_supercell(1, 1, 1);
    PwGrid::with_dims(&cell, 2.0, [6, 9, 10])
}

fn lcg_occ(n: usize, seed: u64) -> Vec<f64> {
    let mut s = seed;
    (0..n)
        .map(|_| {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (s >> 11) as f64 / (1u64 << 53) as f64
        })
        .collect()
}

fn rel_diff(a: &[Complex64], b: &[Complex64]) -> f64 {
    let scale = b.iter().map(|z| z.abs()).fold(0.0f64, f64::max).max(1.0);
    cvec::max_abs_diff(a, b) / scale
}

#[test]
fn pair_symmetric_agrees_with_asymmetric_on_mixed_states() {
    let grid = smooth_grid();
    let occupation_sets: [Vec<f64>; 4] = [
        lcg_occ(6, 7),                          // random mixed
        vec![1.0, 1.0, 0.5, 0.5, 0.5, 0.25],    // degenerate
        vec![1.0, 0.9, 0.4, 0.0, 0.0, 0.0],     // zero-occupation tail
        vec![0.8; 6],                           // fully degenerate
    ];
    let fock = FockOperator::new(&grid, 0.2);
    for (k, occ) in occupation_sets.iter().enumerate() {
        let wf = Wavefunction::random(&grid, occ.len(), 100 + k as u64);
        let phi_r = wf.to_real_all(&grid);
        let psi_copy = phi_r.clone(); // distinct pointer → asymmetric path
        let (sym, s_sym) = fock.apply_diag_stats(&phi_r, occ, &phi_r);
        let (asym, s_asym) = fock.apply_diag_stats(&phi_r, occ, &psi_copy);
        assert!(s_sym.symmetric && !s_asym.symmetric);
        assert!(
            s_sym.solves <= occ.len() * (occ.len() + 1) / 2,
            "set {k}: {} solves",
            s_sym.solves
        );
        assert!(s_sym.solves < s_asym.solves || occ.len() < 2);
        let d = rel_diff(&sym, &asym);
        assert!(d < 1e-10, "set {k}: pairsym vs asym diff {d}");
    }
}

#[test]
fn backends_agree_on_pair_symmetric_apply() {
    // The pair pipeline against paper Alg. 2's baseline: staged per-pair
    // Poisson solves in a plain triple loop, σ = diag(occ).
    let grid = smooth_grid();
    let occ = vec![1.0, 1.0, 0.7, 0.3, 0.0];
    let wf = Wavefunction::random(&grid, occ.len(), 41);
    let phi_r = wf.to_real_all(&grid);
    let fock = FockOperator::new(&grid, 0.15);
    let a = fock.apply_mixed_baseline(&phi_r, &CMat::from_real_diag(&occ));
    let b = fock.apply_pure(&phi_r, &occ);
    let d = rel_diff(&a, &b);
    assert!(d < 1e-10, "baseline vs pairsym diff {d}");
}

#[test]
fn zero_cutoff_is_bitwise_identical_to_no_screening() {
    let grid = smooth_grid();
    // Zero tail: these are the pairs screening would drop.
    let occ = vec![1.0, 0.6, 0.0, 0.0];
    let wf = Wavefunction::random(&grid, occ.len(), 55);
    let phi_r = wf.to_real_all(&grid);
    let mk = |cutoff: f64| {
        FockOperator::with_options(&grid, 0.2, FockOptions::default().with_occ_cutoff(cutoff))
    };
    // occ_cutoff = 0 keeps every pair (|d| < 0 is never true): screening
    // fully disabled, same as a negative sentinel cutoff.
    let (v0, s0) = mk(0.0).apply_pure_stats(&phi_r, &occ);
    let (voff, soff) = mk(-1.0).apply_pure_stats(&phi_r, &occ);
    assert_eq!(s0.skipped_pairs, 0);
    assert_eq!(s0.skipped_weight, 0.0);
    assert_eq!(s0.solves, soff.solves);
    assert_eq!(cvec::max_abs_diff(&v0, &voff), 0.0, "cutoff 0 must not screen");
    // The default cutoff only drops exactly-zero contributions, whose
    // scatter would add w = 0 products: bitwise identical output too.
    let (vdef, sdef) = mk(pwdft::smearing::DEFAULT_OCC_CUTOFF).apply_pure_stats(&phi_r, &occ);
    assert!(sdef.solves < s0.solves);
    assert_eq!(cvec::max_abs_diff(&vdef, &v0), 0.0, "default cutoff changed the result");
}

#[test]
fn symmetric_apply_fft_volume_is_halved() {
    // The acceptance bound: for n occupied bands the symmetric apply
    // performs at most n(n+1)/2 Poisson solves, i.e. n(n+1) FFT grids,
    // where the asymmetric path pays 2·n² — one round trip per surviving
    // pair, no padding volume.
    let cell = Cell::silicon_supercell(1, 1, 1);
    let grid = PwGrid::with_dims(&cell, 2.0, [6, 6, 6]);
    let n = 6;
    let occ = vec![1.0, 0.9, 0.8, 0.7, 0.6, 0.5]; // all occupied
    let wf = Wavefunction::random(&grid, n, 9);
    let phi_r = wf.to_real_all(&grid);
    let pairs = n * (n + 1) / 2;
    // Every screened Poisson solve costs exactly two grids (forward +
    // inverse); the operator's counters see each solve the pipeline ran.
    let fock = FockOperator::new(&grid, 0.2);
    let grids = |since: (usize, usize)| {
        let (fp64, fp32) = fock.counters().since(since);
        2 * (fp64 + fp32)
    };
    let snap = fock.counters().snapshot();
    let (_, stats) = fock.apply_pure_stats(&phi_r, &occ);
    assert_eq!(stats.solves, pairs);
    assert_eq!(grids(snap), 2 * pairs, "FFT grid count");

    let snap = fock.counters().snapshot();
    let psi_copy = phi_r.clone();
    let (_, stats) = fock.apply_diag_stats(&phi_r, &occ, &psi_copy);
    assert_eq!(stats.solves, n * n);
    assert_eq!(grids(snap), 2 * n * n, "asymmetric FFT grid count");
}

#[test]
fn kernel_is_shared_between_operators_on_one_grid() {
    // Satellite: ScreenedKernel::hse memoizes per (grid, ω) — repeated
    // operator construction in hot loops must not re-evaluate exp(Ng).
    let grid = smooth_grid();
    let k1 = ScreenedKernel::hse(&grid, 0.106);
    let k2 = ScreenedKernel::hse(&grid, 0.106);
    assert!(Arc::ptr_eq(&k1.kg, &k2.kg), "same ω must share the cached kernel");
    let k3 = ScreenedKernel::hse(&grid, 0.2);
    assert!(!Arc::ptr_eq(&k1.kg, &k3.kg), "different ω is a different kernel");
}
