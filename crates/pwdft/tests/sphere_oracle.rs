//! Bit-identity oracle for the cutoff-sphere band layout: every G-space
//! kernel run on compact blocks (one coefficient per plane wave inside
//! the cutoff) must return, to the bit, what it returns on the same
//! blocks expanded onto the full FFT grid with `+0.0` outside the sphere
//! — the layout bands had before they were stored on the sphere. Each
//! dropped term of a reduction is an exact zero added to a chain that
//! starts at `+0.0`, and elementwise kernels never mix grid points, so
//! nothing may move.
//!
//! Covered, in fp64 and (where the kernel has an fp32 form) fp32:
//! `overlap`, `rotate`, `rotate_acc`, `lincomb`, `AndersonMixer::step`,
//! `Hamiltonian::apply` (local + dense exchange, local + ACE exchange)
//! and the `to_real`/`from_real` round trip. The whole oracle runs again
//! in child processes at `PWDFT_NUM_THREADS` = 1 and 3, so every
//! parallel region is checked at both worker counts.

use pwdft::mixing::AndersonMixer;
use pwdft::{AceOperator, Cell, DftSystem, Exchange, FockOperator, Hamiltonian, PwGrid, Wavefunction};
use pwnum::backend;
use pwnum::bands;
use pwnum::cmat::CMat;
use pwnum::complex::{c64, Complex64};
use pwnum::cvec;
use pwnum::precision::{self, CMat32, Complex32, StagePrecision};
use std::process::Command;
use std::sync::Arc;

/// Deterministic values in (−0.5, 0.5).
fn lcg(seed: u64) -> impl FnMut() -> f64 {
    let mut s = seed;
    move || {
        s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (s >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    }
}

fn random_cmat(rows: usize, cols: usize, seed: u64) -> CMat {
    let mut r = lcg(seed);
    CMat::from_fn(rows, cols, |_, _| c64(r(), r()))
}

fn random_compact(grid: &PwGrid, n_bands: usize, seed: u64) -> Vec<Complex64> {
    let mut r = lcg(seed);
    (0..n_bands * grid.n_pw()).map(|_| c64(r(), r())).collect()
}

/// A band-major compact block expanded onto the FFT grid.
fn expand(grid: &PwGrid, compact: &[Complex64]) -> Vec<Complex64> {
    let n_bands = compact.len() / grid.n_pw();
    let mut full = vec![Complex64::ZERO; n_bands * grid.len()];
    for (c, f) in compact.chunks_exact(grid.n_pw()).zip(full.chunks_exact_mut(grid.len())) {
        grid.scatter(c, f);
    }
    full
}

/// The sphere coefficients of a band-major full-grid block.
fn compress(grid: &PwGrid, full: &[Complex64]) -> Vec<Complex64> {
    let n_bands = full.len() / grid.len();
    let mut compact = vec![Complex64::ZERO; n_bands * grid.n_pw()];
    for (f, c) in full.chunks_exact(grid.len()).zip(compact.chunks_exact_mut(grid.n_pw())) {
        grid.gather(f, c);
    }
    compact
}

/// A full-grid block in the `Wavefunction` shape bands had before the
/// sphere layout: `ng` = the FFT grid size.
fn full_block(grid: &PwGrid, compact: &Wavefunction) -> Wavefunction {
    Wavefunction { ng: grid.len(), data: expand(grid, &compact.data), ..compact.clone() }
}

fn assert_bits(what: &str, a: &[Complex64], b: &[Complex64]) {
    assert_eq!(a.len(), b.len(), "{what}: lengths");
    for (k, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(
            x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
            "{what}: element {k}: {x:?} vs {y:?}"
        );
    }
}

fn assert_bits32(what: &str, a: &[Complex32], b: &[Complex32]) {
    assert_eq!(a.len(), b.len(), "{what}: lengths");
    for (k, (x, y)) in a.iter().zip(b).enumerate() {
        assert!(
            x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
            "{what}: element {k}: {x:?} vs {y:?}"
        );
    }
}

/// The Hamiltonian apply on full-grid bands, as it ran before bands were
/// stored on the sphere: the block transformed as is, the kinetic term
/// over every grid point, the ACE term on full-grid ξ, then the cutoff
/// mask.
fn full_grid_apply(h: &Hamiltonian, ace_full: Option<&AceOperator>, psi: &Wavefunction) -> Vec<Complex64> {
    let (grid, n) = (h.grid, h.grid.len());
    let mut psi_r = psi.data.clone();
    h.fft.inverse_many(&mut psi_r, psi.n_bands);
    let vx_r = match &h.exchange {
        Exchange::Dense { nat_r, occ } => {
            Some(h.fock.as_ref().expect("dense exchange").apply_diag(nat_r, occ, &psi_r))
        }
        _ => None,
    };
    let mut work = psi_r;
    for (b, wband) in work.chunks_exact_mut(n).enumerate() {
        for (w, &v) in wband.iter_mut().zip(&h.vtot) {
            *w = w.scale(v);
        }
        if let Some(vx) = &vx_r {
            cvec::axpy(Complex64::from_re(h.alpha), &vx[b * n..(b + 1) * n], wband);
        }
    }
    h.fft.forward_many(&mut work, psi.n_bands);
    let mut out: Vec<Complex64> = work
        .iter()
        .zip(&psi.data)
        .enumerate()
        .map(|(k, (w, c))| *w + c.scale(0.5 * grid.g2[k % n]))
        .collect();
    if let Some(ace) = ace_full {
        ace.apply_add(psi, h.alpha, &mut out);
    }
    // The cutoff mask.
    let mut inside = vec![false; n];
    for &g in &grid.sphere {
        inside[g] = true;
    }
    for (k, o) in out.iter_mut().enumerate() {
        if !inside[k % n] {
            *o = Complex64::ZERO;
        }
    }
    out
}

/// The oracle body: every kernel at this process's thread count.
fn check_compact_against_full_grid() {
    let sys = DftSystem::with_dims(Cell::silicon_supercell(1, 1, 1), 4.0, [12, 12, 12]);
    let grid = &sys.grid;
    let (n, ng, nb) = (grid.len(), grid.n_pw(), 24);
    assert!(ng < n);
    let scale = grid.volume() / (n as f64 * n as f64);

    let a = random_compact(grid, nb, 1);
    let b = random_compact(grid, nb, 2);
    let (a_full, b_full) = (expand(grid, &a), expand(grid, &b));

    // overlap (fp64, fp32).
    let s = backend::overlap(&a, &b, ng, scale);
    let s_full = backend::overlap(&a_full, &b_full, n, scale);
    assert_bits("overlap", s.as_slice(), s_full.as_slice());
    let (a32, b32) = (precision::demote(&a), precision::demote(&b));
    let (a32_full, b32_full) = (precision::demote(&a_full), precision::demote(&b_full));
    let s32: CMat32 = backend::overlap32(&a32, &b32, ng, scale as f32);
    let s32_full = backend::overlap32(&a32_full, &b32_full, n, scale as f32);
    assert_bits32("overlap32", s32.as_slice(), s32_full.as_slice());

    // rotate, rotate_acc (fp64, fp32). A zero weight takes the kernel's
    // skip path as well.
    let mut q = random_cmat(nb, nb - 3, 3);
    q[(2, 1)] = Complex64::ZERO;
    let mut rot = vec![Complex64::ZERO; (nb - 3) * ng];
    let mut rot_full = vec![Complex64::ZERO; (nb - 3) * n];
    backend::rotate(&a, &q, ng, &mut rot);
    backend::rotate(&a_full, &q, n, &mut rot_full);
    assert_bits("rotate", &expand(grid, &rot), &rot_full);
    let alpha = c64(-0.75, 0.25);
    let mut acc = b[..(nb - 3) * ng].to_vec();
    let mut acc_full = expand(grid, &acc);
    backend::rotate_acc(alpha, &a, &q, ng, &mut acc);
    backend::rotate_acc(alpha, &a_full, &q, n, &mut acc_full);
    assert_bits("rotate_acc", &acc, &compress(grid, &acc_full));
    let q32 = CMat32::from_fn(nb, nb - 3, |i, j| Complex32::from_c64(q[(i, j)]));
    let mut acc32 = precision::demote(&b[..(nb - 3) * ng]);
    let mut acc32_full = precision::demote(&expand(grid, &b[..(nb - 3) * ng]));
    let alpha32 = Complex32::from_c64(alpha);
    backend::rotate_acc32(alpha32, &a32, &q32, ng, &mut acc32);
    backend::rotate_acc32(alpha32, &a32_full, &q32, n, &mut acc32_full);
    let acc32_back = precision::demote(&compress(grid, &precision::promote(&acc32_full)));
    assert_bits32("rotate_acc32", &acc32, &acc32_back);

    // lincomb.
    let (ca, cb) = (c64(1.0, 0.0), c64(0.0, -0.05));
    let mut lc = vec![Complex64::ZERO; a.len()];
    let mut lc_full = vec![Complex64::ZERO; a_full.len()];
    bands::lincomb(ca, &a, cb, &b, &mut lc);
    bands::lincomb(ca, &a_full, cb, &b_full, &mut lc_full);
    assert_bits("lincomb", &lc, &compress(grid, &lc_full));

    // AndersonMixer::step on packed [Φ | σ] iterates, history growing
    // past the worker count.
    let (mut mix, mut mix_full) = (AndersonMixer::new(6, 0.6), AndersonMixer::new(6, 0.6));
    let sigma: Vec<Complex64> = random_cmat(4, 4, 9).as_slice().to_vec();
    let mut x = [a.clone(), sigma.clone()].concat();
    let mut x_full = [a_full.clone(), sigma.clone()].concat();
    for it in 0..8u64 {
        let t = random_compact(grid, nb, 100 + it);
        let tx: Vec<Complex64> = x[..a.len()]
            .iter()
            .zip(&t)
            .map(|(xi, ti)| *xi * c64(0.9, 0.05) + ti.scale(0.1))
            .chain(sigma.iter().map(|s| s.scale(0.5 + 0.01 * it as f64)))
            .collect();
        let tx_full = [expand(grid, &tx[..a.len()]), tx[a.len()..].to_vec()].concat();
        x = mix.step(&x, &tx);
        x_full = mix_full.step(&x_full, &tx_full);
        let back = [compress(grid, &x_full[..a_full.len()]), x_full[a_full.len()..].to_vec()].concat();
        assert_bits(&format!("anderson step {it}"), &x, &back);
    }

    // to_real / from_real round trip.
    let mut phi = Wavefunction::random(grid, 8, 5);
    phi.orthonormalize_lowdin();
    let real = phi.to_real_all(grid);
    let mut real_full = expand(grid, &phi.data);
    sys.fft.inverse_many(&mut real_full, phi.n_bands);
    assert_bits("to_real_all", &real, &real_full);
    let mut one = vec![Complex64::ZERO; n];
    phi.to_real(grid, 3, &mut one);
    assert_bits("to_real", &one, &real_full[3 * n..4 * n]);
    let back = Wavefunction::from_real(grid, real.clone());
    let mut fwd = real;
    sys.fft.forward_many(&mut fwd, phi.n_bands);
    assert_bits("from_real", &back.data, &compress(grid, &fwd));
    assert!(back.max_abs_diff(&phi) < 1e-12, "round trip");

    // Hamiltonian::apply: local + dense exchange, then local + ACE
    // exchange in fp64 and with the fp32 subspace stage.
    let psi = phi.rotated(&random_cmat(8, 8, 11));
    let psi_full = full_block(grid, &psi);
    let mut r = lcg(13);
    let vhxc: Vec<f64> = (0..n).map(|_| r()).collect();
    let vext: Vec<f64> = (0..n).map(|_| 0.1 * r()).collect();
    let occ: Vec<f64> = (0..8).map(|i| 1.0 / (1.0 + 0.3 * i as f64)).collect();
    let fock = FockOperator::new(grid, 0.2);
    let nat_r = phi.to_real_all(grid);
    let dense = Exchange::Dense { nat_r: nat_r.clone(), occ: occ.clone() };
    let h = Hamiltonian::new(grid, &sys.vloc, &vhxc, &vext, 0.25, dense, Some(fock));
    assert_bits("H apply (dense)", &h.apply(&psi).data, &compress(grid, &full_grid_apply(&h, None, &psi_full)));

    let vx = FockOperator::new(grid, 0.2).apply_diag(&nat_r, &occ, &nat_r);
    let w = Wavefunction::from_real(grid, vx);
    let (phi_full, w_full) = (full_block(grid, &phi), full_block(grid, &w));
    for stage in [StagePrecision::Fp64, StagePrecision::Fp32Promoted] {
        let ace = AceOperator::build_with_policy(&phi, &w, stage);
        let ace_full = AceOperator::build_with_policy(&phi_full, &w_full, stage);
        assert_bits(&format!("ACE ξ ({stage:?})"), &ace.xi.data, &compress(grid, &ace_full.xi.data));
        let h = Hamiltonian::new(grid, &sys.vloc, &vhxc, &vext, 0.25, Exchange::Ace(Arc::new(ace)), None);
        let full = full_grid_apply(&h, Some(&ace_full), &psi_full);
        assert_bits(&format!("H apply (ACE, {stage:?})"), &h.apply(&psi).data, &compress(grid, &full));
    }
}

/// The oracle at the process's own thread count; the suite runs it
/// through [`compact_blocks_match_full_grid_bitwise_at_1_and_3_threads`].
#[test]
#[ignore = "run by compact_blocks_match_full_grid_bitwise_at_1_and_3_threads"]
fn oracle_at_process_thread_count() {
    check_compact_against_full_grid();
}

#[test]
fn compact_blocks_match_full_grid_bitwise_at_1_and_3_threads() {
    let exe = std::env::current_exe().expect("test binary path");
    for threads in ["1", "3"] {
        let out = Command::new(&exe)
            .args(["--ignored", "--exact", "oracle_at_process_thread_count", "--test-threads=1"])
            .env("PWDFT_NUM_THREADS", threads)
            .output()
            .expect("spawn the oracle");
        let log = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success() && log.contains("1 passed"),
            "oracle at {threads} threads failed:\n{log}\n{}",
            String::from_utf8_lossy(&out.stderr)
        );
    }
}
