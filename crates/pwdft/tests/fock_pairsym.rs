//! Property suite for the Hermitian pair-symmetric Fock scheduler:
//! agreement with the asymmetric path on random mixed states (degenerate
//! occupations, zero tails, non-power-of-two grids, both backends),
//! bitwise-neutral screening at `occ_cutoff = 0`, and the FFT-volume
//! guarantee — at most `n(n+1)/2` Poisson solves for `n` occupied bands,
//! asserted through a counting backend.

use pwdft::fock::{FockOptions, ScreenedKernel};
use pwdft::{Cell, FockOperator, PwGrid, Wavefunction};
use pwnum::backend::{
    Backend, BackendHandle, Blocked, GridTransform, GridTransform32, PairTask, Reference,
};
use pwnum::cmat::CMat;
use pwnum::complex::Complex64;
use pwnum::precision::{CMat32, Complex32};
use pwnum::cvec;
use pwnum::gemm::Op;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Wraps a real backend and counts how many grids flow through
/// `transform_batch` and how many pair tasks flow through
/// `fused_pair_solve{,32}` — every screened Poisson solve costs exactly
/// two grids (forward + inverse), so `grids / 2` is the solve count.
#[derive(Debug)]
struct CountingBackend {
    inner: BackendHandle,
    grids: AtomicUsize,
}

impl CountingBackend {
    fn new(inner: BackendHandle) -> Arc<Self> {
        Arc::new(CountingBackend { inner, grids: AtomicUsize::new(0) })
    }

    fn grids(&self) -> usize {
        self.grids.load(Ordering::SeqCst)
    }

    fn reset(&self) {
        self.grids.store(0, Ordering::SeqCst);
    }
}

impl Backend for CountingBackend {
    fn name(&self) -> &'static str {
        "counting"
    }

    fn gemm(
        &self,
        alpha: Complex64,
        a: &CMat,
        op_a: Op,
        b: &CMat,
        op_b: Op,
        beta: Complex64,
        c0: Option<&CMat>,
    ) -> CMat {
        self.inner.gemm(alpha, a, op_a, b, op_b, beta, c0)
    }

    fn overlap(&self, a: &[Complex64], b: &[Complex64], band_len: usize, scale: f64) -> CMat {
        self.inner.overlap(a, b, band_len, scale)
    }

    fn rotate(&self, a: &[Complex64], q: &CMat, band_len: usize, out: &mut [Complex64]) {
        self.inner.rotate(a, q, band_len, out);
    }

    fn rotate_acc(
        &self,
        alpha: Complex64,
        a: &[Complex64],
        q: &CMat,
        band_len: usize,
        out: &mut [Complex64],
    ) {
        self.inner.rotate_acc(alpha, a, q, band_len, out);
    }

    fn transform_batch(&self, pass: &dyn GridTransform, data: &mut [Complex64], count: usize) {
        self.grids.fetch_add(count, Ordering::SeqCst);
        self.inner.transform_batch(pass, data, count);
    }

    fn fused_pair_solve(
        &self,
        solve: &dyn GridTransform,
        phi: &[Complex64],
        psi: &[Complex64],
        ng: usize,
        tasks: &[PairTask],
        out: &mut [Complex64],
    ) {
        // One fused round trip (forward + inverse) per task.
        self.grids.fetch_add(2 * tasks.len(), Ordering::SeqCst);
        self.inner.fused_pair_solve(solve, phi, psi, ng, tasks, out);
    }

    fn fused_pair_solve32(
        &self,
        solve: &dyn GridTransform32,
        phi: &[Complex32],
        psi: &[Complex32],
        ng: usize,
        tasks: &[PairTask],
        out: &mut [Complex64],
        comp: Option<&mut [Complex64]>,
    ) {
        self.grids.fetch_add(2 * tasks.len(), Ordering::SeqCst);
        self.inner.fused_pair_solve32(solve, phi, psi, ng, tasks, out, comp);
    }

    fn take_buffer(&self, len: usize) -> Vec<Complex64> {
        self.inner.take_buffer(len)
    }

    fn take_buffer_copy(&self, src: &[Complex64]) -> Vec<Complex64> {
        self.inner.take_buffer_copy(src)
    }

    fn take_scratch(&self, len: usize) -> Vec<Complex64> {
        self.inner.take_scratch(len)
    }

    fn recycle_buffer(&self, buf: Vec<Complex64>) {
        self.inner.recycle_buffer(buf);
    }

    fn gemm32(
        &self,
        alpha: Complex32,
        a: &CMat32,
        op_a: Op,
        b: &CMat32,
        op_b: Op,
    ) -> CMat32 {
        self.inner.gemm32(alpha, a, op_a, b, op_b)
    }

    fn overlap32(&self, a: &[Complex32], b: &[Complex32], band_len: usize, scale: f32) -> CMat32 {
        self.inner.overlap32(a, b, band_len, scale)
    }

    fn rotate_acc32(
        &self,
        alpha: Complex32,
        a: &[Complex32],
        q: &CMat32,
        band_len: usize,
        out: &mut [Complex32],
    ) {
        self.inner.rotate_acc32(alpha, a, q, band_len, out);
    }

    fn take_scratch32(&self, len: usize) -> Vec<Complex32> {
        self.inner.take_scratch32(len)
    }

    fn recycle_buffer32(&self, buf: Vec<Complex32>) {
        self.inner.recycle_buffer32(buf);
    }
}

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
    let fft = grid.fft();
    let occupation_sets: [Vec<f64>; 4] = [
        lcg_occ(6, 7),                          // random mixed
        vec![1.0, 1.0, 0.5, 0.5, 0.5, 0.25],    // degenerate
        vec![1.0, 0.9, 0.4, 0.0, 0.0, 0.0],     // zero-occupation tail
        vec![0.8; 6],                           // fully degenerate
    ];
    let backends: [BackendHandle; 2] = [Arc::new(Reference), Arc::new(Blocked::new())];
    for be in backends {
        let be_name = be.name();
        let fock = FockOperator::with_backend(&grid, 0.2, be.clone());
        for (k, occ) in occupation_sets.iter().enumerate() {
            let wf = Wavefunction::random(&grid, occ.len(), 100 + k as u64);
            let phi_r = wf.to_real_all(&fft);
            let psi_copy = phi_r.clone(); // distinct pointer → asymmetric path
            let (sym, s_sym) = fock.apply_diag_stats(&phi_r, occ, &phi_r);
            let (asym, s_asym) = fock.apply_diag_stats(&phi_r, occ, &psi_copy);
            assert!(s_sym.symmetric && !s_asym.symmetric);
            assert!(
                s_sym.solves <= occ.len() * (occ.len() + 1) / 2,
                "{be_name}/set {k}: {} solves",
                s_sym.solves
            );
            assert!(s_sym.solves < s_asym.solves || occ.len() < 2);
            let d = rel_diff(&sym, &asym);
            assert!(d < 1e-10, "{be_name}/set {k}: pairsym vs asym diff {d}");
        }
    }
}

#[test]
fn backends_agree_on_pair_symmetric_apply() {
    let grid = smooth_grid();
    let fft = grid.fft();
    let occ = vec![1.0, 1.0, 0.7, 0.3, 0.0];
    let wf = Wavefunction::random(&grid, occ.len(), 41);
    let phi_r = wf.to_real_all(&fft);
    let f_ref = FockOperator::with_backend(&grid, 0.15, Arc::new(Reference));
    let f_blk = FockOperator::with_backend(&grid, 0.15, Arc::new(Blocked::new()));
    let a = f_ref.apply_pure(&phi_r, &occ);
    let b = f_blk.apply_pure(&phi_r, &occ);
    let d = rel_diff(&a, &b);
    assert!(d < 1e-10, "reference vs blocked pairsym diff {d}");
}

#[test]
fn zero_cutoff_is_bitwise_identical_to_no_screening() {
    let grid = smooth_grid();
    let fft = grid.fft();
    // Zero tail: these are the pairs screening would drop.
    let occ = vec![1.0, 0.6, 0.0, 0.0];
    let wf = Wavefunction::random(&grid, occ.len(), 55);
    let phi_r = wf.to_real_all(&fft);
    let be: BackendHandle = Arc::new(Reference);
    let mk = |cutoff: f64| {
        FockOperator::with_options(
            &grid,
            0.2,
            be.clone(),
            FockOptions::default().with_occ_cutoff(cutoff),
        )
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
    let fft = grid.fft();
    let n = 6;
    let occ = vec![1.0, 0.9, 0.8, 0.7, 0.6, 0.5]; // all occupied
    let wf = Wavefunction::random(&grid, n, 9);
    let phi_r = wf.to_real_all(&fft);
    let pairs = n * (n + 1) / 2;
    let counter = CountingBackend::new(Arc::new(Reference));
    let be: BackendHandle = counter.clone();
    let fock = FockOperator::with_backend(&grid, 0.2, be);
    counter.reset();
    let (_, stats) = fock.apply_pure_stats(&phi_r, &occ);
    assert_eq!(stats.solves, pairs);
    assert_eq!(counter.grids(), 2 * pairs, "FFT grid count");

    counter.reset();
    let psi_copy = phi_r.clone();
    let (_, stats) = fock.apply_diag_stats(&phi_r, &occ, &psi_copy);
    assert_eq!(stats.solves, n * n);
    assert_eq!(counter.grids(), 2 * n * n, "asymmetric FFT grid count");
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
