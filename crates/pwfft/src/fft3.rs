//! Three-dimensional FFTs over row-major grids.
//!
//! Grid layout: index `(i0, i1, i2) -> (i0*n1 + i1)*n2 + i2` (axis 2
//! fastest). Wavefunctions and densities in `pwdft` live on such grids;
//! the Fock exchange operator performs two 3D transforms per orbital pair,
//! which makes [`Fft3::convolve_pass`] (one screened-Poisson round trip,
//! batched over pairs by [`backend::fused_pair_solve`]) the hottest path
//! in the whole code — the Rust analog of the paper's multi-batch cuFFT
//! strategy (Sec. III-B b).
//!
//! Every transform runs one way: each axis through the tile kernel
//! (module `tile`) — 16 lines at a time gathered straight from the grid
//! into the calling thread's L1 tile, all butterfly levels there, one
//! store back. The CPU analog of the fused multi-line passes in the
//! paper's GPU FFT path; bitwise equal to a per-line 1-D [`Plan`] sweep
//! over the three axes (the test oracle).

use crate::plan::Plan;
use crate::tile;
use pwnum::backend::{self, DefaultBackend, GridTransform};
use pwnum::complex::Complex64;
use std::sync::Arc;

/// Plans for a fixed 3D grid shape (shared: cloning is one `Arc` bump).
#[derive(Clone, Debug)]
pub struct Fft3 {
    n0: usize,
    n1: usize,
    n2: usize,
    plans: Arc<[Plan; 3]>,
}

impl Fft3 {
    /// Creates plans for an `n0 x n1 x n2` grid.
    pub fn new(n0: usize, n1: usize, n2: usize) -> Self {
        assert!(n0 > 0 && n1 > 0 && n2 > 0, "grid dimensions must be positive");
        Fft3 { n0, n1, n2, plans: Arc::new([Plan::new(n0), Plan::new(n1), Plan::new(n2)]) }
    }

    /// True when `other` is a handle to the same compiled plans (clones
    /// of one set, e.g. every handle a grid's plan cache gives out).
    #[inline]
    pub fn shares_plans_with(&self, other: &Fft3) -> bool {
        Arc::ptr_eq(&self.plans, &other.plans)
    }

    /// Total number of grid points.
    #[inline]
    pub fn len(&self) -> usize {
        self.n0 * self.n1 * self.n2
    }

    /// True for the degenerate 1-point grid.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 1
    }

    /// Grid dimensions `(n0, n1, n2)`.
    #[inline]
    pub fn dims(&self) -> (usize, usize, usize) {
        (self.n0, self.n1, self.n2)
    }

    /// Forward 3D transform, in place (unnormalized).
    pub fn forward(&self, data: &mut [Complex64]) {
        let _s = pwobs::span("fft.forward");
        self.transform_fused(data, false);
    }

    /// Inverse 3D transform, in place (normalized by `1/len`).
    pub fn inverse(&self, data: &mut [Complex64]) {
        let _s = pwobs::span("fft.inverse");
        self.transform_fused(data, true);
    }

    /// Transforms one grid in place, every axis through the tile kernel.
    /// The tile is the calling thread's own, so no scratch is passed.
    pub fn transform_fused(&self, data: &mut [Complex64], inverse: bool) {
        self.tiled(data, inverse, None);
    }

    fn tiled(&self, data: &mut [Complex64], inverse: bool, kernel: Option<&[f64]>) {
        tile::transform3(self.plans.each_ref().map(|p| &p.tile), data, inverse, kernel);
    }

    /// One direction of the transform as a [`GridTransform`] pass, ready
    /// to hand to [`backend::transform_batch`].
    #[inline]
    pub fn pass(&self, inverse: bool) -> FftPass<'_> {
        FftPass { fft: self, inverse }
    }

    /// Batched forward transform of `count` consecutive grids
    /// ([`backend::transform_batch`] owns the slab decomposition and
    /// thread count).
    pub fn forward_many(&self, data: &mut [Complex64], count: usize) {
        backend::transform_batch(&self.pass(false), data, count);
    }

    /// Batched inverse transform of `count` consecutive grids.
    pub fn inverse_many(&self, data: &mut [Complex64], count: usize) {
        backend::transform_batch(&self.pass(true), data, count);
    }

    /// Batched filtered round trip over `count` consecutive grids:
    /// forward transform, elementwise multiply by the real `kernel`
    /// (cycled per grid), inverse transform — all in place in `data`.
    ///
    /// This is the staged screened-Poisson solve of the Fock exchange:
    /// the baseline and the per-pair test oracle drive it on one pair
    /// grid, so the whole round trip reuses a single buffer
    /// with no intermediate copies (the batched schedulers use
    /// [`Self::convolve_pass`] instead).
    pub fn convolve_many(&self, data: &mut [Complex64], count: usize, kernel: &[f64]) {
        assert_eq!(kernel.len(), self.len(), "convolve kernel/grid length mismatch");
        assert_eq!(data.len(), count * self.len(), "FFT3 batch length mismatch");
        if count == 0 {
            return;
        }
        self.forward_many(data, count);
        pwnum::cvec::scale_by_real(kernel, data);
        self.inverse_many(data, count);
    }

    /// The whole screened-Poisson round trip — forward 3-D FFT, `K(G)`
    /// multiply, inverse 3-D FFT — over one grid as six tile passes: the
    /// kernel multiply rides in the store of the last forward axis, the
    /// `1/n` factors in the stores of the inverse axes, and nothing but
    /// the L1 tile exists besides the grid. Both directions visit the
    /// axes in the staged order (2, 1, 0) with the per-line arithmetic,
    /// so results are *bitwise identical* to the staged
    /// `forward → scale → inverse` round trip.
    pub fn convolve_grid_fused(&self, grid: &mut [Complex64], kernel: &[f64]) {
        assert_eq!(kernel.len(), self.len(), "convolve kernel/grid length mismatch");
        self.tiled(grid, false, Some(kernel));
        self.tiled(grid, true, None);
    }

    /// The filtered round trip ([`Self::convolve_grid_fused`]) as one
    /// [`GridTransform`]: the `solve` operator of
    /// [`backend::fused_pair_solve`] — bitwise identical to
    /// [`Self::convolve_many`].
    #[inline]
    pub fn convolve_pass<'f>(&'f self, kernel: &'f [f64]) -> ConvolvePass<'f> {
        assert_eq!(kernel.len(), self.len(), "convolve kernel/grid length mismatch");
        ConvolvePass { fft: self, kernel }
    }

    /// The per-line 3-D driver: one 1-D [`Plan`] call per line of each
    /// axis, in the tile kernel's (2, 1, 0) order — the oracle the
    /// bitwise tests compare the tile kernel against.
    #[cfg(test)]
    fn per_line(&self, data: &mut [Complex64], inverse: bool) {
        assert_eq!(data.len(), self.len(), "FFT3 buffer length mismatch");
        let (n0, n1, n2) = (self.n0, self.n1, self.n2);
        let [plan0, plan1, plan2] = &*self.plans;
        let mut scratch = vec![Complex64::ZERO; n0.max(n1).max(n2)];
        // Gathers the line at `base` (element spacing `stride`),
        // transforms it and stores it back.
        let mut line = |plan: &Plan, base: usize, stride: usize| {
            let mut seg: Vec<_> = (0..plan.len()).map(|k| data[base + k * stride]).collect();
            if inverse {
                plan.inverse_with(&mut seg, &mut scratch);
            } else {
                plan.forward_with(&mut seg, &mut scratch);
            }
            for (k, z) in seg.into_iter().enumerate() {
                data[base + k * stride] = z;
            }
        };
        (0..n0 * n1).for_each(|row| line(plan2, row * n2, 1));
        (0..n0 * n2).for_each(|i| line(plan1, (i / n2) * n1 * n2 + i % n2, n2));
        (0..n1 * n2).for_each(|i12| line(plan0, i12, n1 * n2));
    }
}

/// Source compatibility for the repo benchmark's frozen harness (see
/// `pwnum::backend::compat`): forwarders only.
impl Fft3 {
    /// [`Self::forward_many`].
    pub fn forward_many_with(&self, _: &DefaultBackend, data: &mut [Complex64], count: usize) {
        self.forward_many(data, count)
    }

    /// [`Self::inverse_many`].
    pub fn inverse_many_with(&self, _: &DefaultBackend, data: &mut [Complex64], count: usize) {
        self.inverse_many(data, count)
    }

    /// [`Self::convolve_many`].
    pub fn convolve_many_with(
        &self,
        _: &DefaultBackend,
        data: &mut [Complex64],
        count: usize,
        kernel: &[f64],
    ) {
        self.convolve_many(data, count, kernel)
    }
}

/// The screened-Poisson round trip (forward FFT → `K(G)` → inverse FFT)
/// as a single [`GridTransform`] — what the fused pair-solve pipeline
/// hands to [`backend::fused_pair_solve`].
#[derive(Clone, Copy, Debug)]
pub struct ConvolvePass<'f> {
    fft: &'f Fft3,
    kernel: &'f [f64],
}

impl GridTransform for ConvolvePass<'_> {
    fn grid_len(&self) -> usize {
        self.fft.len()
    }

    fn run(&self, grid: &mut [Complex64]) {
        self.fft.convolve_grid_fused(grid, self.kernel);
    }
}

/// One direction of a [`Fft3`] as a batched-transform pass: the bridge
/// between the FFT plans and [`backend::transform_batch`].
#[derive(Clone, Copy, Debug)]
pub struct FftPass<'f> {
    fft: &'f Fft3,
    inverse: bool,
}

impl GridTransform for FftPass<'_> {
    fn grid_len(&self) -> usize {
        self.fft.len()
    }

    fn run(&self, grid: &mut [Complex64]) {
        self.fft.transform_fused(grid, self.inverse);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwnum::complex::c64;

    fn bits_eq(a: &[Complex64], b: &[Complex64]) -> bool {
        a.len() == b.len()
            && a.iter().zip(b).all(|(x, y)| {
                x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits()
            })
    }

    fn signal(len: usize, seed: f64) -> Vec<Complex64> {
        (0..len)
            .map(|j| c64((j as f64 * 0.31 + seed).sin(), (j as f64 * 0.17 - seed).cos()))
            .collect()
    }

    fn naive_3d(
        x: &[Complex64],
        dims: (usize, usize, usize),
        k: (usize, usize, usize),
    ) -> Complex64 {
        let (n0, n1, n2) = dims;
        let mut acc = Complex64::ZERO;
        for i0 in 0..n0 {
            for i1 in 0..n1 {
                for i2 in 0..n2 {
                    let phase = -2.0
                        * std::f64::consts::PI
                        * (k.0 * i0) as f64
                        / n0 as f64
                        - 2.0 * std::f64::consts::PI * (k.1 * i1) as f64 / n1 as f64
                        - 2.0 * std::f64::consts::PI * (k.2 * i2) as f64 / n2 as f64;
                    acc += x[(i0 * n1 + i1) * n2 + i2] * Complex64::cis(phase);
                }
            }
        }
        acc
    }

    #[test]
    fn matches_naive_small() {
        let dims = (3, 4, 5);
        let fft = Fft3::new(dims.0, dims.1, dims.2);
        let x = signal(fft.len(), 0.6);
        let mut y = x.clone();
        fft.forward(&mut y);
        for k0 in 0..dims.0 {
            for k1 in 0..dims.1 {
                for k2 in 0..dims.2 {
                    let want = naive_3d(&x, dims, (k0, k1, k2));
                    let got = y[(k0 * dims.1 + k1) * dims.2 + k2];
                    assert!((want - got).abs() < 1e-10, "mismatch at ({k0},{k1},{k2})");
                }
            }
        }
    }

    #[test]
    fn roundtrip() {
        for dims in [(2, 2, 2), (4, 6, 10), (8, 9, 5), (12, 12, 12)] {
            let fft = Fft3::new(dims.0, dims.1, dims.2);
            let x = signal(fft.len(), 1.2);
            let mut y = x.clone();
            fft.forward(&mut y);
            fft.inverse(&mut y);
            for (a, b) in y.iter().zip(&x) {
                assert!((*a - *b).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn plane_wave_is_delta_in_g_space() {
        // exp(+2πi (k·r)/N) transforms to a delta at +k under the forward
        // convention X[k] = sum x exp(-2πi kr/N).
        let (n0, n1, n2) = (6, 6, 6);
        let fft = Fft3::new(n0, n1, n2);
        let (k0, k1, k2) = (2usize, 1usize, 5usize);
        let mut x = vec![Complex64::ZERO; fft.len()];
        for i0 in 0..n0 {
            for i1 in 0..n1 {
                for i2 in 0..n2 {
                    let phase = 2.0 * std::f64::consts::PI
                        * (k0 * i0) as f64 / n0 as f64
                        + 2.0 * std::f64::consts::PI * (k1 * i1) as f64 / n1 as f64
                        + 2.0 * std::f64::consts::PI * (k2 * i2) as f64 / n2 as f64;
                    x[(i0 * n1 + i1) * n2 + i2] = Complex64::cis(phase);
                }
            }
        }
        fft.forward(&mut x);
        let peak = (k0 * n1 + k1) * n2 + k2;
        for (idx, z) in x.iter().enumerate() {
            if idx == peak {
                assert!((*z - c64(fft.len() as f64, 0.0)).abs() < 1e-8);
            } else {
                assert!(z.abs() < 1e-8, "leakage at {idx}: {z:?}");
            }
        }
    }

    #[test]
    fn parseval_3d() {
        let fft = Fft3::new(4, 5, 6);
        let x = signal(fft.len(), 0.9);
        let e_time: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let mut y = x.clone();
        fft.forward(&mut y);
        let e_freq: f64 = y.iter().map(|z| z.norm_sqr()).sum::<f64>() / fft.len() as f64;
        assert!((e_time - e_freq).abs() < 1e-9 * e_time);
    }

    #[test]
    fn convolve_matches_manual_roundtrip() {
        // The filtered round trip equals forward → kernel multiply →
        // inverse done by hand, per grid — and the
        // conjugate symmetry the pair scheduler relies on holds: a real
        // kernel gives convolve(conj f) = conj(convolve f).
        let fft = Fft3::new(4, 6, 5);
        let n = fft.len();
        let count = 3;
        // Even in G (K(-G) = K(G)), like every |G|²-derived physical
        // kernel — required for the conjugate-symmetry check below.
        let fold = |i: usize, d: usize| -> f64 {
            let m = if i <= d / 2 { i as i64 } else { i as i64 - d as i64 };
            m as f64
        };
        let mut kernel = vec![0.0f64; n];
        for i0 in 0..4 {
            for i1 in 0..6 {
                for i2 in 0..5 {
                    let g2 = fold(i0, 4).powi(2) + fold(i1, 6).powi(2) + fold(i2, 5).powi(2);
                    kernel[(i0 * 6 + i1) * 5 + i2] = 1.0 / (1.0 + g2);
                }
            }
        }
        let base = signal(n * count, 0.7);
        let mut got = base.clone();
        fft.convolve_many(&mut got, count, &kernel);
        let mut want = base.clone();
        for grid in want.chunks_mut(n) {
            fft.forward(grid);
            for (z, &k) in grid.iter_mut().zip(&kernel) {
                *z = z.scale(k);
            }
            fft.inverse(grid);
        }
        for (a, b) in got.iter().zip(&want) {
            assert!((*a - *b).abs() < 1e-10, "convolve mismatch");
        }
        // Conjugate symmetry.
        let mut conj_in: Vec<Complex64> = base[..n].iter().map(|z| z.conj()).collect();
        fft.convolve_many(&mut conj_in, 1, &kernel);
        for (a, b) in conj_in.iter().zip(&got[..n]) {
            assert!((*a - b.conj()).abs() < 1e-9, "W_ji != conj(W_ij)");
        }
    }

    #[test]
    fn fused_convolve_matches_staged_roundtrip_bitwise() {
        // The tiled convolve and the tiled one-direction transforms must
        // match the per-line forward → K(G) → inverse chain bitwise: the
        // tile kernel is lane-exact and both directions visit the axes
        // in the same (2, 1, 0) order. Shapes cover radix 2/3/4/5/7,
        // partial tiles (lines % 16 != 0), a 1-point axis, the
        // 2/3/5-smooth batch shapes of `tests/properties.rs` and the
        // paper's 60×90×120 production grid.
        for dims in [
            (12usize, 12usize, 12usize),
            (16, 16, 16),
            (32, 32, 32),
            (10, 12, 15),
            (14, 12, 10),
            (1, 8, 8),
            (6, 6, 6),
            (4, 6, 10),
            (8, 9, 5),
            (6, 10, 15),
            (9, 12, 5),
            (10, 18, 12),
            (15, 4, 9),
            (20, 6, 10),
            (60, 90, 120),
        ] {
            let fft = Fft3::new(dims.0, dims.1, dims.2);
            let n = fft.len();
            let kernel: Vec<f64> = (0..n).map(|i| 1.0 / (1.0 + i as f64)).collect();
            let base = signal(n, 0.7);
            let mut staged = base.clone();
            fft.per_line(&mut staged, false);
            let mut fused = base.clone();
            fft.forward(&mut fused);
            assert!(bits_eq(&fused, &staged), "tiled forward not bitwise on {dims:?}");
            for (z, &k) in staged.iter_mut().zip(&kernel) {
                *z = z.scale(k);
            }
            fft.per_line(&mut staged, true);
            let mut fused = base.clone();
            fft.convolve_grid_fused(&mut fused, &kernel);
            assert!(bits_eq(&fused, &staged), "tiled convolve not bitwise on {dims:?}");
            fft.inverse(&mut fused);
            fft.per_line(&mut staged, true);
            assert!(bits_eq(&fused, &staged), "tiled inverse not bitwise on {dims:?}");

            // Structural guard: no grid-sized buffer behind the passes —
            // the thread's tile is O(n_max · LANES) whatever the grid.
            let n_max = dims.0.max(dims.1).max(dims.2);
            let tile = fft.plans.iter().map(|p| p.tile.tile_len()).max().unwrap();
            assert!(tile <= 4 * n_max * tile::LANES, "tile of {tile} reals on {dims:?}");
        }
    }

    #[test]
    fn convolve_pass_is_bitwise_with_staged_per_backend() {
        // Through the GridTransform seam: running the ConvolvePass must
        // reproduce the batched convolve_many bitwise — the property the
        // fused pair-solve scheduler relies on.
        let fft = Fft3::new(12, 12, 12);
        let n = fft.len();
        let kernel: Vec<f64> = (0..n).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let base = signal(n * 2, 0.3);
        let pass = fft.convolve_pass(&kernel);
        let mut fused = base.clone();
        fused.chunks_mut(n).for_each(|grid| pass.run(grid));
        let mut staged = base.clone();
        fft.convolve_many(&mut staged, 2, &kernel);
        assert!(bits_eq(&fused, &staged), "ConvolvePass != staged convolve");
    }

    #[test]
    fn batched_matches_sequential() {
        // Bitwise at any thread count: 7 grids of 1800 points are above
        // the parallel threshold, so the batch splits over every worker
        // the process has.
        let fft = Fft3::new(10, 12, 15);
        let count = 7;
        let orig = signal(fft.len() * count, 0.2);
        let mut seq = orig.clone();
        seq.chunks_mut(fft.len()).for_each(|grid| fft.forward(grid));
        let mut batch = orig.clone();
        fft.forward_many(&mut batch, count);
        assert!(bits_eq(&batch, &seq), "batched forward");
        // Inverse batch returns to the start.
        fft.inverse_many(&mut batch, count);
        for (a, b) in batch.iter().zip(&orig) {
            assert!((*a - *b).abs() < 1e-10);
        }
    }
}
