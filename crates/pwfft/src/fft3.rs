//! Three-dimensional FFTs over row-major grids.
//!
//! Grid layout: index `(i0, i1, i2) -> (i0*n1 + i1)*n2 + i2` (axis 2
//! fastest). Wavefunctions and densities in `pwdft` live on such grids;
//! the Fock exchange operator performs two 3D transforms per orbital pair,
//! which makes [`Fft3::forward_many`] (batched, thread-parallel) the
//! hottest path in the whole code — it is the Rust analog of the paper's
//! multi-batch cuFFT strategy (Sec. III-B b).

use crate::plan::Plan;
use crate::tile;
use pwnum::backend::{Backend, GridTransform, TRANSFORM_WORK_PER_POINT};
use pwnum::complex::Complex64;
use pwnum::parallel::{par_chunks_mut_on, workers_for};
use std::cell::RefCell;
use std::sync::Arc;

thread_local! {
    /// Per-thread scratch reused across FFT calls (line buffer + plan scratch).
    static SCRATCH: RefCell<Vec<Complex64>> = const { RefCell::new(Vec::new()) };
}

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

    /// Scratch elements required by the `_with` entry points
    /// (line buffer + 1D plan scratch).
    #[inline]
    pub fn scratch_len(&self) -> usize {
        2 * self.n0.max(self.n1).max(self.n2)
    }

    fn with_scratch<R>(&self, f: impl FnOnce(&mut [Complex64]) -> R) -> R {
        let need = self.scratch_len();
        SCRATCH.with(|s| {
            let mut s = s.borrow_mut();
            if s.len() < need {
                s.resize(need, Complex64::ZERO);
            }
            f(&mut s[..need])
        })
    }

    fn transform(&self, data: &mut [Complex64], inverse: bool) {
        self.with_scratch(|scratch| self.transform_with(data, scratch, inverse));
    }

    /// Transforms one grid in place using caller-provided scratch of at
    /// least [`Self::scratch_len`] elements — the allocation-free entry
    /// point batched backends drive with a reused arena.
    pub fn transform_with(&self, data: &mut [Complex64], scratch: &mut [Complex64], inverse: bool) {
        assert_eq!(data.len(), self.len(), "FFT3 buffer length mismatch");
        let (n0, n1, n2) = (self.n0, self.n1, self.n2);
        let [plan0, plan1, plan2] = &*self.plans;
        {
            let scratch = &mut scratch[..self.scratch_len()];
            let (line, plan_scratch) = scratch.split_at_mut(n0.max(n1).max(n2));
            // Axis 2: contiguous lines.
            for row in data.chunks_mut(n2) {
                if inverse {
                    plan2.inverse_with(row, plan_scratch);
                } else {
                    plan2.forward_with(row, plan_scratch);
                }
            }
            // Axis 1: stride n2 within each i0-plane.
            for i0 in 0..n0 {
                let plane = &mut data[i0 * n1 * n2..(i0 + 1) * n1 * n2];
                for i2 in 0..n2 {
                    for i1 in 0..n1 {
                        line[i1] = plane[i1 * n2 + i2];
                    }
                    let seg = &mut line[..n1];
                    if inverse {
                        plan1.inverse_with(seg, plan_scratch);
                    } else {
                        plan1.forward_with(seg, plan_scratch);
                    }
                    for i1 in 0..n1 {
                        plane[i1 * n2 + i2] = line[i1];
                    }
                }
            }
            // Axis 0: stride n1*n2.
            let stride = n1 * n2;
            for i12 in 0..stride {
                for i0 in 0..n0 {
                    line[i0] = data[i0 * stride + i12];
                }
                let seg = &mut line[..n0];
                if inverse {
                    plan0.inverse_with(seg, plan_scratch);
                } else {
                    plan0.forward_with(seg, plan_scratch);
                }
                for i0 in 0..n0 {
                    data[i0 * stride + i12] = line[i0];
                }
            }
        }
    }

    /// Forward 3D transform, in place (unnormalized).
    pub fn forward(&self, data: &mut [Complex64]) {
        let _s = pwobs::span("fft.forward");
        self.transform(data, false);
    }

    /// Inverse 3D transform, in place (normalized by `1/len`).
    pub fn inverse(&self, data: &mut [Complex64]) {
        let _s = pwobs::span("fft.inverse");
        self.transform(data, true);
    }

    /// Fused-pass variant of [`Self::transform_with`]: every axis runs
    /// through the tile kernel (module `tile`) — 16 lines at a time
    /// gathered straight from the grid into an L1 tile, all butterfly
    /// levels there, one store back. The CPU analog of the fused
    /// multi-line passes in the paper's GPU FFT path; bitwise equal to
    /// the per-line variant. The tile is the calling thread's own, so no
    /// scratch is passed.
    pub fn transform_fused(&self, data: &mut [Complex64], inverse: bool) {
        self.tiled(data, inverse, None);
    }

    fn tiled(&self, data: &mut [Complex64], inverse: bool, kernel: Option<&[f64]>) {
        tile::transform3(self.plans.each_ref().map(|p| &p.tile), data, inverse, kernel);
    }

    /// The forward transform as a [`GridTransform`] pass, ready to hand
    /// to [`Backend::transform_batch`].
    #[inline]
    pub fn forward_pass(&self) -> FftPass<'_> {
        FftPass { fft: self, inverse: false, fused: false }
    }

    /// The inverse transform as a [`GridTransform`] pass.
    #[inline]
    pub fn inverse_pass(&self) -> FftPass<'_> {
        FftPass { fft: self, inverse: true, fused: false }
    }

    /// A pass in the requested direction, using the fused (tiled)
    /// variant when `backend` asks for fused grid passes.
    #[inline]
    pub fn pass_for(&self, backend: &dyn Backend, inverse: bool) -> FftPass<'_> {
        FftPass { fft: self, inverse, fused: backend.fused_grid_passes() }
    }

    /// Forward-transforms `count` consecutive grids in `data`, in parallel
    /// across threads (batched FFT).
    pub fn forward_many(&self, data: &mut [Complex64], count: usize) {
        self.many(data, count, false);
    }

    /// Inverse-transforms `count` consecutive grids, in parallel.
    pub fn inverse_many(&self, data: &mut [Complex64], count: usize) {
        self.many(data, count, true);
    }

    /// Batched forward transform routed through a compute [`Backend`]
    /// (the backend owns slab decomposition, scratch reuse, and the
    /// per-line vs tiled pass style).
    pub fn forward_many_with(&self, backend: &dyn Backend, data: &mut [Complex64], count: usize) {
        backend.transform_batch(&self.pass_for(backend, false), data, count);
    }

    /// Batched inverse transform routed through a compute [`Backend`].
    pub fn inverse_many_with(&self, backend: &dyn Backend, data: &mut [Complex64], count: usize) {
        backend.transform_batch(&self.pass_for(backend, true), data, count);
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
    pub fn convolve_many_with(
        &self,
        backend: &dyn Backend,
        data: &mut [Complex64],
        count: usize,
        kernel: &[f64],
    ) {
        assert_eq!(kernel.len(), self.len(), "convolve kernel/grid length mismatch");
        assert_eq!(data.len(), count * self.len(), "FFT3 batch length mismatch");
        if count == 0 {
            return;
        }
        self.forward_many_with(backend, data, count);
        backend.scale_by_real(kernel, data);
        self.inverse_many_with(backend, data, count);
    }

    fn many(&self, data: &mut [Complex64], count: usize, inverse: bool) {
        assert_eq!(data.len(), count * self.len(), "FFT3 batch length mismatch");
        if count == 0 {
            return;
        }
        // Spanned here rather than through a backend: this is the
        // thread-pool batched path that does not route via
        // `Backend::transform_batch`.
        let _s = pwobs::span("fft.many");
        let n = self.len();
        let workers = workers_for(count, n * TRANSFORM_WORK_PER_POINT);
        par_chunks_mut_on(workers, data, n, |_, grid| self.transform(grid, inverse));
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

    /// The filtered round trip as one [`GridTransform`]: the `solve`
    /// operator of [`Backend::fused_pair_solve`]. Backends that ask for
    /// fused grid passes get the tiled
    /// [`Self::convolve_grid_fused`]; others run the per-line staged
    /// arithmetic inside the single pass — bitwise identical to
    /// `convolve_many_with` on that backend.
    #[inline]
    pub fn convolve_pass<'f>(
        &'f self,
        kernel: &'f [f64],
        backend: &dyn Backend,
    ) -> ConvolvePass<'f> {
        assert_eq!(kernel.len(), self.len(), "convolve kernel/grid length mismatch");
        ConvolvePass { fft: self, kernel, fused: backend.fused_grid_passes() }
    }
}

/// The screened-Poisson round trip (forward FFT → `K(G)` → inverse FFT)
/// as a single [`GridTransform`] — what the fused pair-solve pipeline
/// hands to [`Backend::fused_pair_solve`].
#[derive(Clone, Copy, Debug)]
pub struct ConvolvePass<'f> {
    fft: &'f Fft3,
    kernel: &'f [f64],
    fused: bool,
}

impl GridTransform for ConvolvePass<'_> {
    fn grid_len(&self) -> usize {
        self.fft.len()
    }

    fn scratch_len(&self) -> usize {
        if self.fused {
            0
        } else {
            self.fft.scratch_len()
        }
    }

    fn run(&self, grid: &mut [Complex64], scratch: &mut [Complex64]) {
        if self.fused {
            self.fft.convolve_grid_fused(grid, self.kernel);
        } else {
            // Staged arithmetic inside one pass: identical operation
            // sequence to forward_many → scale_by_real → inverse_many
            // on a non-fused backend, hence bitwise identical results.
            self.fft.transform_with(grid, scratch, false);
            for (z, &k) in grid.iter_mut().zip(self.kernel) {
                *z = z.scale(k);
            }
            self.fft.transform_with(grid, scratch, true);
        }
    }
}

/// One direction of a [`Fft3`] as a batched-transform pass: the bridge
/// between the FFT plans and the [`Backend`] batching strategies.
#[derive(Clone, Copy, Debug)]
pub struct FftPass<'f> {
    fft: &'f Fft3,
    inverse: bool,
    fused: bool,
}

impl GridTransform for FftPass<'_> {
    fn grid_len(&self) -> usize {
        self.fft.len()
    }

    fn scratch_len(&self) -> usize {
        if self.fused {
            0
        } else {
            self.fft.scratch_len()
        }
    }

    fn run(&self, grid: &mut [Complex64], scratch: &mut [Complex64]) {
        if self.fused {
            self.fft.transform_fused(grid, self.inverse);
        } else {
            self.fft.transform_with(grid, scratch, self.inverse);
        }
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
        // inverse done by hand, per grid, on both backends — and the
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
        for be in [
            pwnum::backend::by_name("reference").unwrap(),
            pwnum::backend::by_name("blocked").unwrap(),
        ] {
            let mut got = base.clone();
            fft.convolve_many_with(&*be, &mut got, count, &kernel);
            let mut want = base.clone();
            for grid in want.chunks_mut(n) {
                fft.forward(grid);
                for (z, &k) in grid.iter_mut().zip(&kernel) {
                    *z = z.scale(k);
                }
                fft.inverse(grid);
            }
            for (a, b) in got.iter().zip(&want) {
                assert!((*a - *b).abs() < 1e-10, "{}: convolve mismatch", be.name());
            }
            // Conjugate symmetry.
            let mut conj_in: Vec<Complex64> = base[..n].iter().map(|z| z.conj()).collect();
            fft.convolve_many_with(&*be, &mut conj_in, 1, &kernel);
            for (a, b) in conj_in.iter().zip(&got[..n]) {
                assert!((*a - b.conj()).abs() < 1e-9, "{}: W_ji != conj(W_ij)", be.name());
            }
        }
    }

    #[test]
    fn fused_convolve_matches_staged_roundtrip_bitwise() {
        // The tiled convolve and the tiled one-direction transform must
        // match the staged per-line forward → K(G) → inverse chain
        // bitwise: the tile kernel is lane-exact and both directions
        // visit the axes in the same (2, 1, 0) order. Shapes cover radix
        // 2/3/4/5/7, partial tiles (lines % 16 != 0) and a 1-point axis.
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
        ] {
            let fft = Fft3::new(dims.0, dims.1, dims.2);
            let n = fft.len();
            let kernel: Vec<f64> = (0..n).map(|i| 1.0 / (1.0 + i as f64)).collect();
            let base = signal(n, 0.7);
            let mut staged = base.clone();
            fft.forward(&mut staged);
            let mut fused = base.clone();
            fft.transform_fused(&mut fused, false);
            assert!(bits_eq(&fused, &staged), "tiled forward not bitwise on {dims:?}");
            for (z, &k) in staged.iter_mut().zip(&kernel) {
                *z = z.scale(k);
            }
            fft.inverse(&mut staged);
            let mut fused = base.clone();
            fft.convolve_grid_fused(&mut fused, &kernel);
            assert!(bits_eq(&fused, &staged), "tiled convolve not bitwise on {dims:?}");
            fft.transform_fused(&mut fused, true);
            fft.inverse(&mut staged);
            assert!(bits_eq(&fused, &staged), "tiled inverse not bitwise on {dims:?}");

            // Structural guard: no grid-sized buffer behind the fused
            // passes — the backend lends nothing, the thread's tile is
            // O(n_max · LANES) whatever the grid size.
            let be = pwnum::backend::by_name("blocked").unwrap();
            assert_eq!(fft.convolve_pass(&kernel, &*be).scratch_len(), 0);
            assert_eq!(fft.pass_for(&*be, true).scratch_len(), 0);
            let n_max = dims.0.max(dims.1).max(dims.2);
            let tile = fft.plans.iter().map(|p| p.tile.tile_len()).max().unwrap();
            assert!(tile <= 4 * n_max * tile::LANES, "tile of {tile} reals on {dims:?}");
        }
    }

    #[test]
    fn convolve_pass_is_bitwise_with_staged_per_backend() {
        // Through the GridTransform seam: on each backend, running the
        // ConvolvePass built *for that backend* must reproduce that
        // backend's convolve_many_with bitwise — the property the fused
        // pair-solve scheduler relies on.
        let fft = Fft3::new(12, 12, 12);
        let n = fft.len();
        let kernel: Vec<f64> = (0..n).map(|i| 1.0 / (1.0 + i as f64)).collect();
        let base = signal(n * 2, 0.3);
        for be in [
            pwnum::backend::by_name("reference").unwrap(),
            pwnum::backend::by_name("blocked").unwrap(),
        ] {
            let mut staged = base.clone();
            fft.convolve_many_with(&*be, &mut staged, 2, &kernel);
            let pass = fft.convolve_pass(&kernel, &*be);
            let mut fused = base.clone();
            let mut scratch = vec![Complex64::ZERO; pass.scratch_len()];
            for grid in fused.chunks_mut(n) {
                pass.run(grid, &mut scratch);
            }
            for (a, b) in fused.iter().zip(&staged) {
                assert_eq!(*a, *b, "{}: ConvolvePass != staged convolve", be.name());
            }
        }
    }

    #[test]
    fn batched_matches_sequential() {
        let fft = Fft3::new(4, 4, 4);
        let count = 7;
        let mut batch = signal(fft.len() * count, 0.2);
        let mut seq = batch.clone();
        fft.forward_many(&mut batch, count);
        for grid in seq.chunks_mut(fft.len()) {
            fft.forward(grid);
        }
        for (a, b) in batch.iter().zip(&seq) {
            assert!((*a - *b).abs() < 1e-12);
        }
        // Inverse batch returns to the start.
        fft.inverse_many(&mut batch, count);
        let orig = signal(fft.len() * count, 0.2);
        for (a, b) in batch.iter().zip(&orig) {
            assert!((*a - *b).abs() < 1e-10);
        }
    }
}
