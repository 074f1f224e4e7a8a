//! Three-dimensional single-precision FFTs — the fp32 batched path of
//! the mixed-precision exchange pipeline.
//!
//! Mirrors [`Fft3`](crate::fft3::Fft3) over the same row-major layout:
//! every pass runs through the same tile kernel (module `tile`) the fp64
//! grids use, instantiated at `f32`. The one consumer is the exchange
//! pair solve: [`Fft32::convolve_pass`] hands the whole round trip to
//! [`Backend::fused_pair_solve32`] as a single [`GridTransform32`].
//!
//! [`Backend::fused_pair_solve32`]: pwnum::backend::Backend::fused_pair_solve32

use crate::plan32::Plan32;
use crate::tile;
use pwnum::backend::GridTransform32;
use pwnum::precision::Complex32;
use std::sync::Arc;

/// fp32 plans for a fixed 3-D grid shape (shared: cloning is one `Arc`
/// bump).
#[derive(Clone, Debug)]
pub struct Fft32 {
    n0: usize,
    n1: usize,
    n2: usize,
    plans: Arc<[Plan32; 3]>,
}

impl Fft32 {
    /// Creates fp32 plans for an `n0 x n1 x n2` grid.
    pub fn new(n0: usize, n1: usize, n2: usize) -> Self {
        assert!(n0 > 0 && n1 > 0 && n2 > 0, "grid dimensions must be positive");
        Fft32 { n0, n1, n2, plans: Arc::new([Plan32::new(n0), Plan32::new(n1), Plan32::new(n2)]) }
    }

    /// True when `other` is a handle to the same compiled plans (clones
    /// of one set, e.g. every handle a grid's plan cache gives out).
    #[inline]
    pub fn shares_plans_with(&self, other: &Fft32) -> bool {
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

    /// Transforms one fp32 grid in place, every axis through the tile
    /// kernel at `f32` (see
    /// [`Fft3::transform_fused`](crate::fft3::Fft3::transform_fused)) —
    /// twice the SIMD lanes of the fp64 path, value-identical to a
    /// per-line 1-D [`Plan32`] sweep.
    pub fn transform_fused(&self, data: &mut [Complex32], inverse: bool) {
        self.tiled(data, inverse, None);
    }

    fn tiled(&self, data: &mut [Complex32], inverse: bool, kernel: Option<&[f32]>) {
        tile::transform3(self.plans.each_ref().map(|p| &p.tile), data, inverse, kernel);
    }

    /// fp32 twin of [`crate::fft3::Fft3::convolve_grid_fused`]: the whole
    /// screened-Poisson round trip over one fp32 grid as six tile
    /// passes, `K(G)` and the `1/n` factors riding in the stores —
    /// value-identical to the staged fp32 round trip.
    pub fn convolve_grid_fused(&self, grid: &mut [Complex32], kernel: &[f32]) {
        assert_eq!(kernel.len(), self.len(), "convolve kernel/grid length mismatch");
        self.tiled(grid, false, Some(kernel));
        self.tiled(grid, true, None);
    }

    /// The fp32 filtered round trip ([`Self::convolve_grid_fused`]) as
    /// one [`GridTransform32`] — the `solve` operator of
    /// `Backend::fused_pair_solve32`.
    #[inline]
    pub fn convolve_pass<'f>(&'f self, kernel: &'f [f32]) -> ConvolvePass32<'f> {
        assert_eq!(kernel.len(), self.len(), "convolve kernel/grid length mismatch");
        ConvolvePass32 { fft: self, kernel }
    }

    /// The per-line 3-D driver: one 1-D [`Plan32`] call per line of each
    /// axis, in the tile kernel's (2, 1, 0) order — the oracle the
    /// bitwise tests compare the tile kernel against.
    #[cfg(test)]
    fn per_line(&self, data: &mut [Complex32], inverse: bool) {
        assert_eq!(data.len(), self.len(), "FFT32 buffer length mismatch");
        let (n0, n1, n2) = (self.n0, self.n1, self.n2);
        let [plan0, plan1, plan2] = &*self.plans;
        let mut scratch = vec![Complex32::ZERO; n0.max(n1).max(n2)];
        // Gathers the line at `base` (element spacing `stride`),
        // transforms it and stores it back.
        let mut line = |plan: &Plan32, base: usize, stride: usize| {
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

/// The fp32 screened-Poisson round trip as a single [`GridTransform32`]
/// — what the fused fp32 pair-solve pipeline hands to
/// `Backend::fused_pair_solve32`.
#[derive(Clone, Copy, Debug)]
pub struct ConvolvePass32<'f> {
    fft: &'f Fft32,
    kernel: &'f [f32],
}

impl GridTransform32 for ConvolvePass32<'_> {
    fn grid_len(&self) -> usize {
        self.fft.len()
    }

    fn run(&self, grid: &mut [Complex32]) {
        self.fft.convolve_grid_fused(grid, self.kernel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fft3::Fft3;
    use pwnum::backend::{BackendHandle, Blocked, Reference};
    use pwnum::precision::{demote, demote_real, max_abs_diff32, promote};

    fn signal64(len: usize, seed: f64) -> Vec<pwnum::Complex64> {
        (0..len)
            .map(|j| {
                pwnum::c64((j as f64 * 0.31 + seed).sin(), (j as f64 * 0.17 - seed).cos())
            })
            .collect()
    }

    #[test]
    fn matches_fp64_within_fp32_tolerance() {
        let fft64 = Fft3::new(4, 6, 5);
        let fft32 = Fft32::new(4, 6, 5);
        let x = signal64(fft64.len(), 0.6);
        let mut y64 = x.clone();
        fft64.forward(&mut y64);
        let mut y32 = demote(&x);
        fft32.transform_fused(&mut y32, false);
        let up = promote(&y32);
        let scale = y64.iter().map(|z| z.abs()).fold(0.0f64, f64::max);
        for (a, b) in y64.iter().zip(&up) {
            assert!((*a - *b).abs() < 1e-5 * scale.max(1.0));
        }
    }

    #[test]
    fn fused_matches_per_line() {
        let fft = Fft32::new(4, 6, 10);
        let base = demote(&signal64(fft.len(), 1.2));
        for inverse in [false, true] {
            let mut a = base.clone();
            fft.per_line(&mut a, inverse);
            let mut b = base.clone();
            fft.transform_fused(&mut b, inverse);
            assert_eq!(max_abs_diff32(&a, &b), 0.0, "inverse={inverse}");
        }
    }

    #[test]
    fn batched_convolve_matches_fp64_on_both_backends() {
        let fft64 = Fft3::new(6, 6, 6);
        let fft32 = Fft32::new(6, 6, 6);
        let n = fft64.len();
        let count = 4;
        let kernel64: Vec<f64> = (0..n).map(|i| 1.0 / (1.0 + (i % 7) as f64)).collect();
        let kernel32 = demote_real(&kernel64);
        let base = signal64(n * count, 0.7);
        let mut got = demote(&base);
        let pass = fft32.convolve_pass(&kernel32);
        got.chunks_mut(n).for_each(|grid| pass.run(grid));
        let up = promote(&got);
        let backends: [BackendHandle; 2] = [Arc::new(Reference), Arc::new(Blocked::new())];
        for be in backends {
            let mut want = base.clone();
            fft64.convolve_many_with(&*be, &mut want, count, &kernel64);
            let scale = want.iter().map(|z| z.abs()).fold(0.0f64, f64::max);
            for (a, b) in want.iter().zip(&up) {
                assert!(
                    (*a - *b).abs() < 1e-5 * scale.max(1.0),
                    "{}: fp32 convolve drift",
                    be.name()
                );
            }
        }
    }

    #[test]
    fn fused_convolve32_is_value_identical_to_staged() {
        // The fp32 tiled passes must equal the staged per-line fp32
        // round trip bit for bit (fp32 primitives never differ across
        // paths), through the ConvolvePass32 seam and for one-direction
        // transforms — shapes as in the fp64 test.
        let bits = |v: &[Complex32]| -> Vec<(u32, u32)> {
            v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
        };
        for dims in [
            (12usize, 12usize, 12usize),
            (16, 16, 16),
            (32, 32, 32),
            (10, 12, 15),
            (14, 12, 10),
            (1, 8, 8),
            (4, 6, 10),
        ] {
            let fft = Fft32::new(dims.0, dims.1, dims.2);
            let n = fft.len();
            let kernel: Vec<f32> =
                (0..n).map(|i| 1.0f32 / (1.0 + (i % 7) as f32)).collect();
            let base = demote(&signal64(n * 2, 0.9));
            // Staged: per-line forward, K(G) multiply, per-line inverse.
            let mut staged = base.clone();
            for grid in staged.chunks_mut(n) {
                fft.per_line(grid, false);
                for (z, &k) in grid.iter_mut().zip(&kernel) {
                    *z = z.scale(k);
                }
                fft.per_line(grid, true);
            }
            let pass = fft.convolve_pass(&kernel);
            let mut fused = base.clone();
            fused.chunks_mut(n).for_each(|grid| pass.run(grid));
            assert_eq!(bits(&fused), bits(&staged), "fp32 ConvolvePass != staged on {dims:?}");
            for inverse in [false, true] {
                let mut line = base[..n].to_vec();
                fft.per_line(&mut line, inverse);
                let mut tiled = base[..n].to_vec();
                fft.transform_fused(&mut tiled, inverse);
                assert_eq!(bits(&tiled), bits(&line), "fp32 tiled pass on {dims:?}");
            }
            let n_max = dims.0.max(dims.1).max(dims.2);
            let tile = fft.plans.iter().map(|p| p.tile.tile_len()).max().unwrap();
            assert!(tile <= 4 * n_max * tile::LANES, "tile of {tile} reals on {dims:?}");
        }
    }

    #[test]
    fn smooth_grid_roundtrip() {
        // The paper's non-power-of-two smooth dims at reduced size.
        let fft = Fft32::new(12, 9, 10);
        let base = demote(&signal64(fft.len() * 3, 0.2));
        let mut data = base.clone();
        for grid in data.chunks_mut(fft.len()) {
            fft.transform_fused(grid, false);
            fft.transform_fused(grid, true);
        }
        assert!(max_abs_diff32(&base, &data) < 1e-4);
    }
}
