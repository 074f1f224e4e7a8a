//! Plane-wave grids and G-vector machinery.
//!
//! A [`PwGrid`] couples a real-space grid to its reciprocal lattice: for
//! each grid index it stores the folded G-vector, |G|², and the kinetic
//! cutoff mask `|G|²/2 ≤ Ecut`. Wavefunctions are represented on the full
//! grid with coefficients outside the mask held at zero (simple and
//! FFT-friendly; the paper's sphere-packed layout is a storage
//! optimization that does not change any numerics).

use crate::lattice::Cell;
use pwfft::{Fft3, Fft32};
use pwnum::complex::Complex64;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Shared memoization table of grid-sized real kernels, keyed by
/// `(kernel family, parameter bits)`.
type KernelCache = Arc<Mutex<HashMap<(u64, u64), Arc<Vec<f64>>>>>;

/// Real/reciprocal grid pair for one cell.
#[derive(Clone, Debug)]
pub struct PwGrid {
    /// Grid dimensions.
    pub dims: [usize; 3],
    /// Cell edge lengths (bohr).
    pub lengths: [f64; 3],
    /// |G|² for every grid point (folded frequencies), row-major.
    pub g2: Vec<f64>,
    /// Cartesian G components per grid point.
    pub gvec: Vec<[f64; 3]>,
    /// Kinetic cutoff mask (true = plane wave kept).
    pub mask: Vec<bool>,
    /// Number of active plane waves.
    pub n_pw: usize,
    /// Kinetic cutoff (hartree).
    pub ecut: f64,
    /// Memoized grid-sized real kernels (e.g. the screened-exchange
    /// `K(G)`), keyed by `(kernel family, parameter bits)`. Shared
    /// across clones (the G data is immutable), so hot loops that
    /// construct an operator per step stop re-evaluating
    /// transcendentals over Ng.
    kernels: KernelCache,
    /// The grid's FFT plan sets, compiled on first request and shared
    /// across clones like the kernels: operators are constructed per SCF
    /// iteration, plans once per grid.
    plans: Arc<(OnceLock<Fft3>, OnceLock<Fft32>)>,
}

/// Picks an FFT-friendly (2/3/5-smooth) grid size ≥ `min`.
pub fn smooth_size(min: usize) -> usize {
    let mut n = min.max(2);
    loop {
        let mut m = n;
        for p in [2, 3, 5] {
            while m.is_multiple_of(p) {
                m /= p;
            }
        }
        if m == 1 {
            return n;
        }
        n += 1;
    }
}

impl PwGrid {
    /// Builds the wavefunction grid for `cell` at kinetic cutoff `ecut`
    /// (hartree). Grid size follows the standard rule `n ≥ 2·Gmax·L/2π`
    /// rounded up to an FFT-smooth size, so products of two orbitals
    /// (density, exchange pair densities) are representable.
    pub fn for_cell(cell: &Cell, ecut: f64) -> PwGrid {
        let gmax = (2.0 * ecut).sqrt();
        let dims: Vec<usize> = (0..3)
            .map(|d| {
                let min = (2.0 * gmax * cell.lengths[d] / (2.0 * std::f64::consts::PI)).ceil()
                    as usize
                    + 1;
                smooth_size(min)
            })
            .collect();
        Self::with_dims(cell, ecut, [dims[0], dims[1], dims[2]])
    }

    /// Builds a grid with explicit dimensions (used by tests and by the
    /// double-resolution density grid).
    pub fn with_dims(cell: &Cell, ecut: f64, dims: [usize; 3]) -> PwGrid {
        let n = dims[0] * dims[1] * dims[2];
        let mut g2 = Vec::with_capacity(n);
        let mut gvec = Vec::with_capacity(n);
        let mut mask = Vec::with_capacity(n);
        let two_pi = 2.0 * std::f64::consts::PI;
        let mut n_pw = 0usize;
        for i0 in 0..dims[0] {
            let m0 = fold(i0, dims[0]);
            let gx = two_pi * m0 as f64 / cell.lengths[0];
            for i1 in 0..dims[1] {
                let m1 = fold(i1, dims[1]);
                let gy = two_pi * m1 as f64 / cell.lengths[1];
                for i2 in 0..dims[2] {
                    let m2 = fold(i2, dims[2]);
                    let gz = two_pi * m2 as f64 / cell.lengths[2];
                    let gg = gx * gx + gy * gy + gz * gz;
                    let keep = 0.5 * gg <= ecut;
                    if keep {
                        n_pw += 1;
                    }
                    g2.push(gg);
                    gvec.push([gx, gy, gz]);
                    mask.push(keep);
                }
            }
        }
        PwGrid {
            dims,
            lengths: cell.lengths,
            g2,
            gvec,
            mask,
            n_pw,
            ecut,
            kernels: Arc::new(Mutex::new(HashMap::new())),
            plans: Arc::default(),
        }
    }

    /// Returns the grid-sized real kernel registered under
    /// `(family, param)`, building it with `build` on the first request —
    /// the per-grid analog of an FFT plan cache. `family` names the
    /// kernel *formula* (each caller picks a distinct constant, so two
    /// kernel types with coinciding parameter bits never share an
    /// entry); `param` encodes every parameter the formula depends on
    /// besides the grid itself (e.g. `omega.to_bits()`). Clones of the
    /// grid share one cache.
    pub fn cached_kernel(
        &self,
        family: u64,
        param: u64,
        build: impl FnOnce(&PwGrid) -> Vec<f64>,
    ) -> Arc<Vec<f64>> {
        let key = (family, param);
        if let Some(k) = self.kernels.lock().expect("kernel cache poisoned").get(&key) {
            return k.clone();
        }
        // Build outside the lock: kernel evaluation is O(Ng) with
        // transcendentals, and a racing builder at worst duplicates work.
        let built = Arc::new(build(self));
        assert_eq!(built.len(), self.len(), "cached kernel must be grid-sized");
        self.kernels
            .lock()
            .expect("kernel cache poisoned")
            .entry(key)
            .or_insert(built)
            .clone()
    }

    /// Number of grid points Ng.
    #[inline]
    pub fn len(&self) -> usize {
        self.g2.len()
    }

    /// True for a degenerate single-point grid.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() <= 1
    }

    /// Real-space quadrature weight dV = Ω/Ng.
    #[inline]
    pub fn dv(&self) -> f64 {
        self.volume() / self.len() as f64
    }

    /// Cell volume.
    #[inline]
    pub fn volume(&self) -> f64 {
        self.lengths[0] * self.lengths[1] * self.lengths[2]
    }

    /// FFT plan set matching this grid (a handle to the grid's one
    /// shared set).
    pub fn fft(&self) -> Fft3 {
        let [n0, n1, n2] = self.dims;
        self.plans.0.get_or_init(|| Fft3::new(n0, n1, n2)).clone()
    }

    /// Single-precision plan set matching this grid, shared likewise.
    pub fn fft32(&self) -> Fft32 {
        let [n0, n1, n2] = self.dims;
        self.plans.1.get_or_init(|| Fft32::new(n0, n1, n2)).clone()
    }

    /// Cartesian coordinates of real-space grid point `idx`.
    pub fn r_coord(&self, idx: usize) -> [f64; 3] {
        let n12 = self.dims[1] * self.dims[2];
        let i0 = idx / n12;
        let i1 = (idx / self.dims[2]) % self.dims[1];
        let i2 = idx % self.dims[2];
        [
            i0 as f64 / self.dims[0] as f64 * self.lengths[0],
            i1 as f64 / self.dims[1] as f64 * self.lengths[1],
            i2 as f64 / self.dims[2] as f64 * self.lengths[2],
        ]
    }

    /// Zeroes all coefficients outside the kinetic cutoff mask (applied
    /// after nonlinear grid operations to stay in the variational space).
    pub fn apply_mask(&self, coeffs: &mut [Complex64]) {
        assert_eq!(coeffs.len(), self.len());
        for (c, &keep) in coeffs.iter_mut().zip(&self.mask) {
            if !keep {
                *c = Complex64::ZERO;
            }
        }
    }

    /// Applies the kinetic operator in G-space: `out_G = |G|²/2 · c_G`.
    pub fn apply_kinetic(&self, coeffs: &[Complex64], out: &mut [Complex64]) {
        assert_eq!(coeffs.len(), self.len());
        assert_eq!(out.len(), self.len());
        for ((o, c), g2) in out.iter_mut().zip(coeffs).zip(&self.g2) {
            *o = c.scale(0.5 * g2);
        }
    }
}

/// Folds a grid index into a signed frequency: `0..n/2` positive,
/// `n/2..n` negative.
#[inline]
pub fn fold(i: usize, n: usize) -> i64 {
    if i <= n / 2 {
        i as i64
    } else {
        i as i64 - n as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_signs() {
        assert_eq!(fold(0, 8), 0);
        assert_eq!(fold(3, 8), 3);
        assert_eq!(fold(4, 8), 4);
        assert_eq!(fold(5, 8), -3);
        assert_eq!(fold(7, 8), -1);
    }

    #[test]
    fn smooth_sizes() {
        assert_eq!(smooth_size(7), 8);
        assert_eq!(smooth_size(11), 12);
        assert_eq!(smooth_size(13), 15);
        assert_eq!(smooth_size(17), 18);
        assert_eq!(smooth_size(60), 60);
    }

    #[test]
    fn grid_counts_plane_waves() {
        let cell = Cell::silicon_supercell(1, 1, 1);
        let g = PwGrid::for_cell(&cell, 5.0);
        assert!(g.n_pw > 0 && g.n_pw < g.len());
        // The G=0 component is always inside the cutoff.
        assert!(g.mask[0]);
        assert_eq!(g.g2[0], 0.0);
        // Number of PWs should approximate the cutoff sphere volume:
        // (Ω/(2π)³)·(4π/3)Gmax³.
        let gmax = (2.0f64 * 5.0).sqrt();
        let expect = g.volume() / (2.0 * std::f64::consts::PI).powi(3)
            * 4.0
            / 3.0
            * std::f64::consts::PI
            * gmax.powi(3);
        let ratio = g.n_pw as f64 / expect;
        assert!(ratio > 0.8 && ratio < 1.3, "PW count ratio {ratio}");
    }

    #[test]
    fn paper_1536_atom_grid_dims() {
        // Sec. VI: 1536 atoms -> wavefunction grid 60x90x120 at Ecut=10 Ha.
        let cell = Cell::silicon_supercell(4, 6, 8);
        let g = PwGrid::for_cell(&cell, 10.0);
        // Our grid rule may differ by smooth rounding; the paper's grid is
        // 60x90x120 = 648,000 points. Accept the same order.
        let ng = g.len();
        assert!((300_000..=1_400_000).contains(&ng), "Ng = {ng}");
    }

    #[test]
    fn kinetic_of_plane_wave() {
        let cell = Cell::silicon_supercell(1, 1, 1);
        let g = PwGrid::with_dims(&cell, 5.0, [6, 6, 6]);
        // Coefficient vector with a single G component set.
        let mut c = vec![Complex64::ZERO; g.len()];
        let idx = 1; // i2 = 1 -> G = 2π/L ẑ
        c[idx] = Complex64::ONE;
        let mut out = vec![Complex64::ZERO; g.len()];
        g.apply_kinetic(&c, &mut out);
        let gz = 2.0 * std::f64::consts::PI / cell.lengths[2];
        assert!((out[idx].re - 0.5 * gz * gz).abs() < 1e-12);
    }

    #[test]
    fn r_coords_cover_cell() {
        let cell = Cell::silicon_supercell(1, 1, 1);
        let g = PwGrid::with_dims(&cell, 5.0, [4, 4, 4]);
        let r0 = g.r_coord(0);
        assert_eq!(r0, [0.0, 0.0, 0.0]);
        let rlast = g.r_coord(g.len() - 1);
        for (r, len) in rlast.iter().zip(cell.lengths) {
            assert!(*r < len);
            assert!(*r > 0.5 * len);
        }
    }

    #[test]
    fn kernel_cache_memoizes_per_key_and_shares_across_clones() {
        let cell = Cell::silicon_supercell(1, 1, 1);
        let g = PwGrid::with_dims(&cell, 2.0, [4, 4, 4]);
        let builds = std::cell::Cell::new(0usize);
        let build = |grid: &PwGrid| {
            builds.set(builds.get() + 1);
            grid.g2.iter().map(|&x| x + 1.0).collect::<Vec<f64>>()
        };
        let a = g.cached_kernel(1, 7, build);
        let b = g.cached_kernel(1, 7, build);
        assert!(Arc::ptr_eq(&a, &b), "same key must return the memoized kernel");
        assert_eq!(builds.get(), 1, "second lookup must not rebuild");
        let c = g.cached_kernel(1, 8, build);
        assert!(!Arc::ptr_eq(&a, &c), "different params are distinct kernels");
        // Same parameter bits under another kernel family: its own entry.
        let f = g.cached_kernel(2, 7, build);
        assert!(!Arc::ptr_eq(&a, &f), "families must not share entries");
        // Clones share the cache (same immutable G data).
        let g2 = g.clone();
        let d = g2.cached_kernel(1, 7, build);
        assert!(Arc::ptr_eq(&a, &d));
        assert_eq!(builds.get(), 3);
    }

    #[test]
    fn plan_sets_are_compiled_once_per_grid_and_shared_across_clones() {
        let cell = Cell::silicon_supercell(1, 1, 1);
        let g = PwGrid::with_dims(&cell, 2.0, [4, 6, 5]);
        let (a, a32) = (g.fft(), g.fft32());
        assert_eq!((a.dims(), a32.dims()), ((4, 6, 5), (4, 6, 5)));
        assert!(a.shares_plans_with(&g.fft()) && a32.shares_plans_with(&g.fft32()));
        let clone = g.clone();
        assert!(a.shares_plans_with(&clone.fft()) && a32.shares_plans_with(&clone.fft32()));
        let other = PwGrid::with_dims(&cell, 2.0, [4, 6, 5]);
        assert!(!a.shares_plans_with(&other.fft()), "another grid compiles its own");
    }

    #[test]
    fn mask_zeroes_high_g() {
        let cell = Cell::silicon_supercell(1, 1, 1);
        let g = PwGrid::with_dims(&cell, 0.5, [8, 8, 8]);
        let mut c = vec![Complex64::ONE; g.len()];
        g.apply_mask(&mut c);
        let kept: usize = c.iter().filter(|z| z.re != 0.0).count();
        assert_eq!(kept, g.n_pw);
        assert!(kept < g.len());
    }
}
