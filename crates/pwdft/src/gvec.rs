//! Plane-wave grids and G-vector machinery.
//!
//! A [`PwGrid`] couples a real-space grid to its reciprocal lattice: for
//! each grid index it stores the folded G-vector and |G|², and it lists
//! the cutoff sphere `|G|²/2 ≤ Ecut` — the plane waves a wavefunction
//! keeps. A band stores only its sphere coefficients, in ascending grid
//! order ([`PwGrid::sphere`]); [`PwGrid::scatter`] and [`PwGrid::gather`]
//! move them on and off the FFT grid, which holds `+0.0` everywhere else
//! (DESIGN.md §3).

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
    /// Grid indices of the cutoff sphere `|G|²/2 ≤ Ecut`, ascending: the
    /// plane waves a band stores, in storage order.
    pub sphere: Vec<usize>,
    /// |G|² of each sphere point, in storage order.
    pub sphere_g2: Vec<f64>,
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
        let (mut sphere, mut sphere_g2) = (Vec::new(), Vec::new());
        let two_pi = 2.0 * std::f64::consts::PI;
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
                    if 0.5 * gg <= ecut {
                        sphere.push(g2.len());
                        sphere_g2.push(gg);
                    }
                    g2.push(gg);
                    gvec.push([gx, gy, gz]);
                }
            }
        }
        PwGrid {
            dims,
            lengths: cell.lengths,
            g2,
            gvec,
            sphere,
            sphere_g2,
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

    /// Plane waves inside the cutoff sphere: the coefficients a band
    /// stores.
    #[inline]
    pub fn n_pw(&self) -> usize {
        self.sphere.len()
    }

    /// The sphere positions whose grid index lies in `grid_range`: a
    /// contiguous run, since the sphere is sorted by grid index.
    pub fn sphere_range(&self, grid_range: std::ops::Range<usize>) -> std::ops::Range<usize> {
        let at = |g: usize| self.sphere.partition_point(|&i| i < g);
        at(grid_range.start)..at(grid_range.end)
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

    /// Writes one band's sphere coefficients at their points of the full
    /// grid `full`, leaving every other point as it is: on a `+0.0` grid
    /// this is the band on the FFT grid.
    pub fn scatter(&self, compact: &[Complex64], full: &mut [Complex64]) {
        assert_eq!(compact.len(), self.n_pw());
        assert_eq!(full.len(), self.len());
        for (&g, &c) in self.sphere.iter().zip(compact) {
            full[g] = c;
        }
    }

    /// Reads one band's sphere coefficients off the full grid `full`
    /// (the inverse of [`Self::scatter`]; values outside the sphere are
    /// dropped).
    pub fn gather(&self, full: &[Complex64], compact: &mut [Complex64]) {
        assert_eq!(compact.len(), self.n_pw());
        assert_eq!(full.len(), self.len());
        for (c, &g) in compact.iter_mut().zip(&self.sphere) {
            *c = full[g];
        }
    }

    /// Applies the kinetic operator to one band's sphere coefficients:
    /// `out_G = |G|²/2 · c_G`.
    pub fn apply_kinetic(&self, coeffs: &[Complex64], out: &mut [Complex64]) {
        assert_eq!(coeffs.len(), self.n_pw());
        assert_eq!(out.len(), self.n_pw());
        for ((o, c), g2) in out.iter_mut().zip(coeffs).zip(&self.sphere_g2) {
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
        assert!(g.n_pw() > 0 && g.n_pw() < g.len());
        // The G=0 component is always inside the cutoff, and first.
        assert_eq!(g.sphere[0], 0);
        assert_eq!(g.sphere_g2[0], 0.0);
        assert!(g.sphere.windows(2).all(|w| w[0] < w[1]), "sphere sorted by grid index");
        for (&i, &gg) in g.sphere.iter().zip(&g.sphere_g2) {
            assert_eq!(gg, g.g2[i]);
        }
        let inside = g.g2.iter().filter(|&&gg| 0.5 * gg <= g.ecut).count();
        assert_eq!(inside, g.n_pw());
        // Number of PWs should approximate the cutoff sphere volume:
        // (Ω/(2π)³)·(4π/3)Gmax³.
        let gmax = (2.0f64 * 5.0).sqrt();
        let expect = g.volume() / (2.0 * std::f64::consts::PI).powi(3)
            * 4.0
            / 3.0
            * std::f64::consts::PI
            * gmax.powi(3);
        let ratio = g.n_pw() as f64 / expect;
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
        let mut c = vec![Complex64::ZERO; g.n_pw()];
        let idx = g.sphere.iter().position(|&i| i == 1).expect("i2 = 1 is kept");
        c[idx] = Complex64::ONE; // i2 = 1 -> G = 2π/L ẑ
        let mut out = vec![Complex64::ZERO; g.n_pw()];
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
    fn scatter_gather_round_trip_through_the_sphere() {
        let cell = Cell::silicon_supercell(1, 1, 1);
        let g = PwGrid::with_dims(&cell, 0.5, [8, 8, 8]);
        assert!(g.n_pw() < g.len());
        let c: Vec<Complex64> = (0..g.n_pw()).map(|k| Complex64::new(k as f64 + 1.0, -1.0)).collect();
        let mut full = vec![Complex64::ZERO; g.len()];
        g.scatter(&c, &mut full);
        let kept = full.iter().filter(|z| **z != Complex64::ZERO).count();
        assert_eq!(kept, g.n_pw());
        let mut back = vec![Complex64::ZERO; g.n_pw()];
        g.gather(&full, &mut back);
        assert_eq!(back, c);
        // The sphere positions of a grid-index range are contiguous.
        let r = g.sphere_range(100..300);
        assert!(g.sphere[r.clone()].iter().all(|i| (100..300).contains(i)));
        assert_eq!(r.len(), g.sphere.iter().filter(|i| (100..300).contains(*i)).count());
    }
}
