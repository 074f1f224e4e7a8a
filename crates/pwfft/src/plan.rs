//! One-dimensional complex FFT plans.
//!
//! Mixed-radix decimation-in-time Cooley–Tukey with hard-coded kernels for
//! radices 2, 3, 4, 5 and a generic O(r²) kernel for any other prime
//! factor. All plane-wave grids in this code base are 2/3/5-smooth (the
//! paper's 1536-atom grid is 60×90×120), so the generic kernel only exists
//! for completeness; performance-sensitive sizes hit the fast kernels.
//!
//! Conventions: `forward` computes the unnormalized sum
//! `X[k] = Σ_j x[j] e^{-2πi jk/n}`; `inverse` applies the conjugate
//! transform and scales by `1/n`, so `inverse(forward(x)) == x`.

use crate::tile::Schedule;
use pwnum::complex::{c64, Complex64};

/// Precomputed plan for transforms of one length.
#[derive(Clone, Debug)]
pub struct Plan {
    n: usize,
    /// Prime-power factor sequence used by the recursion (e.g. 60 → \[4,3,5\]).
    factors: Vec<usize>,
    /// Twiddle table `w[j] = exp(-2πi j / n)`.
    twiddle: Vec<Complex64>,
    /// The same transform compiled for the tile kernel (many lines at a
    /// time, bitwise equal to [`Self::forward_with`] per line).
    pub(crate) tile: Schedule<f64>,
}

pub(crate) fn factorize(mut n: usize) -> Vec<usize> {
    let mut f = Vec::new();
    // Prefer radix-4 over two radix-2 stages (fewer passes).
    while n.is_multiple_of(4) {
        f.push(4);
        n /= 4;
    }
    while n.is_multiple_of(2) {
        f.push(2);
        n /= 2;
    }
    while n.is_multiple_of(3) {
        f.push(3);
        n /= 3;
    }
    while n.is_multiple_of(5) {
        f.push(5);
        n /= 5;
    }
    let mut p = 7;
    while n > 1 {
        while n.is_multiple_of(p) {
            f.push(p);
            n /= p;
        }
        p += 2;
        if p * p > n && n > 1 {
            f.push(n);
            break;
        }
    }
    f
}

impl Plan {
    /// Builds a plan for length-`n` transforms.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "FFT length must be positive");
        let twiddle: Vec<Complex64> = (0..n)
            .map(|j| Complex64::cis(-2.0 * std::f64::consts::PI * j as f64 / n as f64))
            .collect();
        let factors = factorize(n);
        let tile = Schedule::new(&factors, &twiddle);
        Plan { n, factors, twiddle, tile }
    }

    /// Transform length.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when the length is 1 (transform is the identity).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 1
    }

    /// Required scratch size for the `_with` entry points.
    #[inline]
    pub fn scratch_len(&self) -> usize {
        self.n
    }

    /// Forward transform, in place, allocating scratch.
    pub fn forward(&self, data: &mut [Complex64]) {
        let mut scratch = vec![Complex64::ZERO; self.n];
        self.forward_with(data, &mut scratch);
    }

    /// Inverse transform (normalized by `1/n`), in place, allocating scratch.
    pub fn inverse(&self, data: &mut [Complex64]) {
        let mut scratch = vec![Complex64::ZERO; self.n];
        self.inverse_with(data, &mut scratch);
    }

    /// Forward transform with caller-provided scratch (hot path; no
    /// allocation). `scratch` must have at least [`Self::scratch_len`]
    /// elements.
    pub fn forward_with(&self, data: &mut [Complex64], scratch: &mut [Complex64]) {
        assert_eq!(data.len(), self.n, "FFT buffer length mismatch");
        assert!(scratch.len() >= self.n, "FFT scratch too small");
        if self.n == 1 {
            return;
        }
        scratch[..self.n].copy_from_slice(data);
        self.rec(&scratch[..self.n], 1, data, self.n, 0, false);
    }

    /// Inverse transform with caller-provided scratch.
    pub fn inverse_with(&self, data: &mut [Complex64], scratch: &mut [Complex64]) {
        assert_eq!(data.len(), self.n, "FFT buffer length mismatch");
        assert!(scratch.len() >= self.n, "FFT scratch too small");
        if self.n == 1 {
            return;
        }
        scratch[..self.n].copy_from_slice(data);
        self.rec(&scratch[..self.n], 1, data, self.n, 0, true);
        let inv_n = 1.0 / self.n as f64;
        for z in data.iter_mut() {
            *z = z.scale(inv_n);
        }
    }

    /// Twiddle lookup `exp(∓2πi idx / n)` (conjugated for inverse).
    #[inline(always)]
    fn tw(&self, idx: usize, inverse: bool) -> Complex64 {
        let w = self.twiddle[idx % self.n];
        if inverse {
            w.conj()
        } else {
            w
        }
    }

    /// Recursive mixed-radix step: writes the DFT of
    /// `src[0], src[ss], ..., src[(n_sub-1)*ss]` into `dst[0..n_sub]`.
    ///
    /// `level` indexes into the factor list; `self.n / n_sub` is the
    /// twiddle stride for this level.
    fn rec(
        &self,
        src: &[Complex64],
        ss: usize,
        dst: &mut [Complex64],
        n_sub: usize,
        level: usize,
        inverse: bool,
    ) {
        if n_sub == 1 {
            dst[0] = src[0];
            return;
        }
        let r = self.factors[level];
        let m = n_sub / r;
        // Decimate: FFT each residue class into consecutive blocks of dst.
        for q in 0..r {
            let sub_src = &src[q * ss..];
            self.rec(sub_src, ss * r, &mut dst[q * m..(q + 1) * m], m, level + 1, inverse);
        }
        // Combine blocks in place: for each k, gather r values with
        // twiddles and apply an r-point DFT, scattering to dst[k + j*m].
        let tw_stride = self.n / n_sub;
        let mut buf = [Complex64::ZERO; 16];
        debug_assert!(r <= 16 || r % 2 == 1, "unexpected radix {r}");
        if r <= 16 {
            for k in 0..m {
                for (q, b) in buf[..r].iter_mut().enumerate() {
                    let t = self.tw(q * k * tw_stride, inverse);
                    *b = dst[q * m + k] * t;
                }
                self.butterfly(&mut buf[..r], dst, k, m, inverse);
            }
        } else {
            // Arbitrarily large prime radix: heap-buffered generic kernel.
            let mut heap_buf = vec![Complex64::ZERO; r];
            for k in 0..m {
                for (q, b) in heap_buf.iter_mut().enumerate() {
                    let t = self.tw(q * k * tw_stride, inverse);
                    *b = dst[q * m + k] * t;
                }
                self.generic_butterfly(&heap_buf, dst, k, m, n_sub, inverse);
            }
        }
    }

    /// r-point DFT of `buf`, scattered to `dst[k + j*m]`.
    #[inline]
    fn butterfly(
        &self,
        buf: &mut [Complex64],
        dst: &mut [Complex64],
        k: usize,
        m: usize,
        inverse: bool,
    ) {
        let r = buf.len();
        match r {
            2 => {
                let (a, b) = (buf[0], buf[1]);
                dst[k] = a + b;
                dst[k + m] = a - b;
            }
            3 => {
                // w = exp(-2πi/3) = (-1/2, -√3/2); conjugated for inverse.
                let s3 = if inverse { 0.5 * 3f64.sqrt() } else { -0.5 * 3f64.sqrt() };
                let (a, b, c) = (buf[0], buf[1], buf[2]);
                let t = b + c;
                let u = (b - c) * c64(0.0, s3);
                dst[k] = a + t;
                dst[k + m] = a - t.scale(0.5) + u;
                dst[k + 2 * m] = a - t.scale(0.5) - u;
            }
            4 => {
                let ji = if inverse { c64(0.0, 1.0) } else { c64(0.0, -1.0) };
                let (a, b, c, d) = (buf[0], buf[1], buf[2], buf[3]);
                let apc = a + c;
                let amc = a - c;
                let bpd = b + d;
                let bmd = (b - d) * ji;
                dst[k] = apc + bpd;
                dst[k + m] = amc + bmd;
                dst[k + 2 * m] = apc - bpd;
                dst[k + 3 * m] = amc - bmd;
            }
            5 => {
                // Explicit 5-point DFT via the standard Winograd-style
                // symmetric/antisymmetric split.
                let tau = 2.0 * std::f64::consts::PI / 5.0;
                let (c1, c2) = (tau.cos(), (2.0 * tau).cos());
                let (mut s1, mut s2) = (tau.sin(), (2.0 * tau).sin());
                if !inverse {
                    s1 = -s1;
                    s2 = -s2;
                }
                let a = buf[0];
                let p1 = buf[1] + buf[4];
                let m1 = buf[1] - buf[4];
                let p2 = buf[2] + buf[3];
                let m2 = buf[2] - buf[3];
                dst[k] = a + p1 + p2;
                let re1 = a + p1.scale(c1) + p2.scale(c2);
                let im1 = m1.scale(s1) + m2.scale(s2);
                let re2 = a + p1.scale(c2) + p2.scale(c1);
                let im2 = m1.scale(s2) - m2.scale(s1);
                let i = Complex64::I;
                dst[k + m] = re1 + i * im1;
                dst[k + 2 * m] = re2 + i * im2;
                dst[k + 3 * m] = re2 - i * im2;
                dst[k + 4 * m] = re1 - i * im1;
            }
            _ => {
                let copy: Vec<Complex64> = buf.to_vec();
                self.generic_butterfly(&copy, dst, k, m, r * m, inverse);
            }
        }
    }

    /// Naive O(r²) DFT kernel for odd prime radices.
    fn generic_butterfly(
        &self,
        buf: &[Complex64],
        dst: &mut [Complex64],
        k: usize,
        m: usize,
        n_sub: usize,
        inverse: bool,
    ) {
        let r = buf.len();
        // exp(-2πi q j / r) = twiddle at stride n/r.
        let stride_r = self.n / r;
        let _ = n_sub;
        for j in 0..r {
            let mut acc = Complex64::ZERO;
            for (q, &bq) in buf.iter().enumerate() {
                acc += bq * self.tw((q * j % r) * stride_r, inverse);
            }
            dst[k + j * m] = acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_dft(x: &[Complex64], inverse: bool) -> Vec<Complex64> {
        let n = x.len();
        let sign = if inverse { 2.0 } else { -2.0 };
        let mut out = vec![Complex64::ZERO; n];
        for (k, o) in out.iter_mut().enumerate() {
            let mut acc = Complex64::ZERO;
            for (j, &xj) in x.iter().enumerate() {
                acc += xj * Complex64::cis(sign * std::f64::consts::PI * (j * k % n) as f64 / n as f64);
            }
            *o = if inverse { acc.scale(1.0 / n as f64) } else { acc };
        }
        out
    }

    fn signal(n: usize, seed: f64) -> Vec<Complex64> {
        (0..n)
            .map(|j| c64((j as f64 * 0.7 + seed).sin(), (j as f64 * 1.3 - seed).cos()))
            .collect()
    }

    #[test]
    fn matches_naive_dft_many_sizes() {
        for n in [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 15, 16, 18, 20, 24, 25, 27, 30, 32,
            36, 45, 48, 49, 60, 64, 77, 90, 97, 120, 125]
        {
            let plan = Plan::new(n);
            let x = signal(n, 0.3);
            let mut y = x.clone();
            plan.forward(&mut y);
            let want = naive_dft(&x, false);
            for (a, b) in y.iter().zip(&want) {
                assert!((*a - *b).abs() < 1e-9 * (n as f64), "forward mismatch n={n}");
            }
        }
    }

    #[test]
    fn roundtrip_inverse() {
        for n in [2, 3, 4, 5, 8, 12, 36, 60, 90, 120, 240, 251] {
            let plan = Plan::new(n);
            let x = signal(n, 1.7);
            let mut y = x.clone();
            plan.forward(&mut y);
            plan.inverse(&mut y);
            for (a, b) in y.iter().zip(&x) {
                assert!((*a - *b).abs() < 1e-10, "roundtrip mismatch n={n}");
            }
        }
    }

    #[test]
    fn impulse_transforms_to_constant() {
        let plan = Plan::new(36);
        let mut x = vec![Complex64::ZERO; 36];
        x[0] = Complex64::ONE;
        plan.forward(&mut x);
        for z in &x {
            assert!((*z - Complex64::ONE).abs() < 1e-12);
        }
    }

    #[test]
    fn constant_transforms_to_delta() {
        let plan = Plan::new(40);
        let mut x = vec![Complex64::ONE; 40];
        plan.forward(&mut x);
        assert!((x[0] - c64(40.0, 0.0)).abs() < 1e-11);
        for z in &x[1..] {
            assert!(z.abs() < 1e-11);
        }
    }

    #[test]
    fn parseval_identity() {
        for n in [12, 30, 128] {
            let plan = Plan::new(n);
            let x = signal(n, 0.5);
            let time_energy: f64 = x.iter().map(|z| z.norm_sqr()).sum();
            let mut y = x.clone();
            plan.forward(&mut y);
            let freq_energy: f64 = y.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
            assert!((time_energy - freq_energy).abs() < 1e-9 * time_energy);
        }
    }

    #[test]
    fn linearity() {
        let n = 48;
        let plan = Plan::new(n);
        let x = signal(n, 0.1);
        let y = signal(n, 2.2);
        let alpha = c64(1.5, -0.3);
        let mut combined: Vec<Complex64> =
            x.iter().zip(&y).map(|(a, b)| *a * alpha + *b).collect();
        plan.forward(&mut combined);
        let mut fx = x.clone();
        plan.forward(&mut fx);
        let mut fy = y.clone();
        plan.forward(&mut fy);
        for i in 0..n {
            assert!((combined[i] - (fx[i] * alpha + fy[i])).abs() < 1e-10);
        }
    }

    #[test]
    fn convolution_theorem() {
        let n = 30;
        let plan = Plan::new(n);
        let x = signal(n, 0.2);
        let h = signal(n, 1.9);
        // Direct circular convolution.
        let mut conv = vec![Complex64::ZERO; n];
        for i in 0..n {
            for j in 0..n {
                conv[(i + j) % n] += x[i] * h[j];
            }
        }
        // Via FFT.
        let mut fx = x.clone();
        plan.forward(&mut fx);
        let mut fh = h.clone();
        plan.forward(&mut fh);
        let mut prod: Vec<Complex64> = fx.iter().zip(&fh).map(|(a, b)| *a * *b).collect();
        plan.inverse(&mut prod);
        for i in 0..n {
            assert!((conv[i] - prod[i]).abs() < 1e-9, "mismatch at {i}");
        }
    }

    #[test]
    fn shift_theorem() {
        let n = 36;
        let plan = Plan::new(n);
        let x = signal(n, 0.8);
        let shift = 5usize;
        let shifted: Vec<Complex64> = (0..n).map(|j| x[(j + n - shift) % n]).collect();
        let mut fs = shifted.clone();
        plan.forward(&mut fs);
        let mut fx = x.clone();
        plan.forward(&mut fx);
        for k in 0..n {
            let phase = Complex64::cis(-2.0 * std::f64::consts::PI * (k * shift) as f64 / n as f64);
            assert!((fs[k] - fx[k] * phase).abs() < 1e-10);
        }
    }

    #[test]
    fn scratch_variant_matches() {
        let n = 90;
        let plan = Plan::new(n);
        let x = signal(n, 0.4);
        let mut a = x.clone();
        let mut b = x.clone();
        plan.forward(&mut a);
        let mut scratch = vec![Complex64::ZERO; plan.scratch_len()];
        plan.forward_with(&mut b, &mut scratch);
        for (p, q) in a.iter().zip(&b) {
            assert_eq!(*p, *q);
        }
    }

    #[test]
    fn factorization_covers_sizes() {
        assert_eq!(super::factorize(60), vec![4, 3, 5]);
        assert_eq!(super::factorize(8), vec![4, 2]);
        assert_eq!(super::factorize(7), vec![7]);
        assert_eq!(super::factorize(90), vec![2, 3, 3, 5]);
        let f240 = super::factorize(240);
        assert_eq!(f240.iter().product::<usize>(), 240);
    }
}
