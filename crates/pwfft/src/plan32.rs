//! Single-precision 1-D complex FFT plans — the fp32 twin of
//! [`Plan`](crate::plan::Plan) for the mixed-precision exchange
//! pipeline.
//!
//! Same mixed-radix decimation-in-time structure and identical factor
//! ordering as the fp64 plans, with fp32 twiddles (evaluated in fp64 and
//! rounded once) and fp32 butterflies: half the memory traffic and twice
//! the SIMD lanes per pass. Conventions match [`Plan`](crate::plan::Plan):
//! unnormalized `forward`, `1/n`-scaled `inverse`.
//!
//! The per-line recursion here and the tile kernel (module `tile`)
//! perform the same arithmetic per line, so the fused passes the
//! `Blocked` backend prefers are value-identical to the per-line passes.

use crate::plan::factorize;
use crate::tile::Schedule;
use pwnum::precision::{c32, Complex32};

/// Precomputed fp32 plan for transforms of one length.
#[derive(Clone, Debug)]
pub struct Plan32 {
    n: usize,
    /// Prime-power factor sequence (shared logic with the fp64 plan).
    factors: Vec<usize>,
    /// Twiddle table `w[j] = fl32(exp(-2πi j / n))` — evaluated in fp64,
    /// rounded once, so every twiddle carries at most half-ulp error.
    twiddle: Vec<Complex32>,
    /// The same transform compiled for the tile kernel (shared with the
    /// fp64 plans; bitwise equal to [`Self::forward_with`] per line).
    pub(crate) tile: Schedule<f32>,
}

impl Plan32 {
    /// Builds an fp32 plan for length-`n` transforms.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "FFT length must be positive");
        let twiddle: Vec<Complex32> = (0..n)
            .map(|j| {
                let theta = -2.0 * std::f64::consts::PI * j as f64 / n as f64;
                c32(theta.cos() as f32, theta.sin() as f32)
            })
            .collect();
        let factors = factorize(n);
        let tile = Schedule::new(&factors, &twiddle);
        Plan32 { n, factors, twiddle, tile }
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

    /// Forward transform with caller-provided scratch (hot path; no
    /// allocation). `scratch` needs at least [`Self::scratch_len`]
    /// elements.
    pub fn forward_with(&self, data: &mut [Complex32], scratch: &mut [Complex32]) {
        assert_eq!(data.len(), self.n, "FFT buffer length mismatch");
        assert!(scratch.len() >= self.n, "FFT scratch too small");
        if self.n == 1 {
            return;
        }
        scratch[..self.n].copy_from_slice(data);
        self.rec(&scratch[..self.n], 1, data, self.n, 0, false);
    }

    /// Inverse transform (normalized by `1/n`) with caller scratch.
    pub fn inverse_with(&self, data: &mut [Complex32], scratch: &mut [Complex32]) {
        assert_eq!(data.len(), self.n, "FFT buffer length mismatch");
        assert!(scratch.len() >= self.n, "FFT scratch too small");
        if self.n == 1 {
            return;
        }
        scratch[..self.n].copy_from_slice(data);
        self.rec(&scratch[..self.n], 1, data, self.n, 0, true);
        let inv_n = 1.0 / self.n as f32;
        for z in data.iter_mut() {
            *z = z.scale(inv_n);
        }
    }

    /// Twiddle lookup `exp(∓2πi idx / n)` (conjugated for inverse).
    #[inline(always)]
    fn tw(&self, idx: usize, inverse: bool) -> Complex32 {
        let w = self.twiddle[idx % self.n];
        if inverse {
            w.conj()
        } else {
            w
        }
    }

    /// Recursive mixed-radix step — the fp32 twin of the fp64 plan's
    /// recursion with identical factor ordering.
    fn rec(
        &self,
        src: &[Complex32],
        ss: usize,
        dst: &mut [Complex32],
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
        for q in 0..r {
            let sub_src = &src[q * ss..];
            self.rec(sub_src, ss * r, &mut dst[q * m..(q + 1) * m], m, level + 1, inverse);
        }
        let tw_stride = self.n / n_sub;
        let mut buf = [Complex32::ZERO; 16];
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
            let mut heap_buf = vec![Complex32::ZERO; r];
            for k in 0..m {
                for (q, b) in heap_buf.iter_mut().enumerate() {
                    let t = self.tw(q * k * tw_stride, inverse);
                    *b = dst[q * m + k] * t;
                }
                self.generic_butterfly(&heap_buf, dst, k, m, inverse);
            }
        }
    }

    /// r-point fp32 DFT of `buf`, scattered to `dst[k + j*m]`.
    #[inline]
    fn butterfly(
        &self,
        buf: &mut [Complex32],
        dst: &mut [Complex32],
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
                let s3 = if inverse { 0.5 * 3f32.sqrt() } else { -0.5 * 3f32.sqrt() };
                let (a, b, c) = (buf[0], buf[1], buf[2]);
                let t = b + c;
                let u = (b - c) * c32(0.0, s3);
                dst[k] = a + t;
                dst[k + m] = a - t.scale(0.5) + u;
                dst[k + 2 * m] = a - t.scale(0.5) - u;
            }
            4 => {
                let ji = if inverse { c32(0.0, 1.0) } else { c32(0.0, -1.0) };
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
                let tau = 2.0 * std::f32::consts::PI / 5.0;
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
                let i = Complex32::I;
                dst[k + m] = re1 + i * im1;
                dst[k + 2 * m] = re2 + i * im2;
                dst[k + 3 * m] = re2 - i * im2;
                dst[k + 4 * m] = re1 - i * im1;
            }
            _ => {
                let copy: Vec<Complex32> = buf.to_vec();
                self.generic_butterfly(&copy, dst, k, m, inverse);
            }
        }
    }

    /// Naive O(r²) fp32 DFT kernel for odd prime radices.
    fn generic_butterfly(
        &self,
        buf: &[Complex32],
        dst: &mut [Complex32],
        k: usize,
        m: usize,
        inverse: bool,
    ) {
        let r = buf.len();
        let stride_r = self.n / r;
        for j in 0..r {
            let mut acc = Complex32::ZERO;
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
    use pwnum::precision::{demote, promote};

    fn signal64(n: usize, seed: f64) -> Vec<pwnum::Complex64> {
        (0..n)
            .map(|j| {
                pwnum::c64((j as f64 * 0.7 + seed).sin(), (j as f64 * 1.3 - seed).cos())
            })
            .collect()
    }

    #[test]
    fn matches_fp64_plan_within_fp32_tolerance() {
        for n in [1, 2, 3, 4, 5, 8, 12, 15, 20, 36, 45, 60, 90, 97, 120] {
            let p64 = crate::plan::Plan::new(n);
            let p32 = Plan32::new(n);
            let x = signal64(n, 0.4);
            let mut y64 = x.clone();
            p64.forward(&mut y64);
            let mut y32 = demote(&x);
            let mut scratch = vec![Complex32::ZERO; p32.scratch_len()];
            p32.forward_with(&mut y32, &mut scratch);
            let up = promote(&y32);
            let scale = y64.iter().map(|z| z.abs()).fold(0.0f64, f64::max);
            for (a, b) in y64.iter().zip(&up) {
                assert!((*a - *b).abs() < 2e-5 * scale.max(1.0), "n={n}");
            }
        }
    }

    #[test]
    fn roundtrip_inverse32() {
        for n in [2, 3, 4, 5, 8, 12, 36, 60, 90, 120, 251] {
            let plan = Plan32::new(n);
            let x = demote(&signal64(n, 1.7));
            let mut y = x.clone();
            let mut scratch = vec![Complex32::ZERO; plan.scratch_len()];
            plan.forward_with(&mut y, &mut scratch);
            plan.inverse_with(&mut y, &mut scratch);
            for (a, b) in y.iter().zip(&x) {
                assert!((*a - *b).abs() < 1e-4, "roundtrip mismatch n={n}");
            }
        }
    }
}
