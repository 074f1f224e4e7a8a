//! BLAS-1 style kernels over slices of [`Complex64`].
//!
//! These are the innermost loops of the plane-wave code (element-wise
//! products on grids, dot products for overlap matrices, axpy updates in
//! the mixers), so they are written as straight slice iterations that the
//! compiler can unroll and vectorize, with explicit length asserts hoisted
//! out of the loops.

use crate::complex::Complex64;
use crate::parallel::par_chunks_mut;

/// `y += a * x` (complex axpy).
#[inline]
pub fn axpy(a: Complex64, x: &[Complex64], y: &mut [Complex64]) {
    assert_eq!(x.len(), y.len(), "axpy length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi = xi.mul_add(a, *yi);
    }
}

/// `y += a * x` with a real coefficient.
#[inline]
pub fn raxpy(a: f64, x: &[Complex64], y: &mut [Complex64]) {
    assert_eq!(x.len(), y.len(), "raxpy length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        yi.re += a * xi.re;
        yi.im += a * xi.im;
    }
}

/// Scales `x` in place by a complex factor.
#[inline]
pub fn scale(a: Complex64, x: &mut [Complex64]) {
    for xi in x.iter_mut() {
        *xi *= a;
    }
}

/// Scales `x` in place by a real factor.
#[inline]
pub fn rscale(a: f64, x: &mut [Complex64]) {
    for xi in x.iter_mut() {
        xi.re *= a;
        xi.im *= a;
    }
}

/// Hermitian dot product `sum_i conj(x_i) * y_i` (left argument conjugated,
/// matching the physics convention `<x|y>`).
#[inline]
pub fn dotc(x: &[Complex64], y: &[Complex64]) -> Complex64 {
    assert_eq!(x.len(), y.len(), "dotc length mismatch");
    let mut acc = Complex64::ZERO;
    for (xi, yi) in x.iter().zip(y) {
        acc = xi.conj().mul_add(*yi, acc);
    }
    acc
}

/// Unconjugated dot product `sum_i x_i * y_i`.
#[inline]
pub fn dotu(x: &[Complex64], y: &[Complex64]) -> Complex64 {
    assert_eq!(x.len(), y.len(), "dotu length mismatch");
    let mut acc = Complex64::ZERO;
    for (xi, yi) in x.iter().zip(y) {
        acc = xi.mul_add(*yi, acc);
    }
    acc
}

/// Squared 2-norm `sum_i |x_i|^2`.
#[inline]
pub fn norm_sqr(x: &[Complex64]) -> f64 {
    x.iter().map(|z| z.norm_sqr()).sum()
}

/// 2-norm.
#[inline]
pub fn norm(x: &[Complex64]) -> f64 {
    norm_sqr(x).sqrt()
}

/// Element-wise product `out_i = a_i * b_i`.
#[inline]
pub fn hadamard(a: &[Complex64], b: &[Complex64], out: &mut [Complex64]) {
    assert_eq!(a.len(), b.len(), "hadamard length mismatch");
    assert_eq!(a.len(), out.len(), "hadamard output length mismatch");
    for ((o, ai), bi) in out.iter_mut().zip(a).zip(b) {
        *o = *ai * *bi;
    }
}

/// Element-wise conjugated product `out_i = conj(a_i) * b_i`.
///
/// This is the pair-density kernel of the Fock exchange operator
/// (`phi_k^* . phi_j` on the real-space grid, paper Alg. 2 line 11).
#[inline]
pub fn hadamard_conj(a: &[Complex64], b: &[Complex64], out: &mut [Complex64]) {
    assert_eq!(a.len(), b.len(), "hadamard_conj length mismatch");
    assert_eq!(a.len(), out.len(), "hadamard_conj output length mismatch");
    for ((o, ai), bi) in out.iter_mut().zip(a).zip(b) {
        *o = ai.conj() * *bi;
    }
}

/// `acc_i += w * a_i * b_i` — accumulate a weighted element-wise product
/// (the `Vx phi_j += sigma_ik * phi_temp .* phi_i` update of Alg. 2).
#[inline]
pub fn hadamard_acc(w: Complex64, a: &[Complex64], b: &[Complex64], acc: &mut [Complex64]) {
    assert_eq!(a.len(), b.len(), "hadamard_acc length mismatch");
    assert_eq!(a.len(), acc.len(), "hadamard_acc output length mismatch");
    for ((o, ai), bi) in acc.iter_mut().zip(a).zip(b) {
        *o = (*ai * *bi).mul_add(w, *o);
    }
}

/// `acc_i += w * conj(a_i) * b_i` — the conjugated partner of
/// [`hadamard_acc`]: with a real screened kernel the Poisson solutions of
/// Hermitian pair densities obey `W_ji = conj(W_ij)`, so the pair-block
/// Fock scheduler scatters one solved `W_ij` into *both* target bands —
/// the swapped side through this kernel.
#[inline]
pub fn hadamard_acc_conj(w: Complex64, a: &[Complex64], b: &[Complex64], acc: &mut [Complex64]) {
    assert_eq!(a.len(), b.len(), "hadamard_acc_conj length mismatch");
    assert_eq!(a.len(), acc.len(), "hadamard_acc_conj output length mismatch");
    for ((o, ai), bi) in acc.iter_mut().zip(a).zip(b) {
        *o = (ai.conj() * *bi).mul_add(w, *o);
    }
}

/// Multiplies each element by a real diagonal: `x_i *= d_i`.
#[inline]
pub fn diag_mul(d: &[f64], x: &mut [Complex64]) {
    assert_eq!(d.len(), x.len(), "diag_mul length mismatch");
    for (xi, di) in x.iter_mut().zip(d) {
        xi.re *= *di;
        xi.im *= *di;
    }
}

/// Real-kernel apply `field *= k`, cycling the kernel over consecutive
/// `k.len()`-sized chunks of `field` — the `K(G)·f_G` multiply of the
/// screened Poisson solve, applied to a whole FFT batch in one parallel
/// pass (one chunk is one worker's unit, so the thread count moves no
/// bit). `field.len()` must be a multiple of `k.len()`.
pub fn scale_by_real(k: &[f64], field: &mut [Complex64]) {
    let _s = pwobs::span("grid.scale_by_real");
    assert!(!k.is_empty(), "scale_by_real: empty kernel");
    assert!(field.len().is_multiple_of(k.len()), "scale_by_real: field not a multiple of kernel");
    par_chunks_mut(field, k.len(), |_, chunk| {
        for (f, &kv) in chunk.iter_mut().zip(k) {
            *f = f.scale(kv);
        }
    });
}

/// Copies `src` into `dst`.
#[inline]
pub fn copy(src: &[Complex64], dst: &mut [Complex64]) {
    dst.copy_from_slice(src);
}

/// Sets every element to zero.
#[inline]
pub fn zero_fill(x: &mut [Complex64]) {
    x.fill(Complex64::ZERO);
}

/// Maximum absolute component difference between two vectors
/// (convergence metric for the SCF loops).
#[inline]
pub fn max_abs_diff(a: &[Complex64], b: &[Complex64]) -> f64 {
    assert_eq!(a.len(), b.len(), "max_abs_diff length mismatch");
    a.iter()
        .zip(b)
        .map(|(x, y)| (*x - *y).abs())
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::c64;

    #[test]
    fn axpy_accumulates() {
        let x = vec![c64(1.0, 0.0), c64(0.0, 1.0)];
        let mut y = vec![c64(1.0, 1.0); 2];
        axpy(c64(0.0, 2.0), &x, &mut y);
        assert_eq!(y[0], c64(1.0, 3.0));
        assert_eq!(y[1], c64(-1.0, 1.0));
    }

    #[test]
    fn dotc_conjugates_left() {
        let x = vec![c64(0.0, 1.0)];
        let y = vec![c64(0.0, 1.0)];
        assert_eq!(dotc(&x, &y), c64(1.0, 0.0));
        assert_eq!(dotu(&x, &y), c64(-1.0, 0.0));
    }

    #[test]
    fn norms() {
        let x = vec![c64(3.0, 0.0), c64(0.0, 4.0)];
        assert!((norm_sqr(&x) - 25.0).abs() < 1e-15);
        assert!((norm(&x) - 5.0).abs() < 1e-15);
    }

    #[test]
    fn hadamard_products() {
        let a = vec![c64(1.0, 1.0), c64(2.0, 0.0)];
        let b = vec![c64(0.0, 1.0), c64(0.5, 0.5)];
        let mut out = vec![Complex64::ZERO; 2];
        hadamard(&a, &b, &mut out);
        assert_eq!(out[0], c64(-1.0, 1.0));
        assert_eq!(out[1], c64(1.0, 1.0));
        hadamard_conj(&a, &b, &mut out);
        assert_eq!(out[0], c64(1.0, 1.0));

        let mut acc = vec![Complex64::ZERO; 2];
        hadamard_acc(c64(2.0, 0.0), &a, &b, &mut acc);
        assert_eq!(acc[0], c64(-2.0, 2.0));

        // conj variant: acc += w * conj(a) ⊙ b.
        let mut accc = vec![Complex64::ZERO; 2];
        hadamard_acc_conj(c64(2.0, 0.0), &a, &b, &mut accc);
        assert_eq!(accc[0], c64(2.0, 2.0));
        assert_eq!(accc[1], c64(2.0, 2.0));
    }

    #[test]
    fn diag_and_scale() {
        let mut x = vec![c64(1.0, 2.0), c64(-1.0, 0.5)];
        diag_mul(&[2.0, -1.0], &mut x);
        assert_eq!(x[0], c64(2.0, 4.0));
        assert_eq!(x[1], c64(1.0, -0.5));
        rscale(0.5, &mut x);
        assert_eq!(x[0], c64(1.0, 2.0));
    }

    #[test]
    fn max_diff_metric() {
        let a = vec![c64(1.0, 0.0), c64(0.0, 0.0)];
        let b = vec![c64(1.0, 0.0), c64(0.0, 3.0)];
        assert!((max_abs_diff(&a, &b) - 3.0).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let a = vec![Complex64::ZERO; 2];
        let b = vec![Complex64::ZERO; 3];
        let _ = dotc(&a, &b);
    }
}
