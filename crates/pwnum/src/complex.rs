//! Double-precision complex numbers.
//!
//! The plane-wave code works exclusively with `f64` scalars, so a single
//! concrete [`Complex64`] type (rather than a generic one) keeps call sites
//! monomorphic and the inner loops friendly to the vectorizer.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number `re + i*im` in double precision.
#[derive(Clone, Copy, Default, PartialEq)]
pub struct Complex64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

/// Shorthand constructor: `c64(re, im)`.
#[inline(always)]
pub const fn c64(re: f64, im: f64) -> Complex64 {
    Complex64 { re, im }
}

impl Complex64 {
    /// The additive identity.
    pub const ZERO: Complex64 = c64(0.0, 0.0);
    /// The multiplicative identity.
    pub const ONE: Complex64 = c64(1.0, 0.0);
    /// The imaginary unit.
    pub const I: Complex64 = c64(0.0, 1.0);

    /// Creates a complex number from real and imaginary parts.
    #[inline(always)]
    pub const fn new(re: f64, im: f64) -> Self {
        c64(re, im)
    }

    /// Creates a purely real complex number.
    #[inline(always)]
    pub const fn from_re(re: f64) -> Self {
        c64(re, 0.0)
    }

    /// Complex conjugate.
    #[inline(always)]
    pub fn conj(self) -> Self {
        c64(self.re, -self.im)
    }

    /// Squared modulus `|z|^2` (avoids the square root of [`Self::abs`]).
    #[inline(always)]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// Modulus `|z|`, computed with `hypot` for overflow safety.
    #[inline(always)]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// Argument (phase angle) in `(-pi, pi]`.
    #[inline(always)]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplies by a real scalar.
    #[inline(always)]
    pub fn scale(self, s: f64) -> Self {
        c64(self.re * s, self.im * s)
    }

    /// Multiplicative inverse `1/z`.
    #[inline(always)]
    pub fn inv(self) -> Self {
        let d = self.norm_sqr();
        c64(self.re / d, -self.im / d)
    }

    /// Complex exponential `exp(z)`.
    #[inline]
    pub fn exp(self) -> Self {
        let r = self.re.exp();
        c64(r * self.im.cos(), r * self.im.sin())
    }

    /// `exp(i*theta)` for a real phase `theta` (unit-modulus rotor).
    #[inline]
    pub fn cis(theta: f64) -> Self {
        c64(theta.cos(), theta.sin())
    }

    /// Principal square root.
    #[inline]
    pub fn sqrt(self) -> Self {
        let r = self.abs();
        if r == 0.0 {
            return Complex64::ZERO;
        }
        let half = 0.5 * (r + self.re);
        let re = half.max(0.0).sqrt();
        let im_mag = (0.5 * (r - self.re)).max(0.0).sqrt();
        c64(re, if self.im >= 0.0 { im_mag } else { -im_mag })
    }

    /// `z * w + acc` fused form used by the GEMM microkernels.
    #[inline(always)]
    pub fn mul_add(self, w: Complex64, acc: Complex64) -> Complex64 {
        c64(
            acc.re + self.re * w.re - self.im * w.im,
            acc.im + self.re * w.im + self.im * w.re,
        )
    }

    /// True if either component is NaN.
    #[inline]
    pub fn is_nan(self) -> bool {
        self.re.is_nan() || self.im.is_nan()
    }

    /// True if both components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

impl fmt::Debug for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:+.6e}{:+.6e}i)", self.re, self.im)
    }
}

impl fmt::Display for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

impl From<f64> for Complex64 {
    #[inline(always)]
    fn from(re: f64) -> Self {
        c64(re, 0.0)
    }
}

impl Add for Complex64 {
    type Output = Complex64;
    #[inline(always)]
    fn add(self, rhs: Complex64) -> Complex64 {
        c64(self.re + rhs.re, self.im + rhs.im)
    }
}

impl Sub for Complex64 {
    type Output = Complex64;
    #[inline(always)]
    fn sub(self, rhs: Complex64) -> Complex64 {
        c64(self.re - rhs.re, self.im - rhs.im)
    }
}

impl Mul for Complex64 {
    type Output = Complex64;
    #[inline(always)]
    fn mul(self, rhs: Complex64) -> Complex64 {
        c64(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl Div for Complex64 {
    type Output = Complex64;
    #[inline(always)]
    fn div(self, rhs: Complex64) -> Complex64 {
        let d = rhs.norm_sqr();
        c64(
            (self.re * rhs.re + self.im * rhs.im) / d,
            (self.im * rhs.re - self.re * rhs.im) / d,
        )
    }
}

impl Neg for Complex64 {
    type Output = Complex64;
    #[inline(always)]
    fn neg(self) -> Complex64 {
        c64(-self.re, -self.im)
    }
}

impl Add<f64> for Complex64 {
    type Output = Complex64;
    #[inline(always)]
    fn add(self, rhs: f64) -> Complex64 {
        c64(self.re + rhs, self.im)
    }
}

impl Sub<f64> for Complex64 {
    type Output = Complex64;
    #[inline(always)]
    fn sub(self, rhs: f64) -> Complex64 {
        c64(self.re - rhs, self.im)
    }
}

impl Mul<f64> for Complex64 {
    type Output = Complex64;
    #[inline(always)]
    fn mul(self, rhs: f64) -> Complex64 {
        c64(self.re * rhs, self.im * rhs)
    }
}

impl Div<f64> for Complex64 {
    type Output = Complex64;
    #[inline(always)]
    fn div(self, rhs: f64) -> Complex64 {
        c64(self.re / rhs, self.im / rhs)
    }
}

impl Add<Complex64> for f64 {
    type Output = Complex64;
    #[inline(always)]
    fn add(self, rhs: Complex64) -> Complex64 {
        c64(self + rhs.re, rhs.im)
    }
}

impl Sub<Complex64> for f64 {
    type Output = Complex64;
    #[inline(always)]
    fn sub(self, rhs: Complex64) -> Complex64 {
        c64(self - rhs.re, -rhs.im)
    }
}

impl Mul<Complex64> for f64 {
    type Output = Complex64;
    #[inline(always)]
    fn mul(self, rhs: Complex64) -> Complex64 {
        c64(self * rhs.re, self * rhs.im)
    }
}

impl Div<Complex64> for f64 {
    type Output = Complex64;
    #[inline(always)]
    fn div(self, rhs: Complex64) -> Complex64 {
        Complex64::from_re(self) / rhs
    }
}

impl AddAssign for Complex64 {
    #[inline(always)]
    fn add_assign(&mut self, rhs: Complex64) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl SubAssign for Complex64 {
    #[inline(always)]
    fn sub_assign(&mut self, rhs: Complex64) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl MulAssign for Complex64 {
    #[inline(always)]
    fn mul_assign(&mut self, rhs: Complex64) {
        *self = *self * rhs;
    }
}

impl DivAssign for Complex64 {
    #[inline(always)]
    fn div_assign(&mut self, rhs: Complex64) {
        *self = *self / rhs;
    }
}

impl MulAssign<f64> for Complex64 {
    #[inline(always)]
    fn mul_assign(&mut self, rhs: f64) {
        self.re *= rhs;
        self.im *= rhs;
    }
}

impl Sum for Complex64 {
    fn sum<I: Iterator<Item = Complex64>>(iter: I) -> Complex64 {
        iter.fold(Complex64::ZERO, |a, b| a + b)
    }
}

impl<'a> Sum<&'a Complex64> for Complex64 {
    fn sum<I: Iterator<Item = &'a Complex64>>(iter: I) -> Complex64 {
        iter.fold(Complex64::ZERO, |a, b| a + *b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: Complex64, b: Complex64, tol: f64) -> bool {
        (a - b).abs() <= tol
    }

    #[test]
    fn arithmetic_identities() {
        let z = c64(3.0, -2.0);
        let w = c64(-1.5, 0.25);
        assert_eq!(z + w, c64(1.5, -1.75));
        assert_eq!(z - w, c64(4.5, -2.25));
        assert_eq!(z * Complex64::ONE, z);
        assert_eq!(z + Complex64::ZERO, z);
        assert!(close(z / z, Complex64::ONE, 1e-15));
        assert!(close(z * z.inv(), Complex64::ONE, 1e-15));
    }

    #[test]
    fn conjugation_and_modulus() {
        let z = c64(1.0, 2.0);
        assert_eq!(z.conj(), c64(1.0, -2.0));
        assert!((z.norm_sqr() - 5.0).abs() < 1e-15);
        assert!((z.abs() - 5f64.sqrt()).abs() < 1e-15);
        assert!(close(z * z.conj(), Complex64::from_re(5.0), 1e-15));
    }

    #[test]
    fn i_squared_is_minus_one() {
        assert_eq!(Complex64::I * Complex64::I, c64(-1.0, 0.0));
    }

    #[test]
    fn exp_euler() {
        let z = Complex64::I * std::f64::consts::PI;
        assert!(close(z.exp(), c64(-1.0, 0.0), 1e-14));
        assert!(close(Complex64::cis(std::f64::consts::FRAC_PI_2), Complex64::I, 1e-15));
    }

    #[test]
    fn sqrt_squares_back() {
        for &(re, im) in &[(4.0, 0.0), (-4.0, 0.0), (3.0, 4.0), (-3.0, -4.0), (0.0, 2.0)] {
            let z = c64(re, im);
            let r = z.sqrt();
            assert!(close(r * r, z, 1e-12), "sqrt({z:?})^2 = {:?}", r * r);
        }
        assert_eq!(Complex64::ZERO.sqrt(), Complex64::ZERO);
    }

    #[test]
    fn mixed_real_ops() {
        let z = c64(2.0, -1.0);
        assert_eq!(z * 2.0, c64(4.0, -2.0));
        assert_eq!(2.0 * z, c64(4.0, -2.0));
        assert_eq!(z + 1.0, c64(3.0, -1.0));
        assert_eq!(1.0 - z, c64(-1.0, 1.0));
        assert!(close(1.0 / z, z.inv(), 1e-15));
    }

    #[test]
    fn mul_add_matches_naive() {
        let a = c64(1.25, -0.5);
        let b = c64(-2.0, 3.0);
        let acc = c64(0.75, 0.125);
        assert!(close(a.mul_add(b, acc), a * b + acc, 1e-15));
    }

    #[test]
    fn sum_over_iterator() {
        let v = [c64(1.0, 1.0); 10];
        let s: Complex64 = v.iter().sum();
        assert_eq!(s, c64(10.0, 10.0));
    }
}
