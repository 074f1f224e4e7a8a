//! Source compatibility for the repo benchmark's harness
//! (`benchmark/src/harness.rs`), which is frozen between benchmark
//! issues and names `default_backend()`, the `overlap` / `rotate` of
//! what it returns, and `pwfft::Fft3::*_many_with(&**be, ..)`.
//! Forwarding only, no second body; the next revision of the harness
//! deletes this module (and pwfft's `*_many_with`).

use crate::cmat::CMat;
use crate::complex::Complex64;

/// A handle to the one kernel set.
#[derive(Debug)]
pub struct DefaultBackend;

impl DefaultBackend {
    /// [`super::overlap`].
    pub fn overlap(&self, a: &[Complex64], b: &[Complex64], band_len: usize, scale: f64) -> CMat {
        super::overlap(a, b, band_len, scale)
    }

    /// [`super::rotate`].
    pub fn rotate(&self, a: &[Complex64], q: &CMat, band_len: usize, out: &mut [Complex64]) {
        super::rotate(a, q, band_len, out)
    }
}

/// The process's kernel handle. A reference to a reference, so the
/// harness's `&**default_backend()` is a `&DefaultBackend`.
pub fn default_backend() -> &'static &'static DefaultBackend {
    &&DefaultBackend
}
