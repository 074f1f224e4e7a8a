//! The time-dependent state `(Φ(t), σ(t))` of the PT-IM formalism.

use pwnum::cmat::CMat;
use pwdft::Wavefunction;

/// Mixed-state snapshot: parallel-transport orbitals + occupation matrix.
#[derive(Clone)]
pub struct TdState {
    /// Orbitals (G-space, orthonormal).
    pub phi: Wavefunction,
    /// Occupation matrix σ (Hermitian, eigenvalues in `[0,1]`).
    pub sigma: CMat,
    /// Physical time (a.u.).
    pub time: f64,
}

impl TdState {
    /// Builds the initial state from a converged ground state: σ(0) is the
    /// diagonal Fermi–Dirac occupation matrix (paper Sec. II-A).
    pub fn from_ground_state(gs: &pwdft::GroundState) -> TdState {
        TdState {
            phi: gs.phi.clone(),
            sigma: CMat::from_real_diag(&gs.occ),
            time: 0.0,
        }
    }

    /// Number of bands N.
    pub fn n_bands(&self) -> usize {
        self.phi.n_bands
    }

    /// Electron count `2 tr σ` (conserved by exact dynamics).
    pub fn electron_count(&self) -> f64 {
        2.0 * self.sigma.trace().re
    }

    /// Max departure of σ from Hermiticity.
    pub fn sigma_hermiticity_error(&self) -> f64 {
        self.sigma.hermiticity_error()
    }

    /// True when every orbital coefficient, σ entry, and the time are
    /// finite — the health check of the recovery ladder: a blown-up or
    /// NaN-poisoned step fails this and triggers a retry.
    pub fn all_finite(&self) -> bool {
        self.time.is_finite()
            && self
                .phi
                .data
                .iter()
                .all(|z| z.re.is_finite() && z.im.is_finite())
            && self
                .sigma
                .as_slice()
                .iter()
                .all(|z| z.re.is_finite() && z.im.is_finite())
    }

    /// Max departure of Φ from orthonormality.
    pub fn orthonormality_error(&self) -> f64 {
        let s = self.phi.overlap(&self.phi);
        s.max_abs_diff(&CMat::identity(self.n_bands()))
    }

    /// Flattens `(Φ, σ)` into one complex vector (the fixed-point unknown
    /// for Anderson mixing). σ entries are appended after the orbital
    /// coefficients.
    pub fn pack(&self) -> Vec<pwnum::Complex64> {
        let mut v = Vec::new();
        self.pack_into(&mut v);
        v
    }

    /// [`Self::pack`] into a caller-owned buffer (overwritten), so a
    /// fixed-point loop packs every iterate into the same allocation.
    pub fn pack_into(&self, out: &mut Vec<pwnum::Complex64>) {
        out.clear();
        out.reserve(self.phi.data.len() + self.sigma.as_slice().len());
        out.extend_from_slice(&self.phi.data);
        out.extend_from_slice(self.sigma.as_slice());
    }

    /// Inverse of [`Self::pack`] (keeps `time` unchanged), writing into
    /// the existing storage.
    pub fn unpack_into(&mut self, v: &[pwnum::Complex64]) {
        let (wf, sg) = v.split_at(self.phi.data.len());
        self.phi.data.copy_from_slice(wf);
        self.sigma.as_mut_slice().copy_from_slice(sg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwdft::{Cell, PwGrid};
    use pwnum::c64;

    fn state() -> TdState {
        let cell = Cell::silicon_supercell(1, 1, 1);
        let grid = PwGrid::with_dims(&cell, 2.0, [6, 6, 6]);
        let phi = Wavefunction::random(&grid, 4, 3);
        let sigma = CMat::from_real_diag(&[1.0, 0.8, 0.4, 0.1]);
        TdState { phi, sigma, time: 0.0 }
    }

    #[test]
    fn electron_count_is_twice_trace() {
        let s = state();
        assert!((s.electron_count() - 2.0 * 2.3).abs() < 1e-12);
    }

    #[test]
    fn pack_unpack_roundtrip() {
        let s = state();
        let mut t = s.clone();
        // A dirty, wrongly sized buffer: pack_into must overwrite it.
        let mut v = vec![c64(9.0, 9.0); 3];
        s.pack_into(&mut v);
        assert_eq!(v, s.pack());
        t.phi.data.fill(c64(0.0, 0.0));
        t.sigma = CMat::zeros(4, 4);
        t.unpack_into(&v);
        assert!(s.phi.max_abs_diff(&t.phi) == 0.0);
        assert!(s.sigma.max_abs_diff(&t.sigma) == 0.0);
    }

    #[test]
    fn constraints_restore_invariants() {
        let mut s = state();
        // Perturb.
        s.sigma[(0, 1)] = c64(0.3, 0.2);
        let b0 = s.phi.band(0).to_vec();
        pwnum::cvec::axpy(c64(0.1, -0.05), &b0, s.phi.band_mut(1));
        assert!(s.orthonormality_error() > 1e-3);
        assert!(s.sigma_hermiticity_error() > 1e-3);
        let mut stats = crate::StepStats::default();
        crate::space::finish(&mut crate::space::Serial, &mut s, None, &mut stats);
        assert!(s.orthonormality_error() < 1e-9);
        assert!(s.sigma_hermiticity_error() < 1e-15);
    }
}
