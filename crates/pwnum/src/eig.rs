//! Hermitian eigendecomposition: Householder reduction to a real
//! tridiagonal, then implicit-shift QL.
//!
//! PT-IM diagonalizes the occupation matrix σ at every PT-IM evaluation
//! (the diagonalization optimization, Eq. 11); the Löwdin step, Davidson's
//! Rayleigh–Ritz and the ACE set-up diagonalize overlap and subspace
//! Hamiltonians. All are N×N with N = number of bands, called about a
//! hundred times per distributed step, so [`eigh`] is the LAPACK-style
//! O(N³) direct solver:
//!
//! 1. **Reduction.** Hermitian Householder reflectors `H_k = I − v vᴴ/h`
//!    (`zhetrd`-style, one per column, skipped when the column is already
//!    reduced) give `T' = Qᴴ A Q`, tridiagonal with a complex
//!    off-diagonal. A diagonal phase matrix `D` makes it real:
//!    `T = Dᴴ T' D` is real symmetric.
//! 2. **QL.** Implicit-shift QL on `T = Z Λ Zᵀ` accumulates a real
//!    orthogonal `Z`.
//! 3. **Back-transformation.** One complex × real product
//!    `V = (Q D) Z`, columns sorted by ascending eigenvalue.
//!
//! **Phase gauge.** An eigenvector is defined up to a phase. [`eigh`]
//! fixes it: each column's largest-modulus component is real and
//! positive. The distributed step diagonalizes σ on every rank from the
//! rank's own copy and builds `Q̂` from the result, so the vectors must
//! depend continuously on σ, not on where the reduction's rounding left
//! each phase.
//!
//! The input is scaled by a power of two (exact) so the largest entry is
//! O(1); the reduction's norms then cannot overflow, and a column whose
//! squared norm underflows is treated as already reduced.
//! Plain `+ − × ÷ sqrt` only, so the result is the same bits on every
//! x86-64 target. A cyclic complex Jacobi solver stays in the tests as
//! the oracle.

use crate::cmat::CMat;
use crate::complex::{c64, Complex64};

/// Result of a Hermitian eigendecomposition: `A = V diag(w) V^H` with
/// eigenvalues ascending and `V` unitary (columns are eigenvectors).
#[derive(Clone, Debug)]
pub struct EigH {
    /// Eigenvalues in ascending order.
    pub values: Vec<f64>,
    /// Unitary matrix whose columns are the corresponding eigenvectors.
    pub vectors: CMat,
}

/// QL sweeps allowed per eigenvalue before [`eigh`] gives up. Symmetric
/// tridiagonal QL with a Wilkinson-type shift converges in one to three;
/// the cap stops a non-finite input from looping.
const MAX_QL_ITERS: usize = 30;

/// Diagonalizes a Hermitian matrix.
///
/// The input is symmetrized (`(A+A^H)/2`) first so tiny non-Hermitian
/// noise from upstream arithmetic cannot leak into the result. Each
/// eigenvector's largest-modulus component is real and positive (ties
/// go to the lowest row).
///
/// # Panics
/// Panics if `a` is not square, or has a NaN or infinite entry.
pub fn eigh(a: &CMat) -> EigH {
    let _s = pwobs::span("gemm.eigh");
    assert!(a.is_square(), "eigh requires a square matrix");
    let n = a.rows();
    let nn = n * n;
    // The working set, allocated once. Complex arrays are stored as a
    // real plane followed by an imaginary plane, so every inner loop is
    // a real axpy: the Hermitian matrix (then its reflectors, then Q·D in
    // place), the real Zᵀ (then Z), the tridiagonal's diagonal and
    // off-diagonal, the reflectors' `h`, a vector of scratch, and
    // `T'[k+1][k]` (then D).
    let mut work = vec![0.0; 3 * nn + 7 * n];
    let [w, z, d, off, hs, scratch, phase] = carve(&mut work, [2 * nn, nn, n, n, n, 2 * n, 2 * n]);

    let (wr, wi) = w.split_at_mut(nn);
    for r in 0..n {
        for c in 0..n {
            let h = (a[(r, c)] + a[(c, r)].conj()).scale(0.5);
            (wr[r * n + c], wi[r * n + c]) = (h.re, h.im);
        }
    }
    assert!(w.iter().all(|x| x.is_finite()), "eigh: input has a NaN or infinite entry");
    let amax = w.iter().fold(0.0f64, |m, x| m.max(x.abs()));
    if amax == 0.0 {
        // The zero matrix, n = 0 included: nothing to scale or reduce.
        return EigH { values: vec![0.0; n], vectors: CMat::identity(n) };
    }
    let scale = 2f64.powi(-(amax.log2().floor().clamp(-1000.0, 1000.0) as i32));
    w.iter_mut().for_each(|x| *x *= scale);

    tridiagonalize(w, n, scratch, phase, hs);
    for k in 0..n {
        d[k] = w[k * n + k];
    }
    // phase[k] holds T'[k+1][k]; D makes it |T'[k+1][k]|:
    // D[k+1] = D[k]·T'[k+1][k] / |D[k]·T'[k+1][k]|.
    let (pr, pi) = phase.split_at_mut(n);
    let (mut dr, mut di) = (1.0, 0.0);
    for k in 0..n {
        let (er, ei) = (pr[k], pi[k]);
        (pr[k], pi[k]) = (dr, di);
        if k + 1 < n {
            off[k] = (er * er + ei * ei).sqrt();
            let (tr, ti) = (dr * er - di * ei, dr * ei + di * er);
            let t = (tr * tr + ti * ti).sqrt();
            (dr, di) = if t < f64::MIN_POSITIVE { (1.0, 0.0) } else { (tr / t, ti / t) };
        }
    }

    for (i, row) in z.chunks_exact_mut(n).enumerate() {
        row[i] = 1.0;
    }
    ql(d, off, z, n);
    for i in 0..n {
        for j in i + 1..n {
            z.swap(i * n + j, j * n + i);
        }
    }

    form_q(w, hs, n, scratch);
    let (qr, qi) = w.split_at_mut(nn);
    for (rr, ri) in qr.chunks_exact_mut(n).zip(qi.chunks_exact_mut(n)) {
        for (((ur, ui), &dr), &di) in rr.iter_mut().zip(ri.iter_mut()).zip(&*pr).zip(&*pi) {
            (*ur, *ui) = (*ur * dr - *ui * di, *ur * di + *ui * dr);
        }
    }

    // V = (Q D) Z a row at a time, its columns sorted by eigenvalue.
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&i, &j| d[i].total_cmp(&d[j]));
    let mut vectors = CMat::zeros(n, n);
    let (sr, si) = scratch.split_at_mut(n);
    for (i, out) in vectors.as_mut_slice().chunks_exact_mut(n).enumerate() {
        sr.fill(0.0);
        si.fill(0.0);
        let urow = qr[i * n..(i + 1) * n].iter().zip(&qi[i * n..(i + 1) * n]);
        for ((&ur, &ui), zrow) in urow.zip(z.chunks_exact(n)) {
            for ((xr, xi), &zv) in sr.iter_mut().zip(si.iter_mut()).zip(zrow) {
                *xr += ur * zv;
                *xi += ui * zv;
            }
        }
        for (o, &k) in out.iter_mut().zip(&idx) {
            *o = c64(sr[k], si[k]);
        }
    }
    fix_gauge(&mut vectors);

    let values = idx.iter().map(|&k| d[k] / scale).collect();
    EigH { values, vectors }
}

/// Splits `buf` into consecutive slices of the given lengths.
fn carve<const K: usize>(mut buf: &mut [f64], lens: [usize; K]) -> [&mut [f64]; K] {
    lens.map(|len| {
        let (head, tail) = std::mem::take(&mut buf).split_at_mut(len);
        buf = tail;
        head
    })
}

/// Reduces the Hermitian matrix in `a` (real plane, then imaginary
/// plane, row-major `n`×`n`) to tridiagonal form in place. On return the
/// diagonal holds `T'`'s, `e` (planes of `n`) holds `T'[k+1][k]` at `k`,
/// row `k` right of the diagonal holds the `k`-th reflector as `vᴴ`, and
/// `hs[k]` is its `vᴴv/2` (left 0 where no reflector was formed). `p` is
/// scratch for two planes of `n`.
fn tridiagonalize(a: &mut [f64], n: usize, p: &mut [f64], e: &mut [f64], hs: &mut [f64]) {
    let (ar, ai) = a.split_at_mut(n * n);
    let (er, ei) = e.split_at_mut(n);
    let (pr, pi) = p.split_at_mut(n);
    for k in 0..n.saturating_sub(1) {
        let (lo, m) = (k + 1, n - k - 1);
        let (head_r, br) = ar.split_at_mut(lo * n);
        let (head_i, bi) = ai.split_at_mut(lo * n);
        // Row k right of the diagonal is xᴴ, x = A[k+1.., k].
        let (vr, vi) = (&mut head_r[k * n + lo..], &mut head_i[k * n + lo..]);
        let (alr, ali) = (vr[0], -vi[0]);
        let rest: f64 = vr[1..].iter().zip(&vi[1..]).map(|(x, y)| x * x + y * y).sum();
        // The matrix is O(1): below the smallest normal the column is
        // reduced to working precision, and 1/h would overflow.
        if rest < f64::MIN_POSITIVE {
            (er[k], ei[k]) = (alr, ali);
            continue;
        }
        let aabs = (alr * alr + ali * ali).sqrt();
        let sigma = (aabs * aabs + rest).sqrt();
        let (phr, phi) = if aabs == 0.0 { (1.0, 0.0) } else { (alr / aabs, ali / aabs) };
        // v = x + ph·σ·e₁, so H x = −ph·σ·e₁ and vᴴv = 2σ(σ + |α|).
        let h = sigma * (sigma + aabs);
        (vr[0], vi[0]) = (phr * (aabs + sigma), -phi * (aabs + sigma));
        (er[k], ei[k]) = (-phr * sigma, -phi * sigma);
        hs[k] = h;

        // B ← H B H on the trailing block. B is Hermitian, so
        // t = Σ_j conj(v_j)·B[j, :] = conj(B v), and p = B v / h.
        let (vr, vi) = (&*vr, &*vi);
        let (pr, pi) = (&mut pr[..m], &mut pi[..m]);
        pr.fill(0.0);
        pi.fill(0.0);
        for ((&cr, &ci), (xr, xi)) in
            vr.iter().zip(vi).zip(br.chunks_exact(n).zip(bi.chunks_exact(n)))
        {
            for (((tr, ti), &xr), &xi) in
                pr.iter_mut().zip(pi.iter_mut()).zip(&xr[lo..]).zip(&xi[lo..])
            {
                *tr += cr * xr - ci * xi;
                *ti += cr * xi + ci * xr;
            }
        }
        let inv_h = 1.0 / h;
        pr.iter_mut().for_each(|x| *x *= inv_h);
        pi.iter_mut().for_each(|x| *x *= -inv_h);
        // q = p − (vᴴp / 2h) v, with vᴴp real.
        let vhp: f64 = vr
            .iter()
            .zip(vi)
            .zip(pr.iter().zip(pi.iter()))
            .map(|((a, b), (c, d))| a * c - b * d)
            .sum();
        let kk = vhp / (2.0 * h);
        pr.iter_mut().zip(vr).for_each(|(q, &c)| *q -= kk * c);
        pi.iter_mut().zip(vi).for_each(|(q, &c)| *q += kk * c);
        // B −= v qᴴ + q vᴴ.
        let rows = br.chunks_exact_mut(n).zip(bi.chunks_exact_mut(n));
        for ((((xr, xi), &cri), &cii), (&qri, &qii)) in
            rows.zip(vr).zip(vi).zip(pr.iter().zip(pi.iter()))
        {
            let cols = xr[lo..].iter_mut().zip(&mut xi[lo..]).zip(vr.iter().zip(vi));
            for (((xr, xi), (&crj, &cij)), (&qrj, &qij)) in cols.zip(pr.iter().zip(pi.iter())) {
                *xr -= cri * qrj - cii * qij + (qri * crj - qii * cij);
                *xi -= qri * cij + qii * crj - (cri * qij + cii * qrj);
            }
        }
    }
}

/// Overwrites the reflectors [`tridiagonalize`] left in `a` with
/// `Q = H_0 H_1 ⋯ H_{n−2}`, by backward accumulation: going down from the
/// last index, row and column `k` become the identity's (reflector `k`
/// has been applied by then), and `H_{k−1}` is applied to the trailing
/// block `k..` while reflector `k−1`, outside that block, is still
/// intact. `w` is scratch for two planes of `n`.
fn form_q(a: &mut [f64], hs: &[f64], n: usize, w: &mut [f64]) {
    let (ar, ai) = a.split_at_mut(n * n);
    let (wr, wi) = w.split_at_mut(n);
    for k in (0..n).rev() {
        for j in k + 1..n {
            (ar[k * n + j], ai[k * n + j], ar[j * n + k], ai[j * n + k]) = (0.0, 0.0, 0.0, 0.0);
        }
        (ar[k * n + k], ai[k * n + k]) = (1.0, 0.0);
        if k == 0 || hs[k - 1] == 0.0 {
            continue;
        }
        let (head_r, qr) = ar.split_at_mut(k * n);
        let (head_i, qi) = ai.split_at_mut(k * n);
        let (vr, vi) = (&head_r[(k - 1) * n + k..], &head_i[(k - 1) * n + k..]);
        let (wr, wi) = (&mut wr[..n - k], &mut wi[..n - k]);
        // wᵀ = vᴴ Q / h over the block, then Q −= v wᵀ.
        wr.fill(0.0);
        wi.fill(0.0);
        for ((&cr, &ci), (xr, xi)) in
            vr.iter().zip(vi).zip(qr.chunks_exact(n).zip(qi.chunks_exact(n)))
        {
            for (((yr, yi), &xr), &xi) in
                wr.iter_mut().zip(wi.iter_mut()).zip(&xr[k..]).zip(&xi[k..])
            {
                *yr += cr * xr - ci * xi;
                *yi += cr * xi + ci * xr;
            }
        }
        let inv_h = 1.0 / hs[k - 1];
        wr.iter_mut().chain(wi.iter_mut()).for_each(|x| *x *= inv_h);
        let rows = qr.chunks_exact_mut(n).zip(qi.chunks_exact_mut(n));
        for ((&cr, &ci), (xr, xi)) in vr.iter().zip(vi).zip(rows) {
            for (((xr, xi), &yr), &yi) in xr[k..].iter_mut().zip(&mut xi[k..]).zip(&*wr).zip(&*wi) {
                *xr -= cr * yr + ci * yi;
                *xi -= cr * yi - ci * yr;
            }
        }
    }
}

/// Implicit-shift QL on the real symmetric tridiagonal with diagonal `d`
/// and off-diagonal `e` (`e[k]` couples `k` and `k+1`; `e[n−1]` is
/// scratch). Leaves the eigenvalues in `d` and applies every rotation to
/// the rows of `zt`, which therefore ends as `Zᵀ`. The input is O(1)
/// (scaled by [`eigh`]), so `sqrt(f² + g²)` cannot overflow.
///
/// # Panics
/// Panics when an eigenvalue needs more than [`MAX_QL_ITERS`] sweeps.
fn ql(d: &mut [f64], e: &mut [f64], zt: &mut [f64], n: usize) {
    for l in 0..n {
        let mut iters = 0;
        loop {
            // Written so a NaN never counts as negligible: it runs into the cap.
            let mut m = l;
            while m + 1 < n && !negligible(e[m], d[m], d[m + 1]) {
                m += 1;
            }
            if m == l {
                break;
            }
            assert!(iters < MAX_QL_ITERS, "eigh: QL iteration did not converge");
            iters += 1;
            let mut g = (d[l + 1] - d[l]) / (2.0 * e[l]);
            let mut r = (g * g + 1.0).sqrt();
            g = d[m] - d[l] + e[l] / (g + r.copysign(g));
            let (mut s, mut c, mut p) = (1.0, 1.0, 0.0);
            let mut deflated = false;
            for i in (l..m).rev() {
                let f = s * e[i];
                let b = c * e[i];
                r = (f * f + g * g).sqrt();
                e[i + 1] = r;
                if r == 0.0 {
                    d[i + 1] -= p;
                    e[m] = 0.0;
                    deflated = true;
                    break;
                }
                s = f / r;
                c = g / r;
                g = d[i + 1] - p;
                r = (d[i] - g) * s + 2.0 * c * b;
                p = s * r;
                d[i + 1] = g + p;
                g = c * r - b;
                let (lo, hi) = zt.split_at_mut((i + 1) * n);
                for (zi, zi1) in lo[i * n..].iter_mut().zip(&mut hi[..n]) {
                    let f = *zi1;
                    *zi1 = s * *zi + c * f;
                    *zi = c * *zi - s * f;
                }
            }
            if deflated {
                continue;
            }
            d[l] -= p;
            e[l] = g;
            e[m] = 0.0;
        }
    }
}

/// True when the off-diagonal `e` between diagonal entries `a` and `b`
/// is below their rounding, so the tridiagonal splits there.
fn negligible(e: f64, a: f64, b: f64) -> bool {
    e.abs() <= f64::EPSILON * (a.abs() + b.abs())
}

/// Rotates each column of `v` so its largest-modulus component (the
/// lowest row on a tie) is real and positive.
fn fix_gauge(v: &mut CMat) {
    let n = v.rows();
    for c in 0..n {
        let mut best = (0, -1.0);
        for r in 0..n {
            let m = v[(r, c)].norm_sqr();
            if m > best.1 {
                best = (r, m);
            }
        }
        // z·z̄ has an exactly zero imaginary part; scale after the product.
        let z = v[(best.0, c)];
        let (zc, inv) = (z.conj(), 1.0 / z.abs());
        for r in 0..n {
            v[(r, c)] = (v[(r, c)] * zc).scale(inv);
        }
    }
}

/// Reconstructs `V diag(w) V^H` — primarily a testing/diagnostic helper.
pub fn reconstruct(e: &EigH) -> CMat {
    let d = CMat::from_real_diag(&e.values);
    let vd = e.vectors.matmul(&d);
    crate::gemm::gemm(
        Complex64::ONE,
        &vd,
        crate::gemm::Op::None,
        &e.vectors,
        crate::gemm::Op::ConjTrans,
        Complex64::ZERO,
        None,
    )
}

/// Off-diagonal Frobenius norm squared.
#[cfg(test)]
fn off_norm_sqr(a: &CMat) -> f64 {
    let n = a.rows();
    let mut s = 0.0;
    for r in 0..n {
        for c in 0..n {
            if r != c {
                s += a[(r, c)].norm_sqr();
            }
        }
    }
    s
}

/// The cyclic complex Jacobi solver [`eigh`] replaced, kept as its test
/// oracle: unconditionally stable, slow (≈ N^3.7).
///
/// # Panics
/// Panics if the iteration fails to converge in 100 sweeps.
#[cfg(test)]
fn jacobi(a: &CMat) -> EigH {
    assert!(a.is_square(), "eigh requires a square matrix");
    let n = a.rows();
    if n == 0 {
        return EigH { values: vec![], vectors: CMat::zeros(0, 0) };
    }
    let mut a = a.hermitian_part();
    let mut v = CMat::identity(n);
    let scale: f64 = a.fro_norm().max(f64::MIN_POSITIVE);
    let tol = 1e-30 * scale * scale;

    let mut converged = false;
    for _sweep in 0..100 {
        if off_norm_sqr(&a) <= tol {
            converged = true;
            break;
        }
        for p in 0..n - 1 {
            for q in p + 1..n {
                let apq = a[(p, q)];
                let m = apq.abs();
                if m <= 1e-300 {
                    continue;
                }
                let app = a[(p, p)].re;
                let aqq = a[(q, q)].re;
                let e = apq.scale(1.0 / m); // e^{i phi}
                let tau = (aqq - app) / (2.0 * m);
                let t = if tau >= 0.0 {
                    1.0 / (tau + (1.0 + tau * tau).sqrt())
                } else {
                    -1.0 / (-tau + (1.0 + tau * tau).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;
                // J[p][p]=c, J[p][q]=s e, J[q][p]=-s conj(e), J[q][q]=c; A <- J^H A J.
                let se = e.scale(s);
                let sec = e.conj().scale(s);

                // Update rows/cols p and q for all other indices.
                for i in 0..n {
                    if i == p || i == q {
                        continue;
                    }
                    let aip = a[(i, p)];
                    let aiq = a[(i, q)];
                    let new_ip = aip.scale(c) - aiq * sec;
                    let new_iq = aip * se + aiq.scale(c);
                    a[(i, p)] = new_ip;
                    a[(p, i)] = new_ip.conj();
                    a[(i, q)] = new_iq;
                    a[(q, i)] = new_iq.conj();
                }
                // 2x2 block.
                let new_pp = c * c * app - 2.0 * s * c * m + s * s * aqq;
                let new_qq = s * s * app + 2.0 * s * c * m + c * c * aqq;
                a[(p, p)] = Complex64::from_re(new_pp);
                a[(q, q)] = Complex64::from_re(new_qq);
                a[(p, q)] = Complex64::ZERO;
                a[(q, p)] = Complex64::ZERO;

                // Accumulate eigenvectors: V <- V J.
                for i in 0..n {
                    let vip = v[(i, p)];
                    let viq = v[(i, q)];
                    v[(i, p)] = vip.scale(c) - viq * sec;
                    v[(i, q)] = vip * se + viq.scale(c);
                }
            }
        }
    }
    assert!(
        converged || off_norm_sqr(&a) <= tol.max(1e-22 * scale * scale),
        "Jacobi eigensolver failed to converge (NaN input?)"
    );

    // Sort ascending by eigenvalue, permuting eigenvector columns.
    let mut idx: Vec<usize> = (0..n).collect();
    let diag: Vec<f64> = (0..n).map(|i| a[(i, i)].re).collect();
    idx.sort_by(|&i, &j| diag[i].partial_cmp(&diag[j]).expect("NaN eigenvalue"));
    let values: Vec<f64> = idx.iter().map(|&i| diag[i]).collect();
    let vectors = CMat::from_fn(n, n, |r, c| v[(r, idx[c])]);
    EigH { values, vectors }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cmat::random_hermitian;

    fn lcg(seed: &mut u64) -> f64 {
        *seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((*seed >> 11) as f64 / (1u64 << 53) as f64) - 0.5
    }

    #[test]
    fn diagonal_matrix_eigenvalues() {
        let a = CMat::from_real_diag(&[3.0, -1.0, 2.0]);
        let e = eigh(&a);
        assert_eq!(e.values.len(), 3);
        assert!((e.values[0] + 1.0).abs() < 1e-14);
        assert!((e.values[1] - 2.0).abs() < 1e-14);
        assert!((e.values[2] - 3.0).abs() < 1e-14);
    }

    #[test]
    fn pauli_y_eigenpairs() {
        // sigma_y = [[0, -i],[i, 0]] has eigenvalues ±1.
        let mut a = CMat::zeros(2, 2);
        a[(0, 1)] = c64(0.0, -1.0);
        a[(1, 0)] = c64(0.0, 1.0);
        let e = eigh(&a);
        assert!((e.values[0] + 1.0).abs() < 1e-14);
        assert!((e.values[1] - 1.0).abs() < 1e-14);
        assert!(reconstruct(&e).max_abs_diff(&a) < 1e-13);
    }

    #[test]
    fn random_reconstruction_and_unitarity() {
        let mut seed = 42;
        for n in [1, 2, 3, 5, 8, 16, 33] {
            let a = random_hermitian(n, |
            | lcg(&mut seed));
            let e = eigh(&a);
            // Reconstruction.
            assert!(
                reconstruct(&e).max_abs_diff(&a) < 1e-11 * (n as f64),
                "reconstruction failed for n={n}"
            );
            // Unitarity of eigenvectors.
            let vhv = crate::gemm::herm_matmul(&e.vectors, &e.vectors);
            assert!(vhv.max_abs_diff(&CMat::identity(n)) < 1e-12, "V not unitary for n={n}");
            // Ascending order.
            for w in e.values.windows(2) {
                assert!(w[0] <= w[1] + 1e-14);
            }
        }
    }

    #[test]
    fn trace_is_preserved() {
        let mut seed = 7;
        let a = random_hermitian(12, || lcg(&mut seed));
        let e = eigh(&a);
        let tr: f64 = e.values.iter().sum();
        assert!((tr - a.trace().re).abs() < 1e-11);
    }

    #[test]
    fn eigenvalue_equation_holds() {
        let mut seed = 99;
        let a = random_hermitian(9, || lcg(&mut seed));
        let e = eigh(&a);
        for k in 0..9 {
            let vk: Vec<Complex64> = (0..9).map(|i| e.vectors[(i, k)]).collect();
            let av = a.mul_vec(&vk);
            for i in 0..9 {
                assert!((av[i] - vk[i].scale(e.values[k])).abs() < 1e-11);
            }
        }
    }

    #[test]
    fn occupation_like_matrix() {
        // A density-matrix-like σ: Hermitian with eigenvalues in [0,1].
        let n = 10;
        let mut seed = 5;
        let q = {
            // Build a unitary from eigh of a random Hermitian.
            let h = random_hermitian(n, || lcg(&mut seed));
            eigh(&h).vectors
        };
        let d: Vec<f64> = (0..n).map(|i| 1.0 / (1.0 + ((i as f64 - 4.5) * 1.3).exp())).collect();
        let sigma = {
            let dm = CMat::from_real_diag(&d);
            let qd = q.matmul(&dm);
            crate::gemm::gemm(
                Complex64::ONE,
                &qd,
                crate::gemm::Op::None,
                &q,
                crate::gemm::Op::ConjTrans,
                Complex64::ZERO,
                None,
            )
        };
        let e = eigh(&sigma);
        let mut sorted = d.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for (got, want) in e.values.iter().zip(&sorted) {
            assert!((got - want).abs() < 1e-11);
            assert!(*got > -1e-12 && *got < 1.0 + 1e-12);
        }
    }

    /// `Q diag(f) Qᴴ` for a unitary `Q` drawn from the Jacobi oracle.
    fn with_spectrum(f: &[f64], seed: &mut u64) -> CMat {
        let q = jacobi(&random_hermitian(f.len(), || lcg(seed))).vectors;
        let qd = q.matmul(&CMat::from_real_diag(f));
        crate::gemm::gemm(
            Complex64::ONE,
            &qd,
            crate::gemm::Op::None,
            &q,
            crate::gemm::Op::ConjTrans,
            Complex64::ZERO,
            None,
        )
        .hermitian_part()
    }

    fn max_abs(a: &CMat) -> f64 {
        a.as_slice().iter().fold(0.0, |m, z| m.max(z.abs()))
    }

    /// The solver's contract on `a`: ascending eigenvalues within
    /// 1e-12·‖A‖ of the Jacobi oracle's, reconstruction within
    /// 1e-13·n·max|A| and ‖VᴴV − I‖ within 1e-13·n, and the gauge.
    fn check_against_oracle(a: &CMat, what: &str) -> EigH {
        let n = a.rows();
        let e = eigh(a);
        let oracle = jacobi(a);
        let norm = a.fro_norm();
        assert_eq!(e.values.len(), n, "{what}");
        for (k, (got, want)) in e.values.iter().zip(&oracle.values).enumerate() {
            assert!((got - want).abs() <= 1e-12 * norm, "{what}: eigenvalue {k}: {got} vs {want}");
        }
        assert!(e.values.windows(2).all(|w| w[0] <= w[1]), "{what}: not ascending");
        if n > 0 {
            let rec = reconstruct(&e).max_abs_diff(a);
            assert!(rec <= 1e-13 * n as f64 * max_abs(a), "{what}: reconstruction {rec:e}");
            let vhv = crate::gemm::herm_matmul(&e.vectors, &e.vectors);
            let unit = vhv.max_abs_diff(&CMat::identity(n));
            assert!(unit <= 1e-13 * n as f64, "{what}: unitarity {unit:e}");
        }
        assert_gauge(&e.vectors, what);
        e
    }

    /// Each column's largest-modulus entry is real and positive.
    fn assert_gauge(v: &CMat, what: &str) {
        let n = v.rows();
        for c in 0..n {
            let top = (0..n).map(|r| v[(r, c)]).fold(Complex64::ZERO, |best, z| {
                if z.norm_sqr() > best.norm_sqr() {
                    z
                } else {
                    best
                }
            });
            assert!(top.im == 0.0 && top.re > 0.0, "{what}: column {c} gauge {top:?}");
        }
    }

    #[test]
    fn matches_jacobi_oracle_at_every_size() {
        let mut seed = 11;
        for n in [0, 1, 2, 3, 5, 8, 33, 64, 128] {
            let a = random_hermitian(n, || lcg(&mut seed));
            check_against_oracle(&a, &format!("n={n}"));
        }
    }

    #[test]
    fn exact_degeneracies() {
        let n = 8;
        let e = eigh(&CMat::identity(n));
        assert_eq!(e.values, vec![1.0; n]);
        assert_eq!(e.vectors, CMat::identity(n));

        // σ with repeated occupations: filled, half-filled and empty shells.
        let mut seed = 21;
        let occ = [1.0, 1.0, 1.0, 0.5, 0.5, 0.0, 0.0, 0.0, 0.0, 0.25];
        check_against_oracle(&with_spectrum(&occ, &mut seed), "repeated occupations");

        // Block-diagonal input: the blocks never mix, to the bit.
        let (b1, b2) =
            (random_hermitian(5, || lcg(&mut seed)), random_hermitian(4, || lcg(&mut seed)));
        let a = CMat::from_fn(9, 9, |r, c| match (r < 5, c < 5) {
            (true, true) => b1[(r, c)],
            (false, false) => b2[(r - 5, c - 5)],
            _ => Complex64::ZERO,
        });
        let e = check_against_oracle(&a, "block diagonal");
        for c in 0..9 {
            let in_first = (0..5).any(|r| e.vectors[(r, c)] != Complex64::ZERO);
            let in_second = (5..9).any(|r| e.vectors[(r, c)] != Complex64::ZERO);
            assert!(in_first != in_second, "eigenvector {c} straddles the blocks");
        }
    }

    #[test]
    fn diagonal_input_gives_a_permutation_of_the_identity() {
        let diag = [0.5, -2.0, 7.25, 0.5, 3.0, -0.125];
        let e = eigh(&CMat::from_real_diag(&diag));
        let mut sorted = diag;
        sorted.sort_by(f64::total_cmp);
        assert_eq!(e.values, sorted);
        for c in 0..diag.len() {
            let col: Vec<Complex64> = (0..diag.len()).map(|r| e.vectors[(r, c)]).collect();
            assert_eq!(col.iter().filter(|z| **z == Complex64::ONE).count(), 1);
            assert_eq!(col.iter().filter(|z| **z == Complex64::ZERO).count(), diag.len() - 1);
            let r = col.iter().position(|z| *z == Complex64::ONE).unwrap();
            assert_eq!(diag[r], e.values[c]);
        }
    }

    #[test]
    fn real_symmetric_input_stays_real() {
        let mut seed = 31;
        let a = CMat::from_fn(12, 12, |_, _| c64(lcg(&mut seed), 0.0));
        let a = CMat::from_fn(12, 12, |r, c| (a[(r, c)] + a[(c, r)]).scale(0.5));
        let e = check_against_oracle(&a, "real symmetric");
        assert!(e.vectors.as_slice().iter().all(|z| z.im == 0.0));
    }

    #[test]
    fn extreme_scales() {
        let mut seed = 41;
        let a = random_hermitian(16, || lcg(&mut seed));
        let oracle = jacobi(&a);
        for s in [1e-150, 1e150] {
            let sa = a.scaled(Complex64::from_re(s));
            let e = eigh(&sa);
            let norm = sa.fro_norm();
            for (got, want) in e.values.iter().zip(&oracle.values) {
                assert!(
                    (got - want * s).abs() <= 1e-12 * norm,
                    "scale {s:e}: {got:e} vs {:e}",
                    want * s
                );
            }
            let rec = reconstruct(&e).max_abs_diff(&sa);
            assert!(rec <= 1e-13 * 16.0 * max_abs(&sa), "scale {s:e}: reconstruction {rec:e}");
            let vhv = crate::gemm::herm_matmul(&e.vectors, &e.vectors);
            assert!(vhv.max_abs_diff(&CMat::identity(16)) <= 1e-13 * 16.0, "scale {s:e}");
            assert_gauge(&e.vectors, &format!("scale {s:e}"));
        }
    }

    #[test]
    fn couplings_below_the_underflow_threshold_stay_finite() {
        // ‖x‖² of column 0 is subnormal: 1/h would overflow.
        let mut a = CMat::from_real_diag(&[1.0, 2.0, 3.0, 4.0]);
        (a[(2, 0)], a[(0, 2)]) = (c64(0.0, 1e-160), c64(0.0, -1e-160));
        (a[(3, 0)], a[(0, 3)]) = (c64(1e-160, 0.0), c64(1e-160, 0.0));
        let e = eigh(&a);
        assert!(e.vectors.as_slice().iter().all(|z| z.is_finite()));
        assert_eq!(e.values, [1.0, 2.0, 3.0, 4.0]);
        assert!(reconstruct(&e).max_abs_diff(&a) <= 4e-13);
    }

    #[test]
    fn eigenvectors_match_the_oracle_in_the_same_gauge() {
        let mut seed = 51;
        let a = random_hermitian(20, || lcg(&mut seed));
        let e = eigh(&a);
        let mut oracle = jacobi(&a);
        fix_gauge(&mut oracle.vectors);
        assert!(e.vectors.max_abs_diff(&oracle.vectors) < 1e-10);
    }

    #[test]
    fn eigenvectors_are_continuous_in_sigma() {
        // The dist_ring16 occupations: every rank diagonalizes its own
        // copy of σ, so a rounding-size change must not flip a phase.
        let mut seed = 61;
        let occ: Vec<f64> = (0..64).map(|i| 1.0 / (1.0 + 0.2 * i as f64)).collect();
        let sigma = with_spectrum(&occ, &mut seed);
        let h = random_hermitian(64, || lcg(&mut seed));
        let mut perturbed = sigma.clone();
        perturbed.axpy(Complex64::from_re(1e-9), &h);
        let (e0, e1) = (eigh(&sigma), eigh(&perturbed));
        let dv = e0.vectors.max_abs_diff(&e1.vectors);
        assert!(dv < 1e-6, "eigenvectors moved by {dv:e}");
    }

    #[test]
    #[should_panic(expected = "eigh: input has a NaN or infinite entry")]
    fn nan_input_panics() {
        let mut a = CMat::identity(4);
        a[(1, 2)] = c64(f64::NAN, 0.0);
        eigh(&a);
    }

    #[test]
    #[should_panic(expected = "eigh: input has a NaN or infinite entry")]
    fn infinite_input_panics() {
        let mut a = CMat::identity(4);
        a[(3, 3)] = c64(f64::INFINITY, 0.0);
        eigh(&a);
    }

    #[test]
    #[should_panic(expected = "eigh: QL iteration did not converge")]
    fn ql_on_nan_stops_at_the_iteration_cap() {
        let n = 3;
        let (mut d, mut e) = (vec![1.0, f64::NAN, 2.0], vec![0.5, 0.5, 0.0]);
        let mut zt = CMat::identity(n).as_slice().iter().map(|z| z.re).collect::<Vec<_>>();
        ql(&mut d, &mut e, &mut zt, n);
    }
}
