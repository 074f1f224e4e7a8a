//! Span taxonomy of the dense solvers: with the `pwobs` recorder on,
//! `eigh`, `cholesky` and `solve_hpd` each record their own `gemm.*`
//! span (a solve also records the factorization it runs), so the σ
//! diagonalization and the projector solves land in the GEMM/subspace
//! row, not in their caller's self time.
//!
//! One test in this binary: it owns the process-wide recorder.

use pwnum::chol::{cholesky, solve_hpd};
use pwnum::cmat::CMat;
use pwnum::complex::{c64, Complex64};
use pwnum::eigh;

#[test]
fn dense_solvers_open_gemm_spans() {
    let n = 6;
    let mut a = CMat::from_fn(n, n, |r, c| c64((r + 2 * c) as f64 * 0.1, r as f64 - c as f64));
    a = a.herm().matmul(&a);
    for i in 0..n {
        a[(i, i)] += Complex64::from_re(n as f64);
    }
    let b = CMat::from_fn(n, 2, |r, c| c64(r as f64, c as f64));

    pwobs::set_enabled(true);
    pwobs::reset();
    eigh(&a);
    cholesky(&a).expect("HPD by construction");
    solve_hpd(&a, &b).expect("HPD by construction");
    let mut spans: Vec<_> =
        pwobs::global().span_stats().into_iter().map(|(name, s)| (name, s.calls)).collect();
    pwobs::set_enabled(false);
    spans.sort();

    assert_eq!(spans, [("gemm.cholesky", 2), ("gemm.eigh", 1), ("gemm.solve_hpd", 1)]);
    assert!(spans.iter().all(|(name, _)| pwobs::Phase::classify(name) == pwobs::Phase::Gemm));
}
