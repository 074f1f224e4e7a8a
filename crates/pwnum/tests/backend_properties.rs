//! Backend-equivalence property suite: the `Reference` and `Blocked`
//! compute backends must agree to ≤ 1e-10 on every primitive of the
//! [`pwnum::backend::Backend`] trait, for arbitrary shapes and operand
//! ops — the contract that makes the backend seam safe to swap. The
//! elementwise kernels both backends share (`bands::lincomb`, the
//! `cvec` / `precision` Hadamard kernels, `cvec::scale_by_real`) are
//! free functions; their identities are checked here too.

use proptest::prelude::*;
use pwnum::backend::{BackendHandle, Blocked, GridTransform, Reference};
use pwnum::cmat::CMat;
use pwnum::complex::{c64, Complex64};
use pwnum::cvec;
use pwnum::gemm::Op;
use pwnum::precision::{self, c32, CMat32};
use std::sync::Arc;

fn pair() -> (BackendHandle, BackendHandle) {
    (Arc::new(Reference), Arc::new(Blocked::new()))
}

fn cmat_strategy(rows: usize, cols: usize) -> impl Strategy<Value = CMat> {
    proptest::collection::vec((-1.0f64..1.0, -1.0f64..1.0), rows * cols).prop_map(move |v| {
        CMat::from_vec(rows, cols, v.into_iter().map(|(re, im)| c64(re, im)).collect())
    })
}

fn block_strategy(n: usize) -> impl Strategy<Value = Vec<Complex64>> {
    proptest::collection::vec((-1.0f64..1.0, -1.0f64..1.0), n)
        .prop_map(|v| v.into_iter().map(|(re, im)| c64(re, im)).collect())
}

/// A non-FFT grid pass (cyclic shift by 1, scaled) for exercising
/// `transform_batch` semantics independently of `pwfft`.
struct ShiftPass {
    n: usize,
}

impl GridTransform for ShiftPass {
    fn grid_len(&self) -> usize {
        self.n
    }
    fn run(&self, grid: &mut [Complex64]) {
        grid.rotate_left(1);
        grid.iter_mut().for_each(|g| *g = g.scale(1.5));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn gemm_agrees_all_op_combinations(
        a in cmat_strategy(6, 4),
        b in cmat_strategy(4, 7),
        at in cmat_strategy(4, 6),
        bt in cmat_strategy(7, 4),
        c0 in cmat_strategy(6, 7),
        alpha in (-2.0f64..2.0, -2.0f64..2.0),
        beta in (-2.0f64..2.0, -2.0f64..2.0),
    ) {
        let (r, bl) = pair();
        let alpha = c64(alpha.0, alpha.1);
        let beta = c64(beta.0, beta.1);
        for (op_a, aa) in [(Op::None, &a), (Op::Trans, &at), (Op::ConjTrans, &at)] {
            for (op_b, bb) in [(Op::None, &b), (Op::Trans, &bt), (Op::ConjTrans, &bt)] {
                let want = r.gemm(alpha, aa, op_a, bb, op_b, beta, Some(&c0));
                let got = bl.gemm(alpha, aa, op_a, bb, op_b, beta, Some(&c0));
                prop_assert!(
                    want.max_abs_diff(&got) < 1e-10,
                    "gemm {op_a:?}/{op_b:?}: {}",
                    want.max_abs_diff(&got)
                );
            }
        }
    }

    #[test]
    fn overlap_agrees(
        a in block_strategy(7 * 33),
        b in block_strategy(5 * 33),
        scale in 0.1f64..3.0,
    ) {
        let (r, bl) = pair();
        let sr = r.overlap(&a, &b, 33, scale);
        let sb = bl.overlap(&a, &b, 33, scale);
        prop_assert!(sr.max_abs_diff(&sb) < 1e-10);
    }

    #[test]
    fn rotate_and_rotate_acc_agree(
        a in block_strategy(5 * 21),
        q in cmat_strategy(5, 6),
        alpha in (-2.0f64..2.0, -2.0f64..2.0),
        seed in block_strategy(6 * 21),
    ) {
        let (r, bl) = pair();
        let mut out_r = vec![Complex64::ZERO; 6 * 21];
        let mut out_b = out_r.clone();
        r.rotate(&a, &q, 21, &mut out_r);
        bl.rotate(&a, &q, 21, &mut out_b);
        prop_assert!(pwnum::cvec::max_abs_diff(&out_r, &out_b) < 1e-10);

        // Accumulating variant from a shared nonzero starting point.
        let alpha = c64(alpha.0, alpha.1);
        let mut acc_r = seed.clone();
        let mut acc_b = seed;
        r.rotate_acc(alpha, &a, &q, 21, &mut acc_r);
        bl.rotate_acc(alpha, &a, &q, 21, &mut acc_b);
        prop_assert!(pwnum::cvec::max_abs_diff(&acc_r, &acc_b) < 1e-10);
    }

    #[test]
    fn lincomb_and_elementwise_agree(
        a in block_strategy(64),
        b in block_strategy(64),
        seed in block_strategy(64),
        w in (-2.0f64..2.0, -2.0f64..2.0),
    ) {
        // The conjugated accumulate (the pair-symmetric Fock scatter) is
        // the conjugate-argument twin of hadamard_acc.
        let w = c64(w.0, w.1);
        let ac: Vec<Complex64> = a.iter().map(|z| z.conj()).collect();
        let mut got = seed.clone();
        let mut want = seed;
        cvec::hadamard_acc_conj(w, &a, &b, &mut got);
        cvec::hadamard_acc(w, &ac, &b, &mut want);
        prop_assert!(cvec::max_abs_diff(&got, &want) < 1e-12);
    }

    #[test]
    fn transform_batch_agrees(data in block_strategy(11 * 13)) {
        let (r, bl) = pair();
        let pass = ShiftPass { n: 13 };
        let mut dr = data.clone();
        let mut db = data;
        r.transform_batch(&pass, &mut dr, 11);
        bl.transform_batch(&pass, &mut db, 11);
        prop_assert!(pwnum::cvec::max_abs_diff(&dr, &db) < 1e-14);
    }

    // ------------------------------------------------------------------
    // fp32 / mixed-precision primitives: demote/promote roundtrip error
    // bounds, and *exact* Reference-vs-Blocked agreement on every fp32
    // kernel (reduced precision must not compound with backend
    // summation-order differences).
    // ------------------------------------------------------------------

    #[test]
    fn demote_promote_roundtrip_bounded(x in block_strategy(257)) {
        // Round-to-nearest demotion: per-component relative error is at
        // most 2^-24, and promotion back is exact.
        let down = precision::demote(&x);
        let up = precision::promote(&down);
        for (a, b) in x.iter().zip(&up) {
            prop_assert!((a.re - b.re).abs() <= a.re.abs() * 2f64.powi(-24));
            prop_assert!((a.im - b.im).abs() <= a.im.abs() * 2f64.powi(-24));
        }
        prop_assert!(precision::demote(&up) == down, "fp32->fp64->fp32 must be lossless");
    }

    #[test]
    fn gemm32_agrees_exactly_all_ops(
        a in cmat_strategy(6, 4),
        b in cmat_strategy(4, 7),
        at in cmat_strategy(4, 6),
        bt in cmat_strategy(7, 4),
        alpha in (-2.0f64..2.0, -2.0f64..2.0),
    ) {
        let (r, bl) = pair();
        let a = CMat32::from_c64(&a);
        let b = CMat32::from_c64(&b);
        let at = CMat32::from_c64(&at);
        let bt = CMat32::from_c64(&bt);
        let alpha = c32(alpha.0 as f32, alpha.1 as f32);
        for (op_a, aa) in [(Op::None, &a), (Op::Trans, &at), (Op::ConjTrans, &at)] {
            for (op_b, bb) in [(Op::None, &b), (Op::Trans, &bt), (Op::ConjTrans, &bt)] {
                let want = r.gemm32(alpha, aa, op_a, bb, op_b);
                let got = bl.gemm32(alpha, aa, op_a, bb, op_b);
                prop_assert!(
                    want.max_abs_diff(&got) == 0.0,
                    "gemm32 {:?}/{:?}", op_a, op_b
                );
            }
        }
    }

    #[test]
    fn band_ops32_agree_exactly(
        a in block_strategy(7 * 33),
        b in block_strategy(5 * 33),
        q in cmat_strategy(7, 6),
        seed in block_strategy(6 * 33),
        scale in 0.1f64..3.0,
        alpha in (-2.0f64..2.0, -2.0f64..2.0),
    ) {
        let (r, bl) = pair();
        let a32 = precision::demote(&a);
        let b32 = precision::demote(&b);
        let q32 = CMat32::from_c64(&q);
        let sr = r.overlap32(&a32, &b32, 33, scale as f32);
        let sb = bl.overlap32(&a32, &b32, 33, scale as f32);
        prop_assert!(sr.max_abs_diff(&sb) == 0.0, "overlap32");

        let alpha = c32(alpha.0 as f32, alpha.1 as f32);
        let mut acc_r = precision::demote(&seed);
        let mut acc_b = acc_r.clone();
        r.rotate_acc32(alpha, &a32, &q32, 33, &mut acc_r);
        bl.rotate_acc32(alpha, &a32, &q32, 33, &mut acc_b);
        prop_assert!(
            precision::max_abs_diff32(&acc_r, &acc_b) == 0.0,
            "rotate_acc32"
        );
    }

    #[test]
    fn elementwise32_agree_exactly(
        a in block_strategy(64),
        b in block_strategy(64),
        seed in block_strategy(64),
        w in -2.0f64..2.0,
    ) {
        // The promote kernels degenerate to the fp64 kernels on
        // fp32-exact inputs.
        let a32 = precision::demote(&a);
        let b32 = precision::demote(&b);
        let a64 = precision::promote(&a32);
        let b64 = precision::promote(&b32);
        let mut want = seed.clone();
        let mut got = seed;
        cvec::hadamard_acc(Complex64::from_re(w), &a64, &b64, &mut want);
        precision::hadamard_acc_promote(w, &a32, &b32, &mut got, None);
        prop_assert!(cvec::max_abs_diff(&want, &got) == 0.0);
    }
}

#[test]
fn buffer_pool_roundtrip_is_zeroed() {
    let (r, bl) = pair();
    for be in [&r, &bl] {
        let mut buf = be.take_buffer(128);
        assert!(buf.iter().all(|z| *z == Complex64::ZERO));
        buf[5] = c64(3.0, -4.0);
        be.recycle_buffer(buf);
        let again = be.take_buffer(64);
        assert!(again.iter().all(|z| *z == Complex64::ZERO));
    }
}
