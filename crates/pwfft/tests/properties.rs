//! Property-based tests for the FFT plans and the batched transforms.

use proptest::prelude::*;
use pwfft::{Fft3, Plan};
use pwnum::complex::{c64, Complex64};

/// The one-grid-at-a-time oracle of a batched transform.
fn per_grid(fft: &Fft3, data: &mut [Complex64], inverse: bool) {
    data.chunks_mut(fft.len()).for_each(|grid| fft.transform_fused(grid, inverse));
}

/// Every element's IEEE bits, so equality tells −0.0 from +0.0.
fn bits(z: &[Complex64]) -> Vec<[u64; 2]> {
    z.iter().map(|v| [v.re.to_bits(), v.im.to_bits()]).collect()
}

fn signal_strategy(n: usize) -> impl Strategy<Value = Vec<Complex64>> {
    proptest::collection::vec((-1.0f64..1.0, -1.0f64..1.0), n)
        .prop_map(|v| v.into_iter().map(|(re, im)| c64(re, im)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn roundtrip_any_length(n in 1usize..200, seed in 0u64..1000) {
        let plan = Plan::new(n);
        let x: Vec<Complex64> = (0..n)
            .map(|j| c64(((j as u64 + seed) as f64 * 0.37).sin(), ((j as u64 * 3 + seed) as f64 * 0.11).cos()))
            .collect();
        let mut y = x.clone();
        plan.forward(&mut y);
        plan.inverse(&mut y);
        for (a, b) in y.iter().zip(&x) {
            prop_assert!((*a - *b).abs() < 1e-9);
        }
    }

    #[test]
    fn parseval_random(x in signal_strategy(96)) {
        let plan = Plan::new(96);
        let e_time: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let mut y = x.clone();
        plan.forward(&mut y);
        let e_freq: f64 = y.iter().map(|z| z.norm_sqr()).sum::<f64>() / 96.0;
        prop_assert!((e_time - e_freq).abs() < 1e-9 * (1.0 + e_time));
    }

    #[test]
    fn forward_is_linear(x in signal_strategy(60), y in signal_strategy(60), a_re in -2.0f64..2.0, a_im in -2.0f64..2.0) {
        let plan = Plan::new(60);
        let alpha = c64(a_re, a_im);
        let mut lhs: Vec<Complex64> = x.iter().zip(&y).map(|(p, q)| *p * alpha + *q).collect();
        plan.forward(&mut lhs);
        let mut fx = x.clone();
        plan.forward(&mut fx);
        let mut fy = y.clone();
        plan.forward(&mut fy);
        for i in 0..60 {
            prop_assert!((lhs[i] - (fx[i] * alpha + fy[i])).abs() < 1e-9);
        }
    }

    #[test]
    fn dc_component_is_sum(x in signal_strategy(45)) {
        let plan = Plan::new(45);
        let sum: Complex64 = x.iter().sum();
        let mut y = x.clone();
        plan.forward(&mut y);
        prop_assert!((y[0] - sum).abs() < 1e-10);
    }

    #[test]
    fn fft3_roundtrip(n0 in 1usize..7, n1 in 1usize..7, n2 in 1usize..7, seed in 0u64..100) {
        let fft = Fft3::new(n0, n1, n2);
        let x: Vec<Complex64> = (0..fft.len())
            .map(|j| c64(((j as u64 + seed) as f64 * 0.23).sin(), ((j as u64 + 2 * seed) as f64 * 0.41).cos()))
            .collect();
        let mut y = x.clone();
        fft.forward(&mut y);
        fft.inverse(&mut y);
        for (a, b) in y.iter().zip(&x) {
            prop_assert!((*a - *b).abs() < 1e-9);
        }
    }

    #[test]
    fn real_input_has_hermitian_spectrum(reals in proptest::collection::vec(-1.0f64..1.0, 64)) {
        let plan = Plan::new(64);
        let mut x: Vec<Complex64> = reals.iter().map(|&r| c64(r, 0.0)).collect();
        plan.forward(&mut x);
        for k in 1..64 {
            // X[n-k] == conj(X[k]) for real input.
            prop_assert!((x[64 - k] - x[k].conj()).abs() < 1e-10);
        }
    }

    #[test]
    fn backends_agree_on_smooth_grid_batches(
        shape_idx in 0usize..5,
        count in 1usize..5,
        seed in 0u64..100,
    ) {
        // Non-power-of-two 2/3/5-smooth shapes (the paper's production
        // grids are of this class).
        const SHAPES: [(usize, usize, usize); 5] =
            [(6, 10, 15), (9, 12, 5), (10, 18, 12), (15, 4, 9), (20, 6, 10)];
        let dims = SHAPES[shape_idx];
        let fft = Fft3::new(dims.0, dims.1, dims.2);
        let x: Vec<Complex64> = (0..fft.len() * count)
            .map(|j| c64(
                ((j as u64 + seed) as f64 * 0.29).sin(),
                ((j as u64 * 3 + seed) as f64 * 0.13).cos(),
            ))
            .collect();
        // The slab batch runs the same tile-kernel pass per grid, so
        // forward and inverse agree bit for bit with the per-grid loop;
        // both round-trip to the input.
        let mut fr = x.clone();
        let mut fb = x.clone();
        per_grid(&fft, &mut fr, false);
        fft.forward_many(&mut fb, count);
        prop_assert_eq!(bits(&fr), bits(&fb));
        per_grid(&fft, &mut fr, true);
        fft.inverse_many(&mut fb, count);
        prop_assert_eq!(bits(&fr), bits(&fb));
        prop_assert!(pwnum::cvec::max_abs_diff(&fr, &x) < 1e-9);
        prop_assert!(pwnum::cvec::max_abs_diff(&fb, &x) < 1e-9);
    }
}

/// The paper's 1536-atom production grid shape: one 60×90×120 slab
/// batched and per grid — bitwise forward agreement and the round
/// trip. (The tile kernel against the per-line oracle on this shape is
/// `fft3`'s `fused_convolve_matches_staged_roundtrip_bitwise`.)
#[test]
fn backends_agree_on_paper_grid_60_90_120() {
    let fft = Fft3::new(60, 90, 120);
    let x: Vec<Complex64> = (0..fft.len())
        .map(|j| c64((j as f64 * 0.37).sin(), (j as f64 * 0.17).cos()))
        .collect();
    let mut fr = x.clone();
    let mut fb = x.clone();
    per_grid(&fft, &mut fr, false);
    fft.forward_many(&mut fb, 1);
    // The batch runs the same pass: agreement is exact.
    assert_eq!(bits(&fr), bits(&fb), "batched passes must be bitwise equal");
    fft.inverse_many(&mut fb, 1);
    assert!(pwnum::cvec::max_abs_diff(&fb, &x) < 1e-9, "60x90x120 round-trip");
}
