//! Kernel microbenchmarks: the computational primitives whose costs
//! drive the paper's optimization story (FFTs, Fock exchange baseline vs
//! diagonalized, ACE application, eigensolver, overlaps).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pwdft::{Cell, DftSystem, FockOperator, Wavefunction};
use pwfft::Fft3;
use pwnum::chol::solve_hpd;
use pwnum::cmat::{random_hermitian, CMat};
use pwnum::complex::{c64, Complex64};
use pwnum::eigh;
use std::hint::black_box;

fn lcg(seed: &mut u64) -> f64 {
    *seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
    ((*seed >> 11) as f64 / (1u64 << 53) as f64) - 0.5
}

fn bench_fft3(c: &mut Criterion) {
    let mut g = c.benchmark_group("fft3");
    for n in [8usize, 12, 16, 20] {
        let fft = Fft3::new(n, n, n);
        let mut seed = 7u64;
        let data: Vec<Complex64> =
            (0..fft.len()).map(|_| c64(lcg(&mut seed), lcg(&mut seed))).collect();
        g.bench_with_input(BenchmarkId::new("forward", n * n * n), &n, |b, _| {
            b.iter(|| {
                let mut d = data.clone();
                fft.forward(black_box(&mut d));
                d[0]
            })
        });
    }
    g.finish();
}

fn bench_fock(c: &mut Criterion) {
    // The headline kernel: mixed-state Fock exchange, Alg. 2 triple loop
    // vs the σ-diagonalized form (paper Sec. IV-A1, Fig. 2).
    let mut g = c.benchmark_group("fock_exchange");
    g.sample_size(10);
    let sys = DftSystem::with_dims(Cell::silicon_supercell(1, 1, 1), 2.0, [6, 6, 6]);
    for n_bands in [4usize, 8] {
        let phi = Wavefunction::random(&sys.grid, n_bands, 3);
        // Dense Hermitian σ with fractional eigenvalues.
        let mut seed = 5u64;
        let h = random_hermitian(n_bands, || lcg(&mut seed));
        let e = eigh(&h);
        let occ: Vec<f64> = e.values.iter().map(|w| 1.0 / (1.0 + (2.0 * w).exp())).collect();
        let sigma = {
            let d = CMat::from_real_diag(&occ);
            let vd = e.vectors.matmul(&d);
            pwnum::gemm::gemm(
                Complex64::ONE,
                &vd,
                pwnum::gemm::Op::None,
                &e.vectors,
                pwnum::gemm::Op::ConjTrans,
                Complex64::ZERO,
                None,
            )
        };
        let fock = FockOperator::new(&sys.grid, 0.106);
        let phi_r = phi.to_real_all(&sys.grid);
        let nat = pwdft::density::natural_orbitals(&phi, &sigma);
        let nat_r = nat.phi.to_real_all(&sys.grid);

        g.bench_with_input(
            BenchmarkId::new("baseline_triple_loop", n_bands),
            &n_bands,
            |b, _| b.iter(|| fock.apply_mixed_baseline(black_box(&phi_r), black_box(&sigma))),
        );
        g.bench_with_input(BenchmarkId::new("diagonalized", n_bands), &n_bands, |b, _| {
            b.iter(|| fock.apply_diag(black_box(&nat_r), black_box(&nat.occ), black_box(&phi_r)))
        });
    }
    g.finish();
}

fn bench_ace(c: &mut Criterion) {
    // ACE apply (2 GEMMs) vs a dense Fock application — the inner-loop
    // saving of PT-IM-ACE (Sec. IV-A2).
    let mut g = c.benchmark_group("ace_vs_dense");
    g.sample_size(10);
    let sys = DftSystem::with_dims(Cell::silicon_supercell(1, 1, 1), 2.0, [8, 8, 8]);
    let n_bands = 8;
    let phi = Wavefunction::random(&sys.grid, n_bands, 13);
    let occ = vec![1.0; n_bands];
    let fock = FockOperator::new(&sys.grid, 0.106);
    let phi_r = phi.to_real_all(&sys.grid);
    let vx = fock.apply_diag(&phi_r, &occ, &phi_r);
    let w = Wavefunction::from_real(&sys.grid, vx);
    let ace = pwdft::AceOperator::build(&phi, &w);

    g.bench_function("dense_vx", |b| {
        b.iter(|| fock.apply_diag(black_box(&phi_r), black_box(&occ), black_box(&phi_r)))
    });
    g.bench_function("ace_apply", |b| {
        b.iter(|| {
            let mut out = vec![Complex64::ZERO; phi.data.len()];
            ace.apply_add(black_box(&phi), 0.25, &mut out);
            out[0]
        })
    });
    g.finish();
}

fn bench_linalg(c: &mut Criterion) {
    let mut g = c.benchmark_group("subspace_linalg");
    // σ diagonalization at Fig. 7 scale (24 states), at dist_ring16's
    // 64 bands, and at the 256 bands of the paper-shaped distributed step.
    for n in [24usize, 64, 256] {
        let mut seed = 3u64;
        let a = random_hermitian(n, || lcg(&mut seed));
        g.bench_with_input(BenchmarkId::new("eigh", n), &n, |b, _| {
            b.iter(|| eigh(black_box(&a)))
        });
    }
    // The projector solve of `pt_map` / `natural_inverse`: an HPD 64 × 64
    // system with 64 right-hand sides.
    let n = 64;
    let mut seed = 5u64;
    let mut s = random_hermitian(n, || lcg(&mut seed));
    s = s.herm().matmul(&s);
    for i in 0..n {
        s[(i, i)] += Complex64::from_re(n as f64);
    }
    let rhs = random_hermitian(n, || lcg(&mut seed));
    g.bench_with_input(BenchmarkId::new("solve_hpd", n), &n, |b, _| {
        b.iter(|| solve_hpd(black_box(&s), black_box(&rhs)))
    });
    // Overlap of wavefunction blocks (the Φ*Φ of the paper).
    let sys = DftSystem::with_dims(Cell::silicon_supercell(1, 1, 1), 2.0, [8, 8, 8]);
    let wf = Wavefunction::random(&sys.grid, 16, 9);
    g.bench_function("overlap_16x512", |b| b.iter(|| wf.overlap(black_box(&wf))));
    g.finish();
}

criterion_group!(benches, bench_fft3, bench_fock, bench_ace, bench_linalg);
criterion_main!(benches);
