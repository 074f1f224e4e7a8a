//! Backend-comparison smoke bench: `Reference` vs `Blocked` on the two
//! primitives the paper's hot path is made of — the Fock `apply_diag`
//! (batched Poisson solves) and the N×N subspace GEMM — plus the batched
//! 3-D FFT they are built from and, in the JSON artifact, the band
//! overlap and accumulating rotation at the `ace_fp64` shape. Both
//! backends run the same tile-kernel pass per grid, so the batched FFT
//! rows compare only the batching (per grid vs per slab).
//!
//! Besides the criterion output, `main` writes `BENCH_backend.json` with
//! median per-iteration times and the Blocked-over-Reference speedups
//! (consumed by EXPERIMENTS.md §"Backend comparison").

use criterion::{criterion_group, BenchmarkId, Criterion};
use pwdft::{Cell, DftSystem, FockOperator, Wavefunction};
use pwdft_bench::median_secs;
use pwnum::backend::{BackendHandle, Blocked, Reference};
use pwnum::cmat::CMat;
use pwnum::complex::{c64, Complex64};
use pwnum::gemm::Op;
use std::hint::black_box;
use std::sync::Arc;

fn backends() -> [BackendHandle; 2] {
    [Arc::new(Reference), Arc::new(Blocked::new())]
}

fn test_mat(n: usize, phase: f64) -> CMat {
    CMat::from_fn(n, n, |i, j| {
        c64(((i * 7 + j * 3) as f64 * 0.37 + phase).sin(), (i as f64 - 0.5 * j as f64).cos())
    })
}

/// The Fock fixture used by both the criterion groups and the JSON
/// measurements: an 8-band block on a 20³ grid (CI-sized but large
/// enough that the batched Poisson path dominates).
fn fock_fixture() -> (DftSystem, Vec<Complex64>, Vec<f64>) {
    let sys = DftSystem::with_dims(Cell::silicon_supercell(1, 1, 1), 2.0, [20, 20, 20]);
    let phi = Wavefunction::random(&sys.grid, 8, 3);
    let phi_r = phi.to_real_all(&sys.grid);
    let occ = vec![1.0, 1.0, 0.9, 0.8, 0.6, 0.4, 0.2, 0.1];
    (sys, phi_r, occ)
}

fn bench_fock_apply(c: &mut Criterion) {
    let mut g = c.benchmark_group("backend_fock_apply_diag");
    g.sample_size(10);
    let (sys, phi_r, occ) = fock_fixture();
    for be in backends() {
        let fock = FockOperator::with_backend(&sys.grid, 0.106, be.clone());
        g.bench_with_input(BenchmarkId::new("apply_diag", be.name()), &be, |b, _| {
            b.iter(|| fock.apply_diag(black_box(&phi_r), black_box(&occ), black_box(&phi_r)))
        });
    }
    g.finish();
}

fn bench_subspace_gemm(c: &mut Criterion) {
    let mut g = c.benchmark_group("backend_subspace_gemm");
    for n in [64usize, 128] {
        let a = test_mat(n, 0.3);
        let b = test_mat(n, 1.1);
        for be in backends() {
            g.bench_with_input(
                BenchmarkId::new(format!("gemm_{n}"), be.name()),
                &be,
                |bch, be| {
                    bch.iter(|| {
                        be.gemm(
                            Complex64::ONE,
                            black_box(&a),
                            Op::ConjTrans,
                            black_box(&b),
                            Op::None,
                            Complex64::ZERO,
                            None,
                        )
                    })
                },
            );
        }
    }
    g.finish();
}

fn bench_batched_fft(c: &mut Criterion) {
    let mut g = c.benchmark_group("backend_batched_fft");
    g.sample_size(10);
    let fft = pwfft::Fft3::new(20, 20, 20);
    let count = 16;
    let mut seed = 9u64;
    let mut lcg = move || {
        seed = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
        (seed >> 11) as f64 / (1u64 << 53) as f64 - 0.5
    };
    let data: Vec<Complex64> = (0..fft.len() * count).map(|_| c64(lcg(), lcg())).collect();
    for be in backends() {
        g.bench_with_input(BenchmarkId::new("forward_many", be.name()), &be, |b, be| {
            b.iter(|| {
                let mut d = data.clone();
                fft.forward_many_with(&**be, &mut d, count);
                d[0]
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_fock_apply, bench_subspace_gemm, bench_batched_fft);

fn main() {
    benches();

    // Head-to-head medians for the JSON artifact.
    let (sys, phi_r, occ) = fock_fixture();
    let mut rows: Vec<(String, f64, f64)> = Vec::new();

    {
        let times: Vec<f64> = backends()
            .iter()
            .map(|be| {
                let fock = FockOperator::with_backend(&sys.grid, 0.106, be.clone());
                median_secs(7, || {
                    black_box(fock.apply_diag(&phi_r, &occ, &phi_r));
                })
            })
            .collect();
        rows.push(("fock_apply_diag_8band_20cube".into(), times[0], times[1]));
    }
    {
        let n = 128;
        let a = test_mat(n, 0.3);
        let b = test_mat(n, 1.1);
        let times: Vec<f64> = backends()
            .iter()
            .map(|be| {
                median_secs(9, || {
                    black_box(be.gemm(
                        Complex64::ONE,
                        &a,
                        Op::ConjTrans,
                        &b,
                        Op::None,
                        Complex64::ZERO,
                        None,
                    ));
                })
            })
            .collect();
        rows.push(("subspace_gemm_128".into(), times[0], times[1]));
    }
    {
        // The band ops at `ace_fp64`'s shape: 32 bands of 16³ points.
        let (nb, len) = (32, 16 * 16 * 16);
        let phi: Vec<Complex64> =
            (0..nb * len).map(|k| c64((k as f64 * 0.13).sin(), (k as f64 * 0.07).cos())).collect();
        let q = test_mat(nb, 0.9);
        let times: Vec<f64> = backends()
            .iter()
            .map(|be| {
                median_secs(15, || {
                    black_box(be.overlap(&phi, &phi, len, 0.5));
                })
            })
            .collect();
        rows.push(("band_overlap_32x16cube".into(), times[0], times[1]));
        let mut out = phi.clone();
        let times: Vec<f64> = backends()
            .iter()
            .map(|be| median_secs(15, || be.rotate_acc(c64(0.5, 0.0), &phi, &q, len, &mut out)))
            .collect();
        rows.push(("band_rotate_acc_32x16cube".into(), times[0], times[1]));
    }
    {
        let fft = pwfft::Fft3::new(20, 20, 20);
        let count = 16;
        let base: Vec<Complex64> =
            (0..fft.len() * count).map(|k| c64((k as f64 * 0.13).sin(), 0.0)).collect();
        let times: Vec<f64> = backends()
            .iter()
            .map(|be| {
                // Clone inside the timed body, matching the criterion
                // variant, so values never accumulate across iterations.
                median_secs(9, || {
                    let mut d = base.clone();
                    fft.forward_many_with(&**be, &mut d, count);
                    black_box(d[0]);
                })
            })
            .collect();
        rows.push(("batched_fft_16x20cube".into(), times[0], times[1]));
    }

    let mut json = String::from("{\n  \"benchmarks\": [\n");
    for (i, (name, t_ref, t_blk)) in rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{name}\", \"reference_s\": {t_ref:.6e}, \
             \"blocked_s\": {t_blk:.6e}, \"speedup_blocked\": {:.3}}}{}\n",
            t_ref / t_blk,
            if i + 1 < rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write("BENCH_backend.json", &json).expect("write BENCH_backend.json");
    println!("\nwrote BENCH_backend.json:\n{json}");
}
