//! Propagator-level benchmarks: one time step of RK4 vs PT-IM vs
//! PT-IM-ACE on a small silicon system — the wall-clock miniature of the
//! paper's Fig. 9 algorithmic story (ACE cuts the number of Fock builds;
//! PT-IM tolerates 100× larger steps than RK4).

use criterion::{criterion_group, criterion_main, Criterion};
use ptim::{
    ptim_ace_step, ptim_step, rk4_step, HybridParams, LaserPulse, PtimAceConfig, PtimConfig,
    Rk4Config, TdEngine, TdState,
};
use pwdft::{Cell, DftSystem, Wavefunction};
use pwnum::cmat::CMat;
use std::hint::black_box;

fn fixture() -> (DftSystem, TdState) {
    let sys = DftSystem::with_dims(Cell::silicon_supercell(1, 1, 1), 2.0, [6, 6, 6]);
    let mut phi = Wavefunction::random(&sys.grid, 4, 23);
    phi.orthonormalize_lowdin();
    let sigma = CMat::from_real_diag(&[1.0, 0.8, 0.5, 0.2]);
    (sys, TdState { phi, sigma, time: 0.0 })
}

fn bench_steps(c: &mut Criterion) {
    let mut g = c.benchmark_group("propagator_step");
    g.sample_size(10);
    let (sys, st) = fixture();
    let hyb = HybridParams { alpha: 0.25, omega: 0.2, ..Default::default() };
    let eng = TdEngine::new(&sys, LaserPulse::off(), hyb);

    // RK4 covering the same physical time as one PT-IM step needs many
    // sub-steps; bench a single sub-step (multiply by ~100 mentally).
    g.bench_function("rk4_substep", |b| {
        b.iter(|| rk4_step(&eng, black_box(&st), &Rk4Config { dt: 0.02 }))
    });

    g.bench_function("ptim_dense_step", |b| {
        b.iter(|| {
            ptim_step(
                &eng,
                black_box(&st),
                &PtimConfig { dt: 0.5, max_scf: 15, tol_rho: 1e-7, ..Default::default() },
            )
        })
    });

    g.bench_function("ptim_ace_step", |b| {
        b.iter(|| {
            ptim_ace_step(
                &eng,
                black_box(&st),
                &PtimAceConfig { dt: 0.5, tol_rho: 1e-7, ..Default::default() },
            )
        })
    });
    g.finish();
}

fn bench_density(c: &mut Criterion) {
    // The σ-diagonalization payoff on the density (Sec. IV-A1): pair loop
    // vs natural-orbital sum.
    let mut g = c.benchmark_group("mixed_density");
    g.sample_size(20);
    let sys = DftSystem::with_dims(Cell::silicon_supercell(1, 1, 1), 2.0, [8, 8, 8]);
    let phi = Wavefunction::random(&sys.grid, 12, 3);
    let mut sigma = CMat::from_real_diag(
        &(0..12).map(|i| 1.0 / (1.0 + ((i as f64 - 6.0) * 0.8).exp())).collect::<Vec<_>>(),
    );
    // Dense off-diagonal structure.
    for i in 0..12 {
        for j in 0..12 {
            if i != j {
                sigma[(i, j)] = pwnum::c64(0.01 / (1.0 + (i + j) as f64), 0.005);
                sigma[(j, i)] = sigma[(i, j)].conj();
            }
        }
    }
    let sigma = sigma.hermitian_part();

    g.bench_function("baseline_pair_loop", |b| {
        b.iter(|| {
            pwdft::density::density_mixed_baseline(
                &sys.grid,
                black_box(&phi),
                black_box(&sigma),
            )
        })
    });
    g.bench_function("diagonalized", |b| {
        b.iter(|| {
            let nat = pwdft::density::natural_orbitals(black_box(&phi), black_box(&sigma));
            pwdft::density::density_from_natural(&sys.grid, &nat)
        })
    });
    g.finish();
}

criterion_group!(benches, bench_steps, bench_density);
criterion_main!(benches);
