//! The exchange pair pipeline's scratch bound on the process's buffer
//! pool. One test in this binary: it owns the pool's high-water mark.

use pwdft::{Cell, FockOperator, PwGrid, Wavefunction};
use pwnum::backend;

#[test]
fn pool_peak_is_independent_of_band_count() {
    // The pipeline holds one wave of pooled pair grids (one grid on one
    // worker) for the whole task list: the high-water mark must not
    // grow with the number of bands. 36 / 55 / 78 tasks are all beyond a
    // wave, so this holds at every thread count (the bound in grids is
    // asserted next to the scheduler, in `pwnum::backend`).
    let cell = Cell::silicon_supercell(1, 1, 1);
    let grid = PwGrid::with_dims(&cell, 2.0, [6, 6, 6]);
    let wf = Wavefunction::random(&grid, 12, 31);
    let ng = grid.len();
    let phi_r = wf.to_real_all(&grid);
    let op = FockOperator::new(&grid, 0.2);
    let peak = |n: usize| {
        backend::reset_pool_peak();
        op.apply_pure(&phi_r[..n * ng], &vec![1.0; n]);
        backend::pool_stats().fp64.peak_bytes
    };
    let (p8, p10, p12) = (peak(8), peak(10), peak(12));
    assert!(p8 > 0, "pool accounting must see the pair grids");
    assert_eq!((p8, p8), (p10, p12), "pool peak grew with the band count");
}
