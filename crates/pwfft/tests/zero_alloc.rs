//! The fused screened-Poisson solve must not allocate in steady state:
//! it runs once per orbital pair, and the prime-radix butterflies used
//! to build a `Vec` of DFT weights per output row.
//!
//! This binary intentionally holds a single test: a counting global
//! allocator cannot distinguish allocations made by concurrent tests
//! (same allocator as `pwobs/tests/zero_alloc.rs`).

use pwnum::backend::{GridTransform, GridTransform32};
use pwnum::precision::{demote, demote_real};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static A: CountingAlloc = CountingAlloc;

#[test]
fn warm_fused_convolve_allocates_nothing() {
    // 14 = 2·7: the radix-7 level takes the O(r²) prime kernel.
    let (n0, n1, n2) = (14, 12, 10);
    let fft = pwfft::Fft3::new(n0, n1, n2);
    let fft32 = pwfft::Fft32::new(n0, n1, n2);
    let n = fft.len();
    let kernel: Vec<f64> = (0..n).map(|i| 1.0 / (1.0 + (i % 11) as f64)).collect();
    let kernel32 = demote_real(&kernel);
    let mut grid: Vec<pwnum::Complex64> =
        (0..n).map(|j| pwnum::c64((j as f64 * 0.3).sin(), (j as f64 * 0.7).cos())).collect();
    let mut grid32 = demote(&grid);
    let pass = fft.convolve_pass(&kernel);
    let pass32 = fft32.convolve_pass(&kernel32);

    // Warm-up: the thread's tiles grow once, recorder state settles.
    pwobs::set_enabled(false);
    pass.run(&mut grid);
    pass32.run(&mut grid32);

    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..8 {
        pass.run(&mut grid);
        pass32.run(&mut grid32);
    }
    let after = ALLOCS.load(Ordering::Relaxed);
    assert_eq!(after - before, 0, "warm fused convolve allocated");
    assert!(grid.iter().all(|z| z.is_finite()) && grid32.iter().all(|z| z.is_finite()));
}
