//! The register-tiled subspace kernel behind the [`backend`] overlap,
//! rotation and GEMM, one generic body for both precisions.
//!
//! All three products have one shape: every output is a chain
//! `acc ← x.mul_add(y, acc)` over an index `l`, where `x` comes from a
//! *row* operand and `y` from a *column* operand. For the overlap
//! `S = AᴴB` the rows are the conjugated bands of A, the columns the
//! bands of B and `l` the grid point; for the GEMM they are the rows of
//! op(A) and the columns of op(B); for the rotation `out_j += Σ_i a_i
//! w_ij` the rows are grid points, the columns output bands and `l` the
//! source band.
//!
//! * **Tile.** An [`MR`] × [`NR`] block of chains lives in registers as
//!   split re/im arrays whose [`NR`] output columns are the SIMD lanes.
//!   One step broadcasts [`MR`] row operands against one packed row of
//!   [`NR`] column operands.
//! * **Packing.** The column operand is packed into split re/im panels
//!   of at most [`KC`] steps × [`NR`] lanes, one panel per worker from
//!   caller's pool. The rotation packs its `na × ncols` weights once
//!   per call, and per tile the `na` source values at the tile's [`MR`]
//!   grid points: read in place, they sit a band length apart and
//!   contend for one cache set. No copy of a band block is made.
//! * **Parallelism.** Work is split over output tiles: the overlap and
//!   GEMM give each worker a run of column blocks and stream the row
//!   operand past their panels; the rotation gives each part a run of at
//!   most [`KC`] grid points in every output band, and each output tile
//!   stays in registers while all source bands pass.
//! * **Order contract.** Each chain runs over `l` ascending, every step
//!   in [`Complex64::mul_add`]'s expression order — `(acc.re + x.re·y.re)
//!   − x.im·y.im` and `(acc.im + x.re·y.im) + x.im·y.re`, unfused — and
//!   a chain that spans panels is carried through its stored partial.
//!   Tiling only decides which chains advance together, so every output
//!   equals the scalar loop's `to_bits` ([`bands::overlap`] and its
//!   kin), on any ISA and at any
//!   worker count.
//! * **Zero weights.** The rotation skips the step of a chain whose
//!   weight is exactly zero, per output column, as the reference does:
//!   a NaN source band with weight 0 leaves that column untouched.
//!
//! [`backend`]: crate::backend
//! [`bands::overlap`]: crate::bands::overlap

use crate::backend::BufferPool;
use crate::complex::{c64, Complex64};
use crate::parallel::{block_range, par_chunks_mut_on, workers_for};
use crate::precision::{c32, Complex32};
use std::array::from_fn;
use std::ops::{Add, Mul, Neg, Sub};

/// Rows of one register tile: the 2·MR re/im accumulator vectors, two
/// packed lane vectors and the broadcasts fit AVX2's sixteen registers.
/// Measured on 32 bands × 16³ (DESIGN.md §3, `pwnum`): MR = 2–4 within
/// noise of each other, MR = 6 spills and runs 15 % slower.
pub(crate) const MR: usize = 4;

/// Columns of one register tile — the SIMD lanes: one 256-bit vector of
/// f64 per re or im row (NR = 8 at MR = 2 measured level with 4 × 4).
pub(crate) const NR: usize = 4;

/// Steps per packed panel, and the most grid points a rotation part
/// holds: a 256 × 4 fp64 panel is 16 KiB, inside L1 beside the tile's
/// row operands. 64 to 1024 measured level on 32 bands × 16³.
pub(crate) const KC: usize = 256;

/// Reals of one packed panel row: [`NR`] re lanes, then [`NR`] im lanes.
const ROW: usize = 2 * NR;

/// The real scalar of a complex element type the kernel runs on.
pub(crate) trait Lane:
    Copy
    + Default
    + PartialEq
    + Send
    + Sync
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Neg<Output = Self>
{
    /// The interleaved complex type of this precision.
    type Cx: Copy + Send + Sync;
    fn parts(z: Self::Cx) -> (Self, Self);
    fn cx(re: Self, im: Self) -> Self::Cx;
}

impl Lane for f64 {
    type Cx = Complex64;
    #[inline(always)]
    fn parts(z: Complex64) -> (f64, f64) {
        (z.re, z.im)
    }
    #[inline(always)]
    fn cx(re: f64, im: f64) -> Complex64 {
        c64(re, im)
    }
}

impl Lane for f32 {
    type Cx = Complex32;
    #[inline(always)]
    fn parts(z: Complex32) -> (f32, f32) {
        (z.re, z.im)
    }
    #[inline(always)]
    fn cx(re: f32, im: f32) -> Complex32 {
        c32(re, im)
    }
}

/// MR × NR chains, split re/im.
#[derive(Clone, Copy)]
struct Tile<R> {
    re: [[R; NR]; MR],
    im: [[R; NR]; MR],
}

/// What one packed rotation row does to a tile: every lane's weight is
/// nonzero, some are, or none is.
const ALL: u8 = 0;
const SOME: u8 = 1;
const NONE: u8 = 2;

/// One step of chain `(r, c)`: `acc ← x.mul_add(y, acc)` in
/// [`Complex64::mul_add`]'s expression order, unfused.
#[inline(always)]
fn step<R: Lane>(t: &mut Tile<R>, r: usize, c: usize, (xr, xi): (R, R), (yr, yi): (R, R)) {
    t.re[r][c] = (t.re[r][c] + xr * yr) - xi * yi;
    t.im[r][c] = (t.im[r][c] + xr * yi) + xi * yr;
}

/// Advances a tile's chains over the steps of `panel`; `x(l)` gives the
/// MR row operands of step `l` and `modes` (rotation only) each step's
/// zero-weight class.
#[inline(always)]
fn advance<R: Lane>(
    mut t: Tile<R>,
    panel: &[R],
    modes: Option<&[u8]>,
    x: impl Fn(usize) -> [(R, R); MR],
) -> Tile<R> {
    for (l, row) in panel.chunks_exact(ROW).enumerate() {
        let y: [(R, R); NR] = from_fn(|c| (row[c], row[NR + c]));
        let live = |c: usize| y[c].0 != R::default() || y[c].1 != R::default();
        match modes.map_or(ALL, |m| m[l]) {
            ALL => {
                for (r, xr) in x(l).into_iter().enumerate() {
                    for (c, &yc) in y.iter().enumerate() {
                        step(&mut t, r, c, xr, yc);
                    }
                }
            }
            SOME => {
                let xs = x(l);
                for c in (0..NR).filter(|&c| live(c)) {
                    for (r, &xr) in xs.iter().enumerate() {
                        step(&mut t, r, c, xr, y[c]);
                    }
                }
            }
            _ => {}
        }
    }
    t
}

/// Packs `y(l, c)` for the panel's steps `l` and lanes `c` into split
/// re/im rows.
fn pack<R: Lane>(panel: &mut [R], y: impl Fn(usize, usize) -> R::Cx) {
    for (l, row) in panel.chunks_exact_mut(ROW).enumerate() {
        for c in 0..NR {
            (row[c], row[NR + c]) = R::parts(y(l, c));
        }
    }
}

/// `out[i·n + j] = fin(i, j, Σ_l x_il · y_lj)` over the row-major
/// `m × n` output, where `rows(i)` is row `i` of the row operand (`k`
/// elements, conjugated when `CONJ`) and `y(l, j)` is read once per
/// worker, when its panel is packed. Every chain starts at `+0.0`.
pub(crate) fn product<'a, R: Lane + 'a, const CONJ: bool>(
    pool: &BufferPool<R>,
    (m, n, k): (usize, usize, usize),
    rows: impl Fn(usize) -> &'a [R::Cx] + Sync,
    y: impl Fn(usize, usize) -> R::Cx + Sync,
    fin: impl Fn(usize, usize, R::Cx) -> R::Cx,
    out: &mut [R::Cx],
) {
    assert_eq!(out.len(), m * n, "product: bad output size");
    if m == 0 || n == 0 {
        return;
    }
    // The partial chains of one column block, tile after tile.
    let strip = m.div_ceil(MR) * MR * ROW;
    let blocks = n.div_ceil(NR);
    let workers = workers_for(blocks, m * NR * k);
    let per = blocks.div_ceil(workers);
    let mut partial = pool.take(blocks * strip);
    par_chunks_mut_on(workers, &mut partial, per * strip, |w, mine| {
        let mut panel = pool.take_garbage(KC * ROW);
        for l0 in (0..k).step_by(KC) {
            let kc = KC.min(k - l0);
            let panel = &mut panel[..kc * ROW];
            for (s, strip) in mine.chunks_exact_mut(strip).enumerate() {
                let j0 = (w * per + s) * NR;
                pack(panel, |l, c| y(l0 + l, (j0 + c).min(n - 1)));
                for (ib, tile) in strip.chunks_exact_mut(MR * ROW).enumerate() {
                    let src: [&[R::Cx]; MR] =
                        from_fn(|r| &rows((ib * MR + r).min(m - 1))[l0..l0 + kc]);
                    let t = advance(load(tile), panel, None, |l| {
                        from_fn(|r| {
                            let (re, im) = R::parts(src[r][l]);
                            (re, if CONJ { -im } else { im })
                        })
                    });
                    store(tile, t);
                }
            }
        }
        pool.put(panel);
    });
    for (i, orow) in out.chunks_exact_mut(n).enumerate() {
        for (j, o) in orow.iter_mut().enumerate() {
            let at = (j / NR) * strip + i * ROW + j % NR;
            *o = fin(i, j, R::cx(partial[at], partial[at + NR]));
        }
    }
    pool.put(partial);
}

/// Loads one tile of partial chains stored as MR split rows.
#[inline(always)]
fn load<R: Lane>(tile: &[R]) -> Tile<R> {
    Tile {
        re: from_fn(|r| from_fn(|c| tile[r * ROW + c])),
        im: from_fn(|r| from_fn(|c| tile[r * ROW + NR + c])),
    }
}

/// Stores one tile of partial chains as MR split rows.
#[inline(always)]
fn store<R: Lane>(tile: &mut [R], t: Tile<R>) {
    for r in 0..MR {
        tile[r * ROW..][..NR].copy_from_slice(&t.re[r]);
        tile[r * ROW + NR..][..NR].copy_from_slice(&t.im[r]);
    }
}

/// `out_j += Σ_i a_i · w(i, j)` over band-major blocks of `band_len`
/// points (`na` source bands in `a`, `out.len() / band_len` output
/// bands), each chain over `i` ascending from the value in `out` — or,
/// when `acc` is false, from `+0.0`, without reading `out` — a zero
/// `w(i, j)` skipping its step.
pub(crate) fn rotate<R: Lane>(
    pool: &BufferPool<R>,
    a: &[R::Cx],
    band_len: usize,
    w: impl Fn(usize, usize) -> R::Cx,
    acc: bool,
    out: &mut [R::Cx],
) {
    let (na, ncols) = (a.len() / band_len, out.len() / band_len);
    if ncols == 0 {
        return;
    }
    if na == 0 {
        if !acc {
            out.fill(R::cx(R::default(), R::default()));
        }
        return;
    }
    let blocks = ncols.div_ceil(NR);
    let mut weights = pool.take_garbage(blocks * na * ROW);
    let mut modes = vec![NONE; blocks * na];
    for (b, (panel, mode)) in
        weights.chunks_exact_mut(na * ROW).zip(modes.chunks_exact_mut(na)).enumerate()
    {
        let (j0, width) = (b * NR, NR.min(ncols - b * NR));
        pack(panel, |i, c| w(i, (j0 + c).min(ncols - 1)));
        for (row, mode) in panel.chunks_exact(ROW).zip(mode) {
            let zero = R::default();
            let live = (0..width).filter(|&c| row[c] != zero || row[NR + c] != zero);
            *mode = match live.count() {
                0 => NONE,
                l if l == width => ALL,
                _ => SOME,
            };
        }
    }
    // Parts of at most KC grid points, a multiple of the worker count
    // so the last round is not half idle; each holds its slice of every
    // output band.
    let spans = band_len.div_ceil(KC);
    let workers = workers_for(spans, KC * na * ncols);
    let n_parts = spans.div_ceil(workers) * workers;
    let units = band_len.div_ceil(MR);
    let range = |p: usize| {
        let r = block_range(units, n_parts, p);
        (r.start * MR).min(band_len)..(r.end * MR).min(band_len)
    };
    let mut parts: Vec<Vec<&mut [R::Cx]>> =
        (0..n_parts).map(|_| Vec::with_capacity(ncols)).collect();
    for col in out.chunks_exact_mut(band_len) {
        let mut rest = col;
        for (p, part) in parts.iter_mut().enumerate() {
            let (head, tail) = std::mem::take(&mut rest).split_at_mut(range(p).len());
            part.push(head);
            rest = tail;
        }
    }
    par_chunks_mut_on(workers, &mut parts, 1, |p, part| {
        let cols = &mut part[0];
        let g = range(p);
        // The source bands at one tile's MR grid points, packed: band
        // after band, MR re then MR im. Read in place, the na lines of a
        // tile sit one band length apart and fight over one cache set.
        let mut src = pool.take_garbage(na * 2 * MR);
        for t0 in (0..g.len()).step_by(MR) {
            let height = MR.min(g.len() - t0);
            for (i, s) in src.chunks_exact_mut(2 * MR).enumerate() {
                let band = &a[i * band_len + g.start + t0..][..height];
                for r in 0..MR {
                    (s[r], s[MR + r]) = R::parts(band[r.min(height - 1)]);
                }
            }
            let panels = weights.chunks_exact(na * ROW).zip(modes.chunks_exact(na));
            for (b, (panel, mode)) in panels.enumerate() {
                let (j0, width) = (b * NR, NR.min(ncols - b * NR));
                let mut t = Tile { re: [[R::default(); NR]; MR], im: [[R::default(); NR]; MR] };
                if acc {
                    for c in 0..width {
                        for r in 0..height {
                            (t.re[r][c], t.im[r][c]) = R::parts(cols[j0 + c][t0 + r]);
                        }
                    }
                }
                t = advance(t, panel, Some(mode), |i| {
                    let s = &src[i * 2 * MR..][..2 * MR];
                    from_fn(|r| (s[r], s[MR + r]))
                });
                for c in 0..width {
                    for r in 0..height {
                        cols[j0 + c][t0 + r] = R::cx(t.re[r][c], t.im[r][c]);
                    }
                }
            }
        }
        pool.put(src);
    });
    pool.put(weights);
}
