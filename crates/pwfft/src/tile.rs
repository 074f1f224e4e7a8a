//! The tile FFT engine: one mixed-radix kernel, generic over the real
//! scalar, behind every fused 3-D pass of both precisions.
//!
//! A [`Schedule`] is a 1-D plan compiled at construction into a flat
//! program — the digit-reversal permutation of the decimation-in-time
//! recursion plus, per level, the twiddle factors in the order the
//! butterflies consume them (forward and conjugated, so the hot loops
//! carry no `% n`, no direction branch and no recursion). The kernel
//! gathers up to [`LANES`] independent lines from a strided grid into an
//! L1-resident tile (split re/im, one row of lanes per line element),
//! runs every level in place there with the lane index innermost, and
//! stores the result back through an [`Epilogue`]. For a 3-D grid the
//! gather *is* the transpose: no pass moves the grid anywhere else.
//!
//! **Bit-identity contract.** Per lane the floating-point operation
//! sequence is that of the per-line recursion in [`crate::plan`]: a
//! twiddle multiply on every butterfly input (unit twiddles included),
//! the same radix-2/3/4/5 butterflies and O(r²) prime kernel, one
//! `scale` per axis. Only where the data sits changes, so every output
//! equals the per-line path `to_bits()` for `to_bits()`.

use std::cell::RefCell;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// Lines transformed together: the tile holds `n × LANES` elements, 4 KiB
/// at `n = 16` and 30 KiB at `n = 120` in fp64 — inside L1 for every
/// plane-wave grid dimension in use.
pub(crate) const LANES: usize = 16;

/// Lanes per register block: the butterflies run on `W`-lane chunks held
/// in local arrays, so they vectorize without alias checks.
const W: usize = 8;

/// The real scalar the engine is generic over (`f64`, `f32`), tied to
/// the complex type its grids are stored in.
pub(crate) trait Real:
    Copy
    + Send
    + Sync
    + 'static
    + Add<Output = Self>
    + Sub<Output = Self>
    + Mul<Output = Self>
    + Div<Output = Self>
    + Neg<Output = Self>
{
    /// The interleaved complex type of grids in this precision.
    type Cx: Copy + Send + Sync;
    const ZERO: Self;
    const PI: Self;
    /// Rounds an fp64 value once.
    fn from_f64(x: f64) -> Self;
    /// `n as Self`.
    fn from_usize(n: usize) -> Self;
    fn sqrt(self) -> Self;
    fn cos(self) -> Self;
    fn sin(self) -> Self;
    fn parts(z: Self::Cx) -> (Self, Self);
    fn cx(re: Self, im: Self) -> Self::Cx;
    /// Lends this thread's tile buffer, grown to `len` elements; the
    /// contents are unspecified.
    fn with_tile<R>(len: usize, f: impl FnOnce(&mut [Self]) -> R) -> R;
}

macro_rules! impl_real {
    ($t:ident, $cx:ty, $new:path) => {
        impl Real for $t {
            type Cx = $cx;
            const ZERO: $t = 0.0;
            const PI: $t = std::$t::consts::PI;
            #[inline(always)]
            fn from_f64(x: f64) -> $t {
                x as $t
            }
            #[inline(always)]
            fn from_usize(n: usize) -> $t {
                n as $t
            }
            #[inline(always)]
            fn sqrt(self) -> $t {
                $t::sqrt(self)
            }
            #[inline(always)]
            fn cos(self) -> $t {
                $t::cos(self)
            }
            #[inline(always)]
            fn sin(self) -> $t {
                $t::sin(self)
            }
            #[inline(always)]
            fn parts(z: $cx) -> ($t, $t) {
                (z.re, z.im)
            }
            #[inline(always)]
            fn cx(re: $t, im: $t) -> $cx {
                $new(re, im)
            }
            fn with_tile<R>(len: usize, f: impl FnOnce(&mut [$t]) -> R) -> R {
                thread_local!(static TILE: RefCell<Vec<$t>> = const { RefCell::new(Vec::new()) });
                TILE.with_borrow_mut(|tile| {
                    if tile.len() < len {
                        tile.resize(len, 0.0);
                    }
                    f(&mut tile[..len])
                })
            }
        }
    };
}
impl_real!(f64, pwnum::complex::Complex64, pwnum::complex::c64);
impl_real!(f32, pwnum::precision::Complex32, pwnum::precision::c32);

/// A complex value in registers, with exactly the arithmetic of
/// `Complex64`/`Complex32` (same expressions, same association) so the
/// butterflies below read — and round — like the per-line ones.
#[derive(Clone, Copy, Debug)]
struct C<T> {
    re: T,
    im: T,
}

#[inline(always)]
fn c<T>(re: T, im: T) -> C<T> {
    C { re, im }
}

impl<T: Real> C<T> {
    #[inline(always)]
    fn scale(self, s: T) -> Self {
        c(self.re * s, self.im * s)
    }
}

impl<T: Real> Add for C<T> {
    type Output = Self;
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        c(self.re + o.re, self.im + o.im)
    }
}

impl<T: Real> Sub for C<T> {
    type Output = Self;
    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        c(self.re - o.re, self.im - o.im)
    }
}

impl<T: Real> Mul for C<T> {
    type Output = Self;
    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        c(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)
    }
}

/// One combine level of the decimation-in-time recursion: `n / (r·m)`
/// blocks of `r` sub-transforms of length `m` each.
#[derive(Clone, Debug)]
struct Level {
    r: usize,
    m: usize,
    /// Offset of this level's `m × r` twiddles (k-major) in the tables.
    tw: usize,
    /// Offset of the `r × r` DFT matrix in the tables (prime radices
    /// other than 2/3/5 only).
    dft: usize,
}

/// The direction-dependent half of a schedule: level twiddles and
/// prime-radix DFT matrices in access order, and butterfly constants.
#[derive(Clone, Debug)]
struct Tables<T> {
    tw: Vec<C<T>>,
    /// `(0, ∓√3/2)`.
    js3: C<T>,
    /// `(0, ∓1)`.
    ji: C<T>,
    /// `∓sin(2π/5)`, `∓sin(4π/5)`.
    s5: (T, T),
}

/// A 1-D transform of fixed length compiled for the tile kernel.
#[derive(Clone, Debug)]
pub(crate) struct Schedule<T> {
    n: usize,
    /// Tile row `p` is loaded from line element `perm[p]`.
    perm: Vec<usize>,
    /// Levels in execution order (innermost recursion first).
    levels: Vec<Level>,
    /// Largest prime radix needing the O(r²) kernel (0 if none).
    max_prime: usize,
    /// `cos(2π/5)`, `cos(4π/5)`.
    c5: (T, T),
    fwd: Tables<T>,
    inv: Tables<T>,
}

/// What the store after the last level multiplies each output by.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Epilogue<'k, T> {
    /// One real factor: `1` forward (exact), `1/n` for an inverse axis.
    Scale(T),
    /// A real grid-shaped table addressed like the destination — the
    /// `K(G)` of the screened-Poisson solve.
    Kernel(&'k [T]),
}

/// A set of equally spaced lines in a grid: element `j` of line `l` is
/// `grid[base + l·lane + j·elem]`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Lines {
    pub base: usize,
    pub elem: usize,
    pub lane: usize,
    pub count: usize,
}

impl<T: Real> Schedule<T> {
    /// Compiles the schedule of the per-line recursion over `factors`
    /// with twiddle table `w[j] = exp(-2πi j/n)`.
    pub fn new(factors: &[usize], w: &[T::Cx]) -> Self {
        let n = w.len();
        let w = |j: usize| {
            let (re, im) = T::parts(w[j]);
            c(re, im)
        };
        let mut perm = vec![0; n];
        digit_reverse(factors, n, 0, 1, &mut perm);

        let mut levels = Vec::with_capacity(factors.len());
        let mut tw = Vec::new();
        let mut max_prime = 0;
        let mut m = 1;
        for &r in factors.iter().rev() {
            let stride = n / (r * m);
            let mut lv = Level { r, m, tw: tw.len(), dft: 0 };
            tw.extend((0..m * r).map(|i| w((i % r) * (i / r) * stride % n)));
            if !matches!(r, 2..=5) {
                max_prime = max_prime.max(r);
                lv.dft = tw.len();
                tw.extend((0..r * r).map(|i| w((i % r) * (i / r) % r * (n / r))));
            }
            levels.push(lv);
            m *= r;
        }

        let (zero, one, two) = (T::ZERO, T::from_f64(1.0), T::from_f64(2.0));
        let tau = two * T::PI / T::from_f64(5.0);
        let s3 = T::from_f64(0.5) * T::from_f64(3.0).sqrt();
        let (s1, s2) = (tau.sin(), (two * tau).sin());
        let inv = Tables {
            tw: tw.iter().map(|t| c(t.re, -t.im)).collect(),
            js3: c(zero, s3),
            ji: c(zero, one),
            s5: (s1, s2),
        };
        let fwd = Tables { tw, js3: c(zero, -s3), ji: c(zero, -one), s5: (-s1, -s2) };
        Schedule { n, perm, levels, max_prime, c5: (tau.cos(), (two * tau).cos()), fwd, inv }
    }

    /// Tile elements [`Self::run`] needs: the split tile plus the
    /// twiddled inputs of the widest prime-radix butterfly.
    #[inline]
    pub fn tile_len(&self) -> usize {
        2 * (self.n * LANES + self.max_prime * W)
    }

    /// Transforms every line of `lines` in place, [`LANES`] at a time.
    /// `tile` has at least [`Self::tile_len`] elements and may hold
    /// garbage.
    pub fn run(
        &self,
        grid: &mut [T::Cx],
        lines: Lines,
        inverse: bool,
        epi: Epilogue<'_, T>,
        tile: &mut [T],
    ) {
        let t = if inverse { &self.inv } else { &self.fwd };
        let (re, rest) = tile.split_at_mut(self.n * LANES);
        let (im, rest) = rest.split_at_mut(self.n * LANES);
        let (bre, bim) = rest[..2 * self.max_prime * W].split_at_mut(self.max_prime * W);
        for l0 in (0..lines.count).step_by(LANES) {
            let nl = LANES.min(lines.count - l0);
            let base = lines.base + l0 * lines.lane;
            let used = nl.next_multiple_of(W);

            // Gather, permuted: tile row p <- element perm[p] of each line.
            let rows = re.chunks_exact_mut(LANES).zip(im.chunks_exact_mut(LANES));
            for ((re, im), &j) in rows.zip(&self.perm) {
                let at = base + j * lines.elem;
                if lines.lane == 1 {
                    split_row::<T>(grid[at..at + nl].iter(), re, im);
                } else {
                    split_row::<T>(grid[at..].iter().step_by(lines.lane).take(nl), re, im);
                }
                // The butterflies run on whole W-lane blocks: keep the
                // padding lanes of the last one finite.
                re[nl..used].fill(T::ZERO);
                im[nl..used].fill(T::ZERO);
            }

            for lv in &self.levels {
                let span = lv.r * lv.m * LANES;
                let tw = &t.tw[lv.tw..lv.tw + lv.r * lv.m];
                for (re, im) in re.chunks_exact_mut(span).zip(im.chunks_exact_mut(span)) {
                    match lv.r {
                        2 => level(re, im, lv.m, used, tw, radix2),
                        3 => level(re, im, lv.m, used, tw, |x| radix3(x, t.js3)),
                        4 => level(re, im, lv.m, used, tw, |x| radix4(x, t.ji)),
                        5 => level(re, im, lv.m, used, tw, |x| radix5(x, self.c5, t.s5)),
                        r => {
                            let dft = &t.tw[lv.dft..lv.dft + r * r];
                            prime(re, im, lv.m, used, tw, dft, bre, bim)
                        }
                    }
                }
            }

            // Store: tile row j, times the epilogue factor -> element j.
            let rows = re.chunks_exact(LANES).zip(im.chunks_exact(LANES));
            for (j, (re, im)) in rows.enumerate() {
                let at = base + j * lines.elem;
                match (epi, lines.lane) {
                    (Epilogue::Scale(s), 1) => {
                        join_row::<T>(grid[at..at + nl].iter_mut().map(|z| (z, s)), re, im)
                    }
                    (Epilogue::Kernel(k), 1) => {
                        let k = k[at..at + nl].iter().copied();
                        join_row::<T>(grid[at..at + nl].iter_mut().zip(k), re, im)
                    }
                    (Epilogue::Scale(s), lane) => {
                        let dst = grid[at..].iter_mut().step_by(lane).take(nl);
                        join_row::<T>(dst.map(|z| (z, s)), re, im)
                    }
                    (Epilogue::Kernel(k), lane) => {
                        let k = k[at..].iter().copied();
                        join_row::<T>(grid[at..].iter_mut().zip(k).step_by(lane).take(nl), re, im)
                    }
                }
            }
        }
    }
}

#[inline(always)]
fn split_row<'a, T: Real>(src: impl Iterator<Item = &'a T::Cx>, re: &mut [T], im: &mut [T]) {
    for ((r, i), &z) in re.iter_mut().zip(im).zip(src) {
        (*r, *i) = T::parts(z);
    }
}

/// Writes one tile row to the `(destination, factor)` pairs of `dst`.
#[inline(always)]
fn join_row<'a, T: Real>(dst: impl Iterator<Item = (&'a mut T::Cx, T)>, re: &[T], im: &[T]) {
    for (((z, f), &r), &i) in dst.zip(re).zip(im) {
        *z = T::cx(r * f, i * f);
    }
}

/// Replays the index arithmetic of the per-line recursion: the leaf that
/// lands at `perm[0]` reads source element `src`.
fn digit_reverse(factors: &[usize], n_sub: usize, src: usize, ss: usize, perm: &mut [usize]) {
    let Some((&r, rest)) = factors.split_first() else {
        perm[0] = src;
        return;
    };
    let m = n_sub / r;
    for q in 0..r {
        digit_reverse(rest, m, src + q * ss, ss * r, &mut perm[q * m..(q + 1) * m]);
    }
}

/// One level over one block of `R·m` tile rows, in place: for each `k`
/// the `R` rows `q·m + k` are multiplied by their twiddles, combined by
/// the `R`-point butterfly `bf` and written back as rows `k + j·m` — the
/// same rows, so the level needs no second buffer.
#[inline(always)]
fn level<T: Real, const R: usize>(
    re: &mut [T],
    im: &mut [T],
    m: usize,
    used: usize,
    tw: &[C<T>],
    bf: impl Fn([C<T>; R]) -> [C<T>; R],
) {
    for (k, t) in tw.chunks_exact(R).enumerate() {
        for l0 in (0..used).step_by(W) {
            let at = |q: usize| (q * m + k) * LANES + l0..(q * m + k) * LANES + l0 + W;
            let mut xr = [[T::ZERO; W]; R];
            let mut xi = [[T::ZERO; W]; R];
            for q in 0..R {
                xr[q].copy_from_slice(&re[at(q)]);
                xi[q].copy_from_slice(&im[at(q)]);
            }
            for l in 0..W {
                let y = bf(std::array::from_fn(|q| c(xr[q][l], xi[q][l]) * t[q]));
                for q in 0..R {
                    (xr[q][l], xi[q][l]) = (y[q].re, y[q].im);
                }
            }
            for q in 0..R {
                re[at(q)].copy_from_slice(&xr[q]);
                im[at(q)].copy_from_slice(&xi[q]);
            }
        }
    }
}

/// Loads one register block.
#[inline(always)]
fn block<T: Real>(lanes: &[T]) -> [T; W] {
    lanes.try_into().expect("a register block is W lanes")
}

#[inline(always)]
fn radix2<T: Real>([a, b]: [C<T>; 2]) -> [C<T>; 2] {
    [a + b, a - b]
}

#[inline(always)]
fn radix3<T: Real>([a, b, cc]: [C<T>; 3], js3: C<T>) -> [C<T>; 3] {
    let half = T::from_f64(0.5);
    let t = b + cc;
    let u = (b - cc) * js3;
    [a + t, a - t.scale(half) + u, a - t.scale(half) - u]
}

#[inline(always)]
fn radix4<T: Real>([a, b, cc, d]: [C<T>; 4], ji: C<T>) -> [C<T>; 4] {
    let apc = a + cc;
    let amc = a - cc;
    let bpd = b + d;
    let bmd = (b - d) * ji;
    [apc + bpd, amc + bmd, apc - bpd, amc - bmd]
}

#[inline(always)]
fn radix5<T: Real>(x: [C<T>; 5], (c1, c2): (T, T), (s1, s2): (T, T)) -> [C<T>; 5] {
    let i = c(T::ZERO, T::from_f64(1.0));
    let a = x[0];
    let p1 = x[1] + x[4];
    let m1 = x[1] - x[4];
    let p2 = x[2] + x[3];
    let m2 = x[2] - x[3];
    let re1 = a + p1.scale(c1) + p2.scale(c2);
    let im1 = m1.scale(s1) + m2.scale(s2);
    let re2 = a + p1.scale(c2) + p2.scale(c1);
    let im2 = m1.scale(s2) - m2.scale(s1);
    [a + p1 + p2, re1 + i * im1, re2 + i * im2, re2 - i * im2, re1 - i * im1]
}

/// The level of any other prime radix `r`, O(r²): per `k` and lane
/// block, the twiddled inputs go to the `r`-row buffer, then output row
/// `k + j·m` is their product with row `j` of the precompiled DFT matrix,
/// accumulated from zero in `q` order.
#[allow(clippy::too_many_arguments)]
fn prime<T: Real>(
    re: &mut [T],
    im: &mut [T],
    m: usize,
    used: usize,
    tw: &[C<T>],
    dft: &[C<T>],
    bre: &mut [T],
    bim: &mut [T],
) {
    let r = tw.len() / m;
    let buf = |q: usize| q * W..(q + 1) * W;
    for (k, t) in tw.chunks_exact(r).enumerate() {
        for l0 in (0..used).step_by(W) {
            let at = |q: usize| (q * m + k) * LANES + l0..(q * m + k) * LANES + l0 + W;
            for (q, &tq) in t.iter().enumerate() {
                let (xr, xi): ([T; W], [T; W]) = (block(&re[at(q)]), block(&im[at(q)]));
                for l in 0..W {
                    let x = c(xr[l], xi[l]) * tq;
                    (bre[buf(q)][l], bim[buf(q)][l]) = (x.re, x.im);
                }
            }
            for (j, wj) in dft.chunks_exact(r).enumerate() {
                let mut acc = [c(T::ZERO, T::ZERO); W];
                for (q, &w) in wj.iter().enumerate() {
                    let (xr, xi): ([T; W], [T; W]) = (block(&bre[buf(q)]), block(&bim[buf(q)]));
                    for l in 0..W {
                        acc[l] = acc[l] + c(xr[l], xi[l]) * w;
                    }
                }
                for l in 0..W {
                    (re[at(j)][l], im[at(j)][l]) = (acc[l].re, acc[l].im);
                }
            }
        }
    }
}

/// One direction of a 3-D transform over a row-major `n0 × n1 × n2`
/// grid, axes in the order 2 → 1 → 0 (as the per-line path), on the
/// calling thread's tile. An inverse scales by `1/n` per axis; a forward
/// with `kernel` multiplies by it in the axis-0 store.
pub(crate) fn transform3<T: Real>(
    [s0, s1, s2]: [&Schedule<T>; 3],
    data: &mut [T::Cx],
    inverse: bool,
    kernel: Option<&[T]>,
) {
    let (n0, n1, n2) = (s0.n, s1.n, s2.n);
    let plane = n1 * n2;
    assert_eq!(data.len(), n0 * plane, "FFT3 buffer length mismatch");
    let one = T::from_f64(1.0);
    let epi = |s: &Schedule<T>| {
        Epilogue::Scale(if inverse { one / T::from_usize(s.n) } else { one })
    };
    let last = match kernel {
        Some(k) if !inverse => Epilogue::Kernel(k),
        _ => epi(s0),
    };
    let len = s0.tile_len().max(s1.tile_len()).max(s2.tile_len());
    T::with_tile(len, |tile| {
        // Axis 2: the lines are the contiguous rows.
        let rows = Lines { base: 0, elem: 1, lane: n2, count: n0 * n1 };
        s2.run(data, rows, inverse, epi(s2), tile);
        // Axis 1: the columns of each i0-plane.
        for i0 in 0..n0 {
            let cols = Lines { base: i0 * plane, elem: n2, lane: 1, count: n2 };
            s1.run(data, cols, inverse, epi(s1), tile);
        }
        // Axis 0: the columns of the grid seen as n0 × (n1·n2).
        let cols = Lines { base: 0, elem: plane, lane: 1, count: plane };
        s0.run(data, cols, inverse, last, tile);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Plan, Plan32};

    /// Runs `sched` over `count` lines laid out both ways — lines
    /// contiguous (`elem = 1`) and lanes contiguous (`lane = 1`) — and
    /// compares every output bit with `oracle` (the per-line transform
    /// of the same direction) applied line by line.
    fn check<T: Real + std::fmt::Debug>(
        sched: &Schedule<T>,
        n: usize,
        count: usize,
        inverse: bool,
        oracle: &mut dyn FnMut(&mut [T::Cx]),
        bits: &dyn Fn(T) -> u64,
    ) {
        let value = |l: usize, j: usize| {
            let x = (l * n + j) as f64;
            T::cx(T::from_f64((0.37 * x + 0.2).sin()), T::from_f64((0.11 * x - 0.4).cos()))
        };
        let one = T::from_f64(1.0);
        let mut tile = vec![T::ZERO; sched.tile_len()];
        // A base offset and a gap after each line/row keep neighbours
        // from hiding a misplaced store.
        for (elem, lane) in [(1, n + 3), (count + 2, 1)] {
            let at = |l: usize, j: usize| 5 + l * lane + j * elem;
            let len = at(count - 1, n - 1) + 1;
            let kernel: Vec<T> =
                (0..len).map(|i| T::from_f64(1.0 / (1.0 + (i % 13) as f64))).collect();
            let scale = Epilogue::Scale(if inverse { one / T::from_usize(n) } else { one });
            for epi in [scale, Epilogue::Kernel(&kernel)] {
                if inverse && matches!(epi, Epilogue::Kernel(_)) {
                    continue;
                }
                let mut grid = vec![T::cx(T::ZERO, T::ZERO); len];
                let mut want = Vec::new();
                for l in 0..count {
                    let mut line: Vec<T::Cx> = (0..n).map(|j| value(l, j)).collect();
                    for (j, &z) in line.iter().enumerate() {
                        grid[at(l, j)] = z;
                    }
                    oracle(&mut line);
                    if let Epilogue::Kernel(k) = epi {
                        for (j, z) in line.iter_mut().enumerate() {
                            let (re, im) = T::parts(*z);
                            *z = T::cx(re * k[at(l, j)], im * k[at(l, j)]);
                        }
                    }
                    want.push(line);
                }
                sched.run(&mut grid, Lines { base: 5, elem, lane, count }, inverse, epi, &mut tile);
                for (l, line) in want.iter().enumerate() {
                    for (j, &z) in line.iter().enumerate() {
                        let (got, want) = (T::parts(grid[at(l, j)]), T::parts(z));
                        assert_eq!(
                            (bits(got.0), bits(got.1)),
                            (bits(want.0), bits(want.1)),
                            "n={n} lines={count} elem={elem} lane={lane} inverse={inverse} \
                             at ({l},{j}): {got:?} vs {want:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn tile_kernel_is_bitwise_the_per_line_recursion() {
        for n in [1, 2, 3, 4, 5, 7, 12, 15, 16, 17, 49, 60, 120] {
            let (p64, p32) = (Plan::new(n), Plan32::new(n));
            let mut s64 = vec![pwnum::Complex64::ZERO; p64.scratch_len()];
            let mut s32 = vec![pwnum::precision::Complex32::ZERO; p32.scratch_len()];
            for count in [1, LANES - 1, LANES, LANES + 1, 3 * LANES + 2] {
                check::<f64>(&p64.tile, n, count, false, &mut |x| p64.forward_with(x, &mut s64), &f64::to_bits);
                check::<f64>(&p64.tile, n, count, true, &mut |x| p64.inverse_with(x, &mut s64), &f64::to_bits);
                let bits32 = |x: f32| x.to_bits() as u64;
                check::<f32>(&p32.tile, n, count, false, &mut |x| p32.forward_with(x, &mut s32), &bits32);
                check::<f32>(&p32.tile, n, count, true, &mut |x| p32.inverse_with(x, &mut s32), &bits32);
            }
        }
    }
}
