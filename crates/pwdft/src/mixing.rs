//! Anderson (Pulay/DIIS-type) mixing for fixed-point iterations.
//!
//! Used in two places, exactly as in the paper: density mixing in the
//! ground-state SCF, and the wavefunction/σ fixed-point of the PT-IM
//! propagator (Alg. 1 line 8, maximum history 20 per Sec. VI).
//!
//! For `x = T(x)` with residual `r(x) = T(x) − x`, the update combines
//! the stored history to minimize the extrapolated residual:
//! `x⁺ = x̄ + β r̄` with the bar quantities being the optimal history
//! combination (Tikhonov-regularized least squares; robust when the
//! history becomes linearly dependent near convergence).
//!
//! # Bit-identity contract
//!
//! [`AndersonMixer::step`] streams the iterate once for the normal
//! equations and once for the combination, but every floating-point
//! result sees exactly the operation sequence of the textbook
//! design-matrix formulation `θ = argmin ‖r − Aθ‖`, `A[k][j] = r_k −
//! r_{j,k}` (kept as the `#[cfg(test)]` oracle): each Gram entry
//! `(AᴴA)_ij` is one accumulator updated by `conj(a_ki).mul_add(a_kj, ·)`
//! for `k = 0..n` in order, each right-hand side `(Aᴴr)_i` by `+=
//! conj(a_ki) * r_k`, and each output element subtracts its history
//! terms oldest first. Blocking only changes *when* an accumulator is
//! touched, and threads only *which* accumulators (or output elements)
//! a worker owns, so the result is the same at any block size and
//! worker count. The reduced-precision PT-IM trajectories amplify a
//! one-ulp change of the mixed iterate to ~1e-7 in the dipole, which
//! is why the order is pinned rather than left to a faster reduction.

use pwnum::chol::solve_hpd;
use pwnum::cmat::CMat;
use pwnum::complex::Complex64;
use pwnum::parallel::{par_chunks_mut_on, workers_for};
use std::collections::VecDeque;

/// Elements per block of the streaming passes: the `m × BLOCK` scratch
/// of difference columns (20 KB at depth 20) and the accumulator rows
/// stay in L1 while the history streams through.
const BLOCK: usize = 64;

/// Gram accumulators updated together, in registers, by the streaming
/// kernel.
const TILE: usize = 4;

/// Relative Tikhonov term of the normal equations,
/// `λ = LAMBDA_REL · tr(AᴴA)/m`: keeps the solve well-posed when the
/// history becomes (nearly) linearly dependent near convergence.
const LAMBDA_REL: f64 = 1e-10;

/// One history entry: an iterate and its residual.
#[derive(Default)]
struct Entry {
    x: Vec<Complex64>,
    r: Vec<Complex64>,
}

/// Anderson mixer over complex vectors.
pub struct AndersonMixer {
    /// Maximum history depth (paper: 20).
    depth: usize,
    /// Damping β applied to the residual step.
    beta: f64,
    /// History, oldest first.
    hist: VecDeque<Entry>,
    /// Retired entries (evicted or [`reset`](Self::reset)) whose buffers
    /// the next insertions reuse.
    spare: Vec<Entry>,
}

impl AndersonMixer {
    /// Creates a mixer with history `depth ≥ 1` and damping `beta`.
    pub fn new(depth: usize, beta: f64) -> Self {
        assert!(depth >= 1);
        assert!(beta > 0.0 && beta <= 1.0);
        AndersonMixer { depth, beta, hist: VecDeque::new(), spare: Vec::new() }
    }

    /// Clears the history (e.g. at the start of a new fixed-point
    /// solve), keeping its buffers for reuse.
    pub fn reset(&mut self) {
        self.spare.extend(self.hist.drain(..));
    }

    /// Current history length.
    pub fn history_len(&self) -> usize {
        self.hist.len()
    }

    /// Given the current iterate `x` and its image `tx = T(x)`, returns
    /// the next iterate.
    ///
    /// If the regularized normal equations cannot be solved (a
    /// non-finite residual makes them indefinite) the step degrades to
    /// the damped `x + βr`, so the bad values reach the caller's state,
    /// where its health check sees them, instead of panicking here.
    pub fn step(&mut self, x: &[Complex64], tx: &[Complex64]) -> Vec<Complex64> {
        // Total work is n·m² for the Gram pass and n·m for the
        // combination; at most one worker per accumulator row.
        let workers = workers_for(self.hist.len(), x.len() * self.hist.len());
        self.step_on(workers, x, tx)
    }

    /// [`step`](Self::step) on an explicit worker count.
    fn step_on(&mut self, workers: usize, x: &[Complex64], tx: &[Complex64]) -> Vec<Complex64> {
        let _s = pwobs::span("gemm.anderson");
        assert_eq!(x.len(), tx.len());
        let mut cur = self.spare.pop().unwrap_or_default();
        cur.r.clear();
        cur.r.extend(tx.iter().zip(x).map(|(t, xi)| *t - *xi));
        let r = &cur.r;

        // θ minimizes ‖r − Σ_j θ_j (r − r_j)‖; empty when there is no
        // history or no solution, which leaves the damped step.
        let theta = self.solve_theta(workers, r).unwrap_or_default();

        // x⁺ = x̄ + β r̄ with x̄ = x − Σ θ_j (x − x_j), r̄ = r − Σ θ_j (r − r_j).
        let beta = self.beta;
        let mut next = vec![Complex64::ZERO; x.len()];
        let chunk_len = x.len().div_ceil(workers).max(1).next_multiple_of(BLOCK);
        par_chunks_mut_on(workers, &mut next, chunk_len, |c, chunk| {
            for (b, out) in chunk.chunks_mut(BLOCK).enumerate() {
                let at = c * chunk_len + b * BLOCK;
                let span = at..at + out.len();
                let (xb, rb) = (&x[span.clone()], &r[span.clone()]);
                for ((o, xi), ri) in out.iter_mut().zip(xb).zip(rb) {
                    *o = *xi + ri.scale(beta);
                }
                for (th, h) in theta.iter().zip(&self.hist) {
                    let (xh, rh) = (&h.x[span.clone()], &h.r[span.clone()]);
                    for ((((o, xi), ri), xhi), rhi) in
                        out.iter_mut().zip(xb).zip(rb).zip(xh).zip(rh)
                    {
                        let dx = *xi - *xhi;
                        let dr = *ri - *rhi;
                        *o -= *th * (dx + dr.scale(beta));
                    }
                }
            }
        });

        cur.x.clear();
        cur.x.extend_from_slice(x);
        self.hist.push_back(cur);
        if self.hist.len() > self.depth {
            self.spare.extend(self.hist.pop_front());
        }
        next
    }

    /// Solves the regularized normal equations `(AᴴA + λI) θ = Aᴴr` for
    /// the difference columns `A[·][j] = r − r_j` in one blocked pass
    /// over `r` and the residual history, without materializing `A`.
    /// Rows of the accumulator `[AᴴA | Aᴴr]` are partitioned over the
    /// workers. `None` without history or when the system is not
    /// positive definite.
    fn solve_theta(&self, workers: usize, r: &[Complex64]) -> Option<Vec<Complex64>> {
        let m = self.hist.len();
        if m == 0 {
            return None;
        }
        let mut acc = vec![Complex64::ZERO; m * (m + 1)];
        let rows_per_worker = m.div_ceil(workers);
        par_chunks_mut_on(workers, &mut acc, rows_per_worker * (m + 1), |c, rows| {
            self.accumulate_rows(r, c * rows_per_worker, rows);
        });

        // The `* ONE` is the α of the GEMM this replaces; it is kept
        // because it is not a no-op on infinities and signed zeros.
        let mut ata = CMat::from_fn(m, m, |i, j| acc[i * (m + 1) + j] * Complex64::ONE);
        let tr: f64 = (0..m).map(|i| ata[(i, i)].re).sum();
        let lam = LAMBDA_REL * (tr / m as f64).max(f64::MIN_POSITIVE);
        for i in 0..m {
            ata[(i, i)] += Complex64::from_re(lam);
        }
        let atb = CMat::from_fn(m, 1, |i, _| acc[i * (m + 1) + m]);
        let theta = solve_hpd(&ata, &atb).ok()?;
        Some((0..m).map(|i| theta[(i, 0)]).collect())
    }

    /// Accumulates rows `first_row..` of `[AᴴA | Aᴴr]` over the whole
    /// iterate into `rows` (row-major, `m + 1` entries per row, zero on
    /// entry).
    ///
    /// Real and imaginary parts are held in separate arrays, columns
    /// padded with zeros to a multiple of [`TILE`], so that a tile of
    /// Gram accumulators lives in registers for a whole block and its
    /// update is plain vertical SIMD. The arithmetic per entry is
    /// `Complex64::mul_add` written out on the parts.
    fn accumulate_rows(&self, r: &[Complex64], first_row: usize, rows: &mut [Complex64]) {
        let m = self.hist.len();
        let mp = m.next_multiple_of(TILE);
        let n_rows = rows.len() / (m + 1);
        // Difference columns of one block, element-major:
        // d[k·mp + j] = r_k − r_{j,k}.
        let (mut d_re, mut d_im) = (vec![0.0; mp * BLOCK], vec![0.0; mp * BLOCK]);
        let (mut g_re, mut g_im) = (vec![0.0; mp * n_rows], vec![0.0; mp * n_rows]);
        for (b, rb) in r.chunks(BLOCK).enumerate() {
            let at = b * BLOCK;
            for (j, h) in self.hist.iter().enumerate() {
                for (k, (rk, rjk)) in rb.iter().zip(&h.r[at..at + rb.len()]).enumerate() {
                    d_re[k * mp + j] = rk.re - rjk.re;
                    d_im[k * mp + j] = rk.im - rjk.im;
                }
            }
            let (d_re, d_im) = (&d_re[..rb.len() * mp], &d_im[..rb.len() * mp]);
            for i in 0..n_rows {
                let col = first_row + i;
                for tile in (0..mp).step_by(TILE) {
                    let lanes = i * mp + tile..i * mp + tile + TILE;
                    let mut a_re: [f64; TILE] = g_re[lanes.clone()].try_into().expect("TILE lanes");
                    let mut a_im: [f64; TILE] = g_im[lanes.clone()].try_into().expect("TILE lanes");
                    for (dk_re, dk_im) in d_re.chunks_exact(mp).zip(d_im.chunks_exact(mp)) {
                        let (c_re, c_im) = (dk_re[col], -dk_im[col]);
                        let (w_re, w_im) = (&dk_re[tile..tile + TILE], &dk_im[tile..tile + TILE]);
                        for t in 0..TILE {
                            a_re[t] = a_re[t] + c_re * w_re[t] - c_im * w_im[t];
                            a_im[t] = a_im[t] + c_re * w_im[t] + c_im * w_re[t];
                        }
                    }
                    g_re[lanes.clone()].copy_from_slice(&a_re);
                    g_im[lanes].copy_from_slice(&a_im);
                }
                let rhs = &mut rows[i * (m + 1) + m];
                for ((dk_re, dk_im), rk) in d_re.chunks_exact(mp).zip(d_im.chunks_exact(mp)).zip(rb) {
                    *rhs += Complex64 { re: dk_re[col], im: -dk_im[col] } * *rk;
                }
            }
        }
        for (i, row) in rows.chunks_exact_mut(m + 1).enumerate() {
            for (j, g) in row[..m].iter_mut().enumerate() {
                *g = Complex64 { re: g_re[i * mp + j], im: g_im[i * mp + j] };
            }
        }
    }
}

/// Convenience wrapper for real-valued fixed points (density mixing).
pub struct AndersonMixerReal {
    inner: AndersonMixer,
}

impl AndersonMixerReal {
    /// See [`AndersonMixer::new`].
    pub fn new(depth: usize, beta: f64) -> Self {
        AndersonMixerReal { inner: AndersonMixer::new(depth, beta) }
    }

    /// Clears history.
    pub fn reset(&mut self) {
        self.inner.reset();
    }

    /// Real-vector mixing step.
    pub fn step(&mut self, x: &[f64], tx: &[f64]) -> Vec<f64> {
        let xc: Vec<Complex64> = x.iter().map(|&v| Complex64::from_re(v)).collect();
        let tc: Vec<Complex64> = tx.iter().map(|&v| Complex64::from_re(v)).collect();
        self.inner.step(&xc, &tc).into_iter().map(|z| z.re).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwnum::c64;
    use pwnum::gemm::herm_matmul;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The design-matrix formulation the streaming mixer must reproduce
    /// bit for bit: materialize `A`, form `AᴴA` by GEMM and `Aᴴr` by a
    /// column loop, solve, then combine one history entry at a time.
    struct OracleMixer {
        depth: usize,
        beta: f64,
        x_hist: Vec<Vec<Complex64>>,
        r_hist: Vec<Vec<Complex64>>,
    }

    impl OracleMixer {
        fn new(depth: usize, beta: f64) -> Self {
            OracleMixer { depth, beta, x_hist: Vec::new(), r_hist: Vec::new() }
        }

        fn lstsq(a: &CMat, b: &[Complex64], lambda_rel: f64) -> Vec<Complex64> {
            let (m, n) = (a.rows(), a.cols());
            let mut ata = herm_matmul(a, a);
            let tr: f64 = (0..n).map(|i| ata[(i, i)].re).sum();
            let lam = lambda_rel * (tr / n as f64).max(f64::MIN_POSITIVE);
            for i in 0..n {
                ata[(i, i)] += Complex64::from_re(lam);
            }
            let mut atb = vec![Complex64::ZERO; n];
            for i in 0..n {
                let mut s = Complex64::ZERO;
                for k in 0..m {
                    s += a[(k, i)].conj() * b[k];
                }
                atb[i] = s;
            }
            let x = solve_hpd(&ata, &CMat::from_vec(n, 1, atb)).expect("oracle inputs are HPD");
            (0..n).map(|i| x[(i, 0)]).collect()
        }

        fn step(&mut self, x: &[Complex64], tx: &[Complex64]) -> Vec<Complex64> {
            let r: Vec<Complex64> = tx.iter().zip(x).map(|(t, xi)| *t - *xi).collect();
            let m = self.x_hist.len();
            let mut out: Vec<Complex64> =
                x.iter().zip(&r).map(|(xi, ri)| *xi + ri.scale(self.beta)).collect();
            if m > 0 {
                let a = CMat::from_fn(x.len(), m, |row, col| r[row] - self.r_hist[col][row]);
                let theta = Self::lstsq(&a, &r, LAMBDA_REL);
                for (j, th) in theta.iter().enumerate() {
                    for (i, o) in out.iter_mut().enumerate() {
                        let dx = x[i] - self.x_hist[j][i];
                        let dr = r[i] - self.r_hist[j][i];
                        *o -= *th * (dx + dr.scale(self.beta));
                    }
                }
            }
            self.x_hist.push(x.to_vec());
            self.r_hist.push(r);
            if self.x_hist.len() > self.depth {
                self.x_hist.remove(0);
                self.r_hist.remove(0);
            }
            out
        }
    }

    /// A random affine contraction `T(x)_i = 0.5 x_i + 0.2 x_{i+1} +
    /// 0.1 conj(x_{i-1}) + b_i` (spectral radius < 1, not symmetric).
    struct Contraction {
        b: Vec<Complex64>,
    }

    impl Contraction {
        fn new(n: usize, seed: u64) -> (Self, Vec<Complex64>) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut draw = |_| c64(rng.gen_range(-0.5..0.5), rng.gen_range(-0.5..0.5));
            let b = (0..n).map(&mut draw).collect();
            let x0 = (0..n).map(&mut draw).collect();
            (Contraction { b }, x0)
        }

        fn apply(&self, x: &[Complex64]) -> Vec<Complex64> {
            let n = x.len();
            (0..n)
                .map(|i| {
                    x[i].scale(0.5)
                        + x[(i + 1) % n].scale(0.2)
                        + x[(i + n - 1) % n].conj().scale(0.1)
                        + self.b[i]
                })
                .collect()
        }
    }

    fn assert_same_bits(a: &[Complex64], b: &[Complex64], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length");
        for (i, (p, q)) in a.iter().zip(b).enumerate() {
            assert!(
                p.re.to_bits() == q.re.to_bits() && p.im.to_bits() == q.im.to_bits(),
                "{what}: element {i} differs: {p:?} vs {q:?}"
            );
        }
    }

    #[test]
    fn streaming_step_matches_design_matrix_oracle_bitwise() {
        // n straddles the block size and its multiples (ragged last
        // block), 30 steps overflow every depth (eviction).
        for n in [5, 255, 256, 257, 5000] {
            for depth in [1, 3, 20] {
                let (map, x0) = Contraction::new(n, (n * 31 + depth) as u64);
                let mut mixer = AndersonMixer::new(depth, 0.6);
                let mut oracle = OracleMixer::new(depth, 0.6);
                let mut x = x0;
                for step in 0..30 {
                    let tx = map.apply(&x);
                    let got = mixer.step(&x, &tx);
                    let want = oracle.step(&x, &tx);
                    assert_same_bits(&got, &want, &format!("n={n} depth={depth} step={step}"));
                    x = got;
                }
                assert_eq!(mixer.history_len(), depth);
            }
        }
    }

    #[test]
    fn worker_count_does_not_change_bits() {
        // 257 elements: ragged blocks; depth 7 over 3 workers: ragged
        // row partition (3 + 3 + 1).
        let (map, x0) = Contraction::new(257, 11);
        let mut mixers: Vec<AndersonMixer> = (0..3).map(|_| AndersonMixer::new(7, 0.5)).collect();
        let mut x = x0;
        for step in 0..12 {
            let tx = map.apply(&x);
            let outs: Vec<Vec<Complex64>> = mixers
                .iter_mut()
                .enumerate()
                .map(|(w, m)| m.step_on(w + 1, &x, &tx))
                .collect();
            assert_same_bits(&outs[1], &outs[0], &format!("2 workers, step {step}"));
            assert_same_bits(&outs[2], &outs[0], &format!("3 workers, step {step}"));
            x = outs.into_iter().next().unwrap();
        }
    }

    #[test]
    fn reset_then_replay_equals_fresh_mixer_bitwise() {
        let (map, x0) = Contraction::new(300, 5);
        let replay = |mixer: &mut AndersonMixer| {
            let mut x = x0.clone();
            for _ in 0..6 {
                let tx = map.apply(&x);
                x = mixer.step(&x, &tx);
            }
            x
        };
        let mut used = AndersonMixer::new(4, 0.6);
        // Warm with a different-length problem so recycled buffers
        // start with the wrong size and stale contents.
        let (other, mut y) = Contraction::new(77, 9);
        for _ in 0..9 {
            let ty = other.apply(&y);
            y = used.step(&y, &ty);
        }
        used.reset();
        assert_eq!(used.history_len(), 0);
        let fresh = replay(&mut AndersonMixer::new(4, 0.6));
        assert_same_bits(&replay(&mut used), &fresh, "after reset");
    }

    #[test]
    fn non_finite_image_degrades_to_damped_step() {
        // A NaN in T(x) with history present makes the normal equations
        // indefinite; the step must hand the NaN on, not panic.
        let (map, x0) = Contraction::new(40, 3);
        let mut mixer = AndersonMixer::new(5, 0.6);
        let tx = map.apply(&x0);
        let x1 = mixer.step(&x0, &tx);
        assert_eq!(mixer.history_len(), 1);
        let mut tx1 = map.apply(&x1);
        tx1[7] = c64(f64::NAN, 0.0);
        let out = mixer.step(&x1, &tx1);
        assert!(out[7].is_nan());
        for (i, (o, (xi, ti))) in out.iter().zip(x1.iter().zip(&tx1)).enumerate() {
            if i != 7 {
                let damped = *xi + (*ti - *xi).scale(0.6);
                assert_same_bits(&[*o], &[damped], "damped fallback");
            }
        }
    }

    #[test]
    fn rank_deficient_history_is_regularized() {
        // Repeating the same (x, T(x)) pair stores identical residuals:
        // the second step's only difference column is zero and the
        // third's two columns are equal, so only the Tikhonov term
        // makes either solve well-posed.
        let (map, x0) = Contraction::new(12, 2);
        let mut mixer = AndersonMixer::new(4, 0.6);
        let tx0 = map.apply(&x0);
        let x1 = mixer.step(&x0, &tx0);
        let _ = mixer.step(&x0, &tx0);
        let tx1 = map.apply(&x1);
        let out = mixer.step(&x1, &tx1);
        assert!(out.iter().all(|z| z.is_finite()));
        // Still a useful step: closer to the fixed point than x1 was.
        let res = |x: &[Complex64]| -> f64 {
            map.apply(x).iter().zip(x).map(|(a, b)| (*a - *b).norm_sqr()).sum::<f64>().sqrt()
        };
        assert!(res(&out) < res(&x1), "{} vs {}", res(&out), res(&x1));
    }

    /// Linear fixed point T(x) = A x + b with spectral radius < 1.
    fn linear_map(x: &[Complex64]) -> Vec<Complex64> {
        (0..x.len())
            .map(|i| {
                let mut acc = c64(0.1 * (i as f64 + 1.0), 0.05);
                for (j, xj) in x.iter().enumerate() {
                    let a = 0.5 / (1.0 + (i as f64 - j as f64).abs());
                    acc += xj.scale(a * 0.6);
                }
                acc
            })
            .collect()
    }

    fn residual_norm(x: &[Complex64]) -> f64 {
        let tx = linear_map(x);
        tx.iter().zip(x).map(|(a, b)| (*a - *b).norm_sqr()).sum::<f64>().sqrt()
    }

    #[test]
    fn anderson_converges_faster_than_simple_mixing() {
        let n = 8;
        let x0 = vec![Complex64::ZERO; n];

        // Simple damped iteration.
        let mut xs = x0.clone();
        let mut simple = AndersonMixer::new(1, 0.5);
        for _ in 0..12 {
            let tx = linear_map(&xs);
            xs = simple.step(&xs, &tx);
        }

        // Anderson with depth 5.
        let mut xa = x0;
        let mut anderson = AndersonMixer::new(5, 0.5);
        for _ in 0..12 {
            let tx = linear_map(&xa);
            xa = anderson.step(&xa, &tx);
        }

        let rs = residual_norm(&xs);
        let ra = residual_norm(&xa);
        assert!(ra < rs * 0.1, "anderson {ra} vs simple {rs}");
        assert!(ra < 1e-6, "anderson should nearly converge: {ra}");
    }

    #[test]
    fn history_is_bounded() {
        let mut m = AndersonMixer::new(3, 0.5);
        let x = vec![Complex64::ONE; 4];
        for k in 0..10 {
            let tx: Vec<Complex64> = x.iter().map(|z| z.scale(1.0 + 0.01 * k as f64)).collect();
            let _ = m.step(&x, &tx);
        }
        assert!(m.history_len() <= 3);
    }

    #[test]
    fn exact_fixed_point_is_stationary() {
        // If T(x) == x the mixer must return x.
        let mut m = AndersonMixer::new(4, 0.7);
        let x = vec![c64(1.0, -2.0); 5];
        let out = m.step(&x, &x);
        for (a, b) in out.iter().zip(&x) {
            assert!((*a - *b).abs() < 1e-14);
        }
    }

    #[test]
    fn real_wrapper_converges_scalar() {
        // T(x) = cos(x): fixed point ≈ 0.739085.
        let mut m = AndersonMixerReal::new(5, 1.0);
        let mut x = vec![0.0f64];
        for _ in 0..25 {
            let tx = vec![x[0].cos()];
            x = m.step(&x, &tx);
        }
        assert!((x[0] - 0.739_085_133_2).abs() < 1e-8, "got {}", x[0]);
    }

    #[test]
    fn reset_clears_history() {
        let mut m = AndersonMixer::new(4, 0.5);
        let x = vec![Complex64::ONE; 2];
        let tx = vec![c64(2.0, 0.0); 2];
        let _ = m.step(&x, &tx);
        assert_eq!(m.history_len(), 1);
        m.reset();
        assert_eq!(m.history_len(), 0);
    }
}
