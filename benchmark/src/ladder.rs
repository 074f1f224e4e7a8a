//! The outside-timed layer ladder: a propagator step rebuilt from the
//! per-step counts in `StepStats` and unit times measured around public
//! calls, and the share of the measured step no rung explains.

/// Which single-node propagator a workload steps with.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Propagation {
    /// `ptim_step`: every Hamiltonian apply is one full Fock apply.
    Dense,
    /// `ptim_ace_step`: Fock only rebuilds the ACE operator.
    Ace,
}

/// Work counts of one propagator step (from `StepStats`).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct StepCounts {
    pub scf_iters: usize,
    pub outer_iters: usize,
    pub fock_applies: usize,
    pub converged: bool,
}

/// How often one step calls each rung.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StepOps {
    /// `TdEngine::eval`: once at t_n, once per SCF iteration.
    pub evals: usize,
    /// `Hamiltonian::apply`, each inside one PT update (two band
    /// overlaps and one band rotation around it).
    pub ham_applies: usize,
    /// ACE rebuilds (symmetric Fock apply + compress); 0 for dense.
    pub ace_builds: usize,
    /// Anderson mixing steps of each fixed-point loop. Every loop starts
    /// with an empty history and a mixing step costs O(history²), so the
    /// split matters, not only the total.
    pub mix_loops: Vec<usize>,
}

/// Operation counts of one step. Dense PT-IM applies the Hamiltonian
/// `fock_applies` times in one loop, mixing after each but the
/// predictor. PT-IM-ACE rebuilds ACE `fock_applies` times and applies
/// the ACE Hamiltonian once in the predictor and once per inner
/// iteration that did not end its loop by converging; an outer pass that
/// converges on the exchange energy runs no inner loop.
///
/// `StepStats` has no per-loop iteration counts, so the split of the ACE
/// mixing steps over the inner loops is reconstructed: the first loop,
/// which starts furthest from the fixed point, takes what the later
/// ones leave, up to its budget of `max_inner - 1`; the rest is dealt
/// out evenly (traces of the baseline show 12/4/3).
pub fn step_ops(kind: Propagation, c: &StepCounts, max_inner: usize) -> StepOps {
    let evals = 1 + c.scf_iters;
    match kind {
        Propagation::Dense => StepOps {
            evals,
            ham_applies: c.fock_applies,
            ace_builds: 0,
            mix_loops: vec![c.fock_applies.saturating_sub(1)],
        },
        Propagation::Ace => {
            let loops = c.outer_iters.saturating_sub(usize::from(c.converged));
            let ham_applies = (1 + c.scf_iters).saturating_sub(loops);
            let mixes = ham_applies.saturating_sub(1);
            let mut mix_loops = Vec::with_capacity(loops);
            if loops > 0 {
                let first = mixes
                    .saturating_sub(loops - 1)
                    .min(max_inner.saturating_sub(1));
                mix_loops.push(first);
                let rest = mixes - first;
                mix_loops.extend(
                    (1..loops).map(|i| rest / (loops - 1) + usize::from(i <= rest % (loops - 1))),
                );
            }
            StepOps {
                evals,
                ham_applies,
                ace_builds: c.fock_applies,
                mix_loops,
            }
        }
    }
}

/// Median seconds of one call of each rung, at the workload's shape.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct UnitTimes {
    /// `TdEngine::eval`.
    pub eval_s: f64,
    /// `Hamiltonian::apply` of the workload's own Hamiltonian: dense
    /// (includes one asymmetric Fock apply) or ACE (low-rank exchange).
    pub ham_apply_s: f64,
    /// `AceOperator::build_from_fock` (symmetric Fock apply + compress).
    pub ace_build_s: f64,
    /// `Backend::overlap` / `Backend::rotate` of the Φ block.
    pub overlap_s: f64,
    pub rotate_s: f64,
    /// `AndersonMixer::step` at history length 0, 1, 2, …; a longer
    /// history is priced at the last entry.
    pub anderson_s: Vec<f64>,
}

impl UnitTimes {
    /// Seconds of one fixed-point loop's `mixes` mixing steps.
    fn mix_loop_s(&self, mixes: usize) -> f64 {
        let last = self.anderson_s.len().saturating_sub(1);
        (0..mixes)
            .map(|m| self.anderson_s.get(m.min(last)).copied().unwrap_or(0.0))
            .sum()
    }
}

/// Seconds of one step as the rungs predict it.
pub fn ladder_step_s(ops: &StepOps, u: &UnitTimes) -> f64 {
    ops.ace_builds as f64 * u.ace_build_s
        + ops.ham_applies as f64 * (u.ham_apply_s + 2.0 * u.overlap_s + u.rotate_s)
        + ops.evals as f64 * u.eval_s
        + ops
            .mix_loops
            .iter()
            .map(|&mixes| u.mix_loop_s(mixes))
            .sum::<f64>()
}

/// `1 − ladder ÷ measured`: the share of the measured time that is
/// glue between rungs (midpoints, packing, constraints, small solves).
pub fn residual_frac(ladder_s: f64, measured_s: f64) -> f64 {
    1.0 - ladder_s / measured_s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn units() -> UnitTimes {
        UnitTimes {
            eval_s: 0.01,
            ham_apply_s: 0.1,
            ace_build_s: 0.5,
            overlap_s: 0.002,
            rotate_s: 0.001,
            anderson_s: vec![0.001, 0.002, 0.004],
        }
    }

    #[test]
    fn dense_step_is_one_loop_with_one_fock_per_hamiltonian_apply() {
        let c = StepCounts {
            scf_iters: 9,
            outer_iters: 0,
            fock_applies: 9,
            converged: true,
        };
        let ops = step_ops(Propagation::Dense, &c, 13);
        assert_eq!(
            ops,
            StepOps {
                evals: 10,
                ham_applies: 9,
                ace_builds: 0,
                mix_loops: vec![8]
            }
        );
        // 8 mixing steps: 1 + 2 ms, then 6 at the last known price.
        let want = 9.0 * (0.1 + 0.004 + 0.001) + 10.0 * 0.01 + (0.003 + 6.0 * 0.004);
        assert!((ladder_step_s(&ops, &units()) - want).abs() < 1e-12);
    }

    #[test]
    fn ace_step_skips_the_apply_of_each_converging_inner_iteration() {
        // 4 outers, the last converged on Ex: 3 inner loops over 22 inner
        // iterations, 5 ACE builds -> 23 evals, 1 + 22 - 3 = 20 applies,
        // 19 mixing steps split 12 / 4 / 3 (the baseline's first step).
        let c = StepCounts {
            scf_iters: 22,
            outer_iters: 4,
            fock_applies: 5,
            converged: true,
        };
        let ops = step_ops(Propagation::Ace, &c, 13);
        assert_eq!(
            ops,
            StepOps {
                evals: 23,
                ham_applies: 20,
                ace_builds: 5,
                mix_loops: vec![12, 4, 3]
            }
        );
        let mixing = (0.003 + 10.0 * 0.004) + (0.003 + 2.0 * 0.004) + (0.003 + 0.004);
        let want = 5.0 * 0.5 + 20.0 * 0.105 + 23.0 * 0.01 + mixing;
        assert!((ladder_step_s(&ops, &units()) - want).abs() < 1e-12);
        // Not converged: every outer ran an inner loop.
        let ops = step_ops(
            Propagation::Ace,
            &StepCounts {
                converged: false,
                ..c
            },
            13,
        );
        assert_eq!((ops.ham_applies, ops.mix_loops), (19, vec![12, 2, 2, 2]));
    }

    #[test]
    fn ace_mixing_split_handles_the_edge_cases() {
        let ops = |scf_iters, outer_iters| {
            let c = StepCounts {
                scf_iters,
                outer_iters,
                fock_applies: outer_iters + 1,
                converged: true,
            };
            step_ops(Propagation::Ace, &c, 13).mix_loops
        };
        assert_eq!(ops(0, 1), Vec::<usize>::new()); // converged on the first outer: no inner loop
        assert_eq!(ops(5, 2), vec![4]); // one loop takes everything
        assert_eq!(ops(40, 2), vec![12]); // ... up to its budget
        assert_eq!(ops(6, 4), vec![1, 1, 1]); // short loops everywhere
    }

    #[test]
    fn residual_is_the_unexplained_share() {
        assert!((residual_frac(0.9, 1.0) - 0.1).abs() < 1e-12);
        assert!(residual_frac(1.1, 1.0) < 0.0);
    }
}
