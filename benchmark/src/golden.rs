//! Golden references: what a workload's timed trajectory must end at.
//!
//! `reference/<workload>.json` holds the final dipole, total energy and
//! Tr σ of one repetition plus the exact per-step count vectors, for
//! the default seed. Observables are *correctness* (a run outside the
//! tolerance fails); counts are *provenance* (a kernel change must keep
//! them, an algorithmic change moves `wall_s_per_fs` through them), so
//! a count mismatch is reported but does not fail the run.

use crate::json::{self, Json};
use std::path::PathBuf;

/// Per-step work counts of one repetition, one entry per timed step.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counts {
    pub scf_iters: Vec<f64>,
    pub outer_iters: Vec<f64>,
    pub fock_applies: Vec<f64>,
    pub fock_solves_fp64: Vec<f64>,
    pub fock_solves_fp32: Vec<f64>,
}

/// End-of-trajectory observables and counts of one repetition.
#[derive(Clone, Debug, PartialEq)]
pub struct Golden {
    pub workload: String,
    pub seed: u64,
    pub dipole_x: f64,
    pub total_energy: f64,
    pub trace_sigma: f64,
    pub counts: Counts,
}

/// Outcome of comparing a run with its reference.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Verdict {
    /// Every observable within tolerance.
    pub observables_ok: bool,
    /// Every count vector equal, element for element.
    pub counts_equal: bool,
    /// |Δ dipole_x| (a.u.) and |Δ total energy| (Ha).
    pub dipole_dev: f64,
    pub energy_dev: f64,
    /// One line per violated expectation.
    pub notes: Vec<String>,
}

// Floors under |reference| so a near-zero observable is not held to an
// absolute tolerance far below the SCF's own.
const DIPOLE_FLOOR_AU: f64 = 1e-2;
const ENERGY_FLOOR_HA: f64 = 1.0;
const TRACE_FLOOR: f64 = 1.0;

/// Relative tolerance on the observables: fp64 trajectories must
/// reproduce to 1e-8, the mixed-precision one to 1e-6 (its fp32 pair
/// solves round at ~1e-7).
pub fn tolerance(workload: &str) -> f64 {
    if workload == "dense_mixed" {
        1e-6
    } else {
        1e-8
    }
}

impl Golden {
    pub fn to_json(&self) -> Json {
        let c = &self.counts;
        Json::obj([
            ("workload", Json::Str(self.workload.clone())),
            ("seed", Json::Num(self.seed as f64)),
            ("dipole_x", Json::Num(self.dipole_x)),
            ("total_energy", Json::Num(self.total_energy)),
            ("trace_sigma", Json::Num(self.trace_sigma)),
            ("scf_iters", Json::nums(c.scf_iters.iter().copied())),
            ("outer_iters", Json::nums(c.outer_iters.iter().copied())),
            ("fock_applies", Json::nums(c.fock_applies.iter().copied())),
            (
                "fock_solves_fp64",
                Json::nums(c.fock_solves_fp64.iter().copied()),
            ),
            (
                "fock_solves_fp32",
                Json::nums(c.fock_solves_fp32.iter().copied()),
            ),
        ])
    }

    pub fn from_json(doc: &Json) -> Option<Golden> {
        let num = |k: &str| doc.get(k)?.as_f64();
        let vec = |k: &str| doc.get(k)?.as_f64_vec();
        Some(Golden {
            workload: doc.get("workload")?.as_str()?.to_owned(),
            seed: num("seed")? as u64,
            dipole_x: num("dipole_x")?,
            total_energy: num("total_energy")?,
            trace_sigma: num("trace_sigma")?,
            counts: Counts {
                scf_iters: vec("scf_iters")?,
                outer_iters: vec("outer_iters")?,
                fock_applies: vec("fock_applies")?,
                fock_solves_fp64: vec("fock_solves_fp64")?,
                fock_solves_fp32: vec("fock_solves_fp32")?,
            },
        })
    }

    /// Compares `self` (the run) with `reference` at relative tolerance
    /// `rel`. `scf_like` is a second reference whose SCF-iteration
    /// vector the run must also reproduce (`dense_mixed` must iterate
    /// exactly as `dense_fp64` does).
    pub fn compare(&self, reference: &Golden, rel: f64, scf_like: Option<&Golden>) -> Verdict {
        let mut v = Verdict {
            observables_ok: true,
            counts_equal: true,
            ..Default::default()
        };
        let mut observable = |name: &str, got: f64, want: f64, floor: f64| {
            let dev = (got - want).abs();
            // A NaN deviation is not within any tolerance.
            let within = dev <= rel * want.abs().max(floor);
            if !within {
                v.observables_ok = false;
                v.notes.push(format!("{name}: {got:e} vs reference {want:e} (|Δ| {dev:e}, tolerance {rel:e} relative)"));
            }
            dev
        };
        v.dipole_dev = observable(
            "dipole_x",
            self.dipole_x,
            reference.dipole_x,
            DIPOLE_FLOOR_AU,
        );
        v.energy_dev = observable(
            "total_energy",
            self.total_energy,
            reference.total_energy,
            ENERGY_FLOOR_HA,
        );
        observable(
            "trace_sigma",
            self.trace_sigma,
            reference.trace_sigma,
            TRACE_FLOOR,
        );
        if self.counts != reference.counts {
            v.counts_equal = false;
            v.notes.push(format!(
                "per-step counts differ from reference: {:?} vs {:?}",
                self.counts, reference.counts
            ));
        }
        if let Some(other) = scf_like {
            if self.counts.scf_iters != other.counts.scf_iters {
                v.counts_equal = false;
                v.notes.push(format!(
                    "scf_iters {:?} differ from {}'s {:?}",
                    self.counts.scf_iters, other.workload, other.counts.scf_iters
                ));
            }
        }
        v
    }
}

fn reference_path(workload: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("reference")
        .join(format!("{workload}.json"))
}

/// Loads the committed reference of a workload.
pub fn load(workload: &str) -> Result<Golden, String> {
    let path = reference_path(workload);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    Golden::from_json(&doc).ok_or_else(|| format!("{}: missing or mistyped field", path.display()))
}

/// Writes (`--bless`) the reference of a workload.
pub fn store(golden: &Golden) -> std::io::Result<PathBuf> {
    let path = reference_path(&golden.workload);
    std::fs::create_dir_all(path.parent().expect("reference path has a parent"))?;
    std::fs::write(&path, golden.to_json().render_pretty())?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Golden {
        Golden {
            workload: "dense_fp64".into(),
            seed: 12345,
            dipole_x: -0.1861830480536844,
            total_energy: -19.9991341440088,
            trace_sigma: 16.0,
            counts: Counts {
                scf_iters: vec![9.0, 12.0],
                outer_iters: vec![0.0, 0.0],
                fock_applies: vec![9.0, 12.0],
                fock_solves_fp64: vec![9216.0, 12288.0],
                fock_solves_fp32: vec![0.0, 0.0],
            },
        }
    }

    #[test]
    fn reference_round_trips_through_json_bit_exactly() {
        let g = sample();
        let back = Golden::from_json(&json::parse(&g.to_json().render_pretty()).unwrap()).unwrap();
        assert_eq!(back, g);
        assert_eq!(back.dipole_x.to_bits(), g.dipole_x.to_bits());
        assert!(Golden::from_json(&json::parse("{\"workload\": \"x\"}").unwrap()).is_none());
    }

    #[test]
    fn comparator_applies_the_stated_tolerances() {
        let reference = sample();
        let same = reference.compare(&reference, 1e-8, None);
        assert!(same.observables_ok && same.counts_equal && same.notes.is_empty());

        // 1e-9 relative on the energy passes the fp64 tolerance ...
        let mut run = sample();
        run.total_energy *= 1.0 + 1e-9;
        let v = run.compare(&reference, tolerance("dense_fp64"), None);
        assert!(v.observables_ok, "{:?}", v.notes);
        assert!(v.energy_dev > 0.0 && v.dipole_dev == 0.0);
        // ... 1e-7 fails it but passes the mixed-precision one.
        run.total_energy = reference.total_energy * (1.0 + 1e-7);
        assert!(
            !run.compare(&reference, tolerance("ace_fp64"), None)
                .observables_ok
        );
        assert!(
            run.compare(&reference, tolerance("dense_mixed"), None)
                .observables_ok
        );
        // A NaN never passes.
        run.total_energy = f64::NAN;
        assert!(!run.compare(&reference, 1e-6, None).observables_ok);
    }

    #[test]
    fn near_zero_dipole_is_held_to_the_floor_not_to_itself() {
        let mut reference = sample();
        reference.dipole_x = 1e-9;
        let mut run = reference.clone();
        run.dipole_x = 1.00001e-9;
        assert!(run.compare(&reference, 1e-8, None).observables_ok);
        run.dipole_x = 1e-9 + 1e-9;
        assert!(!run.compare(&reference, 1e-8, None).observables_ok);
    }

    #[test]
    fn count_mismatch_is_reported_without_failing_the_observables() {
        let reference = sample();
        let mut run = sample();
        run.counts.scf_iters[1] = 13.0;
        let v = run.compare(&reference, 1e-8, None);
        assert!(v.observables_ok && !v.counts_equal);
        // dense_mixed must iterate exactly as dense_fp64 does.
        let mut mixed = sample();
        mixed.workload = "dense_mixed".into();
        mixed.counts.fock_solves_fp32 = vec![9216.0, 12288.0];
        let own = mixed.clone();
        assert!(mixed.compare(&own, 1e-6, Some(&reference)).counts_equal);
        mixed.counts.scf_iters[0] = 10.0;
        let v = mixed.compare(&mixed.clone(), 1e-6, Some(&reference));
        assert!(!v.counts_equal && v.notes[0].contains("dense_fp64"));
    }
}
