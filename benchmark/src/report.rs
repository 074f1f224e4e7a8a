//! What one run of one workload reports, and its last-line JSON form.

use crate::json::Json;
use crate::registry::Metric;

/// Result of one run: correctness, step accounting, measured metrics.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Steps attempted in the timed repetitions and how many failed a
    /// check (not converged, non-finite, invariant or reference broken).
    pub attempted: u64,
    pub failed: u64,
    /// Measured metrics by registry name; a later `set` overwrites.
    pub metrics: Vec<(&'static str, f64)>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.metrics.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.metrics.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    /// Reports a finding (failed check, count mismatch) on stderr.
    pub fn note(&self, text: String) {
        eprintln!("note: {text}");
    }

    /// Marks every attempted step failed (a whole-run check broke).
    pub fn fail_all(&mut self, why: String) {
        self.failed = self.attempted;
        self.note(why);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Value of every metric of `table`, in table order. A metric the
    /// workload does not have reads 0 when `zero_fill` (per-layer
    /// tables); otherwise its absence, like a non-finite value, is an
    /// error.
    pub fn values(&self, table: &[Metric], zero_fill: bool) -> Result<Vec<f64>, String> {
        table
            .iter()
            .map(|m| match self.get(m.name) {
                Some(v) if v.is_finite() => Ok(v),
                Some(v) => Err(format!("{} is {v}", m.name)),
                None if zero_fill => Ok(0.0),
                None => Err(format!("{} was not measured", m.name)),
            })
            .collect()
    }

    /// The contract's result object:
    /// `{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`.
    pub fn result_json(&self, table: &[Metric], values: &[f64]) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(table.iter().zip(values).map(|(m, v)| {
                    (
                        m.name,
                        Json::obj([("value", Json::Num(*v)), ("unit", Json::Str(m.unit.into()))]),
                    )
                })),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{END_TO_END, PER_LAYER};

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut r = Report {
            attempted: 6,
            ..Default::default()
        };
        for (i, m) in END_TO_END.iter().enumerate() {
            r.set(m.name, 1.5 + i as f64);
        }
        let values = r.values(&END_TO_END, false).unwrap();
        let doc = r.result_json(&END_TO_END, &values);
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct").unwrap().as_bool(), Some(true));
        let metrics = doc.get("metrics").unwrap().as_obj().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        let setup = doc.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(setup.get("unit").unwrap().as_str(), Some("s"));
        assert_eq!(setup.get("value").unwrap().as_f64(), Some(4.5));
        assert!(!doc.render().contains('\n'));
    }

    #[test]
    fn missing_or_non_finite_metrics_are_errors_unless_zero_filled() {
        let mut r = Report {
            attempted: 1,
            ..Default::default()
        };
        assert!(r.values(&END_TO_END, false).is_err());
        let filled = r.values(&PER_LAYER, true).unwrap();
        assert!(filled.iter().all(|v| *v == 0.0) && filled.len() == PER_LAYER.len());
        r.set("virt_step_s", f64::NAN);
        assert!(r.values(&PER_LAYER, true).is_err());
    }

    #[test]
    fn correctness_needs_attempts_and_no_failures() {
        let mut r = Report::default();
        assert!(!r.correct());
        r.attempted = 4;
        assert!(r.correct());
        r.set("a", 1.0);
        r.set("a", 2.0);
        assert_eq!((r.get("a"), r.metrics.len()), (Some(2.0), 1));
        r.fail_all("reference broken".into());
        assert_eq!((r.failed, r.correct()), (4, false));
    }
}
