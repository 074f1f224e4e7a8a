//! Sample statistics and the direction-aware bound comparator.

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Median of the samples and how many there were (`None` when empty).
pub fn median(samples: &[f64]) -> Option<(f64, usize)> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let m = if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    };
    Some((m, n))
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// (the default "exclusive" method) gives them. Needs two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    if n < 2 {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let q = |k: usize| {
        // Position k(n+1)/4 in 1-based ranks, clamped as Python does.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((q(1), q(3)))
}

/// Interquartile distance as a share of the median — the run-to-run
/// spread the benchmark contract compares with a metric's bound.
pub fn iqr_spread(samples: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(samples)?;
    let (m, _) = median(samples)?;
    (m != 0.0).then(|| (q3 - q1) / m.abs())
}

/// By what share of `base` the `new` value is *worse* (negative when it
/// is better), in the metric's own direction.
pub fn worsening(base: f64, new: f64, better: Better) -> f64 {
    if base == 0.0 {
        return if new == base { 0.0 } else { f64::INFINITY };
    }
    match better {
        Better::Lower => (new - base) / base.abs(),
        Better::Higher => (base - new) / base.abs(),
    }
}

/// Per-index minimum across repetitions: `reps[r][i]` is the sample of
/// step `i` in repetition `r`. Every repetition runs the same
/// deterministic work, so the minimum is the sample least disturbed by
/// the machine.
pub fn min_per_index(reps: &[Vec<f64>]) -> Vec<f64> {
    let k = reps.iter().map(Vec::len).min().unwrap_or(0);
    (0..k)
        .map(|i| reps.iter().map(|r| r[i]).fold(f64::INFINITY, f64::min))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_reports_value_and_sample_count() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0]), Some((3.0, 1)));
        assert_eq!(median(&[4.0, 1.0, 3.0]), Some((3.0, 3)));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some((2.5, 4)));
    }

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), Some((1.5, 12.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(iqr_spread(&v), Some(1.0));
        assert_eq!(quartiles(&[1.0]), None);
    }

    /// True when `new` is no worse than `base` by more than `bound`.
    fn within_bound(base: f64, new: f64, better: Better, bound: f64) -> bool {
        worsening(base, new, better) <= bound
    }

    #[test]
    fn bound_comparator_respects_direction() {
        // Lower is better: +5 % passes a 10 % bound, +20 % does not.
        assert!(within_bound(1.0, 1.05, Better::Lower, 0.10));
        assert!(!within_bound(1.0, 1.20, Better::Lower, 0.10));
        assert!(within_bound(1.0, 0.5, Better::Lower, 0.0));
        // Higher is better (strong_eff_4to16): a drop is the worsening.
        assert!(within_bound(0.88, 0.90, Better::Higher, 0.005));
        assert!(!within_bound(0.88, 0.80, Better::Higher, 0.005));
        assert!((worsening(0.88, 0.80, Better::Higher) - 0.0909).abs() < 1e-3);
        // A zero bound admits no worsening at all.
        assert!(within_bound(2.0, 2.0, Better::Lower, 0.0));
        assert!(!within_bound(2.0, 2.0 + 1e-9, Better::Lower, 0.0));
        assert!(!within_bound(0.0, 1.0, Better::Lower, 0.5));
    }

    #[test]
    fn min_per_index_takes_the_least_disturbed_sample() {
        let reps = vec![vec![1.2, 2.0], vec![1.0, 2.5], vec![1.1, 1.9]];
        assert_eq!(min_per_index(&reps), vec![1.0, 1.9]);
        assert!(min_per_index(&[]).is_empty());
    }
}
