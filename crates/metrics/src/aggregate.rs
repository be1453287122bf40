//! Degradation statistics across many instances (the columns of Tables 1–16).

/// Mean / standard deviation / max summary of a series of ratios.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct AggregateStats {
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub sd: f64,
    /// Maximum.
    pub max: f64,
    /// Number of samples aggregated.
    pub count: usize,
}

impl AggregateStats {
    /// Computes the summary of a nonempty sample.
    pub fn from_samples(samples: &[f64]) -> Self {
        assert!(!samples.is_empty(), "cannot aggregate an empty sample");
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        AggregateStats {
            mean,
            sd: var.sqrt(),
            max,
            count: samples.len(),
        }
    }
}

/// Accumulates, per heuristic, the ratio of its metric to the best value
/// observed on each instance — the *degradation from best* of the paper's
/// tables (the off-line optimal plays the role of "best" for max-stretch).
#[derive(Clone, Debug, Default)]
pub struct DegradationAccumulator {
    names: Vec<String>,
    samples: Vec<Vec<f64>>,
}

impl DegradationAccumulator {
    /// Creates an accumulator for the given heuristic names.
    pub fn new(names: &[&str]) -> Self {
        DegradationAccumulator {
            names: names.iter().map(|s| s.to_string()).collect(),
            samples: vec![Vec::new(); names.len()],
        }
    }

    /// Records one instance: `values[k]` is the metric achieved by heuristic
    /// `k`.  Each heuristic's sample becomes `value / reference` where
    /// `reference` is either the supplied baseline (e.g. the optimal) or, if
    /// `None`, the best value among the heuristics themselves.
    ///
    /// Non-finite values (a heuristic that failed on this instance) are
    /// skipped: no sample is recorded for that heuristic.
    pub fn record(&mut self, values: &[f64], reference: Option<f64>) {
        assert_eq!(values.len(), self.names.len(), "one value per heuristic");
        let finite_min = values
            .iter()
            .copied()
            .filter(|v| v.is_finite())
            .fold(f64::INFINITY, f64::min);
        let reference = reference.unwrap_or(finite_min);
        if !reference.is_finite() || reference <= 0.0 {
            return;
        }
        for (k, &v) in values.iter().enumerate() {
            if v.is_finite() {
                self.samples[k].push(v / reference);
            }
        }
    }

    /// Number of instances recorded for heuristic `k`.
    pub fn count(&self, k: usize) -> usize {
        self.samples[k].len()
    }

    /// Aggregate statistics for heuristic `k`, or `None` when it never
    /// produced a finite value.
    pub fn stats(&self, k: usize) -> Option<AggregateStats> {
        if self.samples[k].is_empty() {
            None
        } else {
            Some(AggregateStats::from_samples(&self.samples[k]))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregate_stats_basics() {
        let s = AggregateStats::from_samples(&[1.0, 2.0, 3.0]);
        assert!((s.mean - 2.0).abs() < 1e-12);
        assert!((s.sd - (2.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.max, 3.0);
        assert_eq!(s.count, 3);
    }

    #[test]
    fn degradation_relative_to_best() {
        let mut acc = DegradationAccumulator::new(&["a", "b"]);
        acc.record(&[2.0, 4.0], None);
        acc.record(&[3.0, 3.0], None);
        let a = acc.stats(0).unwrap();
        let b = acc.stats(1).unwrap();
        assert!((a.mean - 1.0).abs() < 1e-12);
        assert!((b.mean - 1.5).abs() < 1e-12);
        assert_eq!(b.max, 2.0);
    }

    #[test]
    fn degradation_relative_to_optimal_reference() {
        let mut acc = DegradationAccumulator::new(&["a"]);
        acc.record(&[3.0], Some(2.0));
        assert!((acc.stats(0).unwrap().mean - 1.5).abs() < 1e-12);
    }

    #[test]
    fn non_finite_values_are_skipped() {
        let mut acc = DegradationAccumulator::new(&["a", "b", "c"]);
        acc.record(&[f64::INFINITY, 2.0, f64::NAN], None);
        assert_eq!(acc.count(0), 0);
        assert_eq!(acc.count(1), 1);
        assert_eq!(acc.count(2), 0);
        assert!(acc.stats(0).is_none());
        assert!(acc.stats(2).is_none());
        // Neither skipped value became the reference.
        assert_eq!(acc.stats(1).unwrap().mean, 1.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_sample_rejected() {
        AggregateStats::from_samples(&[]);
    }
}
