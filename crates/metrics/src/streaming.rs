//! Bounded-memory quantile estimation.
//!
//! [`P2Quantile`] is the P² algorithm of Jain & Chlamtac: a five-marker
//! quantile sketch in O(1) memory, with which the serve layer tracks its
//! solve-latency p50/p99 over an unbounded stream of decisions.

/// P² (piecewise-parabolic) single-quantile sketch: five markers, O(1)
/// memory, no sorting.  Estimates converge as samples accumulate; for five
/// or fewer samples the estimate is the exact nearest-rank order statistic
/// (the markers still hold the raw sorted samples until the sixth
/// observation).  NaN samples are ignored — they carry no rank.
#[derive(Clone, Debug)]
pub struct P2Quantile {
    p: f64,
    /// Marker heights (the first `count` entries are sorted samples until
    /// the sketch is primed).
    q: [f64; 5],
    /// Marker positions (1-based ranks).
    n: [f64; 5],
    /// Desired marker positions.
    np: [f64; 5],
    /// Position increments per observation.
    dn: [f64; 5],
    count: usize,
}

impl P2Quantile {
    /// A sketch estimating the `p`-quantile (e.g. `0.99`).
    pub fn new(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "quantile must be in [0, 1]");
        P2Quantile {
            p,
            q: [0.0; 5],
            n: [1.0, 2.0, 3.0, 4.0, 5.0],
            np: [1.0, 1.0 + 2.0 * p, 1.0 + 4.0 * p, 3.0 + 2.0 * p, 5.0],
            dn: [0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0],
            count: 0,
        }
    }

    /// Folds one sample in.  NaN is skipped: it has no rank, and letting it
    /// into the markers used to panic the priming sort (`partial_cmp`
    /// unwrap) or poison every later estimate.
    pub fn observe(&mut self, x: f64) {
        if x.is_nan() {
            return;
        }
        if self.count < 5 {
            self.q[self.count] = x;
            self.count += 1;
            if self.count == 5 {
                self.q.sort_by(f64::total_cmp);
            }
            return;
        }
        // Locate the cell containing x and bump the endpoint markers.
        let k = if x < self.q[0] {
            self.q[0] = x;
            0
        } else if x < self.q[1] {
            0
        } else if x < self.q[2] {
            1
        } else if x < self.q[3] {
            2
        } else if x <= self.q[4] {
            3
        } else {
            self.q[4] = x;
            3
        };
        for i in (k + 1)..5 {
            self.n[i] += 1.0;
        }
        for i in 0..5 {
            self.np[i] += self.dn[i];
        }
        // Adjust the three interior markers towards their desired positions.
        for i in 1..4 {
            let d = self.np[i] - self.n[i];
            if (d >= 1.0 && self.n[i + 1] - self.n[i] > 1.0)
                || (d <= -1.0 && self.n[i - 1] - self.n[i] < -1.0)
            {
                let d = d.signum();
                let qp = self.parabolic(i, d);
                self.q[i] = if self.q[i - 1] < qp && qp < self.q[i + 1] {
                    qp
                } else {
                    self.linear(i, d)
                };
                self.n[i] += d;
            }
        }
        self.count += 1;
    }

    fn parabolic(&self, i: usize, d: f64) -> f64 {
        let q = &self.q;
        let n = &self.n;
        q[i] + d / (n[i + 1] - n[i - 1])
            * ((n[i] - n[i - 1] + d) * (q[i + 1] - q[i]) / (n[i + 1] - n[i])
                + (n[i + 1] - n[i] - d) * (q[i] - q[i - 1]) / (n[i] - n[i - 1]))
    }

    fn linear(&self, i: usize, d: f64) -> f64 {
        let j = (i as f64 + d) as usize;
        self.q[i] + d * (self.q[j] - self.q[i]) / (self.n[j] - self.n[i])
    }

    /// Number of samples folded in.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Current quantile estimate, or `None` when empty.
    pub fn value(&self) -> Option<f64> {
        match self.count {
            0 => None,
            // Exact small-sample quantile (nearest-rank).  The bound is
            // `<= 5`, not `< 5`: at exactly five samples the markers still
            // *are* the five sorted samples (the first P² adjustment happens
            // on the sixth observation), and the old `q[2]` arm returned the
            // median for every `p` — a p99 over a short-lived service's 5
            // decisions reported its median latency as the tail.
            c if c <= 5 => {
                let mut head: Vec<f64> = self.q[..c].to_vec();
                head.sort_by(f64::total_cmp);
                let rank = ((self.p * c as f64).ceil() as usize).clamp(1, c);
                Some(head[rank - 1])
            }
            _ => Some(self.q[2]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p2_median_converges_on_uniform_ramp() {
        let mut sketch = P2Quantile::new(0.5);
        for i in 0..10_001 {
            sketch.observe(i as f64 / 10_000.0);
        }
        let est = sketch.value().unwrap();
        assert!((est - 0.5).abs() < 0.02, "median estimate {est}");
    }

    #[test]
    fn p2_tail_quantile_tracks_the_upper_tail() {
        // Uniform ramp in [0, 1): the p-quantile is p itself.
        let mut sketch = P2Quantile::new(0.9);
        // Deterministic shuffle (golden-ratio stride) so the sketch sees the
        // values in a scrambled order, as a real stream would.
        for i in 0..10_000u64 {
            let x = (i.wrapping_mul(7919) % 10_000) as f64 / 10_000.0;
            sketch.observe(x);
        }
        let est = sketch.value().unwrap();
        assert!((est - 0.9).abs() < 0.03, "p90 estimate {est}");
    }

    #[test]
    fn p2_small_samples_are_exact() {
        let mut sketch = P2Quantile::new(0.5);
        assert!(sketch.value().is_none());
        sketch.observe(7.0);
        assert_eq!(sketch.value(), Some(7.0));
        sketch.observe(1.0);
        sketch.observe(9.0);
        // Nearest-rank median of {1, 7, 9} is 7.
        assert_eq!(sketch.value(), Some(7.0));
    }

    #[test]
    fn p2_five_samples_honour_the_quantile_not_the_median() {
        // Regression: at exactly five samples the sketch returned the median
        // marker q[2] for every p, so a p99 over five observations reported
        // the median.  With five samples {1..5}, nearest-rank p99 is the
        // max and nearest-rank p10 is the min.
        let samples = [3.0, 1.0, 5.0, 2.0, 4.0];
        for (p, expected) in [(0.99, 5.0), (0.5, 3.0), (0.1, 1.0)] {
            let mut sketch = P2Quantile::new(p);
            for &x in &samples {
                sketch.observe(x);
            }
            assert_eq!(sketch.count(), 5);
            assert_eq!(sketch.value(), Some(expected), "p = {p}");
        }
    }

    #[test]
    fn p2_ignores_nan_samples() {
        // NaN used to panic the priming sort (partial_cmp unwrap) when it
        // was among the first five samples, and to poison the top marker
        // afterwards.  It carries no rank, so it is skipped entirely.
        let mut sketch = P2Quantile::new(0.99);
        sketch.observe(f64::NAN);
        assert_eq!(sketch.count(), 0);
        assert!(sketch.value().is_none());
        for x in [2.0, f64::NAN, 1.0, 4.0, f64::NAN, 3.0, 5.0] {
            sketch.observe(x);
        }
        assert_eq!(sketch.count(), 5);
        assert_eq!(sketch.value(), Some(5.0));
        // Post-priming NaNs are skipped too, leaving the estimate finite.
        sketch.observe(f64::NAN);
        for i in 0..100 {
            sketch.observe(f64::from(i) / 100.0);
        }
        assert!(sketch.value().unwrap().is_finite());
    }
}
