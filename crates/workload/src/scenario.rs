//! Workload scenario families beyond the paper's steady-state model.
//!
//! §5.1 of the paper studies a single arrival model: homogeneous Poisson
//! arrivals per databank, every request scanning its whole databank, all
//! databanks equally popular.  Real GriPPS-style portals deviate from each
//! of those assumptions, and large-stretch literature (Srivastav–Trystram,
//! Moseley–Pruhs–Stein) shows the heuristic rankings only separate under
//! such stress.  A [`Scenario`] selects one deviation at a time so its
//! effect on the Table-1 rankings can be isolated:
//!
//! * [`Scenario::Bursty`] — arrivals concentrate into periodic bursts
//!   (non-homogeneous Poisson, on/off square-wave rate);
//! * [`Scenario::HeavyTailed`] — request sizes follow a unit-mean Pareto
//!   law, mixing scans of small fractions with multi-pass scans;
//! * [`Scenario::SkewedPopularity`] — databank request rates follow a
//!   Zipf law instead of being proportional to serving capacity alone.
//!
//! Every family is **density-preserving**: the expected number of jobs and
//! the expected total work per window both match the steady scenario at the
//! same [`WorkloadConfig`](crate::WorkloadConfig), so the load axis of the
//! experimental grid keeps its meaning across families.

use rand::Rng;

/// One arrival/size/popularity model for workload generation.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum Scenario {
    /// The paper's model: homogeneous Poisson arrivals, full scans, uniform
    /// databank popularity.
    #[default]
    Steady,
    /// Arrivals concentrate into `cycles` periodic bursts per window; within
    /// each cycle only the first `duty` fraction receives arrivals, at rate
    /// `base_rate / duty` (expected count preserved).  `duty` must lie in
    /// `(0, 1]`; `duty = 1` degenerates to [`Scenario::Steady`] arrivals.
    Bursty {
        /// Number of bursts per arrival window.
        cycles: usize,
        /// Fraction of each cycle during which arrivals occur.
        duty: f64,
    },
    /// Request sizes are multiplied by a unit-mean Pareto factor with shape
    /// `alpha` (must exceed 1 so the mean exists): most requests scan a
    /// small fraction of the databank, a heavy tail re-scans it many times.
    HeavyTailed {
        /// Pareto shape; smaller values give heavier tails (paper-adjacent
        /// studies use 1.1–2.5).
        alpha: f64,
    },
    /// Databank arrival rates are re-weighted by a Zipf law with the given
    /// exponent: databank `d` (0-based) receives weight `(d+1)^-exponent`,
    /// normalised so the expected total job count is unchanged.
    SkewedPopularity {
        /// Zipf exponent; `0.0` is uniform, `1.0` classic Zipf.
        exponent: f64,
    },
    /// A steady stream post-processed by the workload adversary
    /// ([`crate::adversary`]): a seeded hill-climb perturbs release dates,
    /// sizes and databank targets to maximise the starvation-pressure
    /// proxy.  Job *count* is preserved (mutations never add or remove
    /// jobs) but sizes and arrival placement are deliberately hostile, so
    /// this family is **not** density-preserving — that is its point.
    Adversarial {
        /// Scenario-level search seed, mixed with the generator draw so
        /// each instance of a campaign explores a different
        /// neighbourhood deterministically.
        seed: u64,
        /// Hill-climb rounds per instance.
        rounds: u32,
    },
    /// A recorded serve run stands in for generation entirely: the
    /// campaign layer (`stretch-experiments`) loads checked-in trace
    /// fixture `index`, a drained journal directory, and replays its
    /// submissions instead of drawing jobs.  At the
    /// workload level this family generates a steady stream (the
    /// fallthrough), so the variant stays usable without the serve layer.
    Trace {
        /// Which checked-in trace fixture to replay.
        index: u32,
    },
}

impl Scenario {
    /// Compact label used in configuration labels and result files.
    pub fn label(&self) -> String {
        match *self {
            Scenario::Steady => "steady".to_string(),
            Scenario::Bursty { cycles, duty } => format!("bursty{cycles}x{duty:.2}"),
            Scenario::HeavyTailed { alpha } => format!("heavy{alpha:.2}"),
            Scenario::SkewedPopularity { exponent } => format!("zipf{exponent:.2}"),
            Scenario::Adversarial { seed, rounds } => format!("adv{seed}r{rounds}"),
            Scenario::Trace { index } => format!("trace{index}"),
        }
    }

    /// Validates the scenario parameters, panicking with a descriptive
    /// message on nonsense values (mirrors the other generator asserts).
    pub fn validate(&self) {
        match *self {
            Scenario::Steady => {}
            Scenario::Bursty { cycles, duty } => {
                assert!(cycles > 0, "bursty scenario needs at least one cycle");
                assert!(
                    duty > 0.0 && duty <= 1.0,
                    "bursty duty must be in (0, 1], got {duty}"
                );
            }
            Scenario::HeavyTailed { alpha } => {
                assert!(
                    alpha > 1.0 && alpha.is_finite(),
                    "heavy-tail shape must exceed 1 (finite mean), got {alpha}"
                );
            }
            Scenario::SkewedPopularity { exponent } => {
                assert!(
                    exponent >= 0.0 && exponent.is_finite(),
                    "popularity exponent must be nonnegative, got {exponent}"
                );
            }
            Scenario::Adversarial { rounds, .. } => {
                assert!(rounds > 0, "adversarial scenario needs at least one round");
            }
            Scenario::Trace { .. } => {}
        }
    }

    /// Popularity weight of databank `databank` among `count` databanks.
    ///
    /// Weights are normalised to **mean 1** over the databanks, so scaling
    /// every arrival rate by its weight keeps the expected total job count
    /// of the window unchanged.
    pub fn popularity_weight(&self, databank: usize, count: usize) -> f64 {
        match *self {
            Scenario::SkewedPopularity { exponent } => {
                let raw = |d: usize| ((d + 1) as f64).powf(-exponent);
                let total: f64 = (0..count).map(raw).sum();
                raw(databank) * count as f64 / total
            }
            _ => 1.0,
        }
    }

    /// Multiplicative size factor for one request (unit mean).
    pub fn size_factor<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        match *self {
            Scenario::HeavyTailed { alpha } => {
                // Pareto with scale xm = (alpha-1)/alpha has mean exactly 1.
                let xm = (alpha - 1.0) / alpha;
                let u: f64 = rng.gen_range(f64::EPSILON..1.0);
                xm / u.powf(1.0 / alpha)
            }
            _ => 1.0,
        }
    }

    /// Maps an arrival drawn in *active time* (the time axis in which the
    /// Poisson process is homogeneous) back to wall-clock time in a window
    /// of length `window`.
    ///
    /// For [`Scenario::Bursty`], active time covers only the on-phases: the
    /// active axis has length `duty · window` and is split evenly across
    /// `cycles` bursts, each burst occupying the start of its cycle.  For
    /// every other family active time *is* wall-clock time.
    pub fn arrival_time(&self, active_t: f64, window: f64) -> f64 {
        match *self {
            Scenario::Bursty { cycles, duty } => {
                let cycle_len = window / cycles as f64;
                let on_len = duty * cycle_len;
                let cycle = (active_t / on_len).floor();
                let offset = active_t - cycle * on_len;
                cycle * cycle_len + offset
            }
            _ => active_t,
        }
    }

    /// Length of the active-time axis for a window of length `window` (the
    /// horizon up to which homogeneous arrivals must be drawn).
    pub fn active_window(&self, window: f64) -> f64 {
        match *self {
            Scenario::Bursty { duty, .. } => duty * window,
            _ => window,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn labels_are_distinct_and_readable() {
        let scenarios = [
            Scenario::Steady,
            Scenario::Bursty {
                cycles: 3,
                duty: 0.25,
            },
            Scenario::HeavyTailed { alpha: 1.5 },
            Scenario::SkewedPopularity { exponent: 1.0 },
            Scenario::Adversarial {
                seed: 11,
                rounds: 16,
            },
            Scenario::Trace { index: 0 },
        ];
        let labels: Vec<String> = scenarios.iter().map(|s| s.label()).collect();
        assert_eq!(labels[0], "steady");
        assert_eq!(labels[1], "bursty3x0.25");
        assert_eq!(labels[2], "heavy1.50");
        assert_eq!(labels[3], "zipf1.00");
        assert_eq!(labels[4], "adv11r16");
        assert_eq!(labels[5], "trace0");
        let unique: std::collections::HashSet<&String> = labels.iter().collect();
        assert_eq!(unique.len(), labels.len());
    }

    #[test]
    fn popularity_weights_have_mean_one() {
        for exponent in [0.0, 0.5, 1.0, 2.0] {
            let s = Scenario::SkewedPopularity { exponent };
            let count = 7;
            let total: f64 = (0..count).map(|d| s.popularity_weight(d, count)).sum();
            assert!(
                (total - count as f64).abs() < 1e-9,
                "exponent {exponent}: total {total}"
            );
            // Weights decrease with rank.
            for d in 1..count {
                assert!(s.popularity_weight(d, count) <= s.popularity_weight(d - 1, count) + 1e-12);
            }
        }
    }

    #[test]
    fn heavy_tail_size_factor_has_unit_mean() {
        let s = Scenario::HeavyTailed { alpha: 2.0 };
        let mut rng = SmallRng::seed_from_u64(9);
        let n = 200_000;
        let mean: f64 = (0..n).map(|_| s.size_factor(&mut rng)).sum::<f64>() / n as f64;
        assert!((mean - 1.0).abs() < 0.05, "mean {mean}");
        // The minimum possible factor is xm = 0.5 for alpha = 2.
        let min = (0..1000)
            .map(|_| s.size_factor(&mut rng))
            .fold(f64::INFINITY, f64::min);
        assert!(min >= 0.5 - 1e-12);
    }

    #[test]
    fn bursty_arrival_times_land_in_on_phases() {
        let s = Scenario::Bursty {
            cycles: 4,
            duty: 0.25,
        };
        let window = 100.0;
        assert_eq!(s.active_window(window), 25.0);
        // Active time sweeps [0, 25); images must fall inside the first
        // quarter of each 25-second cycle.
        for k in 0..1000 {
            let active = k as f64 * 0.025;
            let t = s.arrival_time(active, window);
            let cycle_offset = t % 25.0;
            assert!(
                cycle_offset <= 25.0 * 0.25 + 1e-9,
                "arrival {t} outside burst"
            );
            assert!((0.0..window + 1e-9).contains(&t));
        }
        // Order is preserved.
        let a = s.arrival_time(3.0, window);
        let b = s.arrival_time(9.0, window);
        assert!(a < b);
    }

    #[test]
    fn steady_is_the_identity_everywhere() {
        let s = Scenario::Steady;
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(s.popularity_weight(3, 10), 1.0);
        assert_eq!(s.size_factor(&mut rng), 1.0);
        assert_eq!(s.arrival_time(7.5, 100.0), 7.5);
        assert_eq!(s.active_window(100.0), 100.0);
    }

    #[test]
    #[should_panic(expected = "duty")]
    fn invalid_duty_rejected() {
        Scenario::Bursty {
            cycles: 2,
            duty: 1.5,
        }
        .validate();
    }

    #[test]
    #[should_panic(expected = "exceed 1")]
    fn invalid_alpha_rejected() {
        Scenario::HeavyTailed { alpha: 0.9 }.validate();
    }

    #[test]
    #[should_panic(expected = "at least one round")]
    fn zero_adversary_rounds_rejected() {
        Scenario::Adversarial { seed: 1, rounds: 0 }.validate();
    }

    #[test]
    fn trace_and_adversarial_are_transparent_to_the_flow_shape_hooks() {
        // Both families reshape (or replace) the stream *after* the steady
        // draw, so the per-draw hooks must behave exactly like steady.
        let mut rng = SmallRng::seed_from_u64(2);
        for s in [
            Scenario::Adversarial { seed: 3, rounds: 8 },
            Scenario::Trace { index: 1 },
        ] {
            s.validate();
            assert_eq!(s.popularity_weight(2, 5), 1.0);
            assert_eq!(s.size_factor(&mut rng), 1.0);
            assert_eq!(s.arrival_time(4.25, 100.0), 4.25);
            assert_eq!(s.active_window(100.0), 100.0);
        }
    }
}
