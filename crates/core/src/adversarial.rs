//! The adversarial instances used in the paper's two theorems.
//!
//! * **Theorem 1** (§3.2): any algorithm with a non-trivial competitive ratio
//!   for sum-stretch can be forced to starve a large job by a stream of
//!   unit-size jobs, making its max-stretch arbitrarily worse than optimal.
//!   [`starvation_instance`] builds that stream.
//! * **Theorem 2** (§4.2 and Appendix A): SWRPT is not `(2-ε)`-competitive
//!   for sum-stretch.  [`swrpt_lower_bound_instance`] builds the
//!   doubly-exponential job sequence of the proof.

//!
//! Beyond the hand-built theorem instances, [`online_offline_ratio`] is
//! the *measured* counterpart: the achieved-online vs. offline-clairvoyant
//! max-stretch ratio of an arbitrary platform instance, the score the
//! workload adversary (`stretch-workload`'s `adversary` module) climbs
//! when hunting for hostile streams.

use crate::config::SolverConfig;
use crate::offline::{optimal_max_stretch, OfflineBackend};
use crate::online::{run_online_with, OnlineVariant};
use crate::scheduler::ScheduleError;
use stretch_workload::{Instance, UniprocInstance};

/// The Theorem-1 instance: one job of size `delta` released at time 0,
/// followed by `k` unit-size jobs released at times `0, 1, …, k-1`.
///
/// Sum-stretch-oriented heuristics (SRPT, SPT, SWRPT, …) keep serving the
/// unit jobs and delay the large one indefinitely; max-stretch-oriented
/// algorithms interleave it.  `delta` must be at least 1.
pub fn starvation_instance(delta: f64, k: usize) -> UniprocInstance {
    assert!(delta >= 1.0, "delta is a size ratio, must be >= 1");
    let mut jobs = Vec::with_capacity(k + 1);
    jobs.push((0.0, delta));
    for t in 0..k {
        jobs.push((t as f64, 1.0));
    }
    UniprocInstance::from_times(&jobs)
}

/// Parameters of the Theorem-2 construction, returned for inspection.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SwrptLowerBoundParams {
    /// `α = 1 - ε/3`, the delay each small job suffers under SWRPT.
    pub alpha: f64,
    /// Number of doubly-exponential jobs (`n` in the paper).
    pub n: usize,
    /// Number of sub-unit bridge jobs (`k` in the paper).
    pub k: usize,
    /// Number of trailing unit jobs (`l` in the paper).
    pub l: usize,
}

/// The Theorem-2 / Appendix-A instance showing SWRPT is not
/// `(2-ε)`-competitive for sum-stretch.
///
/// * `epsilon` is the `ε` of the theorem (0 < ε < 1);
/// * `l` is the number of trailing unit jobs — the bound
///   `R ≥ 2 - ε` is reached in the limit `l → ∞`, so larger values get
///   closer to 2.
///
/// Returns the instance together with the derived parameters.
pub fn swrpt_lower_bound_instance(
    epsilon: f64,
    l: usize,
) -> (UniprocInstance, SwrptLowerBoundParams) {
    assert!(epsilon > 0.0 && epsilon < 1.0, "epsilon must be in (0, 1)");
    assert!(l >= 1);
    let alpha = 1.0 - epsilon / 3.0;

    // n: smallest integer with 1 / 2^(2^n - 1) < ε / (3 (1 + α)), i.e.
    // 2^(2^n - 1) > 3 (1 + α) / ε  (the condition used at the end of the
    // proof in Appendix A).
    let threshold = 3.0 * (1.0 + alpha) / epsilon;
    let mut n = 1usize;
    while (2f64).powf((1u64 << n) as f64 - 1.0) <= threshold {
        n += 1;
        assert!(n < 8, "epsilon too small: job sizes would overflow f64");
    }
    // k = ceil(-log2(-log2 α)).
    let k = (-(-alpha.log2()).log2()).ceil().max(1.0) as usize;

    // Sizes are 2^(2^(n-j)); expressed with f64 powers.
    let size = |exp: f64| (2f64).powf((2f64).powf(exp));

    let mut jobs: Vec<(f64, f64)> = Vec::new();
    // 1. J0 at time 0, size 2^(2^n).
    let p0 = size(n as f64);
    jobs.push((0.0, p0));
    // 2. J1 at time 2^(2^n) - 2^(2^(n-2)), size 2^(2^(n-1)).
    let p1 = size(n as f64 - 1.0);
    let r1 = p0 - size(n as f64 - 2.0);
    jobs.push((r1, p1));
    // 3. J2 at time r1 + p1 - α, size 2^(2^(n-2)).
    let p2 = size(n as f64 - 2.0);
    let r2 = r1 + p1 - alpha;
    jobs.push((r2, p2));
    // 4. J_j for 3 <= j <= n: released back-to-back, sizes 2^(2^(n-j)).
    let mut prev_release = r2;
    let mut prev_size = p2;
    for j in 3..=n {
        let r = prev_release + prev_size;
        let p = size(n as f64 - j as f64);
        jobs.push((r, p));
        prev_release = r;
        prev_size = p;
    }
    // 5. J_{n+j} for 1 <= j <= k: sizes 2^(2^(-j)).
    for j in 1..=k {
        let r = prev_release + prev_size;
        let p = size(-(j as f64));
        jobs.push((r, p));
        prev_release = r;
        prev_size = p;
    }
    // 6. J_{n+k+j} for 1 <= j <= l: unit jobs back-to-back.
    for _ in 1..=l {
        let r = prev_release + prev_size;
        jobs.push((r, 1.0));
        prev_release = r;
        prev_size = 1.0;
    }

    (
        UniprocInstance::from_times(&jobs),
        SwrptLowerBoundParams { alpha, n, k, l },
    )
}

/// Max-stretch of a completion vector against its instance, in the
/// paper's `F_j / W_j` units (`total_cmp` fold — NaN completions sort
/// last and are surfaced rather than masked).
fn max_stretch_of_completions(instance: &Instance, completions: &[f64]) -> f64 {
    instance
        .jobs
        .iter()
        .map(|j| (completions[j.id] - j.release) / j.work)
        .fold(0.0f64, |acc, s| {
            if s.total_cmp(&acc) == std::cmp::Ordering::Greater {
                s
            } else {
                acc
            }
        })
}

/// The achieved-online vs. offline-clairvoyant max-stretch ratio of
/// `instance`: how much worse the per-event online algorithm (under
/// `variant` and the given solver cell) does than the clairvoyant offline
/// optimum.  `1.0` means the online run matched the offline bound; the
/// theorems guarantee streams exist that push it strictly above.
///
/// Determinism contract: the solver cell comes **only** from the passed
/// [`SolverConfig`] (no fresh environment reads — callers that want the
/// process-wide default pass `SolverConfig::default()` explicitly), the
/// offline bound uses the deterministic flow backend, and all ratio
/// comparisons downstream are safe under `total_cmp` (this function never
/// returns NaN for a feasible instance: the offline optimum of a
/// non-empty instance is strictly positive).
pub fn online_offline_ratio(
    instance: &Instance,
    variant: OnlineVariant,
    config: SolverConfig,
) -> Result<f64, ScheduleError> {
    if instance.num_jobs() == 0 {
        return Ok(1.0);
    }
    let completions = run_online_with(instance, variant, config)?;
    let online = max_stretch_of_completions(instance, &completions);
    let offline = optimal_max_stretch(instance, OfflineBackend::Flow)?.stretch;
    Ok(online / offline)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::priority::PriorityRule;
    use crate::uniproc::{max_stretch_of, simulate_priority, sum_stretch_of};

    #[test]
    fn starvation_instance_shape() {
        let inst = starvation_instance(10.0, 5);
        assert_eq!(inst.num_jobs(), 6);
        assert_eq!(inst.jobs[0].release, 0.0);
        assert!((inst.delta() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn srpt_starves_the_large_job_for_max_stretch() {
        // Theorem 1: a sum-stretch-oriented algorithm delays the big job until
        // the unit stream dries out, so its max-stretch grows with k while
        // FCFS keeps it bounded.
        let small = starvation_instance(20.0, 40);
        let large = starvation_instance(20.0, 160);
        for rule in [PriorityRule::Srpt, PriorityRule::Swrpt, PriorityRule::Spt] {
            let ms_small = max_stretch_of(&small, &simulate_priority(&small, rule, None));
            let ms_large = max_stretch_of(&large, &simulate_priority(&large, rule, None));
            assert!(
                ms_large > ms_small * 2.0,
                "{}: {ms_small} -> {ms_large} should grow with k",
                rule.name()
            );
        }
        // FCFS max-stretch does not grow with k (the large job is served
        // first; unit jobs are each delayed by at most delta).
        let fcfs_small =
            max_stretch_of(&small, &simulate_priority(&small, PriorityRule::Fcfs, None));
        let fcfs_large =
            max_stretch_of(&large, &simulate_priority(&large, PriorityRule::Fcfs, None));
        assert!((fcfs_small - fcfs_large).abs() < 1e-9);
    }

    #[test]
    fn srpt_beats_fcfs_on_sum_stretch_for_the_starvation_instance() {
        let inst = starvation_instance(20.0, 80);
        let srpt = sum_stretch_of(&inst, &simulate_priority(&inst, PriorityRule::Srpt, None));
        let fcfs = sum_stretch_of(&inst, &simulate_priority(&inst, PriorityRule::Fcfs, None));
        assert!(srpt < fcfs);
    }

    #[test]
    fn swrpt_lower_bound_parameters_are_sane() {
        let (inst, params) = swrpt_lower_bound_instance(0.5, 10);
        assert!((params.alpha - (1.0 - 0.5 / 3.0)).abs() < 1e-12);
        assert!(params.n >= 2 && params.n < 8);
        assert!(params.k >= 1);
        assert_eq!(inst.num_jobs(), params.n + 1 + params.k + params.l);
        // Sizes decrease along the doubly-exponential prefix.
        for w in inst.jobs.windows(2) {
            assert!(w[0].processing_time >= w[1].processing_time - 1e-9);
        }
    }

    #[test]
    fn swrpt_sum_stretch_approaches_twice_srpt_on_the_lower_bound_instance() {
        // Theorem 2 with ε = 0.5: for l large enough the ratio must exceed
        // 2 - ε = 1.5 (and the optimal sum-stretch is at most SRPT's).
        let (inst, _) = swrpt_lower_bound_instance(0.5, 1500);
        let srpt = sum_stretch_of(&inst, &simulate_priority(&inst, PriorityRule::Srpt, None));
        let swrpt = sum_stretch_of(&inst, &simulate_priority(&inst, PriorityRule::Swrpt, None));
        let ratio = swrpt / srpt;
        assert!(
            ratio > 1.5,
            "SWRPT/SRPT sum-stretch ratio {ratio} should exceed 2 - ε = 1.5"
        );
        // And the ratio must of course stay below the general 2-competitiveness
        // ... of SRPT-like bounds claimed in the theorem's limit.
        assert!(ratio < 2.0 + 1e-9);
    }

    #[test]
    #[should_panic(expected = "epsilon")]
    fn invalid_epsilon_rejected() {
        swrpt_lower_bound_instance(1.5, 10);
    }

    #[test]
    fn online_offline_ratio_is_deterministic_and_at_least_one() {
        let instance = crate::refstream::reference_instance(2, 2, 10, 3);
        for config in SolverConfig::all_backends() {
            let a = online_offline_ratio(&instance, OnlineVariant::Online, config).unwrap();
            let b = online_offline_ratio(&instance, OnlineVariant::Online, config).unwrap();
            assert_eq!(
                a.to_bits(),
                b.to_bits(),
                "{config:?} ratio not reproducible"
            );
            // The online algorithm cannot beat the clairvoyant optimum
            // (up to the offline bisection's resolution).
            assert!(a >= 1.0 - 1e-6, "{config:?} ratio {a} below 1");
            assert!(a.is_finite());
        }
    }

    #[test]
    fn online_offline_ratio_of_an_empty_instance_is_one() {
        let platform = stretch_platform::fixtures::small_platform();
        let instance = stretch_workload::Instance::new(platform, Vec::new());
        let r = online_offline_ratio(
            &instance,
            OnlineVariant::Online,
            SolverConfig::network_simplex(),
        )
        .unwrap();
        assert_eq!(r, 1.0);
    }
}
