//! The parallel-campaign determinism contract.
//!
//! The vendored `rayon` thread pool promises that `par_iter().map(..)
//! .collect()` is an **indexed collect**: results land at their input index,
//! so campaign output is byte-identical whatever the thread count.  These
//! tests pin that contract at campaign level across `STRETCH_THREADS ∈
//! {1, 2, 8}` (via the scoped `with_threads` override, which takes priority
//! over the environment variable and keeps the test matrix race-free), plus
//! the worker-panic propagation guarantee.

use rayon::prelude::*;
use stretch_experiments::campaign::{run_campaign, CampaignResult, CampaignSettings};
use stretch_experiments::config::reduced_grid;

/// Canonical byte rendering of a campaign's observations, excluding the
/// wall-clock `scheduling_time` fields (the only intentionally
/// nondeterministic data).  Metric f64s are rendered as exact bit patterns:
/// any numerical divergence between thread counts shows.
fn canonical_bytes(result: &CampaignResult) -> String {
    let mut out = String::new();
    for obs in &result.observations {
        out.push_str(&format!(
            "{} jobs={} events={}",
            obs.config.label(),
            obs.num_jobs,
            obs.num_events
        ));
        for o in &obs.observations {
            match o {
                None => out.push_str(" -"),
                Some(o) => out.push_str(&format!(
                    " {:016x}/{:016x}",
                    o.max_stretch.to_bits(),
                    o.sum_stretch.to_bits()
                )),
            }
        }
        out.push('\n');
    }
    out
}

#[test]
fn campaign_bytes_are_identical_across_thread_counts() {
    let grid = reduced_grid();
    let settings = CampaignSettings {
        instances_per_config: 2,
        target_jobs: 10,
        ..CampaignSettings::smoke()
    };
    let sequential = rayon::with_threads(1, || run_campaign(&grid, settings));
    let reference = canonical_bytes(&sequential);
    assert!(!reference.is_empty());
    for threads in [2, 8] {
        let parallel = rayon::with_threads(threads, || run_campaign(&grid, settings));
        assert_eq!(
            canonical_bytes(&parallel),
            reference,
            "thread count {threads} changed campaign bytes"
        );
    }
}

#[test]
fn worker_panics_propagate_out_of_campaign_shaped_fanouts() {
    let work: Vec<usize> = (0..32).collect();
    let outcome = std::panic::catch_unwind(|| {
        rayon::with_threads(4, || {
            let _: Vec<usize> = work
                .par_iter()
                .map(|&i| {
                    if i == 17 {
                        panic!("instance {i} exploded");
                    }
                    i
                })
                .collect();
        })
    });
    assert!(
        outcome.is_err(),
        "a panicking campaign worker must fail the campaign, not drop data"
    );
}
