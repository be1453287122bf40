//! Measures the scaling trajectory (jobs/sec and wall-clock vs instance
//! size and vs thread count, both min-cost backends) and merges it into
//! `BENCH_scale.json` — the scale companion of `BENCH_baseline.json`.
//!
//! ```text
//! cargo run --release -p stretch-experiments --bin repro_scale
//! STRETCH_SCALE_SMOKE=1 cargo run --release -p stretch-experiments --bin repro_scale
//! ```
//!
//! Each rung records the median of passes repeated until they add up to
//! about one second (one pass for rungs longer than that).
//! `STRETCH_SCALE_SMOKE=1` selects the CI-sized study (seconds, not
//! minutes, one pass per rung) and **does not write the file** — smoke
//! rungs are measured at tiny sizes and would pollute the recorded
//! trajectory.  The output file
//! format is the flat `"section/name" → value` map shared with the
//! baseline, so trajectories diff with the same tooling.

use std::path::Path;
use stretch_experiments::campaign::read_env;
use stretch_experiments::scale::{render, run_scale_study, write_bench_scale, ScaleSettings};

fn main() {
    let smoke = read_env("STRETCH_SCALE_SMOKE", false, |name, raw| match raw.trim() {
        "1" | "true" => true,
        "0" | "false" | "" => false,
        _ => panic!("{name} must be 0 or 1, got `{raw}`"),
    });
    let settings = if smoke {
        ScaleSettings::smoke()
    } else {
        ScaleSettings::default()
    };
    eprintln!(
        "Scale study: sizes {:?}, threads {:?}, {} instances per rung, median pass over >= {} s",
        settings.job_sizes,
        settings.thread_counts,
        settings.instances_per_point,
        settings.min_rung_seconds
    );
    let points = run_scale_study(&settings);
    print!("{}", render(&points));
    if smoke {
        eprintln!("Smoke study: trajectory NOT written (rungs are smoke-sized)");
        return;
    }
    let path = Path::new("BENCH_scale.json");
    match write_bench_scale(path, &points) {
        Ok(()) => eprintln!("Trajectory merged into {}", path.display()),
        Err(e) => eprintln!("Could not write {}: {e}", path.display()),
    }
}
