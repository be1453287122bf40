//! The `online-*` workloads: batches of drawn instances, each scheduled by
//! the on-line heuristic, one after another on one thread.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

use stretch_core::deadline::{certified_slack, DeadlineProblem, PendingJob};
use stretch_core::online::run_online_with;
use stretch_core::plan::{execute_sequences, site_sequences, PieceOrdering};
use stretch_core::{
    OnlineScheduler, OnlineVariant, ParametricDeadlineSolver, ScheduleError, Scheduler, SiteView,
    SolverConfig,
};
use stretch_experiments::campaign::instance_seed;
use stretch_experiments::runner::{draw_instance_scaled, InstanceScale};
use stretch_experiments::ExperimentConfig;
use stretch_workload::{Instance, Scenario};

use crate::outcome::Quality;
use crate::stats::{median, quantile};
use crate::trace::Tracer;
use crate::{serve, Args, Report};

/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 21;

/// The shape of one workload's instances.
pub struct Shape {
    /// Platform and load of every instance.
    pub config: ExperimentConfig,
    /// Expected jobs per instance.
    pub target_jobs: usize,
    /// Grid index given to `instance_seed`, so workloads draw apart.
    pub config_index: usize,
    /// Batch instances per second of `--seconds`: one pass over the batch
    /// takes about `--seconds` on a 2-core x86-64 VM.
    pub instances_per_second: f64,
    /// The pool's entries, from the cheapest to the costliest to schedule
    /// (`perfbench/pools/`, see the README).  Entries on which the program
    /// fails are not listed, so that the workload itself never fails.
    pub order: &'static str,
}

/// Base seed of the pools: entry `i` of a workload's pool is the instance
/// drawn with `instance_seed(POOL_SEED, config_index, i)`.
const POOL_SEED: u64 = 2006;

/// Three sites and three databanks above full load, each databank on few
/// sites: the pending set grows with every arrival, and the Newton min-cut
/// probes take more of the decision time than the System-(2) solve (55%
/// against 45% over the whole pool).
pub const OVERLOAD: Shape = Shape {
    config: ExperimentConfig {
        sites: 3,
        databanks: 3,
        availability: 0.3,
        density: 1.2,
        scenario: Scenario::Steady,
    },
    target_jobs: 120,
    config_index: 0,
    instances_per_second: 2.6,
    order: include_str!("../pools/online-overload.txt"),
};

/// Ten sites and ten databanks: many bins per epochal interval, so the
/// System-(2) min-cost solve dominates.
pub const WIDE: Shape = Shape {
    config: ExperimentConfig {
        sites: 10,
        databanks: 10,
        availability: 0.6,
        density: 0.75,
        scenario: Scenario::Steady,
    },
    target_jobs: 30,
    config_index: 1,
    instances_per_second: 10.0,
    order: include_str!("../pools/online-wide.txt"),
};

/// Draws one instance of `config`.
pub fn draw(config: &ExperimentConfig, target_jobs: usize, seed: u64) -> Instance {
    draw_instance_scaled(config, InstanceScale::TargetJobs(target_jobs), seed)
}

/// Instance seed of entry `index` of the pool of grid index `config_index`.
pub fn pool_seed(config_index: usize, index: usize) -> u64 {
    instance_seed(POOL_SEED, config_index, index)
}

/// The entries of a pool list (`perfbench/pools/`), in the list's order.
fn entries(list: &str) -> Vec<usize> {
    list.split_whitespace()
        .map(|entry| entry.parse().expect("pool files list entry indices"))
        .collect()
}

/// The `count` entries of a pool list that the run seed picks, as a
/// stratified sample: the list, cheapest entry first, is cut into `count`
/// strata of equal size, and the seed picks one entry of each.
/// Per-instance cost is heavy-tailed, so every batch holding the pool's mix
/// of cheap and costly instances is what keeps the batch's total cost
/// steady from seed to seed.
pub fn pick(list: &str, config_index: usize, seed: u64, count: usize) -> Vec<usize> {
    let entries = entries(list);
    let count = count.min(entries.len());
    (0..count)
        .map(|k| {
            entries[k * entries.len() / count..(k + 1) * entries.len() / count]
                .iter()
                .copied()
                .min_by_key(|&i| instance_seed(seed, config_index, i))
                .expect("strata are nonempty")
        })
        .collect()
}

/// Runs an `online-*` workload.
pub fn run(shape: &Shape, args: &Args, work: &Path, trace_path: &Path) -> Result<Report, String> {
    let count = (shape.instances_per_second * args.seconds).round().max(1.0) as usize;
    let target_jobs = if args.smoke { 8 } else { shape.target_jobs };
    let draw_one = |seed: u64| draw(&shape.config, target_jobs, seed);
    // Which instances the seed picks is settled once, outside the set-up
    // timing: set-up is drawing the batch the program is given.
    let seeds: Vec<u64> = if args.smoke {
        (0..2)
            .map(|i| instance_seed(args.seed, shape.config_index, i))
            .collect()
    } else {
        pick(shape.order, shape.config_index, args.seed, count)
            .into_iter()
            .map(|i| pool_seed(shape.config_index, i))
            .collect()
    };
    let mut report = Report::default();
    let describe = |instances: usize, jobs: usize| {
        format!(
            "batch: {instances} instances, {jobs} jobs, {} sites x {} databanks, availability {}, density {}",
            shape.config.sites,
            shape.config.databanks,
            shape.config.availability,
            shape.config.density
        )
    };
    if args.trace {
        // The traced run times every instance of the batch twice (untraced,
        // then traced), so it takes about twice as long as an untraced run.
        // Per-instance layer shares are heavy-tailed, and half the batch
        // left the split to a few costly instances.
        let batch: Vec<Instance> = seeds.iter().map(|&s| draw_one(s)).collect();
        let jobs = batch.iter().map(Instance::num_jobs).sum();
        report.info.push(describe(batch.len(), jobs));
        traced(&batch, work, trace_path, &mut report)?;
        return Ok(report);
    }
    let (setup, jobs) = untraced(&seeds, draw_one, &mut report);
    report.info.push(describe(seeds.len(), jobs));
    report.metric("setup_s", median(&setup), "s");
    Ok(report)
}

/// Set-up: draws the batch the program is given and returns the wall time
/// and the jobs drawn.  Each instance is dropped once drawn: holding the
/// batch would set the peak memory instead of the program.
fn set_up(seeds: &[u64], draw_one: &impl Fn(u64) -> Instance) -> (f64, usize) {
    let start = Instant::now();
    let jobs = seeds.iter().map(|&s| draw_one(s).num_jobs()).sum();
    (start.elapsed().as_secs_f64(), jobs)
}

/// The end-to-end pass: `OnlineScheduler::schedule` on every instance.
/// Each instance is drawn just before it is scheduled, outside the timing,
/// so peak memory is the program's and not the whole batch's.  Returns the
/// set-up times and the jobs of the batch.
fn untraced(
    seeds: &[u64],
    draw_one: impl Fn(u64) -> Instance,
    report: &mut Report,
) -> (Vec<f64>, usize) {
    let scheduler = OnlineScheduler::online();
    let mut wall = 0.0;
    let mut quality = Quality::default();
    // The set-ups are timed between instances, spread over the whole pass:
    // timed in one block, a slowdown of the host as short as the block
    // moved all of them, and one batch read 3 ms or 5 ms.
    let stride = seeds.len().div_ceil(SETUP_REPS);
    let (mut setup, mut jobs) = (Vec::with_capacity(SETUP_REPS), 0);
    for (i, &seed) in seeds.iter().enumerate() {
        if i % stride == 0 {
            let (seconds, drawn) = set_up(seeds, &draw_one);
            setup.push(seconds);
            jobs = drawn;
        }
        let instance = &draw_one(seed);
        let start = Instant::now();
        // A panic inside the program is a failed instance, not a lost run.
        let result = catch_unwind(AssertUnwindSafe(|| {
            scheduler.schedule(std::hint::black_box(instance))
        }));
        wall += start.elapsed().as_secs_f64();
        let outcome = match result {
            Ok(Ok(r)) => {
                let completions: Vec<f64> = r.outcomes.iter().map(|o| o.completion).collect();
                quality.add(instance, &completions)
            }
            Ok(Err(e)) => Err(format!("schedule failed: {e}")),
            Err(_) => Err("schedule panicked".to_string()),
        };
        if let Err(why) = outcome {
            report.fail(1, format!("instance {i}: {why}"));
        }
    }
    report.attempted = seeds.len() as u64;
    report.metric("jobs_per_s", quality.jobs() as f64 / wall, "jobs/s");
    quality.print(report);
    (setup, jobs)
}

/// Per-decision work counts of the traced replay.
#[derive(Default)]
pub struct Counters {
    decisions: u64,
    pending_total: u64,
    pending_max: u64,
    bins_total: u64,
    pieces_total: u64,
    splices: u64,
    rebuilds: u64,
}

/// `run_online_with(instance, OnlineVariant::Online, config)`, replayed
/// through the same public calls with a span around each: one
/// `online.decision` span per event, its children `deadline.build`
/// (pending set plus `DeadlineProblem::new`), `parametric.min_stretch`,
/// `mincost.alloc`, `plan.serialise` and `plan.execute` (execution plus
/// the remaining-work fold).
pub fn replay(
    instance: &Instance,
    config: SolverConfig,
    tracer: &mut Tracer,
    counters: &mut Counters,
) -> Result<Vec<f64>, ScheduleError> {
    let n = instance.num_jobs();
    let sites = SiteView::of(instance);
    let mut remaining: Vec<f64> = instance.jobs.iter().map(|j| j.work).collect();
    let mut completions = vec![f64::NAN; n];
    if n == 0 {
        return Ok(completions);
    }
    let mut solver = ParametricDeadlineSolver::with_config(config);
    let mut events: Vec<f64> = instance.jobs.iter().map(|j| j.release).collect();
    events.sort_by(|a, b| a.total_cmp(b));
    events.dedup_by(|a, b| (*a - *b).abs() <= 1e-12);

    let mut decide_all = || -> Result<(), ScheduleError> {
        for (e, &now) in events.iter().enumerate() {
            let horizon = events.get(e + 1).copied().unwrap_or(f64::INFINITY);
            let id = counters.decisions;
            let decision = tracer.open(id, None, "online.decision");
            let problem = tracer.span(id, Some(decision), "deadline.build", || {
                let pending: Vec<PendingJob> = instance
                    .jobs
                    .iter()
                    .filter(|j| j.release <= now + 1e-12 && remaining[j.id] > 1e-9)
                    .map(|j| PendingJob {
                        job_id: j.id,
                        release: j.release,
                        ready: now,
                        work: j.work,
                        remaining: remaining[j.id],
                        databank: j.databank,
                    })
                    .collect();
                (!pending.is_empty()).then(|| DeadlineProblem::new(pending, sites.clone(), now))
            });
            let Some(problem) = problem else {
                tracer.close(decision);
                continue;
            };
            let best = tracer.span(id, Some(decision), "parametric.min_stretch", || {
                solver.min_feasible_stretch(&problem)
            });
            let best = best.ok_or_else(|| {
                ScheduleError::Unschedulable("no finite max-stretch achievable on-line".into())
            })?;
            let slack = certified_slack(best);
            let plan = tracer.span(id, Some(decision), "mincost.alloc", || {
                solver.system2_allocation(&problem, slack)
            });
            let plan = plan.ok_or_else(|| {
                ScheduleError::Optimisation(
                    "System (2) infeasible at the optimal max-stretch".into(),
                )
            })?;
            let sequences = tracer.span(id, Some(decision), "plan.serialise", || {
                site_sequences(&problem, &plan, PieceOrdering::Online)
            });
            tracer.span(id, Some(decision), "plan.execute", || {
                let execution = execute_sequences(&problem, &sequences, now, horizon);
                for (pending_idx, job) in problem.jobs.iter().enumerate() {
                    remaining[job.job_id] =
                        (remaining[job.job_id] - execution.executed[pending_idx]).max(0.0);
                    if let Some(&c) = execution.completions.get(&pending_idx) {
                        remaining[job.job_id] = 0.0;
                        completions[job.job_id] = c;
                    }
                }
            });
            tracer.close(decision);
            let pending = problem.jobs.len() as u64;
            counters.decisions += 1;
            counters.pending_total += pending;
            counters.pending_max = counters.pending_max.max(pending);
            counters.bins_total += (plan.intervals.len() * problem.sites.len()) as u64;
            counters.pieces_total += plan.pieces.len() as u64;
        }
        Ok(())
    };
    let outcome = decide_all();
    if let Some(stats) = solver.incremental_stats() {
        counters.splices += stats.splices;
        counters.rebuilds += stats.rebuilds;
    }
    outcome?;
    if completions.iter().any(|c| c.is_nan()) {
        return Err(ScheduleError::Simulation(
            "some job never completed under the on-line heuristic".into(),
        ));
    }
    Ok(completions)
}

fn same_bits(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// What the traced online pass measured over a set of instances.
pub struct OnlineLayers {
    pub tracer: Tracer,
    pub counters: Counters,
    pub untraced_s: f64,
    pub traced_s: f64,
    pub matches: bool,
    /// `run_online_with`'s result per instance.
    pub expected: Vec<Result<Vec<f64>, ScheduleError>>,
}

/// Runs every instance twice: untraced through `run_online_with`, then
/// through [`replay`], checking the two agree bit for bit.
pub fn trace_layers(instances: &[Instance]) -> OnlineLayers {
    let config = SolverConfig::default();
    let mut layers = OnlineLayers {
        tracer: Tracer::new(),
        counters: Counters::default(),
        untraced_s: 0.0,
        traced_s: 0.0,
        matches: true,
        expected: Vec::with_capacity(instances.len()),
    };
    for instance in instances {
        let start = Instant::now();
        let expected = run_online_with(instance, OnlineVariant::Online, config);
        layers.untraced_s += start.elapsed().as_secs_f64();
        let start = Instant::now();
        let replayed = replay(instance, config, &mut layers.tracer, &mut layers.counters);
        layers.traced_s += start.elapsed().as_secs_f64();
        layers.matches &= match (&expected, &replayed) {
            (Ok(a), Ok(b)) => same_bits(a, b),
            (Err(a), Err(b)) => a == b,
            _ => false,
        };
        layers.expected.push(expected);
    }
    layers
}

impl OnlineLayers {
    /// Adds the online per-layer metrics to `report`.
    pub fn report(&self, report: &mut Report) {
        let own = self.tracer.self_seconds();
        let total = |name: &str| own.get(name).copied().unwrap_or(0.0);
        let ms = |name: &str, q: f64| quantile(&self.tracer.durations(name), q) * 1e3;
        let c = &self.counters;
        let decisions = c.decisions.max(1) as f64;
        report.metric("deadline.build_s", total("deadline.build"), "s");
        report.metric(
            "parametric.min_stretch_s",
            total("parametric.min_stretch"),
            "s",
        );
        report.metric(
            "parametric.min_stretch_ms_p99",
            ms("parametric.min_stretch", 0.99),
            "ms",
        );
        report.metric("mincost.alloc_s", total("mincost.alloc"), "s");
        report.metric("mincost.alloc_ms_p99", ms("mincost.alloc", 0.99), "ms");
        report.metric("plan.serialise_s", total("plan.serialise"), "s");
        report.metric("plan.execute_s", total("plan.execute"), "s");
        report.metric("online.self_s", total("online.decision"), "s");
        report.metric("online.decisions", c.decisions as f64, "count");
        report.metric("online.decision_ms_p50", ms("online.decision", 0.5), "ms");
        report.metric("online.decision_ms_p99", ms("online.decision", 0.99), "ms");
        report.metric(
            "deadline.pending_mean",
            c.pending_total as f64 / decisions,
            "jobs",
        );
        report.metric("deadline.pending_max", c.pending_max as f64, "jobs");
        report.metric(
            "mincost.bins_mean",
            c.bins_total as f64 / decisions,
            "count",
        );
        report.metric(
            "mincost.pieces_mean",
            c.pieces_total as f64 / decisions,
            "count",
        );
        report.metric("delta.splices", c.splices as f64, "count");
        report.metric("delta.rebuilds", c.rebuilds as f64, "count");
        let events = (c.splices + c.rebuilds).max(1) as f64;
        report.metric("delta.splice_share", c.splices as f64 / events, "fraction");
        report.metric(
            "trace.overhead",
            self.traced_s / self.untraced_s - 1.0,
            "fraction",
        );
        report.metric(
            "trace.matches_program",
            f64::from(u8::from(self.matches)),
            "flag",
        );
        if !self.matches {
            report.fail(1, "traced replay diverged from run_online_with".into());
        }
    }
}

/// The traced run: the per-layer split over the batch, then the serve
/// layers on one of its instances as a stream.
fn traced(
    batch: &[Instance],
    work: &Path,
    trace_path: &Path,
    report: &mut Report,
) -> Result<(), String> {
    let mut layers = trace_layers(batch);
    let mut quality = Quality::default();
    for (i, (instance, expected)) in batch.iter().zip(&layers.expected).enumerate() {
        let outcome = match expected {
            Ok(completions) => quality.add(instance, completions),
            Err(e) => Err(format!("run_online_with failed: {e}")),
        };
        if let Err(why) = outcome {
            report.fail(1, format!("instance {i}: {why}"));
        }
    }
    report.attempted = batch.len() as u64;
    layers.report(report);
    // The batch runs from the cheapest stratum to the costliest: stream the
    // middle one through the service.
    let middle = batch.len() / 2;
    let expected = layers.expected[middle].as_ref().ok().cloned();
    serve::traced_layer(
        &batch[middle],
        expected.as_deref(),
        work,
        &mut layers.tracer,
        report,
    )?;
    quality.trace(report);
    layers
        .tracer
        .write_tsv(trace_path)
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
    report.info.push(format!("spans: {}", trace_path.display()));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pools_list_distinct_entries() {
        // (list, entries drawn, entries the list must keep at least)
        for (list, drawn, kept) in [
            (OVERLOAD.order, 2000, 1900),
            (WIDE.order, 2000, 1900),
            (serve::STREAMS, 160, 40),
        ] {
            let mut entries = entries(list);
            let listed = entries.len();
            entries.sort_unstable();
            entries.dedup();
            assert_eq!(entries.len(), listed, "an entry is listed twice");
            assert!(listed >= kept && entries[listed - 1] < drawn);
        }
    }

    #[test]
    fn seeds_pick_one_entry_per_stratum() {
        let a = pick(OVERLOAD.order, 0, 2006, 250);
        let b = pick(OVERLOAD.order, 0, 4242, 250);
        assert_eq!(a.len(), 250);
        assert_eq!(a, pick(OVERLOAD.order, 0, 2006, 250));
        assert_ne!(a, b);
    }
}
