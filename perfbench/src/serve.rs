//! The `serve-light` workload, and the serve-layer half of every traced run.
//!
//! One closed-loop client calls `StretchServe::submit` back to back with no
//! think time, one job after another in release order.  The stream is then
//! crashed (the service is dropped without `finish`), recovered from its
//! journal several times, and drained with `finish` on the last recovered
//! service.  The journal lives in the benchmark's own directory inside the
//! checkout, which must be disk-backed.

use std::path::Path;
use std::time::Instant;

use stretch_core::online::run_online_with;
use stretch_core::{OnlineVariant, SolverConfig};
use stretch_experiments::ExperimentConfig;
use stretch_serve::journal::scan_dir;
use stretch_serve::{
    RecoveryReport, ServeConfig, ServeMetrics, SolveTier, StretchServe, Submission,
};
use stretch_workload::{Instance, Scenario};

use crate::outcome::Quality;
use crate::stats::{median, quantile};
use crate::trace::Tracer;
use crate::{online, sync, Args, Report};

/// The §5.3 reference platform at a tenth of full load: each solve takes
/// microseconds, so the journal dominates every submission.
const LIGHT: ExperimentConfig = ExperimentConfig {
    sites: 3,
    databanks: 3,
    availability: 0.6,
    density: 0.1,
    scenario: Scenario::Steady,
};

/// Expected submissions of the stream: enough for about twenty journal
/// rotations, each writing a snapshot of every job accepted so far.
const LIGHT_JOBS: usize = 20_000;

/// Grid index of the stream pool.
const LIGHT_INDEX: usize = 2;

/// The streams a run picks from: entry `k` is the stream drawn with
/// `online::pool_seed(LIGHT_INDEX, k)`.  Each listed stream was checked to
/// drain bit-identical to `run_online_with` with every decision at the
/// configured tier, and its draw time lies in the middle quarter of the pool's
/// (see the README).
pub const STREAMS: &str = include_str!("../pools/serve-light.txt");

/// Recoveries of the crashed journal per pass; `recover_ms` is their median.
const RECOVERIES: usize = 5;

/// Passes over the stream are repeated until `--seconds` is spent, at most
/// this many times.
const MAX_PASSES: usize = 64;

/// Set-ups timed before each pass; `setup_s` is their median over the run
/// (about 20 set-ups at `--seconds 20`).
const SETUPS_PER_PASS: usize = 5;

/// The journal directory after the stream, before the crash.
struct JournalStats {
    records: u64,
    seals: u64,
    snapshots: u64,
    bytes: u64,
}

fn journal_stats(dir: &Path, metrics: &ServeMetrics) -> Result<JournalStats, String> {
    let scan = scan_dir(dir).map_err(|e| format!("scan {}: {e}", dir.display()))?;
    let mut bytes = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| format!("list {}: {e}", dir.display()))? {
        let entry = entry.map_err(|e| format!("list {}: {e}", dir.display()))?;
        bytes += entry.metadata().map_err(|e| format!("stat: {e}"))?.len();
    }
    Ok(JournalStats {
        // Every accepted submission and every decision is one record.
        records: metrics.accepted + metrics.decisions,
        // Segments are numbered from 0 and each seal opens the next one.
        seals: scan
            .open
            .unwrap_or_else(|| scan.sealed.last().map_or(0, |s| s + 1)),
        snapshots: scan.snapshots.len() as u64,
        bytes,
    })
}

/// One pass of a stream through the service.
struct Pass {
    /// Latency of each `submit` call, in seconds.
    submit_s: Vec<f64>,
    /// Whether each `submit` call took a scheduling decision.
    decided: Vec<bool>,
    /// Wall time of the submit loop.
    loop_s: f64,
    finish_s: f64,
    recover_s: Vec<f64>,
    rejected: u64,
    digest_mismatches: u64,
    /// Counters of the service before the crash.
    metrics: ServeMetrics,
    jobs_retained: usize,
    journal: JournalStats,
    /// Report of the first recovery.
    recovery: RecoveryReport,
    /// Sync calls the submit loop made.
    syncs: u64,
    /// Completions drained from the last recovered service.
    completions: Vec<f64>,
}

/// Runs `f`, in a span when tracing, and returns its result and wall time.
fn timed<T>(
    tracer: &mut Option<&mut Tracer>,
    id: u64,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    let start = Instant::now();
    let out = match tracer {
        Some(t) => t.span(id, None, name, f),
        None => f(),
    };
    (out, start.elapsed().as_secs_f64())
}

/// Streams `instance` through a fresh service journaling into `dir`,
/// crashes it, recovers `recoveries` times and drains the last recovery.
fn pass(
    instance: &Instance,
    dir: &Path,
    recoveries: usize,
    mut tracer: Option<&mut Tracer>,
) -> Result<Pass, String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let mut serve = StretchServe::create(dir, instance.platform.clone(), ServeConfig::default())
        .map_err(|e| format!("create service: {e}"))?;
    let n = instance.num_jobs();
    let mut submit_s = Vec::with_capacity(n);
    let mut decided = Vec::with_capacity(n);
    let mut rejected = 0;
    let syncs_before = sync::calls();
    let loop_start = Instant::now();
    for (i, job) in instance.jobs.iter().enumerate() {
        let decisions = serve.metrics().decisions;
        let (outcome, seconds) = timed(&mut tracer, i as u64, "serve.submit", || {
            serve.submit(Submission::new(job.release, job.work, job.databank))
        });
        submit_s.push(seconds);
        decided.push(serve.metrics().decisions > decisions);
        match outcome {
            Ok(o) if o.is_accepted() => {}
            Ok(o) => {
                rejected += 1;
                eprintln!("perfbench: job {i} rejected: {o:?}");
            }
            Err(e) => return Err(format!("submit {i}: {e}")),
        }
    }
    let loop_s = loop_start.elapsed().as_secs_f64();
    let syncs = sync::calls() - syncs_before;
    let digest = serve.state_digest();
    let metrics = serve.metrics().clone();
    let jobs_retained = serve.scheduler().jobs().len();
    let (journal, _) = timed(&mut tracer, n as u64, "journal.scan", || {
        journal_stats(dir, &metrics)
    });
    let journal = journal?;
    // The crash: no `finish`, nothing flushed beyond what submit synced.
    drop(serve);

    let mut recover_s = Vec::with_capacity(recoveries);
    let mut digest_mismatches = 0;
    let mut first_report = None;
    let mut last = None;
    for _ in 0..recoveries.max(1) {
        drop(last.take());
        let (recovered, seconds) = timed(&mut tracer, n as u64, "serve.recover", || {
            StretchServe::recover(dir, instance.platform.clone(), ServeConfig::default())
        });
        let (service, report) = recovered.map_err(|e| format!("recover: {e}"))?;
        recover_s.push(seconds);
        if service.state_digest() != digest {
            digest_mismatches += 1;
        }
        first_report.get_or_insert(report);
        last = Some(service);
    }
    let mut service = last.expect("at least one recovery ran");
    let (finished, finish_s) = timed(&mut tracer, n as u64, "serve.finish", || service.finish());
    finished.map_err(|e| format!("finish: {e}"))?;
    Ok(Pass {
        submit_s,
        decided,
        loop_s,
        finish_s,
        recover_s,
        rejected,
        digest_mismatches,
        metrics,
        jobs_retained,
        journal,
        recovery: first_report.expect("at least one recovery ran"),
        syncs,
        completions: service.completions().to_vec(),
    })
}

/// Checks a pass: every submission accepted, every recovery back at the
/// pre-crash digest and accounting for every record, every job completed
/// at drain, bit for bit as `run_online_with` completes it.
fn check(pass: &Pass, expected: Option<&[f64]>, report: &mut Report) {
    report.attempted += (pass.submit_s.len() + pass.recover_s.len()) as u64;
    if pass.rejected > 0 {
        report.fail(
            pass.rejected,
            format!("{} submissions rejected", pass.rejected),
        );
    }
    if pass.digest_mismatches > 0 {
        report.fail(
            pass.digest_mismatches,
            format!(
                "{} recoveries diverged from the pre-crash digest",
                pass.digest_mismatches
            ),
        );
    }
    if pass.recovery.records as u64 != pass.journal.records {
        report.fail(
            1,
            format!(
                "recovery accounted for {} records, the stream wrote {}",
                pass.recovery.records, pass.journal.records
            ),
        );
    }
    let unfinished = pass.completions.iter().filter(|c| c.is_nan()).count() as u64;
    if unfinished > 0 {
        report.fail(
            unfinished,
            format!("{unfinished} jobs not completed at drain"),
        );
    }
    match expected {
        Some(expected) => {
            let differ = pass
                .completions
                .iter()
                .zip(expected)
                .filter(|(a, b)| a.to_bits() != b.to_bits())
                .count() as u64;
            if differ > 0 || pass.completions.len() != expected.len() {
                report.fail(
                    differ.max(1),
                    format!("{differ} drained completions differ from run_online_with"),
                );
            }
        }
        None => report.fail(1, "run_online_with failed on the stream".into()),
    }
}

fn ms(seconds: &[f64], q: f64) -> f64 {
    quantile(seconds, q) * 1e3
}

/// Share of decisions taken below the configured solver tier: ladder
/// fallbacks and EDF sheds.
fn degraded_share(metrics: &ServeMetrics) -> f64 {
    let top = ServeConfig::default().solve_ladder()[0];
    let configured = metrics.decisions_by_tier[top.code() as usize];
    (metrics.decisions - configured) as f64 / metrics.decisions.max(1) as f64
}

/// Streams `instance` through the service twice: with the journal on disk
/// under spans, then with every sync skipped.  Adds the serve per-layer
/// metrics to `report`, checks the disk pass and returns its drained
/// completions.
pub fn traced_layer(
    instance: &Instance,
    expected: Option<&[f64]>,
    work: &Path,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<Vec<f64>, String> {
    let disk = pass(instance, &work.join("disk"), 1, Some(tracer))?;
    let twin = sync::without_sync(|| pass(instance, &work.join("twin"), 1, None))?;
    if disk.syncs == 0 {
        return Err("no sync call went through the benchmark's sync switch".into());
    }
    check(&disk, expected, report);
    let n = disk.submit_s.len();
    let tenth = (n / 10).max(1);
    let m = &disk.metrics;
    report.metric(
        "serve.decide_calls",
        disk.decided.iter().filter(|d| **d).count() as f64,
        "count",
    );
    report.metric("serve.submit_ms_p50", ms(&disk.submit_s, 0.5), "ms");
    report.metric("serve.submit_ms_p99", ms(&disk.submit_s, 0.99), "ms");
    report.metric("serve.submit_samples", n as f64, "count");
    report.metric(
        "serve.submit_ms_p50_first",
        ms(&disk.submit_s[..tenth], 0.5),
        "ms",
    );
    report.metric(
        "serve.submit_ms_p50_last",
        ms(&disk.submit_s[n - tenth..], 0.5),
        "ms",
    );
    report.metric("scheduler.jobs_retained", disk.jobs_retained as f64, "jobs");
    report.metric(
        "serve.solve_ms_p50",
        m.solve_p50().unwrap_or(0.0) * 1e3,
        "ms",
    );
    report.metric(
        "serve.solve_ms_p99",
        m.solve_p99().unwrap_or(0.0) * 1e3,
        "ms",
    );
    for tier in SolveTier::ALL {
        let name = format!("serve.tier.{}", tier.name());
        report.metric(
            &name,
            m.decisions_by_tier[tier.code() as usize] as f64,
            "count",
        );
    }
    report.metric("serve.fallbacks", m.fallbacks as f64, "count");
    report.metric("serve.budget_busts", m.budget_busts as f64, "count");
    report.metric("serve.breaker_opens", m.breaker_opens as f64, "count");
    report.metric("serve.shed", m.shed_decisions as f64, "count");
    report.metric("serve.degraded_share", degraded_share(m), "fraction");
    report.metric(
        "journal.sync_share",
        1.0 - twin.loop_s / disk.loop_s,
        "fraction",
    );
    report.metric("journal.syncs", disk.syncs as f64, "count");
    report.metric("journal.records", disk.journal.records as f64, "count");
    report.metric("journal.seals", disk.journal.seals as f64, "count");
    report.metric("journal.snapshots", disk.journal.snapshots as f64, "count");
    report.metric("journal.bytes", disk.journal.bytes as f64, "bytes");
    report.metric("serve.finish_ms", disk.finish_s * 1e3, "ms");
    report.metric("recover.ms", ms(&disk.recover_s, 0.5), "ms");
    report.metric(
        "recover.snapshot_records",
        disk.recovery.snapshot_records as f64,
        "count",
    );
    report.metric(
        "recover.replayed_records",
        disk.recovery.replayed_records as f64,
        "count",
    );
    Ok(disk.completions)
}

/// Set-up: draws the stream and creates its journal directory and service;
/// returns the wall time.  The service's syncs are skipped: their wait is
/// the disk's, which `jobs_per_s` measures, and it swings with the load
/// other tenants put on the disk.  The service is dropped unused.
fn set_up(draw_stream: &impl Fn() -> Instance, dir: &Path) -> Result<f64, String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("clear setup: {e}"))?;
    }
    let start = Instant::now();
    let instance = draw_stream();
    std::fs::create_dir_all(dir).map_err(|e| format!("create setup: {e}"))?;
    let service = sync::without_sync(|| {
        StretchServe::create(dir, instance.platform.clone(), ServeConfig::default())
    })
    .map_err(|e| format!("create service: {e}"))?;
    let seconds = start.elapsed().as_secs_f64();
    drop(service);
    std::fs::remove_dir_all(dir).map_err(|e| format!("clear setup: {e}"))?;
    Ok(seconds)
}

/// Runs `serve-light`.
pub fn run(args: &Args, work: &Path, trace_path: &Path) -> Result<Report, String> {
    let target_jobs = if args.smoke { 200 } else { LIGHT_JOBS };
    let entry = online::pick(STREAMS, LIGHT_INDEX, args.seed, 1)[0];
    let draw_stream = || online::draw(&LIGHT, target_jobs, online::pool_seed(LIGHT_INDEX, entry));
    let mut report = Report::default();
    let describe = |instance: &Instance| {
        format!(
            "stream: pool entry {entry}, {} submissions, {} sites x {} databanks, availability {}, density {}",
            instance.num_jobs(),
            LIGHT.sites,
            LIGHT.databanks,
            LIGHT.availability,
            LIGHT.density
        )
    };
    let instance = draw_stream();
    report.info.push(describe(&instance));
    if args.trace {
        let mut layers = online::trace_layers(std::slice::from_ref(&instance));
        layers.report(&mut report);
        let expected = layers.expected[0].as_ref().ok().cloned();
        let drained = traced_layer(
            &instance,
            expected.as_deref(),
            work,
            &mut layers.tracer,
            &mut report,
        )?;
        let mut quality = Quality::default();
        if let Err(why) = quality.add(&instance, &drained) {
            report.fail(1, why);
        }
        quality.trace(&mut report);
        layers
            .tracer
            .write_tsv(trace_path)
            .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
        report.info.push(format!("spans: {}", trace_path.display()));
        return Ok(report);
    }

    // The reference the drained completions must equal, outside the timing.
    let expected = run_online_with(&instance, OnlineVariant::Online, SolverConfig::default()).ok();
    // Only per-pass summaries are kept, so memory does not grow with the
    // number of passes.
    let start = Instant::now();
    let mut quality = Quality::default();
    let mut degraded = 0.0;
    let (mut rates, mut p50s, mut p99s, mut recover_s) = (vec![], vec![], vec![], vec![]);
    let mut samples = 0;
    let mut setup = Vec::new();
    while rates.len() < MAX_PASSES {
        // The set-ups are timed before each pass, so they spread over the
        // run as on the online workloads.
        for _ in 0..SETUPS_PER_PASS {
            setup.push(set_up(&draw_stream, &work.join("setup"))?);
        }
        let p = match pass(&instance, &work.join("serve"), RECOVERIES, None) {
            Ok(p) => p,
            Err(why) => {
                report.attempted += instance.num_jobs() as u64;
                report.fail(instance.num_jobs() as u64, why);
                break;
            }
        };
        check(&p, expected.as_deref(), &mut report);
        if rates.is_empty() {
            if let Err(why) = quality.add(&instance, &p.completions) {
                report.fail(1, why);
            }
            degraded = degraded_share(&p.metrics);
        }
        let accepted = p.submit_s.len() as u64 - p.rejected;
        rates.push(accepted as f64 / (p.loop_s + p.finish_s));
        p50s.push(ms(&p.submit_s, 0.5));
        p99s.push(ms(&p.submit_s, 0.99));
        samples += p.submit_s.len();
        recover_s.extend_from_slice(&p.recover_s);
        if args.smoke || start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    report.info.push(format!(
        "passes: {} (submit loop, crash, {RECOVERIES} recoveries, drain)",
        rates.len()
    ));
    report.metric("setup_s", median(&setup), "s");
    report.metric("jobs_per_s", median(&rates), "jobs/s");
    report.print_only("submit_ms_p50", median(&p50s), "ms");
    report.print_only("submit_ms_p99", median(&p99s), "ms");
    report.print_only("submit_samples", samples as f64, "count");
    report.print_only("recover_ms", ms(&recover_s, 0.5), "ms");
    report.print_only("degraded_share", degraded, "fraction");
    quality.print(&mut report);
    Ok(report)
}
