//! Benchmark of record for the stretch scheduler.
//!
//! ```text
//! bash perfbench/run.sh --workload <online-overload|online-wide|serve-light> \
//!     --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! Three workloads drive the program's public entry points under the
//! default `SolverConfig`:
//!
//! * `online-overload` schedules a batch of overloaded instances on three
//!   sites and three databanks with `OnlineScheduler::schedule`; the Newton
//!   min-cut probes of `min_feasible_stretch` do more of the work than the
//!   System-(2) min-cost solve;
//! * `online-wide` does the same on ten sites and ten databanks, where the
//!   System-(2) min-cost solve does most of the work;
//! * `serve-light` streams one long light-load stream through
//!   `StretchServe::submit` with its journal on disk, crashes, recovers
//!   several times and drains; the journal's syncs do most of the work.
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` times each
//! layer through spans around the benchmark's own calls into it (see
//! [`online::replay`] and [`serve::traced_layer`]).  The last line on
//! stdout is the JSON result; the lines above it name the configuration
//! and print every metric with its unit.  See `perfbench/README.md`.

mod online;
mod outcome;
mod serve;
mod stats;
mod sync;
mod sys;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use stretch_core::SolverConfig;

/// The workload seed used when `--seed` is absent.  Claims are confirmed on
/// the held-out seed 4242, which no change should be tuned on.
const DEFAULT_SEED: u64 = 2006;

const USAGE: &str = "usage: perfbench --workload <online-overload|online-wide|serve-light> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>] [--smoke]";

/// One named measurement with its unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// What a run measured and checked.
#[derive(Default)]
pub struct Report {
    /// Operations attempted (instances, submissions, recoveries).
    pub attempted: u64,
    /// Operations that failed or whose output failed a check.
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// Context printed above the metrics.
    pub info: Vec<String>,
    /// Metrics of the JSON result.
    pub metrics: Vec<Metric>,
    /// Metrics printed above the JSON result only: schedule quality and
    /// peak memory, which the seed's inputs fix, and serve metrics measured
    /// on one workload.
    pub printed: Vec<Metric>,
}

impl Report {
    /// Adds a metric to the JSON result.
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Adds a metric printed above the JSON result only.
    pub fn print_only(&mut self, name: &str, value: f64, unit: &'static str) {
        self.printed.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// Records a failed operation.
    pub fn fail(&mut self, count: u64, why: String) {
        self.failed += count;
        self.failures.push(why);
    }

    fn correct(&self) -> bool {
        self.failed == 0
            && self.failures.is_empty()
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    fn print(&self) {
        for line in &self.info {
            println!("{line}");
        }
        for why in &self.failures {
            println!("FAILED: {why}");
        }
        for m in &self.metrics {
            println!("metric {} = {} {}", m.name, m.value, m.unit);
        }
        for m in &self.printed {
            println!("metric {} = {} {} (report only)", m.name, m.value, m.unit);
        }
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                let value = if m.value.is_finite() { m.value } else { 0.0 };
                format!(
                    "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
            .collect();
        println!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        );
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    OnlineOverload,
    OnlineWide,
    ServeLight,
}

impl Workload {
    fn parse(raw: &str) -> Result<Self, String> {
        match raw {
            "online-overload" => Ok(Workload::OnlineOverload),
            "online-wide" => Ok(Workload::OnlineWide),
            "serve-light" => Ok(Workload::ServeLight),
            other => Err(format!("unknown workload `{other}`")),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::OnlineOverload => "online-overload",
            Workload::OnlineWide => "online-wide",
            Workload::ServeLight => "serve-light",
        }
    }
}

/// Checked command line.
pub struct Args {
    workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Tiny sizes, for the self-test.
    pub smoke: bool,
}

impl Args {
    fn parse(mut raw: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut workload = None;
        let mut args = Args {
            workload: Workload::OnlineOverload,
            seed: DEFAULT_SEED,
            seconds: 20.0,
            trace: false,
            smoke: false,
        };
        while let Some(flag) = raw.next() {
            if flag == "--smoke" {
                args.smoke = true;
                continue;
            }
            let value = raw.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(Workload::parse(&value)?),
                "--seed" => {
                    args.seed = value
                        .parse()
                        .map_err(|_| format!("--seed must be an unsigned integer, got `{value}`"))?
                }
                "--seconds" => {
                    args.seconds = value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| s.is_finite() && *s > 0.0 && *s <= 600.0)
                        .ok_or_else(|| format!("--seconds must be in (0, 600], got `{value}`"))?
                }
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace must be 0 or 1, got `{value}`")),
                    }
                }
                _ => return Err(format!("unknown argument `{flag}`")),
            }
        }
        args.workload = workload.ok_or("--workload is required")?;
        Ok(args)
    }
}

/// The measured configuration is the default one: every `STRETCH_*`
/// variable would change it (or a campaign knob), so none may be set.
fn refuse_configuring_env() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.to_str().map(str::to_string))
        .filter(|k| k.starts_with("STRETCH_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with {} set: the benchmark measures the default configuration",
            set.join(", ")
        ))
    }
}

/// Scratch directory of this run, inside the checkout; removed on exit.
struct WorkDir(PathBuf);

impl WorkDir {
    fn create(root: &Path) -> Result<Self, String> {
        let dir = root.join(format!("run-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
        }
        std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run(args: &Args) -> Result<Report, String> {
    refuse_configuring_env()?;
    let config = SolverConfig::default();
    let root = PathBuf::from(".perfbench");
    let work = WorkDir::create(&root)?;
    let fs_type = sys::filesystem_type(&work.0).map_err(|e| format!("statfs: {e}"))?;
    if sys::is_memory_backed(&fs_type) {
        return Err(format!(
            "{} is on {fs_type}, where sync_data does nothing; run from a disk-backed checkout",
            work.0.display()
        ));
    }
    let trace_path = root.join(format!(
        "trace-{}-seed{}.tsv",
        args.workload.name(),
        args.seed
    ));
    let mut report = match args.workload {
        Workload::OnlineOverload => online::run(&online::OVERLOAD, args, &work.0, &trace_path)?,
        Workload::OnlineWide => online::run(&online::WIDE, args, &work.0, &trace_path)?,
        Workload::ServeLight => serve::run(args, &work.0, &trace_path)?,
    };
    report.info.insert(
        0,
        format!(
            "perfbench workload={} seed={} seconds={} trace={} smoke={}",
            args.workload.name(),
            args.seed,
            args.seconds,
            u8::from(args.trace),
            args.smoke
        ),
    );
    report.info.insert(
        1,
        format!(
            "config: backend={} warm_start={} incremental={} (SolverConfig::default)",
            config.backend.name(),
            config.warm_start,
            config.incremental
        ),
    );
    report.info.insert(
        2,
        format!(
            "host: threads_available={} journal_fs={fs_type}",
            std::thread::available_parallelism().map_or(0, |n| n.get())
        ),
    );
    if !args.trace {
        // Printed, not in the JSON result: the peak follows the costliest
        // instance the seed picks, so it spreads by a fifth between seeds
        // on `online-overload` however long the run.
        report.print_only("peak_rss_mb", sys::peak_rss_mib(), "MiB");
    }
    Ok(report)
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            report.print();
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("perfbench: {msg}");
            ExitCode::from(1)
        }
    }
}
