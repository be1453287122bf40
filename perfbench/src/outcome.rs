//! Output checks and schedule quality.

use stretch_core::ScheduleResult;
use stretch_workload::Instance;

use crate::Report;

/// Relative slack on the physical lower bound of a job's flow time: the
/// executor declares a job complete with up to a millionth of its work
/// still unshipped.
const FLOW_RTOL: f64 = 1e-4;

/// Checks one instance's completions: one per job, each finite, at or after
/// the job's release, and no earlier than the job could have finished alone
/// on every site hosting its databank.
pub fn check(instance: &Instance, completions: &[f64]) -> Result<(), String> {
    if completions.len() != instance.num_jobs() {
        return Err(format!(
            "{} completions for {} jobs",
            completions.len(),
            instance.num_jobs()
        ));
    }
    for (job, &completion) in instance.jobs.iter().zip(completions) {
        if !completion.is_finite() {
            return Err(format!("job {} never completed", job.id));
        }
        if completion < job.release - 1e-9 {
            return Err(format!(
                "job {} completed at {completion} before its release {}",
                job.id, job.release
            ));
        }
        let fastest = job.work / instance.platform.aggregate_speed_for(job.databank);
        if completion - job.release < fastest * (1.0 - FLOW_RTOL) {
            return Err(format!(
                "job {} ran in {} s, faster than its {fastest} s alone on its eligible sites",
                job.id,
                completion - job.release
            ));
        }
    }
    Ok(())
}

/// Schedule quality pooled over the instances of a run.
#[derive(Default)]
pub struct Quality {
    max_stretch: Vec<f64>,
    sum_stretch: Vec<f64>,
    slowdown_total: f64,
    jobs: u64,
}

impl Quality {
    /// Checks `completions` and, when they pass, folds them in.
    /// `ScheduleResult::from_completions` panics on a NaN completion, so it
    /// only ever sees checked completions.
    pub fn add(&mut self, instance: &Instance, completions: &[f64]) -> Result<(), String> {
        check(instance, completions)?;
        let result = ScheduleResult::from_completions("checked", instance, completions);
        self.max_stretch.push(result.metrics.max_stretch);
        self.sum_stretch.push(result.metrics.sum_stretch);
        for (job, &completion) in instance.jobs.iter().zip(completions) {
            let fastest = job.work / instance.platform.aggregate_speed_for(job.databank);
            self.slowdown_total += (completion - job.release) / fastest;
        }
        self.jobs += instance.num_jobs() as u64;
        Ok(())
    }

    /// Mean over instances of `ScheduleMetrics::max_stretch`.
    pub fn max_stretch(&self) -> f64 {
        crate::stats::mean(&self.max_stretch)
    }

    /// Mean over instances of `ScheduleMetrics::sum_stretch`.
    pub fn sum_stretch(&self) -> f64 {
        crate::stats::mean(&self.sum_stretch)
    }

    /// Mean over every job of its flow time divided by the time it would
    /// take alone on the sites hosting its databank.
    pub fn slowdown_mean(&self) -> f64 {
        if self.jobs == 0 {
            0.0
        } else {
            self.slowdown_total / self.jobs as f64
        }
    }

    /// Jobs folded in.
    pub fn jobs(&self) -> u64 {
        self.jobs
    }

    /// Prints the quality metrics and the error share above the JSON
    /// result.  They are fixed by the seed's inputs, and on `serve-light`
    /// one stream's platform moves them by a factor of up to four from
    /// seed to seed, so no bound on their spread could hold.
    pub fn print(&self, report: &mut Report) {
        report.print_only("max_stretch", self.max_stretch(), "x");
        report.print_only("sum_stretch", self.sum_stretch(), "x");
        report.print_only("slowdown_mean", self.slowdown_mean(), "x");
        report.print_only(
            "error_share",
            report.failed as f64 / report.attempted.max(1) as f64,
            "fraction",
        );
    }

    /// Adds the quality metrics and the error share to a traced run.
    pub fn trace(&self, report: &mut Report) {
        report.metric("quality.max_stretch", self.max_stretch(), "x");
        report.metric("quality.sum_stretch", self.sum_stretch(), "x");
        report.metric("quality.slowdown_mean", self.slowdown_mean(), "x");
        report.metric(
            "check.error_share",
            report.failed as f64 / report.attempted.max(1) as f64,
            "fraction",
        );
    }
}
