//! Assembling the paper's tables from campaign observations.
//!
//! Every table of the paper has the same shape: one row per heuristic,
//! `Mean / SD / Max` of the **max-stretch degradation** (the heuristic's
//! max-stretch divided by the off-line optimal max-stretch of the same
//! instance) and of the **sum-stretch degradation** (divided by the best
//! sum-stretch observed on that instance).  Table 1 aggregates all
//! configurations; Tables 2–16 partition the grid by platform size, workload
//! density, number of databanks and database availability.

use crate::heuristics::{HeuristicKind, TABLE1_ORDER};
use crate::runner::InstanceObservation;
use stretch_metrics::{DegradationAccumulator, MetricsTable};
use stretch_platform::reference;

/// The per-instance degradation inputs of one observation: max-stretch
/// values, sum-stretch values (both `INFINITY` for skipped heuristics) and
/// the max-stretch reference (the off-line optimum of the instance, when
/// it ran).
fn degradation_values(obs: &InstanceObservation) -> (Vec<f64>, Vec<f64>, Option<f64>) {
    let max_values: Vec<f64> = obs
        .observations
        .iter()
        .map(|o| o.map(|v| v.max_stretch).unwrap_or(f64::INFINITY))
        .collect();
    let sum_values: Vec<f64> = obs
        .observations
        .iter()
        .map(|o| o.map(|v| v.sum_stretch).unwrap_or(f64::INFINITY))
        .collect();
    let offline = obs.of(HeuristicKind::Offline).map(|o| o.max_stretch);
    (max_values, sum_values, offline)
}

/// Builds the degradation accumulators (max-stretch and sum-stretch) from a
/// set of observations.
fn accumulate(
    observations: &[&InstanceObservation],
) -> (DegradationAccumulator, DegradationAccumulator) {
    let names: Vec<&str> = TABLE1_ORDER.iter().map(|k| k.name()).collect();
    let mut max_acc = DegradationAccumulator::new(&names);
    let mut sum_acc = DegradationAccumulator::new(&names);
    for obs in observations {
        let (max_values, sum_values, offline) = degradation_values(obs);
        // Max-stretch degradation is measured against the off-line optimum;
        // sum-stretch against the best heuristic.
        max_acc.record(&max_values, offline);
        sum_acc.record(&sum_values, None);
    }
    (max_acc, sum_acc)
}

/// Builds one paper-style table from a set of observations.
pub fn build_table(caption: &str, observations: &[&InstanceObservation]) -> MetricsTable {
    let (max_acc, sum_acc) = accumulate(observations);
    let mut table = MetricsTable::new(caption);
    for (k, kind) in TABLE1_ORDER.iter().enumerate() {
        table.push_row(kind.name(), max_acc.stats(k), sum_acc.stats(k));
    }
    table
}

/// Table 1: aggregate statistics over every configuration.
pub fn table1(observations: &[InstanceObservation]) -> MetricsTable {
    let refs: Vec<&InstanceObservation> = observations.iter().collect();
    build_table(
        "Table 1: aggregate statistics over all platform/application configurations",
        &refs,
    )
}

/// One partition of the observation set: label + membership predicate.
type Partition = (String, Box<dyn Fn(&InstanceObservation) -> bool>);

fn partitioned(
    observations: &[InstanceObservation],
    caption: impl Fn(&str) -> String,
    axis_values: Vec<Partition>,
) -> Vec<MetricsTable> {
    axis_values
        .into_iter()
        .map(|(label, pred)| {
            let refs: Vec<&InstanceObservation> = observations.iter().filter(|o| pred(o)).collect();
            build_table(&caption(&label), &refs)
        })
        .collect()
}

/// Tables 2–4: partition by platform size (3, 10, 20 sites).
pub fn tables_by_sites(observations: &[InstanceObservation]) -> Vec<MetricsTable> {
    partitioned(
        observations,
        |v| format!("Tables 2-4: configurations using {v} sites"),
        reference::PLATFORM_SIZES
            .iter()
            .map(|&s| {
                let pred: Box<dyn Fn(&InstanceObservation) -> bool> =
                    Box::new(move |o: &InstanceObservation| o.config.sites == s);
                (s.to_string(), pred)
            })
            .collect(),
    )
}

/// Tables 5–10: partition by workload density.
pub fn tables_by_density(observations: &[InstanceObservation]) -> Vec<MetricsTable> {
    partitioned(
        observations,
        |v| format!("Tables 5-10: configurations with workload density {v}"),
        reference::WORKLOAD_DENSITIES
            .iter()
            .map(|&d| {
                let pred: Box<dyn Fn(&InstanceObservation) -> bool> =
                    Box::new(move |o: &InstanceObservation| (o.config.density - d).abs() < 1e-9);
                (format!("{d:.2}"), pred)
            })
            .collect(),
    )
}

/// Tables 11–13: partition by number of reference databanks.
pub fn tables_by_databases(observations: &[InstanceObservation]) -> Vec<MetricsTable> {
    partitioned(
        observations,
        |v| format!("Tables 11-13: configurations with {v} reference databases"),
        reference::DATABANK_COUNTS
            .iter()
            .map(|&d| {
                let pred: Box<dyn Fn(&InstanceObservation) -> bool> =
                    Box::new(move |o: &InstanceObservation| o.config.databanks == d);
                (d.to_string(), pred)
            })
            .collect(),
    )
}

/// Tables 14–16: partition by database availability.
pub fn tables_by_availability(observations: &[InstanceObservation]) -> Vec<MetricsTable> {
    partitioned(
        observations,
        |v| format!("Tables 14-16: configurations with database availability {v}"),
        reference::AVAILABILITY_LEVELS
            .iter()
            .map(|&a| {
                let pred: Box<dyn Fn(&InstanceObservation) -> bool> =
                    Box::new(move |o: &InstanceObservation| {
                        (o.config.availability - a).abs() < 1e-9
                    });
                (format!("{}%", (a * 100.0) as u32), pred)
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_campaign, CampaignSettings};
    use crate::config::reduced_grid;

    fn sample_observations() -> Vec<InstanceObservation> {
        run_campaign(&reduced_grid(), CampaignSettings::smoke()).observations
    }

    #[test]
    fn table1_has_eleven_rows_with_offline_reference_at_one() {
        let obs = sample_observations();
        let t = table1(&obs);
        assert_eq!(t.rows.len(), 11);
        let offline = t.row("Offline").unwrap().max_stretch.unwrap();
        // The offline optimal is its own reference, so its mean degradation
        // is 1 (tiny numerical slack allowed, cf. the anomaly discussed in
        // §5.3).
        assert!(
            (offline.mean - 1.0).abs() < 5e-3,
            "offline mean {}",
            offline.mean
        );
        // MCT is much worse than the optimal on max-stretch.
        let mct = t.row("MCT").unwrap().max_stretch.unwrap();
        assert!(mct.mean > offline.mean);
    }

    #[test]
    fn partitioned_tables_cover_every_axis_value() {
        let obs = sample_observations();
        assert_eq!(tables_by_sites(&obs).len(), 3);
        assert_eq!(tables_by_density(&obs).len(), 6);
        assert_eq!(tables_by_databases(&obs).len(), 3);
        assert_eq!(tables_by_availability(&obs).len(), 3);
    }

    #[test]
    fn bender98_rows_are_empty_on_partitions_without_small_platforms() {
        let obs = sample_observations();
        let by_sites = tables_by_sites(&obs);
        // The 10-site table (index 1) has no Bender98 data.
        let bender = by_sites[1].row("Bender98").unwrap();
        assert!(bender.max_stretch.is_none());
    }
}
