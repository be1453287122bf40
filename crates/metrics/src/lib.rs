//! # stretch-metrics
//!
//! Objective functions and statistics for the scheduling experiments.
//!
//! §3 of the paper reviews the candidate objectives — makespan, flow,
//! weighted flow, stretch, in max- and sum- flavours — and argues for
//! max-stretch as the fairness metric of choice.  This crate computes all of
//! them from per-job outcomes, and implements the *degradation* statistics
//! used throughout the evaluation section: each heuristic's metric is divided
//! by the best (or optimal) value observed on the same instance, then
//! aggregated as mean / standard deviation / max over many instances —
//! exactly the columns of Tables 1–16.  The one bounded-memory statistic,
//! the [`P2Quantile`] sketch, serves the serve layer's solve-latency
//! quantiles.

pub mod aggregate;
pub mod baseline;
pub mod objectives;
pub mod outcome;
pub mod streaming;
pub mod table;

pub use aggregate::{AggregateStats, DegradationAccumulator};
pub use objectives::ScheduleMetrics;
pub use outcome::JobOutcome;
pub use streaming::P2Quantile;
pub use table::{MetricsTable, TableRow};
