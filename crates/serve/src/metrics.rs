//! Live service counters.
//!
//! Metrics are observational only: they are *not* part of the replayed
//! state, do not enter the state digest, and recovery rebuilds only the
//! replay-derived ones (`replayed_records`, decision tallies).  Solve-latency
//! quantiles reuse the streaming [`P2Quantile`] sketch from
//! `stretch-metrics` — constant memory, no sample buffer.

use stretch_metrics::P2Quantile;

use crate::event::SolveTier;

/// Counter block of a running [`crate::StretchServe`].
#[derive(Clone, Debug)]
pub struct ServeMetrics {
    /// Submissions offered to the service (accepted + rejected).
    pub submitted: u64,
    /// Submissions validated, journaled and staged.
    pub accepted: u64,
    /// Submissions rejected into the dead-letter queue.
    pub dead_lettered: u64,
    /// Scheduling decisions taken (all tiers).
    pub decisions: u64,
    /// Decisions per tier, indexed by [`SolveTier::code`].
    pub decisions_by_tier: [u64; 4],
    /// Ladder rungs skipped past (solve failure, chaos injection or budget
    /// timeout on a non-final tier).
    pub fallbacks: u64,
    /// Decisions whose winning solve still exceeded its budget.
    pub budget_busts: u64,
    /// Times the circuit breaker tripped open.
    pub breaker_opens: u64,
    /// Decisions shed to EDF while the breaker was open.
    pub shed_decisions: u64,
    /// Journal records replayed during recovery.
    pub replayed_records: u64,
    /// Bytes of torn tail truncated during recovery.
    pub torn_bytes_truncated: u64,
    solve_p50: P2Quantile,
    solve_p99: P2Quantile,
}

impl ServeMetrics {
    /// Fresh, all-zero counters.
    pub fn new() -> Self {
        ServeMetrics {
            submitted: 0,
            accepted: 0,
            dead_lettered: 0,
            decisions: 0,
            decisions_by_tier: [0; 4],
            fallbacks: 0,
            budget_busts: 0,
            breaker_opens: 0,
            shed_decisions: 0,
            replayed_records: 0,
            torn_bytes_truncated: 0,
            solve_p50: P2Quantile::new(0.5),
            solve_p99: P2Quantile::new(0.99),
        }
    }

    /// Folds one decision into the tallies.
    pub fn observe_decision(&mut self, tier: SolveTier, solve_seconds: f64) {
        self.decisions += 1;
        self.decisions_by_tier[tier.code() as usize] += 1;
        self.solve_p50.observe(solve_seconds);
        self.solve_p99.observe(solve_seconds);
    }

    /// Median solve latency (seconds), if any decision was observed.
    pub fn solve_p50(&self) -> Option<f64> {
        self.solve_p50.value()
    }

    /// 99th-percentile solve latency (seconds), if any decision was observed.
    pub fn solve_p99(&self) -> Option<f64> {
        self.solve_p99.value()
    }

    /// Number of latency samples folded in.
    pub fn solve_samples(&self) -> usize {
        self.solve_p50.count()
    }

    /// One-line operator summary (for logs and the `repro_serve` bin).
    pub fn render(&self, queue_depth: usize) -> String {
        format!(
            "submitted={} accepted={} dead_lettered={} decisions={} \
             tiers[monge/simplex/pd/edf]={}/{}/{}/{} fallbacks={} busts={} \
             breaker_opens={} shed={} replayed={} queue_depth={} \
             solve_p50={} solve_p99={}",
            self.submitted,
            self.accepted,
            self.dead_lettered,
            self.decisions,
            self.decisions_by_tier[0],
            self.decisions_by_tier[1],
            self.decisions_by_tier[2],
            self.decisions_by_tier[3],
            self.fallbacks,
            self.budget_busts,
            self.breaker_opens,
            self.shed_decisions,
            self.replayed_records,
            queue_depth,
            self.solve_p50()
                .map_or_else(|| "n/a".into(), |v| format!("{v:.6}s")),
            self.solve_p99()
                .map_or_else(|| "n/a".into(), |v| format!("{v:.6}s")),
        )
    }
}

impl Default for ServeMetrics {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decision_tallies_and_quantiles_accumulate() {
        let mut m = ServeMetrics::new();
        for i in 0..100 {
            let tier = if i % 10 == 0 {
                SolveTier::Edf
            } else {
                SolveTier::Simplex
            };
            m.observe_decision(tier, f64::from(i) * 1e-3);
        }
        assert_eq!(m.decisions, 100);
        assert_eq!(m.decisions_by_tier[SolveTier::Simplex.code() as usize], 90);
        assert_eq!(m.decisions_by_tier[SolveTier::Edf.code() as usize], 10);
        let p50 = m.solve_p50().unwrap();
        let p99 = m.solve_p99().unwrap();
        assert!(p50 > 0.02 && p50 < 0.08, "p50 {p50}");
        assert!(p99 > p50, "p99 {p99} <= p50 {p50}");
        assert!(m.render(3).contains("decisions=100"));
    }
}
