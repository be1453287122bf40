//! The battery of schedulers evaluated in Table 1.

use stretch_core::{
    Bender98Scheduler, ListScheduler, MctScheduler, OfflineScheduler, OnlineScheduler,
    OnlineVariant, Scheduler, SolverConfig,
};

/// The schedulers of Table 1, identified by name.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum HeuristicKind {
    /// The off-line optimal max-stretch algorithm (§4.3.1).
    Offline,
    /// The `Online` variant of the on-line heuristic.
    Online,
    /// The `Online-EDF` variant.
    OnlineEdf,
    /// The `Online-EGDF` variant.
    OnlineEgdf,
    /// Bender et al. 1998 (off-line optimum at each arrival + EDF, `√Δ`
    /// expansion).
    Bender98,
    /// Shortest weighted remaining processing time.
    Swrpt,
    /// Shortest remaining processing time.
    Srpt,
    /// Shortest processing time.
    Spt,
    /// Bender et al. 2002 pseudo-stretch rule.
    Bender02,
    /// Minimum completion time with divisibility.
    MctDiv,
    /// Minimum completion time (the GriPPS production policy).
    Mct,
}

/// The Table-1 display order.
pub const TABLE1_ORDER: [HeuristicKind; 11] = [
    HeuristicKind::Offline,
    HeuristicKind::Online,
    HeuristicKind::OnlineEdf,
    HeuristicKind::OnlineEgdf,
    HeuristicKind::Bender98,
    HeuristicKind::Swrpt,
    HeuristicKind::Srpt,
    HeuristicKind::Spt,
    HeuristicKind::Bender02,
    HeuristicKind::MctDiv,
    HeuristicKind::Mct,
];

impl HeuristicKind {
    /// Name used in the tables (matches the paper's).
    pub fn name(&self) -> &'static str {
        match self {
            HeuristicKind::Offline => "Offline",
            HeuristicKind::Online => "Online",
            HeuristicKind::OnlineEdf => "Online-EDF",
            HeuristicKind::OnlineEgdf => "Online-EGDF",
            HeuristicKind::Bender98 => "Bender98",
            HeuristicKind::Swrpt => "SWRPT",
            HeuristicKind::Srpt => "SRPT",
            HeuristicKind::Spt => "SPT",
            HeuristicKind::Bender02 => "Bender02",
            HeuristicKind::MctDiv => "MCT-Div",
            HeuristicKind::Mct => "MCT",
        }
    }

    /// Builds the corresponding scheduler with the default [`SolverConfig`].
    pub fn scheduler(&self) -> Box<dyn Scheduler + Send + Sync> {
        self.scheduler_with(SolverConfig::default())
    }

    /// Builds the corresponding scheduler on an explicit solver
    /// configuration (min-cost backend selection for the on-line and
    /// Bender98 heuristics; `Offline`, which runs no min-cost solve, and
    /// the list and greedy rules ignore it).
    pub fn scheduler_with(&self, config: SolverConfig) -> Box<dyn Scheduler + Send + Sync> {
        match self {
            HeuristicKind::Offline => Box::new(OfflineScheduler::new()),
            HeuristicKind::Online => {
                Box::new(OnlineScheduler::with_config(OnlineVariant::Online, config))
            }
            HeuristicKind::OnlineEdf => Box::new(OnlineScheduler::with_config(
                OnlineVariant::OnlineEdf,
                config,
            )),
            HeuristicKind::OnlineEgdf => Box::new(OnlineScheduler::with_config(
                OnlineVariant::OnlineEgdf,
                config,
            )),
            HeuristicKind::Bender98 => Box::new(Bender98Scheduler::with_config(config)),
            HeuristicKind::Swrpt => Box::new(ListScheduler::swrpt()),
            HeuristicKind::Srpt => Box::new(ListScheduler::srpt()),
            HeuristicKind::Spt => Box::new(ListScheduler::spt()),
            HeuristicKind::Bender02 => Box::new(ListScheduler::bender02()),
            HeuristicKind::MctDiv => Box::new(MctScheduler::mct_div()),
            HeuristicKind::Mct => Box::new(MctScheduler::mct()),
        }
    }

    /// The paper only runs Bender98 on 3-cluster platforms because of its
    /// prohibitive overhead (§5.3, footnote 3); the harness follows suit.
    pub fn runs_on(&self, sites: usize) -> bool {
        match self {
            HeuristicKind::Bender98 => sites <= 3,
            _ => true,
        }
    }
}

/// The full battery as `(kind, scheduler)` pairs in Table-1 order.
pub fn heuristic_battery() -> Vec<(HeuristicKind, Box<dyn Scheduler + Send + Sync>)> {
    TABLE1_ORDER.iter().map(|k| (*k, k.scheduler())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn battery_matches_table1() {
        let battery = heuristic_battery();
        assert_eq!(battery.len(), 11);
        assert_eq!(battery[0].1.name(), "Offline");
        assert_eq!(battery[10].1.name(), "MCT");
        for (kind, sched) in &battery {
            assert_eq!(kind.name(), sched.name());
        }
    }

    #[test]
    fn bender98_is_limited_to_small_platforms() {
        assert!(HeuristicKind::Bender98.runs_on(3));
        assert!(!HeuristicKind::Bender98.runs_on(10));
        assert!(HeuristicKind::Mct.runs_on(20));
    }
}
