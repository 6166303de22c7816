//! Churn generation: schedules of node crashes, recoveries, and graceful
//! withdrawals.
//!
//! The paper (§4.4) distinguishes nodes that "disappear gracefully, in which
//! case they will publish events warning of their imminent withdrawal" from
//! those that vanish "without warning". [`ChurnModel`] produces both kinds;
//! the world executes crashes/recoveries directly, while graceful leaves are
//! surfaced to the protocol layer so it can publish withdrawal events first.

use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use crate::topology::NodeIndex;

/// What happens to a node at a churn instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChurnKind {
    /// Abrupt failure with no warning.
    Crash,
    /// The node returns to service.
    Recover,
    /// The node announces imminent withdrawal, then (shortly after) leaves.
    GracefulLeave,
}

/// One scheduled churn instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChurnEvent {
    /// When it happens.
    pub at: SimTime,
    /// The node affected.
    pub node: NodeIndex,
    /// What happens.
    pub kind: ChurnKind,
}

/// Exponential up/down churn: nodes stay up for ~`mtbf`, down for ~`mttr`.
#[derive(Debug, Clone, PartialEq)]
pub struct ChurnModel {
    /// Mean time between failures (mean up-time).
    pub mtbf: SimDuration,
    /// Mean time to recovery (mean down-time).
    pub mttr: SimDuration,
    /// Fraction of departures that are graceful (announced) rather than
    /// abrupt crashes.
    pub graceful_fraction: f64,
}

impl ChurnModel {
    /// A model with the given mean up and down times and no graceful leaves.
    pub fn new(mtbf: SimDuration, mttr: SimDuration) -> Self {
        ChurnModel { mtbf, mttr, graceful_fraction: 0.0 }
    }

    /// Generates a time-sorted churn schedule for `nodes` up to `horizon`.
    ///
    /// Each node independently alternates up/down phases with exponentially
    /// distributed durations. Every departure is either a `Crash` or a
    /// `GracefulLeave`; each is followed by a `Recover` (if within horizon).
    pub fn generate(
        &self,
        nodes: &[NodeIndex],
        horizon: SimTime,
        rng: &mut SimRng,
    ) -> Vec<ChurnEvent> {
        let mut events = Vec::new();
        for &node in nodes {
            let mut rng = rng.fork_indexed("churn", node.0 as u64);
            let mut t = SimTime::ZERO;
            loop {
                t += rng.exp_duration(self.mtbf);
                if t >= horizon {
                    break;
                }
                let kind = if rng.chance(self.graceful_fraction) {
                    ChurnKind::GracefulLeave
                } else {
                    ChurnKind::Crash
                };
                events.push(ChurnEvent { at: t, node, kind });
                t += rng.exp_duration(self.mttr);
                if t >= horizon {
                    break;
                }
                events.push(ChurnEvent { at: t, node, kind: ChurnKind::Recover });
            }
        }
        events.sort_by_key(|e| (e.at, e.node));
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nodes(n: u32) -> Vec<NodeIndex> {
        (0..n).map(NodeIndex).collect()
    }

    #[test]
    fn schedule_is_sorted_and_alternating() {
        let model = ChurnModel::new(SimDuration::from_secs(100), SimDuration::from_secs(10));
        let mut rng = SimRng::new(1);
        let events = model.generate(&nodes(5), SimTime::from_secs(3_600), &mut rng);
        assert!(!events.is_empty());
        for w in events.windows(2) {
            assert!(w[0].at <= w[1].at);
        }
        // Per node: departures and recoveries strictly alternate.
        for n in nodes(5) {
            let seq: Vec<ChurnKind> =
                events.iter().filter(|e| e.node == n).map(|e| e.kind).collect();
            for pair in seq.windows(2) {
                match pair[0] {
                    ChurnKind::Recover => {
                        assert_ne!(pair[1], ChurnKind::Recover);
                    }
                    _ => assert_eq!(pair[1], ChurnKind::Recover),
                }
            }
        }
    }

    #[test]
    fn graceful_fraction_respected_at_extremes() {
        let mut rng = SimRng::new(2);
        let model = ChurnModel::new(SimDuration::from_secs(50), SimDuration::from_secs(5));
        let all_graceful = ChurnModel { graceful_fraction: 1.0, ..model }.generate(
            &nodes(10),
            SimTime::from_secs(1_000),
            &mut rng,
        );
        assert!(all_graceful.iter().all(|e| e.kind != ChurnKind::Crash));
        let none_graceful = ChurnModel::new(SimDuration::from_secs(50), SimDuration::from_secs(5))
            .generate(&nodes(10), SimTime::from_secs(1_000), &mut rng);
        assert!(none_graceful.iter().all(|e| e.kind != ChurnKind::GracefulLeave));
    }

    #[test]
    fn deterministic_given_seed() {
        let model = ChurnModel::new(SimDuration::from_secs(30), SimDuration::from_secs(3));
        let a = model.generate(&nodes(4), SimTime::from_secs(500), &mut SimRng::new(9));
        let b = model.generate(&nodes(4), SimTime::from_secs(500), &mut SimRng::new(9));
        assert_eq!(a, b);
    }

    #[test]
    fn no_events_past_horizon() {
        let model = ChurnModel::new(SimDuration::from_secs(10), SimDuration::from_secs(1));
        let horizon = SimTime::from_secs(100);
        let events = model.generate(&nodes(3), horizon, &mut SimRng::new(3));
        assert!(events.iter().all(|e| e.at < horizon));
    }

    #[test]
    fn longer_mtbf_means_fewer_failures() {
        let flaky = ChurnModel::new(SimDuration::from_secs(10), SimDuration::from_secs(1));
        let stable = ChurnModel::new(SimDuration::from_secs(1_000), SimDuration::from_secs(1));
        let h = SimTime::from_secs(2_000);
        let f = flaky.generate(&nodes(8), h, &mut SimRng::new(4)).len();
        let s = stable.generate(&nodes(8), h, &mut SimRng::new(4)).len();
        assert!(f > s, "flaky {f} stable {s}");
    }
}
