//! The monitoring engine: liveness tracking from resource advertisements.
//!
//! "Nodes may disappear from the network either gracefully, in which case
//! they will publish events warning of their imminent withdrawal, or
//! without warning, in which case the loss may eventually be detected by
//! other monitoring components, which will publish events on their
//! behalf." (§4.4)
//!
//! Here the monitor runs on the coordinator beside the evolution engine,
//! which acts on its verdicts directly: nothing is published on a silent
//! node's behalf. Detection is graduated rather than binary: a node
//! silent for half the deadline is *suspected* first (reported once per
//! episode), and only declared failed when the full deadline passes. A
//! heartbeat arriving during the suspicion window refutes it (counted in
//! `refutations`), so the deployment plane can distinguish slow links
//! from dead nodes instead of thrashing redeployments.

use gloss_sim::{NodeIndex, SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet};

/// The silence after which a node is declared failed.
pub const DEADLINE: SimDuration = SimDuration::from_secs(30);
/// The silence after which a node is suspected: half the deadline.
const SUSPECT_AFTER: SimDuration = SimDuration::from_secs(15);

/// Tracks heartbeats (advertisements) and detects silent failures: a node
/// silent for 30 s is declared failed, and suspected after 15 s.
#[derive(Debug, Clone, Default)]
pub struct MonitorEngine {
    last_seen: BTreeMap<NodeIndex, SimTime>,
    /// Nodes currently in a suspicion episode.
    suspected: BTreeSet<NodeIndex>,
    /// Failures detected so far.
    pub failures_detected: u64,
    /// Suspicion episodes started so far.
    pub suspicions: u64,
    /// Suspicion episodes refuted by a late heartbeat.
    pub refutations: u64,
}

impl MonitorEngine {
    /// Number of nodes currently believed alive.
    pub fn alive_count(&self) -> usize {
        self.last_seen.len()
    }

    /// Whether `node` is currently believed alive.
    pub fn is_alive(&self, node: NodeIndex) -> bool {
        self.last_seen.contains_key(&node)
    }

    /// Whether `node` is in a suspicion episode.
    #[cfg(test)]
    fn is_suspected(&self, node: NodeIndex) -> bool {
        self.suspected.contains(&node)
    }

    /// A heartbeat (advertisement) from `node`: refreshes its liveness
    /// and ends its suspicion episode.
    pub fn heard(&mut self, now: SimTime, node: NodeIndex) {
        self.last_seen.insert(node, now);
        if self.suspected.remove(&node) {
            self.refutations += 1;
        }
    }

    /// A graceful withdrawal: `node` is forgotten at once, with no
    /// failure counted.
    pub fn withdrew(&mut self, node: NodeIndex) {
        self.last_seen.remove(&node);
        self.suspected.remove(&node);
    }

    /// Periodic sweep: the nodes that crossed the suspicion window this
    /// sweep, and the nodes whose silence exhausted the deadline, each
    /// with the instant its last heartbeat was heard. Each is reported
    /// once per episode.
    pub fn sweep(&mut self, now: SimTime) -> (Vec<NodeIndex>, Vec<(NodeIndex, SimTime)>) {
        let mut suspected = Vec::new();
        let mut failed = Vec::new();
        for (&node, &t) in &self.last_seen {
            let silence = now.since(t);
            if silence > DEADLINE {
                failed.push((node, t));
            } else if silence > SUSPECT_AFTER && self.suspected.insert(node) {
                self.suspicions += 1;
                suspected.push(node);
            }
        }
        for &(node, _) in &failed {
            self.withdrew(node);
            self.failures_detected += 1;
        }
        (suspected, failed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const N1: NodeIndex = NodeIndex(1);
    const N2: NodeIndex = NodeIndex(2);

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn heartbeats_keep_nodes_alive() {
        let mut m = MonitorEngine::default();
        m.heard(t(0), N1);
        m.heard(t(20), N1);
        // 20 s of silence at t=40: suspected (> 15 s) but not failed.
        let (suspected, failed) = m.sweep(t(40));
        assert_eq!(suspected, [N1]);
        assert!(failed.is_empty(), "refreshed at t=20");
        assert!(m.is_alive(N1));
    }

    #[test]
    fn silent_nodes_are_declared_failed() {
        let mut m = MonitorEngine::default();
        m.heard(t(0), N1);
        m.heard(t(0), N2);
        m.heard(t(50), N2);
        let (_, failed) = m.sweep(t(60));
        // Reported with the instant its last heartbeat was heard.
        assert_eq!(failed, [(N1, t(0))]);
        assert_eq!(m.failures_detected, 1);
        assert!(!m.is_alive(N1));
        assert!(m.is_alive(N2));
        // A failure is reported once: node 2 fails later, node 1 not again.
        let (_, again) = m.sweep(t(90));
        assert_eq!(again, [(N2, t(50))]);
        assert_eq!(m.failures_detected, 2);
    }

    #[test]
    fn graceful_withdrawal_needs_no_detection() {
        let mut m = MonitorEngine::default();
        m.heard(t(0), N1);
        m.withdrew(N1);
        assert!(!m.is_alive(N1));
        assert_eq!(m.sweep(t(100)), (vec![], vec![]));
        assert_eq!(m.failures_detected, 0, "withdrawals are not failures");
    }

    #[test]
    fn suspicion_precedes_failure_and_is_published_once() {
        let mut m = MonitorEngine::default();
        m.heard(t(0), N1);
        // Past the suspicion window, before the deadline.
        assert_eq!(m.sweep(t(20)), (vec![N1], vec![]));
        assert!(m.is_suspected(N1));
        assert!(m.is_alive(N1), "suspected is not dead");
        // Re-sweeping inside the window does not report it again.
        assert_eq!(m.sweep(t(25)), (vec![], vec![]));
        // Past the deadline: failed, episode over.
        assert_eq!(m.sweep(t(31)), (vec![], vec![(N1, t(0))]));
        assert!(!m.is_suspected(N1));
        assert_eq!(m.suspicions, 1);
        assert_eq!(m.failures_detected, 1);
    }

    #[test]
    fn late_heartbeat_refutes_suspicion() {
        let mut m = MonitorEngine::default();
        m.heard(t(0), N1);
        m.sweep(t(20));
        assert!(m.is_suspected(N1));
        m.heard(t(25), N1);
        assert!(!m.is_suspected(N1));
        assert_eq!(m.refutations, 1);
        // And the node survives the original deadline.
        assert_eq!(m.sweep(t(31)), (vec![], vec![]));
        assert_eq!(m.failures_detected, 0);
    }
}
