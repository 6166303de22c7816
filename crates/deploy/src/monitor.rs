//! The monitoring engine: liveness tracking from resource advertisements.
//!
//! "Nodes may disappear from the network either gracefully, in which case
//! they will publish events warning of their imminent withdrawal, or
//! without warning, in which case the loss may eventually be detected by
//! other monitoring components, which will publish events on their
//! behalf." (§4.4)
//!
//! Detection is graduated rather than binary: a node silent for half the
//! deadline is *suspected* first (`resource.suspected`, published once per
//! episode), and only declared failed (`resource.failed`) when the full
//! deadline passes. A heartbeat arriving during the suspicion window
//! refutes it (counted in `refutations`), so the deployment plane can
//! distinguish slow links from dead nodes instead of thrashing
//! redeployments.

use crate::resource::NodeResources;
use gloss_event::Event;
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

    /// Feeds an observed event (advertisement refreshes liveness and
    /// ends a suspicion episode; withdrawal removes the node immediately).
    pub fn on_event(&mut self, now: SimTime, ev: &Event) {
        if let Some(r) = NodeResources::from_event(ev) {
            self.last_seen.insert(r.node, now);
            if self.suspected.remove(&r.node) {
                self.refutations += 1;
            }
        } else if ev.kind() == crate::resource::kinds::WITHDRAW {
            if let Some(node) = NodeResources::departed_node(ev) {
                self.last_seen.remove(&node);
                self.suspected.remove(&node);
            }
        }
    }

    /// Periodic sweep: returns `resource.suspected` events for nodes that
    /// crossed the suspicion window this sweep, and `resource.failed`
    /// events for nodes whose silence exhausted the deadline (published
    /// "on their behalf").
    pub fn sweep(&mut self, now: SimTime) -> Vec<Event> {
        let mut events = Vec::new();
        let mut dead: Vec<(NodeIndex, SimTime)> = Vec::new();
        for (&node, &t) in &self.last_seen {
            let silence = now.since(t);
            if silence > DEADLINE {
                dead.push((node, t));
            } else if silence > SUSPECT_AFTER && self.suspected.insert(node) {
                self.suspicions += 1;
                events.push(NodeResources::suspected_event(node));
            }
        }
        for (node, last_heard) in dead {
            self.last_seen.remove(&node);
            self.suspected.remove(&node);
            self.failures_detected += 1;
            events.push(NodeResources::failed_event(node, last_heard));
        }
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resource::kinds;
    use gloss_sim::GeoPoint;

    fn advert(node: u32) -> Event {
        NodeResources {
            node: NodeIndex(node),
            region: "scotland".into(),
            geo: GeoPoint::new(56.3, -3.0),
            cpu: 1.0,
            storage: 0,
        }
        .to_event()
    }

    #[test]
    fn heartbeats_keep_nodes_alive() {
        let mut m = MonitorEngine::default();
        m.on_event(SimTime::from_secs(0), &advert(1));
        m.on_event(SimTime::from_secs(20), &advert(1));
        // 20 s of silence at t=40: suspected (> 15 s) but not failed.
        let evs = m.sweep(SimTime::from_secs(40));
        assert!(evs.iter().all(|e| e.kind() != kinds::FAILED), "refreshed at t=20");
        assert!(m.is_alive(NodeIndex(1)));
    }

    #[test]
    fn silent_nodes_are_declared_failed() {
        let mut m = MonitorEngine::default();
        m.on_event(SimTime::from_secs(0), &advert(1));
        m.on_event(SimTime::from_secs(0), &advert(2));
        m.on_event(SimTime::from_secs(50), &advert(2));
        let evs = m.sweep(SimTime::from_secs(60));
        let failed: Vec<&Event> = evs.iter().filter(|e| e.kind() == kinds::FAILED).collect();
        assert_eq!(failed.len(), 1);
        assert_eq!(NodeResources::departed_node(failed[0]), Some(NodeIndex(1)));
        assert_eq!(NodeResources::last_heard(failed[0]), Some(SimTime::from_secs(0)));
        assert_eq!(m.failures_detected, 1);
        assert!(!m.is_alive(NodeIndex(1)));
        assert!(m.is_alive(NodeIndex(2)));
        // A failure is reported once.
        let again = m.sweep(SimTime::from_secs(90));
        assert!(again.iter().filter(|e| e.kind() == kinds::FAILED).count() <= 1);
    }

    #[test]
    fn graceful_withdrawal_needs_no_detection() {
        let mut m = MonitorEngine::default();
        m.on_event(SimTime::from_secs(0), &advert(1));
        m.on_event(SimTime::from_secs(5), &NodeResources::withdraw_event(NodeIndex(1)));
        assert!(!m.is_alive(NodeIndex(1)));
        assert!(m.sweep(SimTime::from_secs(100)).is_empty());
        assert_eq!(m.failures_detected, 0, "withdrawals are not failures");
    }

    #[test]
    fn suspicion_precedes_failure_and_is_published_once() {
        let mut m = MonitorEngine::default();
        m.on_event(SimTime::from_secs(0), &advert(1));
        // Past the suspicion window, before the deadline.
        let evs = m.sweep(SimTime::from_secs(20));
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].kind(), kinds::SUSPECTED);
        assert!(m.is_suspected(NodeIndex(1)));
        assert!(m.is_alive(NodeIndex(1)), "suspected is not dead");
        // Re-sweeping inside the window does not repeat the event.
        assert!(m.sweep(SimTime::from_secs(25)).is_empty());
        // Past the deadline: failed, episode over.
        let evs = m.sweep(SimTime::from_secs(31));
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].kind(), kinds::FAILED);
        assert!(!m.is_suspected(NodeIndex(1)));
        assert_eq!(m.suspicions, 1);
        assert_eq!(m.failures_detected, 1);
    }

    #[test]
    fn late_heartbeat_refutes_suspicion() {
        let mut m = MonitorEngine::default();
        m.on_event(SimTime::from_secs(0), &advert(1));
        m.sweep(SimTime::from_secs(20));
        assert!(m.is_suspected(NodeIndex(1)));
        m.on_event(SimTime::from_secs(25), &advert(1));
        assert!(!m.is_suspected(NodeIndex(1)));
        assert_eq!(m.refutations, 1);
        // And the node survives the original deadline.
        assert!(m.sweep(SimTime::from_secs(31)).iter().all(|e| e.kind() != kinds::FAILED));
        assert_eq!(m.failures_detected, 0);
    }
}
