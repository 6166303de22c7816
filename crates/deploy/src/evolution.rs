//! The evolution engine: constraint-driven deployment repair, and the
//! coordinator's one view of which nodes are alive.
//!
//! "Nodes may disappear from the network either gracefully, in which case
//! they will publish events warning of their imminent withdrawal, or
//! without warning, in which case the loss may eventually be detected by
//! other monitoring components, which will publish events on their
//! behalf." (§4.4)
//!
//! Here a leaving node is found by its silence alone: no node publishes a
//! warning, and nothing is published on a silent node's behalf. Every
//! advertisement is a heartbeat. The resource view holds the nodes heard
//! within [`DEADLINE`]; [`EvolutionEngine::sweep`] drops the ones silent
//! for longer and re-plans around them directly.

use crate::constraint::{Constraint, Deployment};
use crate::resource::NodeResources;
use crate::solver::plan_repairs;
use gloss_sim::{NodeIndex, SimDuration, SimTime};
use std::collections::BTreeMap;

/// The silence after which a node is declared failed.
pub const DEADLINE: SimDuration = SimDuration::from_secs(30);

/// A deploy the evolution engine wants executed: a component of `kind`
/// onto `node` (ship a code bundle).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Deploy {
    /// The component kind.
    pub kind: String,
    /// The target node.
    pub node: NodeIndex,
}

/// The evolution engine: holds the constraint set, the resource view
/// (from advertisements), and the believed deployment; plans repair
/// deploys when constraints are violated.
#[derive(Debug, Clone)]
pub struct EvolutionEngine {
    constraints: Vec<Constraint>,
    resources: BTreeMap<NodeIndex, NodeResources>,
    /// When each node in the resource view was last heard.
    last_heard: BTreeMap<NodeIndex, SimTime>,
    deployment: Deployment,
    /// Pending deploys: instance id → (kind, node), not yet confirmed.
    pending: BTreeMap<String, (String, NodeIndex)>,
    next_instance: u64,
    /// When the system first became violated (for repair-latency metrics);
    /// `None` while satisfied.
    violated_since: Option<SimTime>,
    /// Completed repair episodes: (violated_at, repaired_at).
    pub repair_episodes: Vec<(SimTime, SimTime)>,
    /// Nodes declared failed so far.
    pub failures_detected: u64,
}

impl EvolutionEngine {
    /// Creates an engine for the given constraint set.
    pub fn new(constraints: Vec<Constraint>) -> Self {
        EvolutionEngine {
            constraints,
            resources: BTreeMap::new(),
            last_heard: BTreeMap::new(),
            deployment: Deployment::new(),
            pending: BTreeMap::new(),
            next_instance: 0,
            violated_since: None,
            repair_episodes: Vec::new(),
            failures_detected: 0,
        }
    }

    /// The constraint set.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Adds a constraint at runtime (policies "evolve in response to such
    /// changes").
    pub fn add_constraint(&mut self, c: Constraint) {
        self.constraints.push(c);
    }

    /// The believed deployment.
    pub fn deployment(&self) -> &Deployment {
        &self.deployment
    }

    /// The current resource view: the nodes believed alive.
    pub fn resources(&self) -> &BTreeMap<NodeIndex, NodeResources> {
        &self.resources
    }

    /// How many constraints are currently violated.
    pub fn violated(&self) -> usize {
        self.constraints.iter().filter(|c| c.deficit(&self.deployment, &self.resources) > 0).count()
    }

    /// Fraction of constraints currently satisfied (1.0 = all).
    pub fn satisfaction(&self) -> f64 {
        if self.constraints.is_empty() {
            return 1.0;
        }
        1.0 - self.violated() as f64 / self.constraints.len() as f64
    }

    /// A node advertised its resources, and so was heard at `now`;
    /// returns the repairs to execute.
    pub fn advertised(&mut self, now: SimTime, resources: NodeResources) -> Vec<(String, Deploy)> {
        self.last_heard.insert(resources.node, now);
        self.resources.insert(resources.node, resources);
        self.reconcile(now)
    }

    /// The periodic pass: every node silent for longer than [`DEADLINE`]
    /// is declared failed and dropped with its instances and pending
    /// deploys, and then the deployment is reconciled once, so that no
    /// repair goes to a node this sweep declares failed.
    pub fn sweep(&mut self, now: SimTime) -> Sweep {
        let failed: Vec<(NodeIndex, SimTime)> =
            self.last_heard.extract_if(.., |_, heard| now.since(*heard) > DEADLINE).collect();
        for &(node, _) in &failed {
            self.resources.remove(&node);
            self.deployment.remove_node(node);
            self.pending.retain(|_, (_, n)| *n != node);
        }
        self.failures_detected += failed.len() as u64;
        Sweep { deploys: self.reconcile(now), failed }
    }

    /// Plans the repairs the deployment needs, counting the deploys still
    /// pending as placed. A pending deploy whose install confirmation is
    /// lost therefore stays projected for good, and nothing re-plans it
    /// (ROADMAP direction 15).
    fn reconcile(&mut self, now: SimTime) -> Vec<(String, Deploy)> {
        // Measure episodes: satisfied -> violated -> satisfied. The
        // episode ends when confirmations arrive (`confirm_deploy`).
        if self.violated_since.is_none() && self.violated() > 0 {
            self.violated_since = Some(now);
        }
        // Plan against deployment ∪ pending so we do not double-deploy
        // while installs are in flight.
        let mut projected = self.deployment.clone();
        for (instance, (kind, node)) in &self.pending {
            projected.place(instance.clone(), kind.clone(), *node);
        }
        let deploys = plan_repairs(&self.constraints, &projected, &self.resources);
        let mut out = Vec::new();
        for deploy in deploys {
            self.next_instance += 1;
            let instance = format!("{}@{}#{}", deploy.kind, deploy.node, self.next_instance);
            self.pending.insert(instance.clone(), (deploy.kind.clone(), deploy.node));
            out.push((instance, deploy));
        }
        out
    }

    /// Confirms that a deploy action completed (the bundle installed).
    pub fn confirm_deploy(&mut self, now: SimTime, instance: &str) {
        if let Some((kind, node)) = self.pending.remove(instance) {
            self.deployment.place(instance, kind, node);
        }
        if self.violated() == 0 {
            if let Some(since) = self.violated_since.take() {
                self.repair_episodes.push((since, now));
            }
        }
    }
}

/// What one [`EvolutionEngine::sweep`] found and decided.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Sweep {
    /// Repairs to dispatch.
    pub deploys: Vec<(String, Deploy)>,
    /// Nodes declared failed this sweep, each with the instant it was last
    /// heard.
    pub failed: Vec<(NodeIndex, SimTime)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use gloss_sim::GeoPoint;

    fn advert(node: u32, region: &str) -> NodeResources {
        NodeResources {
            node: NodeIndex(node),
            region: region.into(),
            geo: GeoPoint::new(0.0, 0.0),
            cpu: 1.0,
            storage: 0,
        }
    }

    fn t(s: u64) -> SimTime {
        SimTime::from_secs(s)
    }

    #[test]
    fn deploys_when_resources_arrive() {
        let mut e = EvolutionEngine::new(vec![Constraint::count("repl", None, 2)]);
        let first = e.advertised(t(0), advert(0, "scotland"));
        assert!(first.len() <= 2);
        let actions = e.advertised(t(1), advert(1, "scotland"));
        // By now two nodes exist; across both events two deploys total.
        let total = first.len() + actions.len();
        assert_eq!(total, 2, "two instances requested, got {first:?} then {actions:?}");
        assert_eq!(e.satisfaction(), 0.0, "not yet confirmed");
    }

    #[test]
    fn confirmation_completes_the_repair_episode() {
        let mut e = EvolutionEngine::new(vec![Constraint::count("repl", None, 1)]);
        let actions = e.advertised(t(5), advert(0, "scotland"));
        assert_eq!(actions.len(), 1);
        let (instance, _) = &actions[0];
        e.confirm_deploy(t(8), instance);
        assert_eq!(e.satisfaction(), 1.0);
        assert_eq!(e.repair_episodes.len(), 1);
        let (from, to) = e.repair_episodes[0];
        assert_eq!(from, t(5));
        assert_eq!(to, t(8));
    }

    #[test]
    fn no_double_deploy_while_pending() {
        let mut e = EvolutionEngine::new(vec![Constraint::count("repl", None, 1)]);
        let first = e.advertised(t(0), advert(0, "scotland"));
        assert_eq!(first.len(), 1);
        // Sweep before confirmation: nothing new planned.
        let second = e.sweep(t(1));
        assert!(second.deploys.is_empty(), "pending deploy must suppress re-planning");
    }

    #[test]
    fn heartbeats_keep_nodes_alive() {
        let mut e = EvolutionEngine::new(vec![]);
        e.advertised(t(0), advert(1, "scotland"));
        e.advertised(t(20), advert(1, "scotland"));
        // 40 s after the first advert, 20 s after the last.
        assert_eq!(e.sweep(t(40)), Sweep::default(), "refreshed at t=20");
        assert!(e.resources().contains_key(&NodeIndex(1)));
    }

    #[test]
    fn silent_nodes_are_declared_failed() {
        let mut e = EvolutionEngine::new(vec![]);
        e.advertised(t(0), advert(1, "scotland"));
        e.advertised(t(0), advert(2, "scotland"));
        e.advertised(t(20), advert(2, "scotland"));
        // Silence of exactly the deadline is no failure.
        assert_eq!(e.sweep(t(0) + DEADLINE), Sweep::default());
        // Past it, reported with the instant the node was last heard.
        let past = t(0) + DEADLINE + SimDuration::from_micros(1);
        assert_eq!(e.sweep(past).failed, [(NodeIndex(1), t(0))]);
        assert_eq!(e.failures_detected, 1);
        assert!(!e.resources().contains_key(&NodeIndex(1)));
        assert!(e.resources().contains_key(&NodeIndex(2)));
        // A failure is reported once: node 2 fails later, node 1 not again.
        assert_eq!(e.sweep(t(60)).failed, [(NodeIndex(2), t(20))]);
        assert_eq!(e.sweep(t(90)), Sweep::default());
        assert_eq!(e.failures_detected, 2);
    }

    #[test]
    fn late_heartbeat_carries_a_node_past_its_deadline() {
        let mut e = EvolutionEngine::new(vec![]);
        e.advertised(t(0), advert(1, "scotland"));
        assert_eq!(e.sweep(t(20)), Sweep::default());
        e.advertised(t(25), advert(1, "scotland"));
        // The original deadline (t=30) passes; the node survives it.
        assert_eq!(e.sweep(t(31)), Sweep::default());
        assert_eq!(e.failures_detected, 0);
    }

    #[test]
    fn a_failed_node_that_advertises_again_rejoins() {
        let mut e = EvolutionEngine::new(vec![]);
        e.advertised(t(0), advert(1, "scotland"));
        assert_eq!(e.sweep(t(31)).failed, [(NodeIndex(1), t(0))]);
        e.advertised(t(40), advert(1, "scotland"));
        assert!(e.resources().contains_key(&NodeIndex(1)));
        assert_eq!(e.sweep(t(50)), Sweep::default());
        assert_eq!(e.failures_detected, 1, "rejoining is not a second failure");
    }

    /// Two of three nodes fall silent together, one of them the host: the
    /// one replacement goes to the survivor, never to the other node the
    /// same sweep declares failed.
    #[test]
    fn a_sweep_plans_nothing_onto_a_node_it_declares_failed() {
        let mut e = EvolutionEngine::new(vec![Constraint::count("repl", None, 1)]);
        let first = e.advertised(t(0), advert(1, "scotland"));
        assert!(matches!(first[..], [(_, Deploy { node: NodeIndex(1), .. })]), "{first:?}");
        e.confirm_deploy(t(1), &first[0].0);
        assert!(e.advertised(t(0), advert(2, "scotland")).is_empty());
        assert!(e.advertised(t(20), advert(3, "scotland")).is_empty());
        let sweep = e.sweep(t(35));
        assert_eq!(sweep.failed, [(NodeIndex(1), t(0)), (NodeIndex(2), t(0))]);
        for (_, deploy) in &sweep.deploys {
            assert!(sweep.failed.iter().all(|&(n, _)| n != deploy.node), "{sweep:?}");
        }
        assert!(matches!(sweep.deploys[..], [(_, Deploy { node: NodeIndex(3), .. })]), "{sweep:?}");
    }

    /// The node dies mid-install: its pending deploy is abandoned, so a
    /// late confirmation places nothing, and it is re-planned on a
    /// survivor.
    #[test]
    fn abandon_allows_replanning() {
        let mut e = EvolutionEngine::new(vec![Constraint::count("repl", None, 1)]);
        let first = e.advertised(t(0), advert(0, "scotland"));
        assert_eq!(first.len(), 1);
        assert!(e.advertised(t(20), advert(1, "scotland")).is_empty());
        let retry = e.sweep(t(31));
        assert_eq!(retry.failed, [(NodeIndex(0), t(0))]);
        assert!(matches!(retry.deploys[..], [(_, Deploy { node: NodeIndex(1), .. })]), "{retry:?}");
        e.confirm_deploy(t(32), &first[0].0);
        assert_eq!(e.deployment.instances_of("repl").count(), 0);
    }

    #[test]
    fn node_failure_triggers_replacement() {
        let mut e = EvolutionEngine::new(vec![Constraint::count("repl", None, 1)]);
        let mut actions = e.advertised(t(0), advert(0, "scotland"));
        actions.extend(e.advertised(t(0), advert(1, "scotland")));
        actions.extend(e.sweep(t(1)).deploys);
        let confirmed: Vec<String> = actions.iter().map(|(i, _)| i.clone()).collect();
        for i in &confirmed {
            e.confirm_deploy(t(2), i);
        }
        assert_eq!(e.satisfaction(), 1.0);
        // The hosting node falls silent; the other keeps advertising.
        let hosting: NodeIndex = e.deployment.instances_of("repl").next().unwrap().1;
        let survivor = NodeIndex(1 - hosting.0);
        assert!(e.advertised(t(20), advert(survivor.0, "scotland")).is_empty());
        let sweep = e.sweep(t(40));
        assert_eq!(sweep.failed, [(hosting, t(0))]);
        assert_eq!(sweep.deploys.len(), 1, "replacement planned at once");
        let (instance, Deploy { node, .. }) = &sweep.deploys[0];
        assert_eq!(*node, survivor, "replacement goes to the surviving node");
        e.confirm_deploy(t(42), instance);
        assert_eq!(e.satisfaction(), 1.0);
        assert_eq!(e.repair_episodes.len(), 2);
    }

    #[test]
    fn satisfaction_with_no_constraints_is_full() {
        let e = EvolutionEngine::new(vec![]);
        assert_eq!(e.satisfaction(), 1.0);
    }

    #[test]
    fn runtime_constraint_addition() {
        let mut e = EvolutionEngine::new(vec![]);
        e.advertised(t(0), advert(0, "scotland"));
        assert!(e.sweep(t(1)).deploys.is_empty());
        e.add_constraint(Constraint::count("cache", None, 1));
        assert_eq!(e.sweep(t(2)).deploys.len(), 1);
    }
}
