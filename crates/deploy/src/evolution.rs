//! The evolution engine: constraint-driven deployment repair.

use crate::constraint::{Constraint, Deployment};
use crate::monitor::MonitorEngine;
use crate::resource::NodeResources;
use crate::solver::plan_repairs;
use gloss_sim::{NodeIndex, SimTime};
use std::collections::BTreeMap;

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
    deployment: Deployment,
    /// Pending deploys: instance id → (kind, node), not yet confirmed.
    pending: BTreeMap<String, (String, NodeIndex)>,
    next_instance: u64,
    /// When the system first became violated (for repair-latency metrics);
    /// `None` while satisfied.
    violated_since: Option<SimTime>,
    /// Completed repair episodes: (violated_at, repaired_at).
    pub repair_episodes: Vec<(SimTime, SimTime)>,
}

impl EvolutionEngine {
    /// Creates an engine for the given constraint set.
    pub fn new(constraints: Vec<Constraint>) -> Self {
        EvolutionEngine {
            constraints,
            resources: BTreeMap::new(),
            deployment: Deployment::new(),
            pending: BTreeMap::new(),
            next_instance: 0,
            violated_since: None,
            repair_episodes: Vec::new(),
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

    /// The current resource view.
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

    /// A node advertised its resources; returns the repairs to execute.
    pub fn advertised(&mut self, now: SimTime, resources: NodeResources) -> Vec<(String, Deploy)> {
        self.resources.insert(resources.node, resources);
        self.reconcile(now)
    }

    /// A node withdrew or was declared failed: its instances and pending
    /// deploys are dropped. Returns the repairs to execute.
    pub fn departed(&mut self, now: SimTime, node: NodeIndex) -> Vec<(String, Deploy)> {
        self.resources.remove(&node);
        self.deployment.remove_node(node);
        self.pending.retain(|_, (_, n)| *n != node);
        self.reconcile(now)
    }

    /// Periodic reconciliation (also catches lost install confirmations).
    pub fn reconcile(&mut self, now: SimTime) -> Vec<(String, Deploy)> {
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

/// What one periodic coordinator sweep found and decided.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Sweep {
    /// Repairs to dispatch: for the nodes declared failed, then whatever
    /// periodic reconciliation adds.
    pub deploys: Vec<(String, Deploy)>,
    /// Nodes that entered a suspicion episode this sweep.
    pub suspected: u64,
    /// Nodes declared failed this sweep, each with the instant its last
    /// heartbeat was heard.
    pub failed: Vec<(NodeIndex, SimTime)>,
}

/// One coordinator sweep: the monitor reports who fell silent, the
/// evolution engine re-plans around the nodes declared failed, then
/// reconciles. A suspicion is a graduated warning, not yet a failure: it
/// is counted and triggers no redeploy.
pub fn coordinator_sweep(
    monitor: &mut MonitorEngine,
    evolution: &mut EvolutionEngine,
    now: SimTime,
) -> Sweep {
    let (suspected, failed) = monitor.sweep(now);
    let mut deploys = Vec::new();
    for &(node, _) in &failed {
        deploys.extend(evolution.departed(now, node));
    }
    deploys.extend(evolution.reconcile(now));
    Sweep { deploys, suspected: suspected.len() as u64, failed }
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
        // Reconcile again before confirmation: nothing new planned.
        let second = e.reconcile(t(1));
        assert!(second.is_empty(), "pending deploy must suppress re-planning");
    }

    /// The node dies mid-install: its pending deploy is abandoned, so a
    /// late confirmation places nothing, and it is re-planned on a
    /// survivor.
    #[test]
    fn abandon_allows_replanning() {
        let mut e = EvolutionEngine::new(vec![Constraint::count("repl", None, 1)]);
        let first = e.advertised(t(0), advert(0, "scotland"));
        assert_eq!(first.len(), 1);
        assert!(e.advertised(t(2), advert(1, "scotland")).is_empty());
        let retry = e.departed(t(3), NodeIndex(0));
        assert!(matches!(retry[..], [(_, Deploy { node: NodeIndex(1), .. })]), "{retry:?}");
        e.confirm_deploy(t(4), &first[0].0);
        assert_eq!(e.deployment.instances_of("repl").count(), 0);
    }

    #[test]
    fn node_failure_triggers_replacement() {
        let mut e = EvolutionEngine::new(vec![Constraint::count("repl", None, 1)]);
        let mut actions = e.advertised(t(0), advert(0, "scotland"));
        actions.extend(e.advertised(t(0), advert(1, "scotland")));
        actions.extend(e.reconcile(t(1)));
        let confirmed: Vec<String> = actions.iter().map(|(i, _)| i.clone()).collect();
        for i in &confirmed {
            e.confirm_deploy(t(2), i);
        }
        assert_eq!(e.satisfaction(), 1.0);
        // The hosting node dies.
        let hosting: NodeIndex = e.deployment.instances_of("repl").next().unwrap().1;
        let repairs = e.departed(t(10), hosting);
        assert_eq!(repairs.len(), 1, "replacement planned immediately");
        let (instance, Deploy { node, .. }) = &repairs[0];
        assert_ne!(*node, hosting, "replacement goes to a surviving node");
        e.confirm_deploy(t(12), instance);
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
        assert!(e.reconcile(t(1)).is_empty());
        e.add_constraint(Constraint::count("cache", None, 1));
        assert_eq!(e.reconcile(t(2)).len(), 1);
    }
}
