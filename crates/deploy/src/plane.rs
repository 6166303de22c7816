//! The deployment plane harness: worker nodes with thin servers
//! advertising resources; one coordinator node hosting the monitoring and
//! evolution engines; bundles shipped to repair violations (experiment
//! **C4**).

use crate::constraint::Constraint;
use crate::evolution::{coordinator_sweep, Action, EvolutionEngine};
use crate::monitor::MonitorEngine;
use crate::resource::NodeResources;
use gloss_bundle::{AuthKey, Bundle, Capability, ThinServer};
use gloss_sim::{Input, Node, NodeIndex, Outbox, SimDuration, SimTime, Topology, World};
use gloss_xml::Element;

/// Messages on the deployment plane. (In the full architecture these ride
/// the pub/sub event system; the plane harness sends them directly so the
/// deployment logic can be measured in isolation — `gloss-core` wires the
/// real pub/sub path.)
#[derive(Debug, Clone, PartialEq)]
pub enum DeployMsg {
    /// A resource advertisement (periodic heartbeat), as an event.
    Advertise(String),
    /// A sealed code bundle packet, with the instance id it realises.
    Bundle {
        /// The instance id assigned by the evolution engine.
        instance: String,
        /// The XML bundle packet.
        packet: String,
    },
    /// Install confirmation.
    Installed {
        /// The instance id.
        instance: String,
    },
}

const HEARTBEAT_TIMER: u64 = 0x40;
const SWEEP_TIMER: u64 = 0x41;

/// A node on the deployment plane.
#[derive(Debug)]
pub enum PlaneNode {
    /// A worker: thin server + periodic resource advertisements.
    Worker {
        /// The thin server hosting deployed bundles.
        server: Box<ThinServer>,
        /// What this node advertises.
        resources: NodeResources,
        /// The coordinator to advertise to.
        coordinator: NodeIndex,
        /// Advertisement period.
        heartbeat: SimDuration,
    },
    /// The coordinator: monitoring + evolution engines.
    Coordinator {
        /// The monitoring engine.
        monitor: MonitorEngine,
        /// The evolution engine.
        evolution: Box<EvolutionEngine>,
        /// Key used to seal bundles.
        key: AuthKey,
        /// Sweep/reconcile period.
        sweep_every: SimDuration,
    },
}

impl Node for PlaneNode {
    type Msg = DeployMsg;

    fn handle(&mut self, now: SimTime, input: Input<DeployMsg>, out: &mut Outbox<DeployMsg>) {
        match self {
            PlaneNode::Worker { server, resources, coordinator, heartbeat } => match input {
                Input::Start => {
                    out.send(
                        *coordinator,
                        DeployMsg::Advertise(resources.to_event().to_xml().to_xml()),
                    );
                    out.timer(*heartbeat, HEARTBEAT_TIMER);
                }
                Input::Timer { tag: HEARTBEAT_TIMER } => {
                    out.send(
                        *coordinator,
                        DeployMsg::Advertise(resources.to_event().to_xml().to_xml()),
                    );
                    out.timer(*heartbeat, HEARTBEAT_TIMER);
                }
                Input::Timer { .. } => {}
                Input::Msg { from, msg: DeployMsg::Bundle { instance, packet } } => {
                    match server.receive_packet(&packet) {
                        Ok(report) => {
                            out.count("deploy.installs", 1.0);
                            if report.lint_warnings > 0 {
                                out.count("deploy.lint_warnings", report.lint_warnings as f64);
                            }
                            out.send(from, DeployMsg::Installed { instance });
                        }
                        Err(gloss_bundle::BundleError::RejectedByAnalysis(_)) => {
                            out.count("deploy.lint_rejected", 1.0);
                            out.count("deploy.install_failures", 1.0);
                        }
                        Err(_) => out.count("deploy.install_failures", 1.0),
                    }
                }
                Input::Msg { .. } => {}
            },
            PlaneNode::Coordinator { monitor, evolution, key, sweep_every } => {
                let mut actions = Vec::new();
                match input {
                    Input::Start => out.timer(*sweep_every, SWEEP_TIMER),
                    Input::Timer { tag: SWEEP_TIMER } => {
                        let sweep = coordinator_sweep(monitor, evolution, now);
                        if sweep.suspected > 0 {
                            out.count("deploy.suspected", sweep.suspected as f64);
                        }
                        if sweep.failed > 0 {
                            out.count("deploy.failures_detected", sweep.failed as f64);
                            out.count("deploy.evicted", sweep.failed as f64);
                        }
                        actions = sweep.actions;
                        out.timer(*sweep_every, SWEEP_TIMER);
                    }
                    Input::Timer { .. } => {}
                    Input::Msg { msg: DeployMsg::Advertise(xml), .. } => {
                        if let Ok(ev) = gloss_event::Event::from_xml_text(&xml) {
                            if monitor.on_event(now, &ev).is_some() {
                                out.count("deploy.refuted", 1.0);
                            }
                            actions.extend(evolution.on_event(now, &ev));
                        }
                    }
                    Input::Msg { msg: DeployMsg::Installed { instance }, .. } => {
                        evolution.confirm_deploy(now, &instance);
                        if evolution.violations().is_empty() {
                            if let Some(&(from, to)) = evolution.repair_episodes.last() {
                                // Record the latest episode duration once.
                                let ms = to.since(from).as_secs_f64() * 1e3;
                                out.observe("deploy.repair_ms", ms);
                            }
                        }
                    }
                    Input::Msg { .. } => {}
                }
                for (instance, action) in actions {
                    if let Action::Deploy { kind, node } = action {
                        let bundle = Bundle::component(instance.clone(), kind, Element::new("cfg"))
                            .issued_by(key.issuer());
                        let packet = bundle.to_packet(key);
                        out.count("deploy.bundles_sent", 1.0);
                        out.send(node, DeployMsg::Bundle { instance, packet });
                    }
                }
            }
        }
    }
}

/// The deployment plane: one coordinator (node 0) plus workers.
#[derive(Debug)]
pub struct DeploymentPlane {
    world: World<PlaneNode>,
}

impl DeploymentPlane {
    /// Builds a plane with `workers` worker nodes and the given
    /// constraints.
    pub fn build(workers: usize, constraints: Vec<Constraint>, seed: u64) -> Self {
        let topology = Topology::random(workers + 1, &["scotland", "england", "europe"], seed);
        let key = AuthKey::new("evolution", b"deploy-plane-secret");
        let mut nodes: Vec<PlaneNode> = Vec::with_capacity(workers + 1);
        nodes.push(PlaneNode::Coordinator {
            monitor: MonitorEngine::new(SimDuration::from_secs(30)),
            evolution: Box::new(EvolutionEngine::new(constraints)),
            key: key.clone(),
            sweep_every: SimDuration::from_secs(10),
        });
        for info in topology.iter().skip(1) {
            let mut server = ThinServer::new(format!("worker-{}", info.index));
            server.trust(key.clone());
            server.grant("evolution", Capability::DeployComponent);
            server.grant("evolution", Capability::DeployMatchlet);
            server.grant("evolution", Capability::StoreAccess);
            nodes.push(PlaneNode::Worker {
                server: Box::new(server),
                resources: NodeResources {
                    node: info.index,
                    region: info.region.clone(),
                    geo: info.geo,
                    cpu: info.cpu,
                    storage: info.storage,
                },
                coordinator: NodeIndex(0),
                heartbeat: SimDuration::from_secs(10),
            });
        }
        DeploymentPlane { world: World::new(topology, seed, nodes) }
    }

    /// Advances the simulation.
    pub fn run_for(&mut self, d: SimDuration) {
        self.world.run_for(d);
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.world.now()
    }

    /// The evolution engine's state.
    ///
    /// # Panics
    ///
    /// Never in practice (node 0 is always the coordinator).
    pub fn evolution(&self) -> &EvolutionEngine {
        match self.world.node(NodeIndex(0)) {
            PlaneNode::Coordinator { evolution, .. } => evolution,
            PlaneNode::Worker { .. } => unreachable!("node 0 is the coordinator"),
        }
    }

    /// The monitoring engine's state.
    pub fn monitor(&self) -> &MonitorEngine {
        match self.world.node(NodeIndex(0)) {
            PlaneNode::Coordinator { monitor, .. } => monitor,
            PlaneNode::Worker { .. } => unreachable!("node 0 is the coordinator"),
        }
    }

    /// Crashes a worker node.
    pub fn crash(&mut self, node: NodeIndex) {
        self.world.crash(node);
    }

    /// Recovers a worker node.
    pub fn recover(&mut self, node: NodeIndex) {
        self.world.recover(node);
    }

    /// The underlying world (metrics).
    pub fn world(&self) -> &World<PlaneNode> {
        &self.world
    }

    /// Installed bundle count on a worker.
    #[cfg(test)]
    fn installed_on(&self, node: NodeIndex) -> usize {
        match self.world.node(node) {
            PlaneNode::Worker { server, .. } => server.installed_names().len(),
            PlaneNode::Coordinator { .. } => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_deployment_satisfies_constraints() {
        let constraints = vec![
            Constraint::count("replicator", Some("scotland"), 2),
            Constraint::count("matcher", None, 3),
        ];
        let mut plane = DeploymentPlane::build(9, constraints, 1);
        plane.run_for(SimDuration::from_secs(120));
        assert_eq!(plane.evolution().satisfaction(), 1.0);
        assert_eq!(plane.evolution().deployment().instances_of("matcher").count(), 3);
        // Bundles really installed on thin servers.
        let total_installed: usize = (1..10).map(|i| plane.installed_on(NodeIndex(i))).sum();
        assert_eq!(total_installed, 5);
    }

    #[test]
    fn crash_is_detected_and_repaired() {
        let constraints = vec![Constraint::count("replicator", None, 3)];
        let mut plane = DeploymentPlane::build(8, constraints, 2);
        plane.run_for(SimDuration::from_secs(120));
        assert_eq!(plane.evolution().satisfaction(), 1.0);
        let victim = plane.evolution().deployment().instances_of("replicator").next().unwrap().1;
        plane.crash(victim);
        // Heartbeat stops; monitor deadline 30 s + sweep 10 s + bundle RTT.
        plane.run_for(SimDuration::from_secs(120));
        assert_eq!(plane.evolution().satisfaction(), 1.0, "constraint repaired");
        assert!(plane.monitor().failures_detected >= 1);
        // The failure was graduated: a suspicion episode preceded the
        // eviction.
        assert!(plane.monitor().suspicions >= 1);
        assert!(plane.world().metrics().counter("deploy.suspected") >= 1.0);
        assert!(plane.world().metrics().counter("deploy.evicted") >= 1.0);
        assert!(
            plane.evolution().deployment().instances_of("replicator").all(|(_, n)| n != victim),
            "replacement avoids the dead node"
        );
        let repair = plane.world().metrics().summary("deploy.repair_ms");
        assert!(repair.count >= 1, "repair episode measured");
    }

    #[test]
    fn recovered_node_rejoins_the_pool() {
        let constraints = vec![Constraint::count("matcher", None, 2)];
        let mut plane = DeploymentPlane::build(3, constraints, 3);
        plane.run_for(SimDuration::from_secs(60));
        plane.crash(NodeIndex(1));
        plane.run_for(SimDuration::from_secs(90));
        plane.recover(NodeIndex(1));
        plane.run_for(SimDuration::from_secs(60));
        // The recovered node advertises again and is usable.
        assert!(plane.monitor().is_alive(NodeIndex(1)));
        assert_eq!(plane.evolution().satisfaction(), 1.0);
    }

    #[test]
    fn impossible_constraints_stay_violated_without_thrash() {
        // Demand more regional instances than the region has nodes (with
        // a capacity cap preventing stacking).
        let constraints =
            vec![Constraint::Capacity { max: 1 }, Constraint::count("big", Some("scotland"), 50)];
        let mut plane = DeploymentPlane::build(6, constraints, 4);
        plane.run_for(SimDuration::from_secs(120));
        assert!(plane.evolution().satisfaction() < 1.0);
        // Every scotland worker hosts exactly one instance (no stacking).
        for i in 1..7 {
            assert!(plane.installed_on(NodeIndex(i)) <= 1);
        }
    }

    #[test]
    fn analysis_gate_rejects_defective_matchlet_bundles() {
        use gloss_sim::GeoPoint;

        let key = AuthKey::new("evolution", b"deploy-plane-secret");
        let mut server = ThinServer::new("worker-1");
        server.trust(key.clone());
        server.grant("evolution", Capability::DeployMatchlet);
        let mut worker = PlaneNode::Worker {
            server: Box::new(server),
            resources: NodeResources {
                node: NodeIndex(1),
                region: "scotland".into(),
                geo: GeoPoint { lat: 56.34, lon: -2.79 },
                cpu: 1.0,
                storage: 1 << 20,
            },
            coordinator: NodeIndex(0),
            heartbeat: SimDuration::from_secs(10),
        };
        let deliver = |worker: &mut PlaneNode, name: &str, source: &str| {
            let packet = Bundle::matchlet(name, source).issued_by("evolution").to_packet(&key);
            let mut out = Outbox::new();
            worker.handle(
                SimTime::ZERO,
                Input::Msg {
                    from: NodeIndex(0),
                    msg: DeployMsg::Bundle { instance: name.into(), packet },
                },
                &mut out,
            );
            out
        };

        // A matchlet whose emit reads an unbound variable: parses, but
        // the analysis gate must reject it before installation.
        let out = deliver(
            &mut worker,
            "ghost",
            r#"rule ghost { on w: event weather(c: ?c) emit alert(c: ?c, x: ?ghost) }"#,
        );
        assert!(out.sends().is_empty(), "no install confirmation for a rejected bundle");
        let counters: Vec<&str> = out.counts().iter().map(|(n, _)| n.as_ref()).collect();
        assert!(counters.contains(&"deploy.lint_rejected"), "{counters:?}");
        assert!(counters.contains(&"deploy.install_failures"), "{counters:?}");

        // The clean twin deploys, confirms, and reports no warnings.
        let out = deliver(
            &mut worker,
            "hot",
            r#"rule hot { on w: event weather(c: ?c) where ?c > 18.0 emit alert(c: ?c) }"#,
        );
        assert!(matches!(out.sends(), [(NodeIndex(0), DeployMsg::Installed { .. })]));
        let counters: Vec<&str> = out.counts().iter().map(|(n, _)| n.as_ref()).collect();
        assert_eq!(counters, vec!["deploy.installs"]);

        match &worker {
            PlaneNode::Worker { server, .. } => {
                assert_eq!(server.installed_names(), vec!["hot"]);
                assert_eq!(server.engine().rule_names(), vec!["hot"]);
            }
            PlaneNode::Coordinator { .. } => unreachable!(),
        }
    }
}
