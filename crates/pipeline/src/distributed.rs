//! Inter-node pipelines over the simulator: Figure 2's "pipeline
//! distributed over two nodes". Each node hosts a [`PipelineGraph`]; the
//! graph's outputs are forwarded to remote hosts through the `put(event)`
//! interface, serialised in the XML wire form.

use crate::component::PipelineGraph;
use gloss_event::Event;
use gloss_sim::{Input, Node, NodeIndex, Outbox, SimDuration, SimTime, Topology, World};

/// Messages between pipeline hosts: the `put(event)` web-service call,
/// carrying the XML wire form (string) exactly as a real deployment
/// would.
#[derive(Debug, Clone, PartialEq)]
pub enum PipelineMsg {
    /// Push an event into the receiving host's pipeline.
    Put(String),
}

/// A pipeline host: one node's pipeline plus its remote forwarding links.
#[derive(Debug)]
pub struct PipelineHost {
    /// The local pipeline.
    pub graph: PipelineGraph,
    /// Remote hosts that receive this pipeline's outputs.
    pub forward_to: Vec<NodeIndex>,
    /// Events that left the pipeline at this node (no remote link).
    pub outputs: Vec<Event>,
}

impl PipelineHost {
    /// Creates a host around a graph.
    pub fn new(graph: PipelineGraph) -> Self {
        PipelineHost { graph, forward_to: Vec::new(), outputs: Vec::new() }
    }

    fn dispatch(&mut self, now: SimTime, produced: Vec<Event>, out: &mut Outbox<PipelineMsg>) {
        for ev in produced {
            if self.forward_to.is_empty() {
                out.count("pipeline.outputs", 1.0);
                let latency_ms = now.since(ev.published_at()).as_secs_f64() * 1e3;
                out.observe("pipeline.end_to_end_ms", latency_ms);
                self.outputs.push(ev);
            } else {
                for &to in &self.forward_to {
                    out.count("pipeline.forwarded", 1.0);
                    out.send(to, PipelineMsg::Put(ev.to_xml().to_xml()));
                }
            }
        }
    }
}

impl Node for PipelineHost {
    type Msg = PipelineMsg;

    fn handle(&mut self, now: SimTime, input: Input<PipelineMsg>, out: &mut Outbox<PipelineMsg>) {
        match input {
            Input::Start | Input::Timer { .. } => {}
            Input::Msg { msg: PipelineMsg::Put(xml), .. } => match Event::from_xml_text(&xml) {
                Ok(event) => {
                    let produced = self.graph.push(now, event);
                    self.dispatch(now, produced, out);
                }
                Err(_) => out.count("pipeline.malformed_events", 1.0),
            },
        }
    }
}

/// A set of pipeline hosts on a simulated topology.
///
/// # Example
///
/// ```
/// use gloss_pipeline::{DistributedPipeline, PipelineGraph, standard::Relabel};
/// use gloss_event::Event;
/// use gloss_sim::{NodeIndex, SimDuration};
///
/// // Node 0 relabels and forwards to node 1, which counts as output.
/// let mut g0 = PipelineGraph::new();
/// let r = g0.add(Box::new(Relabel::new("r").with_stamp("hop", "n0")));
/// g0.mark_entry(r);
/// let mut g1 = PipelineGraph::new();
/// let c = g1.add(Box::new(Relabel::new("c").with_stamp("hop2", "n1")));
/// g1.mark_entry(c);
///
/// let mut dp = DistributedPipeline::build(vec![g0, g1], 42);
/// dp.link(NodeIndex(0), NodeIndex(1));
/// dp.put(NodeIndex(0), Event::new("e"));
/// dp.run_for(SimDuration::from_secs(1));
/// let outs = dp.outputs(NodeIndex(1));
/// assert_eq!(outs.len(), 1);
/// assert_eq!(outs[0].str_attr("hop"), Some("n0"));
/// assert_eq!(outs[0].str_attr("hop2"), Some("n1"));
/// ```
#[derive(Debug)]
pub struct DistributedPipeline {
    world: World<PipelineHost>,
    seq: u64,
}

impl DistributedPipeline {
    /// Builds one host per graph on a LAN-like topology.
    pub fn build(graphs: Vec<PipelineGraph>, seed: u64) -> Self {
        let topology = Topology::lan(graphs.len(), seed);
        Self::build_on(topology, graphs, seed)
    }

    /// Builds hosts on an explicit topology.
    pub fn build_on(topology: Topology, graphs: Vec<PipelineGraph>, seed: u64) -> Self {
        let hosts: Vec<PipelineHost> = graphs.into_iter().map(PipelineHost::new).collect();
        DistributedPipeline { world: World::new(topology, seed, hosts), seq: 0 }
    }

    /// Adds a forwarding link from node `from`'s pipeline outputs to node
    /// `to`'s pipeline entries.
    pub fn link(&mut self, from: NodeIndex, to: NodeIndex) {
        self.world.node_mut(from).forward_to.push(to);
    }

    /// Pushes an event into a node's pipeline (stamping provenance).
    pub fn put(&mut self, node: NodeIndex, mut event: Event) {
        self.seq += 1;
        event.stamp(gloss_event::EventId { origin: node, seq: self.seq }, self.world.now());
        self.world.inject(node, node, PipelineMsg::Put(event.to_xml().to_xml()));
    }

    /// Advances the simulation.
    pub fn run_for(&mut self, d: SimDuration) {
        self.world.run_for(d);
    }

    /// The events that left the pipeline at `node`.
    pub fn outputs(&self, node: NodeIndex) -> &[Event] {
        &self.world.node(node).outputs
    }

    /// The underlying world (metrics, failure injection).
    pub fn world(&self) -> &World<PipelineHost> {
        &self.world
    }

    /// Mutable world access.
    pub fn world_mut(&mut self) -> &mut World<PipelineHost> {
        &mut self.world
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::standard::{Counter, KindFilter, MovementThreshold};
    use gloss_event::Filter;

    fn passthrough(name: &str) -> PipelineGraph {
        let mut g = PipelineGraph::new();
        let c = g.add(Box::new(Counter::new(name)));
        g.mark_entry(c);
        g
    }

    #[test]
    fn intra_node_output_stays_local() {
        let mut dp = DistributedPipeline::build(vec![passthrough("a")], 1);
        dp.put(NodeIndex(0), Event::new("e"));
        dp.run_for(SimDuration::from_secs(1));
        assert_eq!(dp.outputs(NodeIndex(0)).len(), 1);
    }

    #[test]
    fn inter_node_forwarding_works_and_adds_latency() {
        // Chain across three nodes.
        let graphs = vec![passthrough("a"), passthrough("b"), passthrough("c")];
        let mut dp = DistributedPipeline::build(graphs, 2);
        dp.link(NodeIndex(0), NodeIndex(1));
        dp.link(NodeIndex(1), NodeIndex(2));
        dp.put(NodeIndex(0), Event::new("e"));
        dp.run_for(SimDuration::from_secs(2));
        assert!(dp.outputs(NodeIndex(0)).is_empty());
        assert!(dp.outputs(NodeIndex(1)).is_empty());
        assert_eq!(dp.outputs(NodeIndex(2)).len(), 1);
        let s = dp.world().metrics().summary("pipeline.end_to_end_ms");
        assert_eq!(s.count, 1);
        assert!(s.mean > 0.0, "network hops add latency");
    }

    #[test]
    fn filters_drop_before_the_wire() {
        // Node 0 filters: only user.location crosses to node 1.
        let mut g0 = PipelineGraph::new();
        let f = g0.add(Box::new(KindFilter::new("f", Filter::for_kind("user.location"))));
        let m = g0.add(Box::new(MovementThreshold::new("m", 0.05)));
        g0.connect(f, m);
        g0.mark_entry(f);
        let mut dp = DistributedPipeline::build(vec![g0, passthrough("sink")], 3);
        dp.link(NodeIndex(0), NodeIndex(1));
        let loc = |lat: f64| {
            Event::new("user.location")
                .with_attr("user", "bob")
                .with_attr("lat", lat)
                .with_attr("lon", -2.8)
        };
        dp.put(NodeIndex(0), loc(56.3400));
        dp.put(NodeIndex(0), loc(56.3401)); // tiny move: suppressed
        dp.put(NodeIndex(0), loc(56.4400)); // big move: passes
        dp.put(NodeIndex(0), Event::new("noise"));
        dp.run_for(SimDuration::from_secs(2));
        assert_eq!(dp.outputs(NodeIndex(1)).len(), 2);
        assert_eq!(dp.world().metrics().counter("pipeline.forwarded"), 2.0);
    }

    #[test]
    fn events_survive_xml_wire_form() {
        let mut dp = DistributedPipeline::build(vec![passthrough("a"), passthrough("b")], 4);
        dp.link(NodeIndex(0), NodeIndex(1));
        let ev = Event::new("rich")
            .with_attr("s", "text with <brackets> & ampersands")
            .with_attr("f", 2.5)
            .with_attr("b", true)
            .with_payload(gloss_xml::Element::new("data").with_attr("deep", "yes"));
        dp.put(NodeIndex(0), ev);
        dp.run_for(SimDuration::from_secs(1));
        let out = &dp.outputs(NodeIndex(1))[0];
        assert_eq!(out.str_attr("s"), Some("text with <brackets> & ampersands"));
        assert_eq!(out.num_attr("f"), Some(2.5));
        assert_eq!(out.payload().unwrap().attr("deep"), Some("yes"));
    }
}
