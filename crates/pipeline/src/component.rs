//! The component model and the intra-node pipeline graph.

use gloss_event::Event;
use gloss_sim::SimTime;
use std::fmt;

/// Events emitted by one component activation.
#[derive(Debug, Default)]
pub struct Emit {
    events: Vec<Event>,
}

impl Emit {
    /// Creates an empty emission buffer.
    pub fn new() -> Self {
        Emit::default()
    }

    /// Emits an event downstream.
    pub fn push(&mut self, event: Event) {
        self.events.push(event);
    }

    /// Number of events emitted.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing was emitted.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Drains the emitted events.
    pub fn drain(&mut self) -> Vec<Event> {
        std::mem::take(&mut self.events)
    }
}

/// A pipeline component: anything with a `put(event)` interface.
pub trait Component: fmt::Debug {
    /// The component's instance name (for tracing and assembly).
    fn name(&self) -> &str;

    /// Processes one event, emitting zero or more events downstream.
    fn put(&mut self, now: SimTime, event: Event, out: &mut Emit);
}

/// An intra-node pipeline: components wired by directed edges, fed
/// through entry components; events leaving components with no outgoing
/// edge become the graph's outputs.
#[derive(Debug, Default)]
pub struct PipelineGraph {
    components: Vec<Box<dyn Component>>,
    edges: Vec<Vec<usize>>,
    entries: Vec<usize>,
    /// Events processed (puts performed).
    pub puts: u64,
}

/// Safety valve against accidental cycles in hand-built graphs.
const MAX_STEPS_PER_PUSH: usize = 100_000;

impl PipelineGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        PipelineGraph::default()
    }

    /// Adds a component; returns its index.
    pub fn add(&mut self, component: Box<dyn Component>) -> usize {
        self.components.push(component);
        self.edges.push(Vec::new());
        self.components.len() - 1
    }

    /// Connects `from` → `to`.
    ///
    /// # Panics
    ///
    /// Panics if either index is out of range.
    pub fn connect(&mut self, from: usize, to: usize) {
        assert!(from < self.components.len() && to < self.components.len(), "bad component index");
        self.edges[from].push(to);
    }

    /// Marks a component as an entry point for externally pushed events.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of range.
    pub fn mark_entry(&mut self, idx: usize) {
        assert!(idx < self.components.len(), "bad component index");
        self.entries.push(idx);
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.components.len()
    }

    /// Whether the graph has no components.
    pub fn is_empty(&self) -> bool {
        self.components.is_empty()
    }

    /// The index of the named component.
    #[cfg(test)]
    pub(crate) fn index_of(&self, name: &str) -> Option<usize> {
        self.components.iter().position(|c| c.name() == name)
    }

    /// Pushes an event into every entry component (the `put(event)` web
    /// service interface of the whole pipeline); returns the events that
    /// leave the graph.
    pub fn push(&mut self, now: SimTime, event: Event) -> Vec<Event> {
        let entries = self.entries.clone();
        let queue: Vec<(usize, Event)> = entries.iter().map(|&i| (i, event.clone())).collect();
        self.run_queue(now, queue)
    }

    fn run_queue(&mut self, now: SimTime, mut queue: Vec<(usize, Event)>) -> Vec<Event> {
        let mut outputs = Vec::new();
        let mut steps = 0;
        while let Some((idx, event)) = queue.pop() {
            steps += 1;
            if steps > MAX_STEPS_PER_PUSH {
                break;
            }
            self.puts += 1;
            let mut emit = Emit::new();
            self.components[idx].put(now, event, &mut emit);
            for produced in emit.drain() {
                if self.edges[idx].is_empty() {
                    outputs.push(produced);
                } else {
                    for &next in &self.edges[idx] {
                        queue.push((next, produced.clone()));
                    }
                }
            }
        }
        outputs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Passes events through, stamping its name into an attribute.
    #[derive(Debug)]
    struct Tag(String);

    impl Component for Tag {
        fn name(&self) -> &str {
            &self.0
        }
        fn put(&mut self, _now: SimTime, event: Event, out: &mut Emit) {
            out.push(event.with_attr(self.0.clone(), true));
        }
    }

    /// Drops everything.
    #[derive(Debug)]
    struct Sink;

    impl Component for Sink {
        fn name(&self) -> &str {
            "sink"
        }
        fn put(&mut self, _now: SimTime, _event: Event, _out: &mut Emit) {}
    }

    /// Duplicates events.
    #[derive(Debug)]
    struct Dup;

    impl Component for Dup {
        fn name(&self) -> &str {
            "dup"
        }
        fn put(&mut self, _now: SimTime, event: Event, out: &mut Emit) {
            out.push(event.clone());
            out.push(event);
        }
    }

    #[test]
    fn chain_processes_in_order() {
        let mut g = PipelineGraph::new();
        let a = g.add(Box::new(Tag("a".into())));
        let b = g.add(Box::new(Tag("b".into())));
        g.connect(a, b);
        g.mark_entry(a);
        let out = g.push(SimTime::ZERO, Event::new("e"));
        assert_eq!(out.len(), 1);
        assert!(out[0].attr("a").is_some());
        assert!(out[0].attr("b").is_some());
        assert_eq!(g.puts, 2);
    }

    #[test]
    fn fan_out_duplicates_downstream() {
        let mut g = PipelineGraph::new();
        let a = g.add(Box::new(Tag("a".into())));
        let b = g.add(Box::new(Tag("b".into())));
        let c = g.add(Box::new(Tag("c".into())));
        g.connect(a, b);
        g.connect(a, c);
        g.mark_entry(a);
        let out = g.push(SimTime::ZERO, Event::new("e"));
        assert_eq!(out.len(), 2, "event bus delivers to both downstream components");
    }

    #[test]
    fn sink_consumes() {
        let mut g = PipelineGraph::new();
        let a = g.add(Box::new(Sink));
        g.mark_entry(a);
        assert!(g.push(SimTime::ZERO, Event::new("e")).is_empty());
    }

    #[test]
    fn duplicator_multiplies() {
        let mut g = PipelineGraph::new();
        let d = g.add(Box::new(Dup));
        g.mark_entry(d);
        assert_eq!(g.push(SimTime::ZERO, Event::new("e")).len(), 2);
    }

    #[test]
    fn index_of_finds_names() {
        let mut g = PipelineGraph::new();
        g.add(Box::new(Tag("alpha".into())));
        let b = g.add(Box::new(Tag("beta".into())));
        assert_eq!(g.index_of("beta"), Some(b));
        assert_eq!(g.index_of("gamma"), None);
    }

    #[test]
    fn cycle_guard_terminates() {
        let mut g = PipelineGraph::new();
        let a = g.add(Box::new(Tag("a".into())));
        let b = g.add(Box::new(Tag("b".into())));
        g.connect(a, b);
        g.connect(b, a); // accidental cycle
        g.mark_entry(a);
        // Must terminate (outputs are irrelevant here).
        let _ = g.push(SimTime::ZERO, Event::new("e"));
        assert!(g.puts as usize <= MAX_STEPS_PER_PUSH + 1);
    }

    #[test]
    #[should_panic(expected = "bad component index")]
    fn connect_validates() {
        let mut g = PipelineGraph::new();
        g.connect(0, 1);
    }
}
