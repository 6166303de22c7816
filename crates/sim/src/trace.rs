//! Optional trace collection for debugging protocol runs.

use crate::time::SimTime;
use crate::topology::NodeIndex;
use std::fmt;

/// One recorded trace event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// When it was recorded.
    pub at: SimTime,
    /// The node that recorded it.
    pub node: NodeIndex,
    /// A short machine-matchable kind, e.g. `"route"` or `"deploy"`.
    pub kind: String,
    /// Free-form detail.
    pub detail: String,
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} [{}] {}", self.at, self.node, self.kind, self.detail)
    }
}

/// A bounded in-memory trace buffer. Disabled tracers drop all records, so
/// tracing has near-zero cost when off.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    enabled: bool,
    cap: usize,
    events: Vec<TraceEvent>,
    dropped: usize,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn disabled() -> Self {
        Tracer::default()
    }

    /// A tracer retaining at most `cap` events (older events win; overflow
    /// is counted, not silently discarded).
    pub fn enabled(cap: usize) -> Self {
        Tracer { enabled: true, cap, events: Vec::new(), dropped: 0 }
    }

    /// Records one event (no-op when disabled or full).
    pub fn record(&mut self, at: SimTime, node: NodeIndex, kind: &str, detail: String) {
        if !self.enabled {
            return;
        }
        if self.events.len() >= self.cap {
            self.dropped += 1;
            return;
        }
        self.events.push(TraceEvent { at, node, kind: kind.to_string(), detail });
    }

    /// All recorded events, in time order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Events of one kind.
    #[cfg(test)]
    pub(crate) fn of_kind<'a>(&'a self, kind: &'a str) -> impl Iterator<Item = &'a TraceEvent> {
        self.events.iter().filter(move |e| e.kind == kind)
    }

    /// How many events were discarded because the buffer was full.
    pub fn dropped(&self) -> usize {
        self.dropped
    }

    /// Renders the trace as text, one event per line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&e.to_string());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_records_nothing() {
        let mut t = Tracer::disabled();
        t.record(SimTime::ZERO, NodeIndex(0), "x", "y".into());
        assert!(t.events().is_empty());
    }

    #[test]
    fn enabled_records_up_to_cap() {
        let mut t = Tracer::enabled(2);
        for i in 0..5 {
            t.record(SimTime::from_millis(i), NodeIndex(0), "k", format!("{i}"));
        }
        assert_eq!(t.events().len(), 2);
        assert_eq!(t.dropped(), 3);
    }

    #[test]
    fn filter_by_kind() {
        let mut t = Tracer::enabled(10);
        t.record(SimTime::ZERO, NodeIndex(0), "a", "1".into());
        t.record(SimTime::ZERO, NodeIndex(1), "b", "2".into());
        t.record(SimTime::ZERO, NodeIndex(2), "a", "3".into());
        assert_eq!(t.of_kind("a").count(), 2);
        assert_eq!(t.of_kind("b").count(), 1);
    }

    #[test]
    fn render_includes_details() {
        let mut t = Tracer::enabled(10);
        t.record(SimTime::from_millis(5), NodeIndex(3), "route", "hop to n4".into());
        let s = t.render();
        assert!(s.contains("route"));
        assert!(s.contains("hop to n4"));
        assert!(s.contains("n3"));
    }
}
