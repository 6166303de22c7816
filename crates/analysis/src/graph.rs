//! Pass 4: the rule interaction graph.
//!
//! Kind-level emits→triggers edges across deployed matchlets: rule `a`
//! feeds rule `b` when `a` emits a kind one of `b`'s patterns matches.
//! Detects dead rules (every firing needs a kind nobody produces),
//! unreachable emits (a kind nobody matches or subscribes to), and
//! firing cycles — a conservative non-termination warning, since a cycle
//! of rules can amplify one event into an unbounded cascade.

use crate::diag::Report;
use gloss_matchlet::ast::Rule;
use std::collections::BTreeSet;

/// The emits→triggers graph over a set of rules.
#[derive(Debug, Clone)]
pub struct InteractionGraph {
    names: Vec<String>,
    inputs: Vec<Vec<String>>,
    outputs: Vec<String>,
    spans: Vec<gloss_matchlet::Span>,
    /// `edges[i]` = indices of rules that match what rule `i` emits.
    edges: Vec<Vec<usize>>,
}

impl InteractionGraph {
    /// Builds the graph from every deployed rule.
    pub fn from_rules(rules: &[Rule]) -> Self {
        let names: Vec<_> = rules.iter().map(|r| r.name.clone()).collect();
        let inputs: Vec<Vec<String>> =
            rules.iter().map(|r| r.patterns.iter().map(|p| p.kind.clone()).collect()).collect();
        let outputs: Vec<_> = rules.iter().map(|r| r.emit.kind.clone()).collect();
        let spans = rules.iter().map(|r| r.spans.rule).collect();
        let edges = outputs
            .iter()
            .map(|out| {
                inputs
                    .iter()
                    .enumerate()
                    .filter(|(_, ins)| ins.iter().any(|k| k == out))
                    .map(|(j, _)| j)
                    .collect()
            })
            .collect();
        InteractionGraph { names, inputs, outputs, spans, edges }
    }

    /// Rule-name cycles (each reported once, starting from its smallest
    /// participant).
    pub fn cycles(&self) -> Vec<Vec<String>> {
        let n = self.names.len();
        let mut color = vec![0u8; n]; // 0 new, 1 on stack, 2 done
        let mut stack: Vec<usize> = Vec::new();
        let mut found: BTreeSet<Vec<usize>> = BTreeSet::new();
        for start in 0..n {
            if color[start] == 0 {
                self.dfs(start, &mut color, &mut stack, &mut found);
            }
        }
        found.into_iter().map(|c| c.into_iter().map(|i| self.names[i].clone()).collect()).collect()
    }

    fn dfs(
        &self,
        node: usize,
        color: &mut Vec<u8>,
        stack: &mut Vec<usize>,
        found: &mut BTreeSet<Vec<usize>>,
    ) {
        color[node] = 1;
        stack.push(node);
        for &next in &self.edges[node] {
            match color[next] {
                0 => self.dfs(next, color, stack, found),
                1 => {
                    // Back edge: the cycle is the stack from `next` down.
                    let pos = stack.iter().position(|&x| x == next).expect("on stack");
                    let mut cycle: Vec<usize> = stack[pos..].to_vec();
                    // Normalise: rotate the smallest index to the front.
                    let min = cycle.iter().copied().enumerate().min_by_key(|(_, v)| *v);
                    if let Some((at, _)) = min {
                        cycle.rotate_left(at);
                    }
                    found.insert(cycle);
                }
                _ => {}
            }
        }
        stack.pop();
        color[node] = 2;
    }

    /// Findings over the graph.
    ///
    /// `produced`: kinds known to be published from outside the rule set
    /// (sensors, clients), or `None` for an open world where any kind may
    /// appear. `subscribed`: kinds known to have external subscribers, or
    /// `None` for an open world. Cycles warn in either world.
    pub fn report(
        &self,
        produced: Option<&BTreeSet<String>>,
        subscribed: Option<&BTreeSet<String>>,
    ) -> Report {
        let mut report = Report::new();
        for cycle in self.cycles() {
            let mut chain = cycle.join(" -> ");
            chain.push_str(" -> ");
            chain.push_str(&cycle[0]);
            report.warn(
                "firing-cycle",
                None,
                gloss_matchlet::Span::default(),
                format!("rules may trigger each other without bound: {chain}"),
            );
        }
        let emitted: BTreeSet<&str> = self.outputs.iter().map(String::as_str).collect();
        if let Some(produced) = produced {
            for (i, ins) in self.inputs.iter().enumerate() {
                for kind in ins {
                    if !produced.contains(kind) && !emitted.contains(kind.as_str()) {
                        report.warn(
                            "dead-rule",
                            Some(&self.names[i]),
                            self.spans[i],
                            format!(
                                "pattern kind `{kind}` is produced by no rule or known publisher: the rule can never fire"
                            ),
                        );
                    }
                }
            }
        }
        if let Some(subscribed) = subscribed {
            let consumed: BTreeSet<&str> =
                self.inputs.iter().flatten().map(String::as_str).collect();
            for (i, out) in self.outputs.iter().enumerate() {
                if !subscribed.contains(out) && !consumed.contains(out.as_str()) {
                    report.warn(
                        "unreachable-emit",
                        Some(&self.names[i]),
                        self.spans[i],
                        format!(
                            "emitted kind `{out}` is matched by no rule and has no known subscriber"
                        ),
                    );
                }
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gloss_matchlet::parse_rules;

    fn graph(src: &str) -> InteractionGraph {
        InteractionGraph::from_rules(&parse_rules(src).unwrap())
    }

    const CHAIN: &str = r#"
        rule stage1 { on a: event raw(v: ?v) emit cooked(v: ?v) }
        rule stage2 { on a: event cooked(v: ?v) emit served(v: ?v) }
    "#;

    #[test]
    fn chains_link_and_classify() {
        let g = graph(CHAIN);
        assert!(g.cycles().is_empty());
        assert!(g.report(None, None).is_clean());
    }

    #[test]
    fn closed_world_dead_and_unreachable() {
        let g = graph(CHAIN);
        let produced: BTreeSet<String> = ["raw".to_string()].into();
        let subscribed: BTreeSet<String> = ["served".to_string()].into();
        assert!(g.report(Some(&produced), Some(&subscribed)).is_clean());
        // Nothing publishes `raw`: stage1 is dead.
        let r = g.report(Some(&BTreeSet::new()), Some(&subscribed));
        assert_eq!(r.diagnostics.len(), 1);
        assert_eq!(r.diagnostics[0].code, "dead-rule");
        assert_eq!(r.diagnostics[0].rule.as_deref(), Some("stage1"));
        // Nobody wants `served`: stage2's emit is unreachable.
        let r = g.report(Some(&produced), Some(&BTreeSet::new()));
        assert_eq!(r.diagnostics.len(), 1);
        assert_eq!(r.diagnostics[0].code, "unreachable-emit");
        assert_eq!(r.diagnostics[0].rule.as_deref(), Some("stage2"));
    }

    #[test]
    fn cycles_detected_once() {
        let g = graph(
            r#"
            rule ping { on a: event pong.ev(v: ?v) emit ping.ev(v: ?v) }
            rule pong { on a: event ping.ev(v: ?v) emit pong.ev(v: ?v) }
            rule quiet { on a: event other() emit done() }
            "#,
        );
        let cycles = g.cycles();
        assert_eq!(cycles.len(), 1, "{cycles:?}");
        assert_eq!(cycles[0], vec!["ping".to_string(), "pong".to_string()]);
        let r = g.report(None, None);
        assert_eq!(r.diagnostics.len(), 1);
        assert_eq!(r.diagnostics[0].code, "firing-cycle");
        assert!(r.to_string().contains("ping -> pong -> ping"), "{r}");
    }

    #[test]
    fn self_loop_is_a_cycle() {
        let g = graph("rule echo { on a: event k(v: ?v) emit k(v: ?v) }");
        assert_eq!(g.cycles(), vec![vec!["echo".to_string()]]);
    }
}
