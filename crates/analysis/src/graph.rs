//! Pass 3: the rule interaction graph.
//!
//! Kind-level emits→triggers edges across deployed matchlets: rule `a`
//! feeds rule `b` when `a` emits a kind one of `b`'s patterns matches.
//! Detects firing cycles — a conservative non-termination warning, since
//! a cycle of rules can amplify one event into an unbounded cascade.

use crate::diag::Report;
use gloss_matchlet::ast::Rule;
use std::collections::BTreeSet;

/// The emits→triggers graph over a set of rules.
#[derive(Debug, Clone)]
pub struct InteractionGraph {
    names: Vec<String>,
    /// `edges[i]` = indices of rules that match what rule `i` emits.
    edges: Vec<Vec<usize>>,
}

impl InteractionGraph {
    /// Builds the graph from every deployed rule.
    pub fn from_rules(rules: &[Rule]) -> Self {
        let names: Vec<_> = rules.iter().map(|r| r.name.clone()).collect();
        let edges = rules
            .iter()
            .map(|r| {
                rules
                    .iter()
                    .enumerate()
                    .filter(|(_, next)| next.patterns.iter().any(|p| p.kind == r.emit.kind))
                    .map(|(j, _)| j)
                    .collect()
            })
            .collect();
        InteractionGraph { names, edges }
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

    /// Findings over the graph: one warning per firing cycle.
    pub fn report(&self) -> Report {
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
        assert!(g.report().is_clean());
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
        let r = g.report();
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
