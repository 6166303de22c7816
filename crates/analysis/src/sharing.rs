//! Prefix-sharing report: how much of a rule set's join work the shared
//! beta network collapses.
//!
//! The matchlet engine canonicalises the memoised block of every
//! memo-eligible rule's goals — the goals from the first fact goal up to
//! the first one that reads the event (see `gloss_matchlet::canonical`)
//! — and interns it into a prefix trie, so rules whose blocks start with
//! the same canonical goals share the join nodes — and the memoised
//! partial solutions — for that prefix. This pass computes the same trie statically at deploy time:
//! how many chain nodes the rule set *would* need unshared, how many
//! distinct trie nodes it actually needs, and which prefixes carry the
//! most rules (the hot shared state worth knowing about before deploy).

use gloss_matchlet::canonical::canonical_chain;
use gloss_matchlet::Rule;
use std::collections::BTreeMap;
use std::fmt;

/// One shared prefix of the static beta trie.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SharedPrefix {
    /// Number of canonical goals in the prefix.
    pub depth: usize,
    /// Rules whose chains pass through the prefix's last node.
    pub rules: usize,
    /// The predicates the prefix enumerates, in chain order (a readable
    /// proxy for the canonical encoding).
    pub predicates: Vec<String>,
}

/// Deploy-time view of beta-network sharing for one rule set.
#[derive(Debug, Clone, Default)]
pub struct SharingReport {
    /// Rules with a canonical chain (hosted on the shared network).
    pub memo_rules: usize,
    /// Rules solved directly every firing (dynamic-state conditions, no
    /// fact goals, or a first fact goal that reads the event) — they
    /// share nothing by design.
    pub direct_rules: usize,
    /// Join nodes the memo rules would need without sharing (the sum of
    /// their chain lengths — one per-rule table per goal, as the
    /// pre-sharing engine kept).
    pub chain_nodes: usize,
    /// Distinct nodes in the shared prefix trie.
    pub trie_nodes: usize,
    /// Trie nodes hosting two or more rules.
    pub shared_nodes: usize,
    /// The most-shared prefixes, widest first (ties: deeper first);
    /// prefixes used by a single rule are omitted.
    pub top_prefixes: Vec<SharedPrefix>,
}

impl SharingReport {
    /// Join-state compression from sharing: chain nodes per trie node
    /// (1.0 = no sharing; N = the trie is N× smaller than per-rule
    /// tables would be).
    pub fn compression(&self) -> f64 {
        if self.trie_nodes == 0 {
            1.0
        } else {
            self.chain_nodes as f64 / self.trie_nodes as f64
        }
    }
}

impl fmt::Display for SharingReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "beta sharing: {} memo rule(s) ({} direct), {} chain node(s) -> {} trie node(s) \
             ({} shared, {:.2}x compression)",
            self.memo_rules,
            self.direct_rules,
            self.chain_nodes,
            self.trie_nodes,
            self.shared_nodes,
            self.compression(),
        )?;
        for p in &self.top_prefixes {
            writeln!(
                f,
                "  {} rules share depth-{} prefix [{}]",
                p.rules,
                p.depth,
                p.predicates.join(" -> "),
            )?;
        }
        Ok(())
    }
}

/// Computes the sharing report for a rule set, listing at most
/// `top` shared prefixes.
pub fn sharing_report(rules: &[Rule], top: usize) -> SharingReport {
    // Trie node identity is the full canonical path to it, exactly as
    // the engine interns beta nodes (parent identity + goal encoding).
    let mut nodes: BTreeMap<String, (usize, usize, Vec<String>)> = BTreeMap::new();
    let mut report = SharingReport::default();
    for rule in rules {
        let Some(chain) = canonical_chain(rule) else {
            report.direct_rules += 1;
            continue;
        };
        report.memo_rules += 1;
        report.chain_nodes += chain.reprs.len();
        let mut path = String::new();
        let mut predicates: Vec<String> = Vec::new();
        for (depth, repr) in chain.reprs.iter().enumerate() {
            path.push('/');
            path.push_str(repr);
            if let Some(p) = repr.strip_prefix('F').and_then(|r| r.split('|').nth(1)) {
                // Fact goals carry their predicate in the encoding; keep
                // the readable name for the report.
                predicates.push(p.split_once(':').map_or(p, |(_, name)| name).to_string());
            }
            let entry =
                nodes.entry(path.clone()).or_insert_with(|| (0, depth + 1, predicates.clone()));
            entry.0 += 1;
        }
    }
    report.trie_nodes = nodes.len();
    let mut shared: Vec<SharedPrefix> = nodes
        .into_values()
        .filter(|(count, _, _)| *count >= 2)
        .map(|(count, depth, predicates)| SharedPrefix { depth, rules: count, predicates })
        .collect();
    report.shared_nodes = shared.len();
    shared.sort_by(|a, b| b.rules.cmp(&a.rules).then(b.depth.cmp(&a.depth)));
    shared.truncate(top);
    report.top_prefixes = shared;
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use gloss_matchlet::parse_rules;

    fn rules(src: &str) -> Vec<Rule> {
        parse_rules(src).unwrap()
    }

    #[test]
    fn disjoint_rules_share_nothing() {
        let r = rules(
            r#"rule a { on w: event e(c: ?c) where fact(?u, likes, ?x) emit out(x: ?x) }
               rule b { on w: event e(c: ?c) where fact(?u, hates, ?x) emit out(x: ?x) }"#,
        );
        let rep = sharing_report(&r, 8);
        assert_eq!((rep.memo_rules, rep.chain_nodes, rep.trie_nodes), (2, 2, 2));
        assert_eq!(rep.shared_nodes, 0);
        assert!((rep.compression() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn common_prefixes_collapse() {
        // Three rules over the same likes ∧ nationality prefix, each
        // with a distinct leaf filter on the fact-bound variable.
        let src: String = (0..3)
            .map(|i| {
                format!(
                    r#"rule r{i} {{ on w: event e(c: ?c)
                        where fact(?u, likes, ?x) and fact(?u, nationality, ?n)
                          and ?n != "x{i}"
                        emit out(x: ?x) }}"#
                )
            })
            .collect();
        let rep = sharing_report(&rules(&src), 8);
        assert_eq!(rep.memo_rules, 3);
        assert_eq!(rep.chain_nodes, 9, "3 rules x 3 goals unshared");
        assert_eq!(rep.trie_nodes, 5, "2 shared prefix nodes + 3 leaf filters");
        assert_eq!(rep.shared_nodes, 2);
        assert!(rep.compression() > 1.7, "{}", rep.compression());
        // The widest shared prefix is reported deepest-first on ties.
        assert_eq!(rep.top_prefixes[0].rules, 3);
        assert_eq!(rep.top_prefixes[0].depth, 2);
        assert_eq!(rep.top_prefixes[0].predicates, vec!["likes", "nationality"]);
    }

    #[test]
    fn direct_rules_are_counted_separately() {
        let r = rules(
            r#"rule direct { on w: event e(u: ?u) where now() > 5 and fact(?u, likes, ?x) emit out(x: ?x) }
               rule pure { on w: event e(c: ?c) where ?c > 3 emit out(c: ?c) }"#,
        );
        let rep = sharing_report(&r, 8);
        assert_eq!(rep.memo_rules, 0);
        assert_eq!(rep.direct_rules, 2);
        assert_eq!(rep.trie_nodes, 0);
    }

    #[test]
    fn display_renders_summary_and_prefixes() {
        let r = rules(
            r#"rule a { on w: event e(c: ?c) where fact(?u, likes, ?x) emit out(x: ?x) }
               rule b { on w: event e(c: ?c) where fact(?u, likes, ?x) and fact(?u, age, ?a) emit out(x: ?a) }"#,
        );
        let rep = sharing_report(&r, 8);
        let text = rep.to_string();
        assert!(text.contains("2 memo rule(s)"), "{text}");
        assert!(text.contains("2 rules share depth-1 prefix [likes]"), "{text}");
    }
}
