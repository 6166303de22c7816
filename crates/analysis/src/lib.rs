//! Deploy-time static analysis for Gloss matchlets and subscriptions.
//!
//! Three passes, all sound-but-incomplete (a reported error is a proof of
//! a defect; silence is not a proof of health):
//!
//! 1. **Dataflow** ([`dataflow::check_rules`]) — unbound variables in
//!    `where`/`emit` (a guaranteed runtime `EvalError` on every firing),
//!    bindings never read, duplicate rule names and bodies.
//! 2. **Types & satisfiability** ([`types::check_rules`],
//!    [`satisfy::check_filter`]) — per-variable type inference across
//!    patterns, builtins and expressions; never-true conditions; empty
//!    per-attribute intervals in subscription filters; redundant
//!    constraints.
//! 3. **Interaction graph** ([`graph::InteractionGraph`]) — kind-level
//!    emits→triggers edges and the firing cycles they close (a
//!    conservative non-termination warning).
//!
//! The deploy plane runs [`analyze_rules`] as a gate: artifacts with
//! error-level findings are rejected before they reach an engine. The
//! `gloss-lint` binary runs the same passes from the command line.

pub mod dataflow;
pub mod diag;
pub mod graph;
pub mod satisfy;
pub mod types;

pub use diag::{Diagnostic, Report, Severity};
pub use graph::InteractionGraph;
pub use satisfy::{check_filter, simplify, unsatisfiable};

use gloss_matchlet::{parse_rules, MatchletError, Rule};

/// Runs every per-unit pass over one set of rules (one bundle or file):
/// dataflow, type inference, and the interaction graph restricted to the
/// unit itself (open world: any kind may be published or subscribed
/// from outside it, so only cycles can be diagnosed).
pub fn analyze_rules(rules: &[Rule]) -> Report {
    let mut report = dataflow::check_rules(rules);
    report.merge(types::check_rules(rules));
    report.merge(InteractionGraph::from_rules(rules).report());
    report
}

/// Parses then analyzes matchlet source.
pub fn analyze_source(src: &str) -> Result<Report, MatchletError> {
    Ok(analyze_rules(&parse_rules(src)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analyze_source_combines_passes() {
        let r = analyze_source(
            r#"rule bad {
                on w: event weather(c: ?c, street: ?street)
                where ?c > 18.0 and ?c = "hot"
                emit weather(c: ?ghost)
            }"#,
        )
        .unwrap();
        let codes: Vec<_> = r.diagnostics.iter().map(|d| d.code).collect();
        assert!(codes.contains(&"unbound-variable"), "{r}");
        assert!(codes.contains(&"unused-binding"), "{r}");
        assert!(codes.contains(&"type-conflict"), "{r}");
        assert!(codes.contains(&"firing-cycle"), "{r}");
        assert!(r.has_errors());
    }

    #[test]
    fn clean_source_is_clean() {
        let r = analyze_source(
            r#"rule hot {
                on w: event weather(c: ?c)
                where ?c > 18.0
                emit alert.hot(c: ?c)
            }"#,
        )
        .unwrap();
        assert!(r.is_clean(), "{r}");
    }

    #[test]
    fn parse_errors_carry_snippets() {
        let err = analyze_source("rule broken {\n  on\n}").unwrap_err();
        assert!(err.snippet.is_some());
    }
}
