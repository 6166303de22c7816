//! Contextual service definitions and the declarative deployment notation
//! (§4.8, §4.9).
//!
//! "Our approach here is to develop declarative notations to describe the
//! placement of computation and data, allowing the developer to write
//! constraints that feed into the deployment evolution engine." A service
//! is matching rules plus placement constraints:
//!
//! ```text
//! service ice_cream {
//!     deploy at least 2 in "scotland"
//!     deploy at least 1
//!     rules {
//!         rule suggest { on w: event weather.reading(celsius: ?t) ... }
//!     }
//! }
//! ```

use gloss_deploy::Constraint;
use gloss_matchlet::parse_rules;
use gloss_sim::SimDuration;
use std::error::Error;
use std::fmt;

/// A deployable contextual service.
#[derive(Debug, Clone, PartialEq)]
pub struct ServiceSpec {
    /// The service name.
    pub name: String,
    /// The matchlet rule source deployed to hosting nodes.
    pub rules_source: String,
    /// Placement requirements: `(region or None, minimum instances)`.
    pub placements: Vec<(Option<String>, usize)>,
    /// The event kinds the rules consume (derived; hosting nodes
    /// subscribe to these).
    pub input_kinds: Vec<String>,
}

impl ServiceSpec {
    /// Creates a service from a name, rule source and placements.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError`] if the rules do not compile.
    pub fn new(
        name: impl Into<String>,
        rules_source: impl Into<String>,
        placements: Vec<(Option<String>, usize)>,
    ) -> Result<Self, ServiceError> {
        let name = name.into();
        let rules_source = rules_source.into();
        let rules = parse_rules(&rules_source)
            .map_err(|e| ServiceError { message: format!("service `{name}`: {e}") })?;
        if rules.is_empty() {
            return Err(ServiceError { message: format!("service `{name}` has no rules") });
        }
        let mut input_kinds = Vec::new();
        for r in &rules {
            for p in &r.patterns {
                if !input_kinds.contains(&p.kind) {
                    input_kinds.push(p.kind.clone());
                }
            }
        }
        Ok(ServiceSpec { name, rules_source, placements, input_kinds })
    }

    /// The component kind the evolution engine uses for this service.
    pub fn component_kind(&self) -> String {
        format!("matchlet:{}", self.name)
    }

    /// The longest window of the service's rules.
    pub fn window(&self) -> SimDuration {
        let rules = parse_rules(&self.rules_source).unwrap_or_default();
        rules.iter().map(|r| r.window).max().unwrap_or(SimDuration::ZERO)
    }

    /// The placement constraints feeding the evolution engine.
    pub fn constraints(&self) -> Vec<Constraint> {
        let kind = self.component_kind();
        self.placements
            .iter()
            .map(|(region, min)| Constraint::count(&kind, region.as_deref(), *min))
            .collect()
    }
}

/// A service definition error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceError {
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl Error for ServiceError {}

/// Parses the declarative service notation (see the module docs).
///
/// # Errors
///
/// Returns [`ServiceError`] on malformed notation or rules.
pub fn parse_service(src: &str) -> Result<ServiceSpec, ServiceError> {
    let fail = |m: &str| ServiceError { message: m.to_string() };
    let src = src.trim();
    let rest = src
        .strip_prefix("service")
        .ok_or_else(|| fail("expected `service <name> { ... }`"))?
        .trim_start();
    let brace = rest.find('{').ok_or_else(|| fail("expected `{` after service name"))?;
    let name = rest[..brace].trim().to_string();
    if name.is_empty() || !name.chars().all(|c| c.is_alphanumeric() || c == '_' || c == '-') {
        return Err(fail("bad service name"));
    }
    let body = balanced_block(&rest[brace..]).ok_or_else(|| fail("unbalanced braces"))?;

    let mut placements = Vec::new();
    let mut rules_source = None;
    let mut cursor = body;
    while let Some(idx) = cursor.find("deploy").or_else(|| cursor.find("rules")) {
        let clause = &cursor[idx..];
        if let Some(rest) = clause.strip_prefix("deploy") {
            // deploy at least N [in "region"]
            let tail = rest.trim_start();
            let tail = tail
                .strip_prefix("at least")
                .ok_or_else(|| fail("expected `deploy at least <n> [in \"region\"]`"))?
                .trim_start();
            let num_end = tail.find(|c: char| !c.is_ascii_digit()).unwrap_or(tail.len());
            let min: usize = tail[..num_end].parse().map_err(|_| fail("bad instance count"))?;
            let after = tail[num_end..].trim_start();
            let region = if let Some(r) = after.strip_prefix("in") {
                let r = r.trim_start();
                let r = r.strip_prefix('"').ok_or_else(|| fail("region must be quoted"))?;
                let end = r.find('"').ok_or_else(|| fail("unterminated region"))?;
                Some(r[..end].to_string())
            } else {
                None
            };
            placements.push((region, min));
            cursor = &clause["deploy".len()..];
        } else {
            // rules { ... }
            let after = clause["rules".len()..].trim_start();
            if !after.starts_with('{') {
                return Err(fail("expected `{` after `rules`"));
            }
            let inner = balanced_block(after).ok_or_else(|| fail("unbalanced rules block"))?;
            rules_source = Some(inner.to_string());
            break;
        }
    }
    let rules_source = rules_source.ok_or_else(|| fail("service has no rules block"))?;
    if placements.is_empty() {
        placements.push((None, 1));
    }
    ServiceSpec::new(name, rules_source, placements)
}

/// Returns the contents of the `{...}` block that `s` starts with.
fn balanced_block(s: &str) -> Option<&str> {
    let mut depth = 0usize;
    let bytes = s.as_bytes();
    if bytes.first() != Some(&b'{') {
        return None;
    }
    let mut in_string = false;
    for (i, &b) in bytes.iter().enumerate() {
        match b {
            b'"' => in_string = !in_string,
            b'{' if !in_string => depth += 1,
            b'}' if !in_string => {
                depth -= 1;
                if depth == 0 {
                    return Some(&s[1..i]);
                }
            }
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    const SRC: &str = r#"
        service ice_cream {
            deploy at least 2 in "scotland"
            deploy at least 1
            rules {
                rule suggest {
                    on w: event weather.reading(celsius: ?t)
                    on l: event user.location(user: ?u)
                    where ?t >= 18.0
                    within 5 m
                    emit suggestion(user: ?u)
                }
            }
        }
    "#;

    #[test]
    fn parses_full_service() {
        let s = parse_service(SRC).unwrap();
        assert_eq!(s.name, "ice_cream");
        assert_eq!(s.placements, vec![(Some("scotland".to_string()), 2), (None, 1)]);
        assert_eq!(s.input_kinds, vec!["weather.reading", "user.location"]);
        assert_eq!(s.component_kind(), "matchlet:ice_cream");
        assert_eq!(s.constraints().len(), 2);
    }

    #[test]
    fn default_placement_when_unspecified() {
        let src = r#"service s { rules { rule r { on a: event k() emit o() } } }"#;
        let s = parse_service(src).unwrap();
        assert_eq!(s.placements, vec![(None, 1)]);
    }

    #[test]
    fn rejects_malformed_notation() {
        assert!(parse_service("nonsense").is_err());
        assert!(parse_service("service x {").is_err());
        assert!(parse_service("service x { deploy at most 3 rules {} }").is_err());
        assert!(parse_service("service x { rules { } }").is_err(), "no rules inside");
        assert!(
            parse_service(r#"service x { rules { rule r { broken } } }"#).is_err(),
            "rules must compile"
        );
        assert!(parse_service(r#"service bad name { rules {} }"#).is_err());
    }

    #[test]
    fn braces_inside_rule_strings_do_not_confuse_the_parser() {
        let src = r#"service s { rules { rule r { on a: event k(x: "{") emit o() } } }"#;
        let s = parse_service(src).unwrap();
        assert!(s.rules_source.contains("rule r"));
    }

    #[test]
    fn spec_constraints_name_regions() {
        let s = parse_service(SRC).unwrap();
        let c = &s.constraints()[0];
        assert!(c.to_string().contains("scotland"), "{c}");
        assert!(c.to_string().contains("matchlet:ice_cream"), "{c}");
    }
}
