//! Pipeline assembly from XML specifications (Figure 3's "pipeline
//! assembly process": bundles arrive carrying component specs, and the
//! deployment infrastructure wires them into a running pipeline).
//!
//! Specification format:
//!
//! ```xml
//! <pipeline>
//!   <component id="f1" kind="filter.kind"><cfg kind="user.location"/></component>
//!   <component id="m1" kind="filter.movement"><cfg min_km="0.1"/></component>
//!   <link from="f1" to="m1"/>
//!   <entry id="f1"/>
//! </pipeline>
//! ```

use crate::component::PipelineGraph;
use crate::registry::Registry;
use gloss_xml::Element;
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// An assembly failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AssemblyError {
    /// A `<component>` was missing its `id` or `kind`.
    MissingAttribute(String),
    /// Two components share an id.
    DuplicateId(String),
    /// The registry does not know a kind.
    UnknownKind(String),
    /// A factory rejected its configuration.
    BadConfig {
        /// The component id.
        id: String,
        /// The factory's message.
        message: String,
    },
    /// A link or entry referenced an unknown id.
    UnknownId(String),
    /// The spec declared no entry points.
    NoEntries,
}

impl fmt::Display for AssemblyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AssemblyError::MissingAttribute(what) => write!(f, "component missing {what}"),
            AssemblyError::DuplicateId(id) => write!(f, "duplicate component id `{id}`"),
            AssemblyError::UnknownKind(k) => write!(f, "unknown component kind `{k}`"),
            AssemblyError::BadConfig { id, message } => {
                write!(f, "component `{id}` rejected its config: {message}")
            }
            AssemblyError::UnknownId(id) => write!(f, "reference to unknown component `{id}`"),
            AssemblyError::NoEntries => write!(f, "pipeline spec declares no <entry>"),
        }
    }
}

impl Error for AssemblyError {}

/// Builds a [`PipelineGraph`] from an XML spec and a component registry.
///
/// # Errors
///
/// Returns [`AssemblyError`] describing the first structural problem.
pub fn assemble(spec: &Element, registry: &Registry) -> Result<PipelineGraph, AssemblyError> {
    let mut graph = PipelineGraph::new();
    let mut ids: BTreeMap<String, usize> = BTreeMap::new();

    for c in spec.children_named("component") {
        let id =
            c.attr("id").ok_or_else(|| AssemblyError::MissingAttribute("id".into()))?.to_string();
        let kind = c.attr("kind").ok_or_else(|| AssemblyError::MissingAttribute("kind".into()))?;
        if ids.contains_key(&id) {
            return Err(AssemblyError::DuplicateId(id));
        }
        let default_cfg = Element::new("cfg");
        let cfg = c.children().next().unwrap_or(&default_cfg);
        let component = registry.build(kind, cfg).map_err(|e| match e {
            None => AssemblyError::UnknownKind(kind.to_string()),
            Some(message) => AssemblyError::BadConfig { id: id.clone(), message },
        })?;
        let idx = graph.add(component);
        ids.insert(id, idx);
    }

    for l in spec.children_named("link") {
        let from =
            l.attr("from").ok_or_else(|| AssemblyError::MissingAttribute("link/@from".into()))?;
        let to = l.attr("to").ok_or_else(|| AssemblyError::MissingAttribute("link/@to".into()))?;
        let fi = *ids.get(from).ok_or_else(|| AssemblyError::UnknownId(from.to_string()))?;
        let ti = *ids.get(to).ok_or_else(|| AssemblyError::UnknownId(to.to_string()))?;
        graph.connect(fi, ti);
    }

    let mut any_entry = false;
    for e in spec.children_named("entry") {
        let id = e.attr("id").ok_or_else(|| AssemblyError::MissingAttribute("entry/@id".into()))?;
        let idx = *ids.get(id).ok_or_else(|| AssemblyError::UnknownId(id.to_string()))?;
        graph.mark_entry(idx);
        any_entry = true;
    }
    if !any_entry {
        return Err(AssemblyError::NoEntries);
    }
    Ok(graph)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::standard::register_standard;
    use gloss_event::Event;
    use gloss_sim::SimTime;
    use gloss_xml::parse;

    fn registry() -> Registry {
        let mut r = Registry::new();
        register_standard(&mut r);
        r
    }

    const SPEC: &str = r#"
        <pipeline>
          <component id="f1" kind="filter.kind"><cfg kind="user.location"/></component>
          <component id="m1" kind="filter.movement"><cfg min_km="0.1"/></component>
          <component id="c1" kind="counter"/>
          <link from="f1" to="m1"/>
          <link from="m1" to="c1"/>
          <entry id="f1"/>
        </pipeline>
    "#;

    #[test]
    fn assembles_and_runs() {
        let spec = parse(SPEC).unwrap();
        let mut graph = assemble(&spec, &registry()).unwrap();
        assert_eq!(graph.len(), 3);
        let loc = Event::new("user.location")
            .with_attr("user", "bob")
            .with_attr("lat", 56.34)
            .with_attr("lon", -2.80);
        let out = graph.push(SimTime::ZERO, loc);
        assert_eq!(out.len(), 1, "filter passes, movement passes (first fix), counter passes");
        let noise = Event::new("noise");
        assert!(graph.push(SimTime::ZERO, noise).is_empty());
    }

    #[test]
    fn rejects_structural_problems() {
        let reg = registry();
        let cases = [
            (r#"<p><component kind="counter"/><entry id="x"/></p>"#, "missing id"),
            (
                r#"<p><component id="a" kind="counter"/><component id="a" kind="counter"/><entry id="a"/></p>"#,
                "duplicate",
            ),
            (r#"<p><component id="a" kind="warp.drive"/><entry id="a"/></p>"#, "unknown kind"),
            (
                r#"<p><component id="a" kind="counter"/><link from="a" to="zz"/><entry id="a"/></p>"#,
                "unknown id",
            ),
            (r#"<p><component id="a" kind="counter"/></p>"#, "no entries"),
            (
                r#"<p><component id="a" kind="filter.movement"><cfg/></component><entry id="a"/></p>"#,
                "bad config",
            ),
        ];
        for (src, what) in cases {
            let spec = parse(src).unwrap();
            assert!(assemble(&spec, &reg).is_err(), "{what}");
        }
    }

    #[test]
    fn error_variants_are_specific() {
        let reg = registry();
        let spec = parse(r#"<p><component id="a" kind="warp"/><entry id="a"/></p>"#).unwrap();
        assert_eq!(assemble(&spec, &reg).unwrap_err(), AssemblyError::UnknownKind("warp".into()));
        let spec = parse(r#"<p><component id="a" kind="counter"/></p>"#).unwrap();
        assert_eq!(assemble(&spec, &reg).unwrap_err(), AssemblyError::NoEntries);
    }
}
