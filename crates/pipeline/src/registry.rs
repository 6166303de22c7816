//! The component factory registry: how statically compiled component
//! kinds become available for dynamic deployment.
//!
//! Rust cannot load native code at runtime, so "pushing code" for
//! *component* bundles means naming a kind that the receiving process has
//! registered a factory for, plus XML configuration that genuinely is
//! dynamic. (Matchlet bundles carry fully dynamic logic through the rule
//! interpreter instead.) This mirrors Cingal's own requirement that thin
//! servers pre-install the deployment infrastructure.

use crate::component::Component;
use gloss_xml::Element;
use std::collections::BTreeMap;
use std::fmt;

/// A factory building a component from its XML configuration.
type Factory = Box<dyn Fn(&Element) -> Result<Box<dyn Component>, String>>;

/// Component factories by kind name.
#[derive(Default)]
pub struct Registry {
    factories: BTreeMap<String, Factory>,
}

impl fmt::Debug for Registry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Registry").field("kinds", &self.kinds()).finish()
    }
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Registers a factory for `kind` (replacing any previous one).
    pub fn register(
        &mut self,
        kind: impl Into<String>,
        factory: impl Fn(&Element) -> Result<Box<dyn Component>, String> + 'static,
    ) {
        self.factories.insert(kind.into(), Box::new(factory));
    }

    /// The registered kind names.
    pub fn kinds(&self) -> Vec<&str> {
        self.factories.keys().map(String::as_str).collect()
    }

    /// Instantiates `kind` from `config`.
    ///
    /// # Errors
    ///
    /// `Err(None)` when the kind is unknown; `Err(Some(msg))` when the
    /// factory rejected the configuration.
    pub fn build(
        &self,
        kind: &str,
        config: &Element,
    ) -> Result<Box<dyn Component>, Option<String>> {
        match self.factories.get(kind) {
            None => Err(None),
            Some(f) => f(config).map_err(Some),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::standard::Counter;

    /// The name of what `kind` builds from `config`, or the build error.
    fn built(r: &Registry, kind: &str, config: &Element) -> Result<String, Option<String>> {
        r.build(kind, config).map(|c| c.name().to_string())
    }

    #[test]
    fn register_build_and_errors() {
        let mut r = Registry::new();
        r.register("named", |cfg| {
            let name = cfg.attr("name").ok_or("need a name")?;
            Ok(Box::new(Counter::new(name)))
        });
        assert_eq!(r.kinds(), vec!["named"]);
        let ok = built(&r, "named", &Element::new("cfg").with_attr("name", "c7"));
        assert_eq!(ok, Ok("c7".to_string()));
        let bad_cfg = built(&r, "named", &Element::new("cfg"));
        assert_eq!(bad_cfg, Err(Some("need a name".to_string())));
        let unknown = built(&r, "unnamed", &Element::new("cfg"));
        assert_eq!(unknown, Err(None));
    }

    #[test]
    fn re_registration_replaces() {
        let mut r = Registry::new();
        r.register("k", |_| Ok(Box::new(Counter::new("first"))));
        r.register("k", |_| Ok(Box::new(Counter::new("second"))));
        assert_eq!(built(&r, "k", &Element::new("c")), Ok("second".to_string()));
    }
}
