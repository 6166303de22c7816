//! The component factory registry: how statically compiled component
//! kinds become available for dynamic deployment.
//!
//! Rust cannot load native code at runtime, so "pushing code" for
//! *component* bundles means naming a kind that the receiving process has
//! registered a factory for, plus XML configuration that genuinely is
//! dynamic. (Matchlet bundles carry fully dynamic logic through the rule
//! interpreter instead.) This mirrors Cingal's own requirement that thin
//! servers pre-install the deployment infrastructure.

use gloss_xml::Element;
use std::collections::BTreeMap;
use std::fmt;

/// A factory closure producing `T` from XML configuration.
type Factory<T> = Box<dyn Fn(&Element) -> Result<T, String>>;

/// A registry of factories producing `T` from XML configuration.
pub struct Registry<T> {
    factories: BTreeMap<String, Factory<T>>,
}

impl<T> fmt::Debug for Registry<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Registry").field("kinds", &self.kinds()).finish()
    }
}

impl<T> Default for Registry<T> {
    fn default() -> Self {
        Registry { factories: BTreeMap::new() }
    }
}

impl<T> Registry<T> {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Registers a factory for `kind` (replacing any previous one).
    pub fn register(
        &mut self,
        kind: impl Into<String>,
        factory: impl Fn(&Element) -> Result<T, String> + 'static,
    ) {
        self.factories.insert(kind.into(), Box::new(factory));
    }

    /// Whether `kind` is registered.
    pub fn knows(&self, kind: &str) -> bool {
        self.factories.contains_key(kind)
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
    pub fn build(&self, kind: &str, config: &Element) -> Result<T, Option<String>> {
        match self.factories.get(kind) {
            None => Err(None),
            Some(f) => f(config).map_err(Some),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_build_and_errors() {
        let mut r: Registry<u32> = Registry::new();
        r.register("double", |cfg| {
            cfg.attr("n")
                .and_then(|s| s.parse::<u32>().ok())
                .map(|n| n * 2)
                .ok_or_else(|| "need numeric n".to_string())
        });
        assert!(r.knows("double"));
        assert_eq!(r.kinds(), vec!["double"]);
        let ok = r.build("double", &Element::new("cfg").with_attr("n", "21"));
        assert_eq!(ok, Ok(42));
        let bad_cfg = r.build("double", &Element::new("cfg"));
        assert_eq!(bad_cfg, Err(Some("need numeric n".to_string())));
        let unknown = r.build("triple", &Element::new("cfg"));
        assert_eq!(unknown, Err(None));
    }

    #[test]
    fn re_registration_replaces() {
        let mut r: Registry<u32> = Registry::new();
        r.register("k", |_| Ok(1));
        r.register("k", |_| Ok(2));
        assert_eq!(r.build("k", &Element::new("c")), Ok(2));
    }
}
