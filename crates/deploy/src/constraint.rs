//! Placement constraints (the active-pipes model) and the deployment
//! state they constrain.

use crate::resource::NodeResources;
use gloss_sim::NodeIndex;
use std::collections::BTreeMap;
use std::fmt;

/// The current component placements: instance id → (kind, node).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Deployment {
    placements: BTreeMap<String, (String, NodeIndex)>,
}

impl Deployment {
    /// Creates an empty deployment.
    pub fn new() -> Self {
        Deployment::default()
    }

    /// Records an instance.
    pub fn place(&mut self, instance: impl Into<String>, kind: impl Into<String>, node: NodeIndex) {
        self.placements.insert(instance.into(), (kind.into(), node));
    }

    /// Drops every instance on `node` (the node died); returns how many.
    pub fn remove_node(&mut self, node: NodeIndex) -> usize {
        let before = self.placements.len();
        self.placements.retain(|_, (_, n)| *n != node);
        before - self.placements.len()
    }

    /// Instances of a kind, as `(instance, node)`.
    pub fn instances_of<'a>(
        &'a self,
        kind: &'a str,
    ) -> impl Iterator<Item = (&'a str, NodeIndex)> + 'a {
        self.placements
            .iter()
            .filter(move |(_, (k, _))| k == kind)
            .map(|(i, (_, n))| (i.as_str(), *n))
    }

    /// Number of component instances on `node`.
    pub fn count_on(&self, node: NodeIndex) -> usize {
        self.placements.values().filter(|(_, n)| *n == node).count()
    }

    /// Total instances.
    pub fn len(&self) -> usize {
        self.placements.len()
    }

    /// Whether nothing is deployed.
    pub fn is_empty(&self) -> bool {
        self.placements.is_empty()
    }

    /// All instances: `(instance, kind, node)`.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str, NodeIndex)> {
        self.placements.iter().map(|(i, (k, n))| (i.as_str(), k.as_str(), *n))
    }
}

/// A placement constraint.
#[derive(Debug, Clone, PartialEq)]
pub enum Constraint {
    /// At least `min` instances of `component`, optionally restricted to
    /// a region — the paper's worked example ("at least 5 pipeline
    /// components providing a data replication service ... within a given
    /// geographical region").
    Count {
        /// The component kind.
        component: String,
        /// The region, or `None` for anywhere.
        region: Option<String>,
        /// The minimum instance count.
        min: usize,
    },
    /// No node may host more than `max` component instances (capacity).
    Capacity {
        /// The per-node ceiling.
        max: usize,
    },
}

impl Constraint {
    /// Convenience constructor for [`Constraint::Count`].
    pub fn count(component: &str, region: Option<&str>, min: usize) -> Constraint {
        Constraint::Count {
            component: component.to_string(),
            region: region.map(str::to_string),
            min,
        }
    }

    /// How far the constraint is from holding: the placements missing
    /// (or, for capacity, in excess on the fullest node); 0 when it holds.
    pub fn deficit(
        &self,
        deployment: &Deployment,
        resources: &BTreeMap<NodeIndex, NodeResources>,
    ) -> usize {
        match self {
            Constraint::Count { component, region, min } => {
                let have = deployment
                    .instances_of(component)
                    .filter(|(_, node)| {
                        resources
                            .get(node)
                            .is_some_and(|r| region.as_deref().is_none_or(|want| r.region == want))
                    })
                    .count();
                min.saturating_sub(have)
            }
            Constraint::Capacity { max } => {
                let worst = resources.keys().map(|n| deployment.count_on(*n)).max().unwrap_or(0);
                worst.saturating_sub(*max)
            }
        }
    }
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Constraint::Count { component, region, min } => match region {
                Some(r) => write!(f, "count({component}) >= {min} in {r}"),
                None => write!(f, "count({component}) >= {min}"),
            },
            Constraint::Capacity { max } => write!(f, "per-node load <= {max}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gloss_sim::GeoPoint;

    fn resources() -> BTreeMap<NodeIndex, NodeResources> {
        let mut m = BTreeMap::new();
        for (i, region) in [(0u32, "scotland"), (1, "scotland"), (2, "england"), (3, "australia")] {
            m.insert(
                NodeIndex(i),
                NodeResources {
                    node: NodeIndex(i),
                    region: region.into(),
                    geo: GeoPoint::new(0.0, 0.0),
                    cpu: 1.0,
                    storage: 0,
                },
            );
        }
        m
    }

    #[test]
    fn count_constraint_regional() {
        let c = Constraint::count("repl", Some("scotland"), 2);
        let res = resources();
        let mut d = Deployment::new();
        d.place("i1", "repl", NodeIndex(0));
        assert_eq!(c.deficit(&d, &res), 1);
        d.place("i2", "repl", NodeIndex(1));
        assert_eq!(c.deficit(&d, &res), 0);
        // An instance in England does not count toward Scotland.
        let mut d2 = Deployment::new();
        d2.place("i1", "repl", NodeIndex(0));
        d2.place("i2", "repl", NodeIndex(2));
        assert_eq!(c.deficit(&d2, &res), 1);
    }

    #[test]
    fn count_on_dead_node_does_not_count() {
        let c = Constraint::count("repl", None, 1);
        let mut res = resources();
        let mut d = Deployment::new();
        d.place("i1", "repl", NodeIndex(0));
        assert_eq!(c.deficit(&d, &res), 0);
        // Node 0 disappears from the resource view.
        res.remove(&NodeIndex(0));
        assert_eq!(c.deficit(&d, &res), 1);
    }

    #[test]
    fn capacity_constraint() {
        let c = Constraint::Capacity { max: 1 };
        let res = resources();
        let mut d = Deployment::new();
        d.place("i1", "a", NodeIndex(0));
        assert_eq!(c.deficit(&d, &res), 0);
        d.place("i2", "b", NodeIndex(0));
        assert_eq!(c.deficit(&d, &res), 1);
    }

    #[test]
    fn deployment_bookkeeping() {
        let mut d = Deployment::new();
        d.place("i1", "a", NodeIndex(0));
        d.place("i2", "a", NodeIndex(1));
        d.place("i3", "b", NodeIndex(0));
        assert_eq!(d.len(), 3);
        assert_eq!(d.instances_of("a").count(), 2);
        assert_eq!(d.count_on(NodeIndex(0)), 2);
        assert_eq!(d.remove_node(NodeIndex(0)), 2);
        assert_eq!(d.len(), 1);
        assert_eq!(d.remove_node(NodeIndex(1)), 1);
        assert!(d.is_empty());
    }

    #[test]
    fn display_forms() {
        assert_eq!(
            Constraint::count("repl", Some("fife"), 5).to_string(),
            "count(repl) >= 5 in fife"
        );
        assert!(Constraint::Capacity { max: 3 }.to_string().contains("<= 3"));
    }
}
