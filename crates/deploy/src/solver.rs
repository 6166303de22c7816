//! Greedy placement planning: choose nodes to repair violated constraints.

use crate::constraint::{Constraint, Deployment};
use crate::evolution::Deploy;
use crate::resource::NodeResources;
use gloss_sim::NodeIndex;
use std::collections::BTreeMap;

/// Plans the deploys that would repair the current violations.
///
/// Strategy (greedy, load-balancing): for each violated `Count`
/// constraint, pick the least-loaded eligible nodes in the target region.
/// `Capacity` constraints restrict candidate nodes rather than generating
/// deploys of their own.
pub fn plan_repairs(
    constraints: &[Constraint],
    deployment: &Deployment,
    resources: &BTreeMap<NodeIndex, NodeResources>,
) -> Vec<Deploy> {
    let per_node_cap = constraints
        .iter()
        .filter_map(|c| match c {
            Constraint::Capacity { max } => Some(*max),
            _ => None,
        })
        .min();
    let mut deploys = Vec::new();
    // Track load as if planned deploys were already applied.
    let mut load: BTreeMap<NodeIndex, usize> =
        resources.keys().map(|n| (*n, deployment.count_on(*n))).collect();
    for c in constraints {
        let Constraint::Count { component, region, .. } = c else {
            continue;
        };
        let deficit = c.deficit(deployment, resources);
        if deficit == 0 {
            continue;
        }
        // The least-loaded eligible nodes first.
        let mut candidates: Vec<NodeIndex> = resources
            .values()
            .filter(|r| region.as_deref().is_none_or(|want| r.region == want))
            .map(|r| r.node)
            .filter(|n| per_node_cap.is_none_or(|cap| load[n] < cap))
            .collect();
        candidates.sort_by_key(|n| (load[n], n.0));
        // Avoid double-placing the same kind on one node when
        // alternatives exist.
        let holding: Vec<NodeIndex> = deployment.instances_of(component).map(|(_, n)| n).collect();
        let fresh: Vec<NodeIndex> =
            candidates.iter().copied().filter(|n| !holding.contains(n)).collect();
        let pool = if fresh.len() >= deficit { fresh } else { candidates };
        for node in pool.into_iter().take(deficit) {
            *load.entry(node).or_insert(0) += 1;
            deploys.push(Deploy { kind: component.clone(), node });
        }
    }
    deploys
}

#[cfg(test)]
mod tests {
    use super::*;
    use gloss_sim::GeoPoint;

    fn resources(specs: &[(u32, &str)]) -> BTreeMap<NodeIndex, NodeResources> {
        specs
            .iter()
            .map(|&(i, region)| {
                (
                    NodeIndex(i),
                    NodeResources {
                        node: NodeIndex(i),
                        region: region.into(),
                        geo: GeoPoint::new(0.0, 0.0),
                        cpu: 1.0,
                        storage: 0,
                    },
                )
            })
            .collect()
    }

    #[test]
    fn repairs_count_deficit_on_least_loaded_nodes() {
        let res = resources(&[(0, "scotland"), (1, "scotland"), (2, "scotland")]);
        let constraints = vec![Constraint::count("repl", Some("scotland"), 2)];
        let mut d = Deployment::new();
        d.place("x", "other", NodeIndex(0)); // pre-existing load on node 0
        let actions = plan_repairs(&constraints, &d, &res);
        assert_eq!(actions.len(), 2);
        let nodes: Vec<NodeIndex> = actions.iter().map(|d| d.node).collect();
        assert!(nodes.contains(&NodeIndex(1)), "least loaded first");
        assert!(nodes.contains(&NodeIndex(2)));
    }

    #[test]
    fn satisfied_constraints_produce_no_actions() {
        let res = resources(&[(0, "scotland")]);
        let constraints = vec![Constraint::count("repl", None, 1)];
        let mut d = Deployment::new();
        d.place("i", "repl", NodeIndex(0));
        assert!(plan_repairs(&constraints, &d, &res).is_empty());
    }

    #[test]
    fn region_restriction_respected() {
        let res = resources(&[(0, "england"), (1, "scotland")]);
        let constraints = vec![Constraint::count("repl", Some("scotland"), 1)];
        let actions = plan_repairs(&constraints, &Deployment::new(), &res);
        assert_eq!(actions, vec![Deploy { kind: "repl".into(), node: NodeIndex(1) }]);
    }

    #[test]
    fn capacity_limits_candidates() {
        let res = resources(&[(0, "scotland"), (1, "scotland")]);
        let constraints = vec![Constraint::Capacity { max: 1 }, Constraint::count("repl", None, 3)];
        let mut d = Deployment::new();
        d.place("busy", "other", NodeIndex(0));
        let actions = plan_repairs(&constraints, &d, &res);
        // Node 0 is full; only node 1 can take one instance.
        assert_eq!(actions.len(), 1);
        assert_eq!(actions[0], Deploy { kind: "repl".into(), node: NodeIndex(1) });
    }

    #[test]
    fn prefers_nodes_not_already_holding_the_kind() {
        let res = resources(&[(0, "scotland"), (1, "scotland")]);
        let constraints = vec![Constraint::count("repl", None, 2)];
        let mut d = Deployment::new();
        d.place("i1", "repl", NodeIndex(0));
        let actions = plan_repairs(&constraints, &d, &res);
        assert_eq!(actions, vec![Deploy { kind: "repl".into(), node: NodeIndex(1) }]);
    }

    #[test]
    fn no_resources_no_actions() {
        let constraints = vec![Constraint::count("repl", None, 2)];
        assert!(plan_repairs(&constraints, &Deployment::new(), &BTreeMap::new()).is_empty());
    }
}
