//! The quota placement planner against an exhaustive oracle: for up to
//! eight candidates over one to four regions, every admissible set of the
//! plan's size is scored as `plan_quota_targets` documents, and the
//! planner's pick must be the best of them.

use gloss_sim::{GeoPoint, NodeIndex};
use gloss_store::{plan_quota_targets, NodeCapacity, NodeSite};
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};

const REGIONS: [&str; 4] = ["scotland", "england", "europe", "australia"];

/// One candidate: its region (`None`: absent from the directory), its
/// advertised quota and the usage the planner knows of (`None`: unknown).
#[derive(Debug, Clone)]
struct Cand {
    node: NodeIndex,
    region: Option<&'static str>,
    capacity: NodeCapacity,
    used: Option<u64>,
}

/// Builds the candidates from raw draws, in preference order: by the
/// `order` draw, so preference is not node id. Quotas and usages come
/// from small sets, so equal available capacity, full nodes and nodes
/// that only just admit the write are all common. One region draw in nine
/// leaves the node out of the directory, which gives it the default
/// quota.
fn candidates(draws: &[(u64, u64, u64, u64)], regions: usize) -> Vec<Cand> {
    let mut cands: Vec<(u64, Cand)> = draws
        .iter()
        .enumerate()
        .map(|(i, &(region, max, used, order))| {
            let region = (region < 8).then(|| REGIONS[region as usize % regions]);
            let capacity = match region {
                Some(_) => NodeCapacity {
                    max_bytes: [40, 60, 100][max as usize],
                    reserved_bytes: 10,
                    min_free_bytes: 5,
                },
                None => NodeCapacity::default(),
            };
            let used = [None, Some(0), Some(10), Some(20), Some(30)][used as usize];
            (order, Cand { node: NodeIndex(i as u32), region, capacity, used })
        })
        .collect();
    cands.sort_by_key(|(order, _)| *order);
    cands.into_iter().map(|(_, c)| c).collect()
}

/// The documented score of a set: regions newly covered (an unknown node
/// counting as one of its own), then the members' (available, preference)
/// keys sorted best first.
type Score = (usize, Vec<(u64, Reverse<usize>)>);

fn score(set: &[(usize, &Cand)], covered: &[&str]) -> Score {
    let mut fresh = BTreeSet::new();
    let mut unknown = 0;
    for (_, c) in set {
        match c.region {
            Some(r) if !covered.contains(&r) => {
                fresh.insert(r);
            }
            Some(_) => {}
            None => unknown += 1,
        }
    }
    let mut keys: Vec<(u64, Reverse<usize>)> = set
        .iter()
        .map(|(pref, c)| (c.capacity.available(c.used.unwrap_or(0)), Reverse(*pref)))
        .collect();
    keys.sort_unstable_by(|a, b| b.cmp(a));
    (fresh.len() + unknown, keys)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn the_plan_is_the_best_admissible_set_under_the_documented_score(
        draws in proptest::collection::vec((0u64..9, 0u64..3, 0u64..5, 0u64..8), 1..9),
        regions in 1usize..5,
        covered_mask in 0u64..16,
        want in 0usize..9,
        size in 1u64..40,
    ) {
        let cands = candidates(&draws, regions);
        let directory: Vec<NodeSite> = cands
            .iter()
            .filter_map(|c| {
                let site = NodeSite::new(c.node, GeoPoint::new(0.0, 0.0), c.region?);
                Some(site.with_capacity(c.capacity))
            })
            .collect();
        let used: BTreeMap<NodeIndex, u64> =
            cands.iter().filter_map(|c| Some((c.node, c.used?))).collect();
        let covered: Vec<&str> = (0..regions)
            .filter(|r| covered_mask & (1 << r) != 0)
            .map(|r| REGIONS[r])
            .collect();
        let order: Vec<NodeIndex> = cands.iter().map(|c| c.node).collect();

        let plan = plan_quota_targets(size, want, &covered, &order, &directory, &used);

        let admissible: Vec<(usize, &Cand)> = cands
            .iter()
            .enumerate()
            .filter(|(_, c)| c.capacity.admits(c.used.unwrap_or(0), size))
            .collect();
        let k = want.min(admissible.len());
        let best = (0u32..1 << admissible.len())
            .filter(|mask| mask.count_ones() as usize == k)
            .map(|mask| {
                let set: Vec<(usize, &Cand)> = admissible
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| mask & (1 << i) != 0)
                    .map(|(_, c)| *c)
                    .collect();
                (score(&set, &covered), set)
            })
            .max_by(|a, b| a.0.cmp(&b.0))
            .map(|(_, set)| set.iter().map(|(_, c)| c.node).collect::<BTreeSet<_>>())
            .expect("the empty set is admissible when k is 0");
        let picked: BTreeSet<NodeIndex> = plan.iter().copied().collect();
        prop_assert_eq!(picked.len(), plan.len(), "the plan names a node twice: {:?}", plan);
        prop_assert_eq!(picked, best, "plan {:?} for candidates {:?}", plan, cands);
    }
}
