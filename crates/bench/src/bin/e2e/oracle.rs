//! The reference computation and the correctness gate.
//!
//! Expected notifications come from ONE centralised `MatchletEngine` over
//! ONE `InMemoryFacts`, fed the plan's events in creation order with the
//! authority's fact state as of each creation instant — no brokers, no
//! store, no hosts. Expected direct deliveries (`subscriber_fanout`) come
//! from a linear `Filter::matches` scan over a seeded 1-in-8 sample of
//! the events. Comparison is on distinct keys per UI node; duplicate
//! copies from redundant service instances are counted, not compared.
//!
//! The distributed system is not instantaneous, so three kinds of
//! outcome are legitimately undecided and excluded from BOTH sides
//! (counted as `guarded`): a join whose two events are within a second
//! of the window's edge (hosts measure the window on arrival instants),
//! a firing within [`FACT_GUARD_BEFORE_US`, `FACT_GUARD_AFTER_US`] of a
//! mutation to a fact it joins on (followers pull a second after the
//! authority ships), and a delivery that only a subscription installed
//! within a second of the event could explain.

use crate::drive::Rep;
use crate::workload::{Change, Plan, Workload, SLICE_US, WINDOW_S};
use gloss_event::Event;
use gloss_knowledge::{Fact, FactSource};
use gloss_matchlet::MatchletEngine;
use gloss_sim::{NodeIndex, SimRng, SimTime};
use std::collections::{BTreeMap, BTreeSet};

const EDGE_GUARD_US: i64 = 1_000_000;
const FACT_GUARD_BEFORE_US: i64 = 1_000_000;
const FACT_GUARD_AFTER_US: i64 = 5_000_000;
const SUB_GUARD_US: i64 = 1_000_000;
/// One in this many `subscriber_fanout` events is checked.
const FANOUT_SAMPLE: u64 = 8;

/// A notification's identity: the creation offsets of the weather and
/// location events it joined (unique per event, so unique per pair), or
/// `(t0, t0)` for a directly delivered sensor event.
pub type Key = (i64, i64);

/// What the reference says about one workload run.
#[derive(Debug, Default)]
pub struct Expected {
    /// Per UI node (plan order): keys that must arrive.
    pub required: Vec<BTreeSet<Key>>,
    /// Per UI node: keys that may or may not arrive.
    pub guarded: Vec<BTreeSet<Key>>,
    /// Fanout only: the sampled creation offsets (others are unchecked).
    pub sampled: Option<BTreeSet<i64>>,
    /// Per user: `[from, to]` intervals (offsets, µs) in which a firing
    /// that joins the user's facts is undecided.
    pub fact_guards: BTreeMap<usize, Vec<(i64, i64)>>,
}

/// The verdict on one repetition.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Verdict {
    /// Distinct expected (key, UI node) pairs, and how many arrived.
    pub expected: u64,
    pub delivered: u64,
    /// Arrived pairs the reference rules out.
    pub unexpected: u64,
    pub guarded: u64,
    /// `ui_received` entries beyond the first copy of each key.
    pub duplicates: u64,
    /// (node, subject) fact sets compared after quiesce, and mismatches.
    pub converge_checked: u64,
    pub converge_failed: u64,
    /// Human-readable divergences (first few).
    pub diverged: Vec<String>,
}

pub fn key_of(event: &Event) -> Option<(Key, Option<usize>)> {
    let int = |name: &str| event.num_attr(name).map(|v| v as i64);
    if event.kind() == "meetup" {
        let key = (int("tw")?, int("tl")?);
        let user = event.str_attr("user")?.strip_prefix('u')?.parse().ok();
        Some((key, user))
    } else {
        let t0 = int("t0")?;
        Some(((t0, t0), None))
    }
}

pub fn fire_us(key: Key) -> i64 {
    key.0.max(key.1)
}

impl Expected {
    fn fact_guarded(&self, user: usize, at_us: i64) -> bool {
        self.fact_guards
            .get(&user)
            .is_some_and(|iv| iv.iter().any(|&(from, to)| from <= at_us && at_us <= to))
    }
}

/// Computes what `plan` must produce.
pub fn expected(plan: &Plan) -> Expected {
    if plan.workload == Workload::SubscriberFanout {
        return expected_fanout(plan);
    }
    let mut exp = Expected::default();
    // Only `likes` is joined on; a user moving street (`Change::At`)
    // leaves every firing decided.
    for m in plan.churn.iter().filter(|m| matches!(m.change, Change::Likes(_))) {
        let at = (m.slice as u64 * SLICE_US) as i64;
        exp.fact_guards
            .entry(m.user)
            .or_default()
            .push((at - FACT_GUARD_BEFORE_US, at + FACT_GUARD_AFTER_US));
    }

    // The reference joins on a window one guard wider than the rule's,
    // so that pairs near the edge show up and can be set aside.
    let rules = crate::workload::meetup_rules(WINDOW_S + 1);
    let mut engine = MatchletEngine::compile(&rules).expect("reference rules compile");
    let mut kb = plan.profile_kb();
    // Far enough from zero that window arithmetic never saturates.
    let base = SimTime::from_secs(10_000);
    let mut required = BTreeSet::new();
    let mut guarded = BTreeSet::new();
    let mut next_churn = 0;
    for s in &plan.sensors {
        while next_churn < plan.churn.len()
            && plan.churn[next_churn].slice as u64 * SLICE_US <= s.at_us
        {
            let m = &plan.churn[next_churn];
            m.apply(&mut kb);
            next_churn += 1;
        }
        let now = base + gloss_sim::SimDuration::from_micros(s.at_us);
        for out in engine.on_event(now, &s.event, &kb) {
            let (key, user) = key_of(&out).expect("reference emits well-formed notifications");
            let user = user.expect("meetup names a user");
            let edge = (key.0 - key.1).abs() > WINDOW_S as i64 * 1_000_000 - EDGE_GUARD_US;
            if edge || exp.fact_guarded(user, fire_us(key)) {
                guarded.insert(key);
            } else {
                required.insert(key);
            }
        }
    }
    exp.required = vec![required; plan.ui_nodes.len()];
    exp.guarded = vec![guarded; plan.ui_nodes.len()];
    exp
}

fn expected_fanout(plan: &Plan) -> Expected {
    let mut pick = SimRng::new(plan.seed).fork("oracle-sample");
    let sampled: Vec<&crate::workload::Sensor> =
        plan.sensors.iter().filter(|_| pick.range(0, FANOUT_SAMPLE) == 0).collect();
    let slot_of: BTreeMap<NodeIndex, usize> =
        plan.ui_nodes.iter().enumerate().map(|(k, &n)| (n, k)).collect();
    let mut exp = Expected {
        required: vec![BTreeSet::new(); plan.ui_nodes.len()],
        guarded: vec![BTreeSet::new(); plan.ui_nodes.len()],
        sampled: Some(sampled.iter().map(|s| s.at_us as i64).collect()),
        ..Default::default()
    };
    for s in sampled {
        let t0 = s.at_us as i64;
        for (node, filter) in &plan.ui_filters {
            if filter.matches(&s.event) {
                exp.required[slot_of[node]].insert((t0, t0));
            }
        }
        for late in &plan.late_subs {
            if !late.filter.matches(&s.event) {
                continue;
            }
            let installed = (late.slice as u64 * SLICE_US) as i64;
            let slot = slot_of[&late.node];
            if installed <= t0 - SUB_GUARD_US {
                exp.required[slot].insert((t0, t0));
            } else if installed < t0 + SUB_GUARD_US {
                exp.guarded[slot].insert((t0, t0));
            }
        }
    }
    for (req, guard) in exp.required.iter().zip(&mut exp.guarded) {
        guard.retain(|k| !req.contains(k));
    }
    exp
}

/// Compares what the UI clients of `rep` received with `exp`, and (in
/// the fault-free workloads) every node's facts with the authority's.
pub fn check(plan: &Plan, exp: &Expected, rep: &mut Rep) -> Verdict {
    let mut v = Verdict::default();
    let note = |v: &mut Verdict, line: String| {
        if v.diverged.len() < 8 {
            v.diverged.push(line);
        }
    };
    for (slot, &node) in plan.ui_nodes.iter().enumerate() {
        let received = &rep.arch.node(node).ui_received[rep.ui_base[slot]..];
        let mut got: BTreeSet<Key> = BTreeSet::new();
        for event in received {
            let Some((key, user)) = key_of(event) else {
                v.unexpected += 1;
                note(
                    &mut v,
                    format!("{} {node}: undecodable delivery {event}", plan.workload.name()),
                );
                continue;
            };
            if fire_us(key) < 0 {
                continue; // warm-up traffic
            }
            if exp.sampled.as_ref().is_some_and(|s| !s.contains(&key.0)) {
                continue; // outside the checked sample
            }
            if !got.insert(key) {
                v.duplicates += 1;
                continue;
            }
            if exp.required[slot].contains(&key) {
                v.delivered += 1;
            } else if exp.guarded[slot].contains(&key)
                || user.is_some_and(|u| exp.fact_guarded(u, fire_us(key)))
            {
                v.guarded += 1;
            } else {
                v.unexpected += 1;
                note(
                    &mut v,
                    format!("{} {node}: unexpected delivery {key:?}", plan.workload.name()),
                );
            }
        }
        v.expected += exp.required[slot].len() as u64;
        for key in exp.required[slot].difference(&got).take(3) {
            note(&mut v, format!("{} {node}: missing delivery {key:?}", plan.workload.name()));
        }
        v.guarded += exp.guarded[slot].difference(&got).count() as u64;
    }

    if plan.faults.is_none() && !plan.profiles.is_empty() {
        converge_check(plan, rep, &mut v);
    }
    v
}

fn fact_set<'a>(facts: impl Iterator<Item = &'a Fact>) -> BTreeSet<String> {
    facts.map(|f| format!("{} {}", f.predicate, f.object)).collect()
}

/// After quiesce: every follower (matchlet hosts and UI nodes pull every
/// batch) must hold the authority's facts for every subject; every other
/// node must hold them for every subject that never churned.
fn converge_check(plan: &Plan, rep: &mut Rep, v: &mut Verdict) {
    let churned: BTreeSet<usize> = plan.churn.iter().map(|m| m.user).collect();
    let holes = plan.holes(&rep.hosts);
    let mut followers = rep.arch.hosts_of("matchlet:meetup");
    followers.extend(plan.ui_nodes.iter().copied());
    for u in 0..plan.profiles.len() {
        let name = Plan::user_name(u);
        let truth = fact_set(rep.arch.knowledge_mut(&name).query(Some(&name), None));
        for i in 0..plan.nodes as u32 {
            let node = NodeIndex(i);
            let follows = followers.contains(&node);
            if churned.contains(&u) && !follows {
                continue;
            }
            // A deliberate prefetch hole fills with the user's first
            // update; a user who never churned leaves it open.
            if holes.contains(&(u, node)) && !churned.contains(&u) {
                continue;
            }
            v.converge_checked += 1;
            let held = fact_set(rep.arch.node(node).kb.query(Some(&name), None));
            if held != truth {
                v.converge_failed += 1;
                if v.diverged.len() < 8 {
                    v.diverged.push(format!(
                        "{} {node}: facts of {name} diverged: holds {held:?}, authority {truth:?}",
                        plan.workload.name()
                    ));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{plan, Size};

    #[test]
    fn reference_is_deterministic_and_sets_edge_pairs_aside() {
        let p = plan(Workload::ContextChurn, Size::Tiny, 3);
        let a = expected(&p);
        let b = expected(&p);
        assert_eq!(a.required, b.required);
        assert!(!a.required[0].is_empty(), "the tiny plan still fires");
        for key in &a.required[0] {
            assert!((key.0 - key.1).abs() <= WINDOW_S as i64 * 1_000_000 - EDGE_GUARD_US);
        }
        assert!(a.required[0].is_disjoint(&a.guarded[0]));
    }

    #[test]
    fn only_mutations_of_a_joined_fact_are_guarded() {
        let p = plan(Workload::ContextChurn, Size::Tiny, 3);
        let likes = p.churn.iter().filter(|m| matches!(m.change, Change::Likes(_))).count();
        assert!(0 < likes && likes < p.churn.len(), "the tiny plan churns both facts");
        let guards: usize = expected(&p).fact_guards.values().map(Vec::len).sum();
        assert_eq!(guards, likes);
        // Only `at` churns under faults, so nothing there is undecided.
        let p = plan(Workload::DegradedRecovery, Size::Tiny, 3);
        assert!(!p.churn.is_empty() && expected(&p).fact_guards.is_empty());
    }

    #[test]
    fn fanout_reference_matches_a_hand_scan() {
        let p = plan(Workload::SubscriberFanout, Size::Tiny, 5);
        let exp = expected(&p);
        let sampled = exp.sampled.as_ref().unwrap();
        assert!(sampled.len() * 4 > p.sensors.len() / FANOUT_SAMPLE as usize, "sample not empty");
        let (node, filter) = &p.ui_filters[0];
        let slot = p.ui_nodes.iter().position(|n| n == node).unwrap();
        for s in p.sensors.iter().filter(|s| sampled.contains(&(s.at_us as i64))) {
            if filter.matches(&s.event) {
                let t0 = s.at_us as i64;
                assert!(exp.required[slot].contains(&(t0, t0)));
            }
        }
    }
}
