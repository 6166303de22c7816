//! The pre-index linear broker, kept as a reference oracle.
//!
//! [`LinearBroker`] is the broker as it stood before the counting index
//! (PR 8): a `Vec` subscription table scanned filter-by-filter on every
//! publish, and per-neighbour forwarded-id sets re-scanned on every
//! unsubscribe. One rule has changed since, in both brokers together: an
//! attached client is sent one `Notify` per event, not one per matching
//! subscription, and `pubsub.delivered_local` counts those. It exists so
//! the indexed [`Broker`](crate::Broker) can be *proven* equivalent — the
//! property tests replay random subscribe/unsubscribe/publish/roaming
//! interleavings through both and assert byte-identical client delivery —
//! and so the scaling benches (s6/c17) have an honest "what it used to
//! cost" column. Do not use it for anything else; it is O(table size) per
//! publish.

use crate::broker::{BrokerMsg, BrokerTopology, SubId};
use crate::filter::{Filter, Subscription};
use crate::notification::Event;
use crate::replay::Replays;
use gloss_governor::{IngressClass, LoadShedder, ShedConfig, ShedDecision};
use gloss_sim::{NodeIndex, Outbox, SimDuration, SimTime};
use std::collections::{BTreeMap, BTreeSet};

#[derive(Debug, Clone)]
struct SubEntry {
    sub: Subscription,
    iface: NodeIndex,
}

/// The linear-scan content-based broker (reference implementation).
#[derive(Debug, Clone)]
pub struct LinearBroker {
    me: NodeIndex,
    topology: BrokerTopology,
    clients: BTreeSet<NodeIndex>,
    subs: Vec<SubEntry>,
    /// Subscription ids we have forwarded, per neighbouring broker.
    forwarded: BTreeMap<NodeIndex, BTreeSet<SubId>>,
    /// The replays awaiting answers and the clients away (this broker
    /// keeps no log).
    replays: Replays,
    /// Ingress load shedder (None = unbounded legacy behaviour).
    shed: Option<LoadShedder>,
    /// Messages handled (load metric for C1).
    pub msgs_handled: u64,
    /// Notifications forwarded to other brokers.
    pub notifications_forwarded: u64,
}

/// Classifies a broker message for the load shedder (same policy as the
/// indexed broker).
fn ingress_class(msg: &BrokerMsg) -> (IngressClass, f64) {
    match msg {
        BrokerMsg::Subscribe(_) => (IngressClass::Subscription, 0.0),
        BrokerMsg::Publish(e) | BrokerMsg::Notify(e) => {
            (IngressClass::Publication, e.num_attr("prio").unwrap_or(f64::MAX))
        }
        _ => (IngressClass::Control, 0.0),
    }
}

impl LinearBroker {
    /// Creates a broker for node `me` with the given topology.
    pub fn new(me: NodeIndex, topology: BrokerTopology) -> Self {
        LinearBroker {
            me,
            topology,
            clients: BTreeSet::new(),
            subs: Vec::new(),
            forwarded: BTreeMap::new(),
            replays: Replays::default(),
            shed: None,
            msgs_handled: 0,
            notifications_forwarded: 0,
        }
    }

    /// Bounds this broker's ingress with a watermark load shedder.
    pub fn with_shedding(mut self, cfg: ShedConfig) -> Self {
        self.shed = Some(LoadShedder::new(cfg));
        self
    }

    /// This broker's node index.
    pub fn index(&self) -> NodeIndex {
        self.me
    }

    /// Number of subscription entries currently stored.
    pub fn subscription_count(&self) -> usize {
        self.subs.len()
    }

    /// The stored subscriptions, in table order.
    pub fn subscriptions(&self) -> impl Iterator<Item = &Subscription> {
        self.subs.iter().map(|e| &e.sub)
    }

    /// Filters currently forwarded toward `target`, in table order.
    pub fn forwarded_filters(&self, target: NodeIndex) -> Vec<Filter> {
        let Some(set) = self.forwarded.get(&target) else {
            return Vec::new();
        };
        self.subs.iter().filter(|e| set.contains(&e.sub.id)).map(|e| e.sub.filter.clone()).collect()
    }

    /// Handles one message. `from` is the interface (client or neighbour
    /// broker) it arrived on.
    pub fn handle(
        &mut self,
        now: SimTime,
        from: NodeIndex,
        msg: BrokerMsg,
        out: &mut Outbox<BrokerMsg>,
    ) {
        self.msgs_handled += 1;
        if let Some(shed) = &mut self.shed {
            let (class, priority) = ingress_class(&msg);
            match shed.offer(now, from.0, class, priority) {
                ShedDecision::Admit(delay) => {
                    if delay > SimDuration::ZERO {
                        out.observe("pubsub.queue_delay_us", delay.as_micros() as f64);
                    }
                }
                ShedDecision::Shed => {
                    out.count("pubsub.shed", 1.0);
                    return;
                }
                ShedDecision::RejectSubscription => {
                    out.count("pubsub.subs_rejected", 1.0);
                    return;
                }
            }
        }
        match msg {
            BrokerMsg::Attach => {
                self.clients.insert(from);
            }
            BrokerMsg::Detach => {
                self.clients.remove(&from);
                self.replays.forget(from);
                let ids: Vec<SubId> =
                    self.subs.iter().filter(|e| e.iface == from).map(|e| e.sub.id).collect();
                for id in ids {
                    self.unsubscribe(id, out);
                }
            }
            BrokerMsg::Subscribe(sub) => self.subscribe(from, sub, out),
            BrokerMsg::Unsubscribe(id) => self.unsubscribe(id, out),
            BrokerMsg::Publish(event) | BrokerMsg::Notify(event) => {
                self.route(now, from, event, out)
            }
            BrokerMsg::Replay { client, since, filters } => {
                let targets = self.topology.neighbours().filter(|&n| n != from).collect();
                let request = (client, since, filters);
                for id in self.replays.request(now, from, targets, false, request, out) {
                    self.unsubscribe(id, out);
                }
            }
            BrokerMsg::Replayed { client, events } => self.replays.answered(client, events, out),
            BrokerMsg::MoveOut => {
                self.clients.remove(&from);
                let ids = self.subs.iter().filter(|e| e.iface == from).map(|e| e.sub.id).collect();
                self.replays.move_out(now, from, ids);
                out.count("pubsub.move_out", 1.0);
            }
        }
    }

    fn subscribe(&mut self, from: NodeIndex, sub: Subscription, out: &mut Outbox<BrokerMsg>) {
        if self.subs.iter().any(|e| e.sub.id == sub.id) {
            return; // duplicate (acyclic topologies make this rare)
        }
        for target in self.topology.sub_targets(from) {
            let already = self.forwarded.get(&target);
            // Covering-based pruning: the full table scan this crate's
            // indexed broker replaces.
            let covered = self.subs.iter().any(|e| {
                already.is_some_and(|set| set.contains(&e.sub.id))
                    && e.sub.filter.covers(&sub.filter)
            });
            if covered {
                out.count("pubsub.subs_pruned", 1.0);
                continue;
            }
            self.forwarded.entry(target).or_default().insert(sub.id);
            out.send(target, BrokerMsg::Subscribe(sub.clone()));
        }
        self.subs.push(SubEntry { sub, iface: from });
    }

    fn unsubscribe(&mut self, id: SubId, out: &mut Outbox<BrokerMsg>) {
        let Some(pos) = self.subs.iter().position(|e| e.sub.id == id) else {
            return;
        };
        let removed = self.subs.remove(pos);
        for (neighbor, set) in self.forwarded.iter_mut() {
            if set.remove(&id) {
                out.send(*neighbor, BrokerMsg::Unsubscribe(id));
                // Re-forward subscriptions this one was covering: O(N·M).
                for e in &self.subs {
                    if e.iface == *neighbor || set.contains(&e.sub.id) {
                        continue;
                    }
                    if removed.sub.filter.covers(&e.sub.filter) {
                        set.insert(e.sub.id);
                        out.send(*neighbor, BrokerMsg::Subscribe(e.sub.clone()));
                    }
                }
            }
        }
    }

    fn route(&mut self, now: SimTime, from: NodeIndex, event: Event, out: &mut Outbox<BrokerMsg>) {
        for id in self.replays.expire(now, out) {
            self.unsubscribe(id, out);
        }
        // Local delivery: one full table scan per publication. A client is
        // served once per event, at its first matching subscription.
        let mut served: Vec<NodeIndex> = Vec::new();
        for e in &self.subs {
            let iface = e.iface;
            if iface == from || served.contains(&iface) || !e.sub.filter.matches(&event) {
                continue;
            }
            if self.replays.log_away(iface, now, &event) {
                served.push(iface);
            } else if self.clients.contains(&iface) {
                if !self.replays.hold(iface, &event) {
                    out.send(iface, BrokerMsg::Notify(event.clone()));
                    out.count("pubsub.delivered_local", 1.0);
                }
                served.push(iface);
            }
        }

        // Inter-broker forwarding: another scan per neighbour.
        match &self.topology {
            BrokerTopology::Peer { neighbors } => {
                for &n in neighbors {
                    if n == from {
                        continue;
                    }
                    let wanted =
                        self.subs.iter().any(|e| e.iface == n && e.sub.filter.matches(&event));
                    if wanted {
                        self.notifications_forwarded += 1;
                        out.send(n, BrokerMsg::Notify(event.clone()));
                    }
                }
            }
            BrokerTopology::Hierarchical { parent, children } => {
                if let Some(p) = parent {
                    if *p != from {
                        self.notifications_forwarded += 1;
                        out.send(*p, BrokerMsg::Notify(event.clone()));
                    }
                }
                for &c in children {
                    if c == from {
                        continue;
                    }
                    let wanted =
                        self.subs.iter().any(|e| e.iface == c && e.sub.filter.matches(&event));
                    if wanted {
                        self.notifications_forwarded += 1;
                        out.send(c, BrokerMsg::Notify(event.clone()));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_broker_still_routes() {
        let mut b =
            LinearBroker::new(NodeIndex(0), BrokerTopology::Peer { neighbors: vec![NodeIndex(1)] });
        let mut out = Outbox::new();
        b.handle(SimTime::ZERO, NodeIndex(10), BrokerMsg::Attach, &mut out);
        b.handle(
            SimTime::ZERO,
            NodeIndex(10),
            BrokerMsg::Subscribe(Subscription { id: 1, filter: Filter::for_kind("k") }),
            &mut out,
        );
        let mut out = Outbox::new();
        b.handle(SimTime::ZERO, NodeIndex(1), BrokerMsg::Notify(Event::new("k")), &mut out);
        assert_eq!(out.sends().len(), 1);
        assert_eq!(b.subscription_count(), 1);
        assert_eq!(b.forwarded_filters(NodeIndex(1)).len(), 1);
    }
}
