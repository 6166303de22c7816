//! Elvin-like centralized event server: the client-server baseline.
//!
//! The paper (§3) notes Elvin "uses a client-server architecture, limiting
//! its scalability". This module provides that baseline for experiment
//! **C1**: one server stores every subscription and handles every publish,
//! so its message load grows with the whole population, whereas the
//! distributed broker topologies spread the load.

use crate::broker::{BrokerMsg, SubId};
use crate::filter::Subscription;
use gloss_sim::{NodeIndex, Outbox, SimTime};
use std::collections::BTreeSet;

/// The single event server of the centralized architecture. It speaks the
/// same [`BrokerMsg`] protocol as the distributed brokers, so clients are
/// oblivious to which architecture they are attached to.
#[derive(Debug, Clone, Default)]
pub struct CentralServer {
    clients: BTreeSet<NodeIndex>,
    subs: Vec<(Subscription, NodeIndex)>,
    /// Messages handled (load metric for C1).
    pub msgs_handled: u64,
    /// Notifications sent to clients.
    pub notifications_sent: u64,
}

impl CentralServer {
    /// Creates an empty server.
    pub fn new() -> Self {
        CentralServer::default()
    }

    /// Number of stored subscriptions.
    pub fn subscription_count(&self) -> usize {
        self.subs.len()
    }

    /// Handles one client message.
    pub fn handle(
        &mut self,
        _now: SimTime,
        from: NodeIndex,
        msg: BrokerMsg,
        out: &mut Outbox<BrokerMsg>,
    ) {
        self.msgs_handled += 1;
        match msg {
            BrokerMsg::Attach => {
                self.clients.insert(from);
            }
            BrokerMsg::Detach => {
                self.clients.remove(&from);
                self.subs.retain(|(_, c)| *c != from);
            }
            BrokerMsg::Subscribe(sub) if !self.subs.iter().any(|(s, _)| s.id == sub.id) => {
                self.subs.push((sub, from));
            }
            BrokerMsg::Unsubscribe(id) => {
                self.subs.retain(|(s, _)| s.id != id);
            }
            BrokerMsg::Publish(event) | BrokerMsg::Notify(event) => {
                let mut already: BTreeSet<NodeIndex> = BTreeSet::new();
                for (sub, client) in &self.subs {
                    if *client != from
                        && self.clients.contains(client)
                        && !already.contains(client)
                        && sub.filter.matches(&event)
                    {
                        already.insert(*client);
                        self.notifications_sent += 1;
                        out.send(*client, BrokerMsg::Notify(event.clone()));
                    }
                }
            }
            // Mobility needs no proxy: the server is always reachable.
            _ => {}
        }
    }

    /// Removes a subscription by id (test/bench convenience).
    pub fn remove(&mut self, id: SubId) {
        self.subs.retain(|(s, _)| s.id != id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::Filter;
    use crate::notification::Event;

    fn n(i: u32) -> NodeIndex {
        NodeIndex(i)
    }

    fn attach_and_subscribe(s: &mut CentralServer, client: NodeIndex, id: SubId, f: Filter) {
        let mut out = Outbox::new();
        s.handle(SimTime::ZERO, client, BrokerMsg::Attach, &mut out);
        s.handle(
            SimTime::ZERO,
            client,
            BrokerMsg::Subscribe(Subscription { id, filter: f }),
            &mut out,
        );
    }

    #[test]
    fn publish_notifies_matching_clients_once() {
        let mut s = CentralServer::new();
        attach_and_subscribe(&mut s, n(1), 1, Filter::for_kind("k"));
        // Client 1 has a second overlapping subscription: still one copy.
        let mut out = Outbox::new();
        s.handle(
            SimTime::ZERO,
            n(1),
            BrokerMsg::Subscribe(Subscription { id: 2, filter: Filter::any() }),
            &mut out,
        );
        attach_and_subscribe(&mut s, n(2), 3, Filter::for_kind("other"));
        let mut out = Outbox::new();
        s.handle(SimTime::ZERO, n(9), BrokerMsg::Publish(Event::new("k")), &mut out);
        let to_1 = out.sends().iter().filter(|(t, _)| *t == n(1)).count();
        let to_2 = out.sends().iter().filter(|(t, _)| *t == n(2)).count();
        assert_eq!(to_1, 1);
        assert_eq!(to_2, 0);
    }

    #[test]
    fn publisher_excluded_from_delivery() {
        let mut s = CentralServer::new();
        attach_and_subscribe(&mut s, n(1), 1, Filter::any());
        let mut out = Outbox::new();
        s.handle(SimTime::ZERO, n(1), BrokerMsg::Publish(Event::new("k")), &mut out);
        assert!(out.sends().is_empty());
    }

    #[test]
    fn unsubscribe_and_detach() {
        let mut s = CentralServer::new();
        attach_and_subscribe(&mut s, n(1), 1, Filter::any());
        attach_and_subscribe(&mut s, n(2), 2, Filter::any());
        let mut out = Outbox::new();
        s.handle(SimTime::ZERO, n(1), BrokerMsg::Unsubscribe(1), &mut out);
        assert_eq!(s.subscription_count(), 1);
        s.handle(SimTime::ZERO, n(2), BrokerMsg::Detach, &mut out);
        assert_eq!(s.subscription_count(), 0);
    }

    #[test]
    fn load_counter_counts_everything() {
        let mut s = CentralServer::new();
        let mut out = Outbox::new();
        for i in 0..5 {
            s.handle(SimTime::ZERO, n(i), BrokerMsg::Publish(Event::new("k")), &mut out);
        }
        assert_eq!(s.msgs_handled, 5);
    }
}
