//! Tests of the Elvin-like server of experiment **C1**: one `Broker` with
//! no neighbour, as `Architecture::Centralized` builds it.

#[cfg(test)]
mod tests {
    use crate::broker::{Broker, BrokerMsg, BrokerTopology, SubId};
    use crate::filter::{Filter, Subscription};
    use crate::notification::Event;
    use gloss_sim::{NodeIndex, Outbox, SimTime};

    fn n(i: u32) -> NodeIndex {
        NodeIndex(i)
    }

    fn server() -> Broker {
        Broker::new(n(0), BrokerTopology::Peer { neighbors: vec![] })
    }

    fn attach_and_subscribe(s: &mut Broker, client: NodeIndex, id: SubId, f: Filter) {
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
        let mut s = server();
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
        let mut s = server();
        attach_and_subscribe(&mut s, n(1), 1, Filter::any());
        let mut out = Outbox::new();
        s.handle(SimTime::ZERO, n(1), BrokerMsg::Publish(Event::new("k")), &mut out);
        assert!(out.sends().is_empty());
    }

    #[test]
    fn unsubscribe_and_detach() {
        let mut s = server();
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
        let mut s = server();
        let mut out = Outbox::new();
        for i in 0..5 {
            s.handle(SimTime::ZERO, n(i), BrokerMsg::Publish(Event::new("k")), &mut out);
        }
        assert_eq!(s.msgs_handled, 5);
    }
}
