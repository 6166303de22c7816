//! Mobility: a roaming client is a late subscriber.
//!
//! The paper cites Mobikit (§3): "The system provides static proxies for
//! mobile entities, which subscribe on behalf of the mobile entity when the
//! mobile entity is disconnected from the pub/sub system." Here the old
//! broker does so itself: it logs what the client's subscriptions match
//! while it is away, and replays that when the client, subscribed again
//! at its new broker, asks ([`replay`](crate::replay)). It is driven by
//! [`crate::PubSubNetwork::move_client`]; this module holds the
//! network-level behaviour tests: what matched while the client was away
//! is replayed after the move, subscriptions survive it, and the replay
//! and the live stream meet without loss or repetition.

#[cfg(test)]
mod tests {
    use crate::filter::Filter;
    use crate::network::{Architecture, PubSubConfig, PubSubNetwork};
    use crate::notification::Event;
    use gloss_sim::SimDuration;

    fn build() -> PubSubNetwork {
        PubSubNetwork::build(PubSubConfig {
            architecture: Architecture::AcyclicPeer,
            brokers: 4,
            clients_per_broker: 2,
            seed: 21,
            ..PubSubConfig::default()
        })
    }

    #[test]
    fn events_buffered_while_offline_are_replayed_after_move() {
        let mut net = build();
        let clients = net.clients().to_vec();
        let mobile = clients[0];
        let publisher = clients[5];
        net.subscribe(mobile, Filter::for_kind("news"));
        net.run_for(SimDuration::from_secs(2));

        // Go offline for 30 s; move to a different broker.
        let old_broker = net.client(mobile).access;
        let new_broker = net.brokers().iter().copied().find(|b| *b != old_broker).unwrap();
        net.move_client(mobile, new_broker, SimDuration::from_secs(30));
        net.run_for(SimDuration::from_secs(5));

        // Published while the client is away: logged by its old broker.
        net.publish(publisher, Event::new("news").with_attr("n", 1i64));
        net.publish(publisher, Event::new("news").with_attr("n", 2i64));
        net.run_for(SimDuration::from_secs(5));
        assert_eq!(net.client(mobile).received.len(), 0, "offline: nothing delivered yet");

        // After reconnection the log is replayed.
        net.run_for(SimDuration::from_secs(60));
        assert_eq!(net.client(mobile).received.len(), 2);
        assert_eq!(net.client(mobile).duplicates, 0);
    }

    #[test]
    fn subscriptions_survive_the_move() {
        let mut net = build();
        let clients = net.clients().to_vec();
        let mobile = clients[1];
        let publisher = clients[6];
        net.subscribe(mobile, Filter::for_kind("news"));
        net.run_for(SimDuration::from_secs(2));

        let old_broker = net.client(mobile).access;
        let new_broker = net.brokers().iter().copied().find(|b| *b != old_broker).unwrap();
        net.move_client(mobile, new_broker, SimDuration::from_secs(10));
        net.run_for(SimDuration::from_secs(60));

        // Published after the move completes: delivered via the new broker.
        net.publish(publisher, Event::new("news"));
        net.run_for(SimDuration::from_secs(10));
        assert_eq!(net.client(mobile).received.len(), 1);
        assert_eq!(net.client(mobile).false_deliveries, 0);
    }

    #[test]
    fn non_matching_events_are_not_buffered() {
        let mut net = build();
        let clients = net.clients().to_vec();
        let mobile = clients[2];
        let publisher = clients[7];
        net.subscribe(mobile, Filter::for_kind("news"));
        net.run_for(SimDuration::from_secs(2));

        let old_broker = net.client(mobile).access;
        let new_broker = net.brokers().iter().copied().find(|b| *b != old_broker).unwrap();
        net.move_client(mobile, new_broker, SimDuration::from_secs(20));
        net.run_for(SimDuration::from_secs(5));
        net.publish(publisher, Event::new("spam"));
        net.run_for(SimDuration::from_secs(60));
        assert_eq!(net.client(mobile).received.len(), 0);
    }

    #[test]
    fn move_within_same_broker_is_safe() {
        let mut net = build();
        let clients = net.clients().to_vec();
        let mobile = clients[3];
        net.subscribe(mobile, Filter::for_kind("news"));
        net.run_for(SimDuration::from_secs(2));
        let broker = net.client(mobile).access;
        net.move_client(mobile, broker, SimDuration::from_secs(5));
        net.run_for(SimDuration::from_secs(30));
        net.publish(clients[4], Event::new("news"));
        net.run_for(SimDuration::from_secs(10));
        assert_eq!(net.client(mobile).received.len(), 1);
    }
}
