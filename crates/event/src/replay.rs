//! Subscriptions that start in the past. A broker keeps a [`ReplayLog`]
//! of what its log subscriptions match ([`Broker::keep_log`]); these
//! propagate like any subscription but notify no client. A client that
//! subscribes late sends [`BrokerMsg::Replay`] right after its
//! subscriptions. Its broker answers from its own log, or asks its
//! neighbours and holds the client's notifications back until all have
//! answered. The client is then sent one [`BrokerMsg::Replayed`] — the
//! logged matches from `since` on, oldest first — and each held
//! notification the replay does not hold. Links are FIFO, so what a
//! neighbour forwarded before answering arrived while the client was
//! held, and what it forwards after comes live: nothing is lost or
//! repeated at the seam.
//!
//! [`Broker::keep_log`]: crate::Broker::keep_log

use crate::broker::BrokerMsg;
use crate::filter::Filter;
use crate::notification::Event;
use gloss_sim::{NodeIndex, Outbox, SimDuration, SimTime};
use std::collections::{BTreeMap, VecDeque};

/// The interface log subscriptions are stored for; no client has it.
pub(crate) const LOG: NodeIndex = NodeIndex(u32::MAX);

/// The events a broker's log subscriptions matched, `(arrival, event)`
/// oldest first. Appending drops, and counts, what arrived more than the
/// retention before the new event.
#[derive(Debug, Clone, Default)]
pub struct ReplayLog {
    retention: SimDuration,
    entries: VecDeque<(SimTime, Event)>,
    /// Events logged.
    pub appended: u64,
    /// Logged events dropped once older than the retention.
    pub dropped: u64,
}

impl ReplayLog {
    /// Events held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the log holds nothing.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    fn append(&mut self, now: SimTime, event: &Event) {
        let cutoff = now.as_micros().saturating_sub(self.retention.as_micros());
        while self.entries.front().is_some_and(|(at, _)| at.as_micros() < cutoff) {
            self.entries.pop_front();
            self.dropped += 1;
        }
        self.entries.push_back((now, event.clone()));
        self.appended += 1;
    }

    /// The logged matches of `filters` that arrived from `since` on.
    fn matches(&self, since: SimTime, filters: &[Filter]) -> Vec<(SimTime, Event)> {
        let first = self.entries.partition_point(|(at, _)| *at < since);
        let logged = self.entries.range(first..);
        logged.filter(|(_, e)| filters.iter().any(|f| f.matches(e))).cloned().collect()
    }
}

/// A client awaiting its replay: answers still due, events answered,
/// and its held notifications, each with whether a neighbour sent it.
#[derive(Debug, Clone, Default)]
struct Pending {
    due: usize,
    events: Vec<(SimTime, Event)>,
    held: Vec<(bool, Event)>,
}

/// A broker's log, if any, and the clients awaiting a replay.
#[derive(Debug, Clone, Default)]
pub(crate) struct Replays {
    pub(crate) log: Option<ReplayLog>,
    pending: BTreeMap<NodeIndex, Pending>,
}

impl Replays {
    /// Makes the log keep events for at least `retention`.
    pub(crate) fn keep(&mut self, retention: SimDuration) {
        let log = self.log.get_or_insert_with(ReplayLog::default);
        log.retention = log.retention.max(retention);
    }

    pub(crate) fn append(&mut self, now: SimTime, event: &Event) {
        if let Some(log) = &mut self.log {
            log.append(now, event);
        }
    }

    /// Whether some client awaits a replay.
    pub(crate) fn awaited(&self) -> bool {
        !self.pending.is_empty()
    }

    /// Holds `event` back if `client` awaits a replay; returns whether
    /// it did.
    pub(crate) fn hold(&mut self, client: NodeIndex, from_neighbour: bool, event: &Event) -> bool {
        let Some(pending) = self.pending.get_mut(&client) else {
            return false;
        };
        pending.held.push((from_neighbour, event.clone()));
        true
    }

    pub(crate) fn forget(&mut self, client: NodeIndex) {
        self.pending.remove(&client);
    }

    /// Handles [`BrokerMsg::Replay`] from `from`. A neighbour (`targets`
    /// is `None`) is answered from the log, empty without one. A client
    /// is answered from the log too if there is one, else its request
    /// goes on to `targets` and its notifications are held.
    pub(crate) fn request(
        &mut self,
        from: NodeIndex,
        targets: Option<Vec<NodeIndex>>,
        (client, since, filters): (NodeIndex, SimTime, Vec<Filter>),
        out: &mut Outbox<BrokerMsg>,
    ) {
        let targets = targets.filter(|t| self.log.is_none() && !t.is_empty());
        let Some(targets) = targets else {
            let events = self.log.as_ref().map(|l| l.matches(since, &filters)).unwrap_or_default();
            return out.send(from, BrokerMsg::Replayed { client, events });
        };
        self.pending.entry(from).or_default().due += targets.len();
        for target in targets {
            let filters = filters.clone();
            out.send(target, BrokerMsg::Replay { client: from, since, filters });
        }
    }

    /// Takes a neighbour's [`BrokerMsg::Replayed`] for `client`. Once all
    /// are in, the client is sent the replay, oldest first, then each
    /// held notification it does not hold.
    pub(crate) fn answered(
        &mut self,
        client: NodeIndex,
        events: Vec<(SimTime, Event)>,
        out: &mut Outbox<BrokerMsg>,
    ) {
        let Some(pending) = self.pending.get_mut(&client) else {
            return;
        };
        pending.events.extend(events);
        pending.due -= 1;
        if pending.due > 0 {
            return;
        }
        let Pending { mut events, held, .. } = self.pending.remove(&client).expect("pending");
        events.sort_by_key(|&(at, _)| at);
        let live: Vec<Event> = held
            .into_iter()
            .filter(|(neighbour, e)| !neighbour || !events.iter().rev().any(|(_, r)| r == e))
            .map(|(_, e)| e)
            .collect();
        out.send(client, BrokerMsg::Replayed { client, events });
        for event in live {
            out.send(client, BrokerMsg::Notify(event));
            out.count("pubsub.delivered_local", 1.0);
        }
    }
}
