//! Hearing what you missed: late subscriptions and roaming clients.
//!
//! A broker logs what its log subscriptions match ([`ReplayLog`],
//! [`Broker::keep_log`]). A client that moves out ([`BrokerMsg::MoveOut`])
//! leaves its subscriptions behind, and its broker logs their matches for
//! it (not its own publications) for up to [`AWAY_RETENTION`]. A late
//! subscriber, or a client subscribed again under fresh ids after a
//! move, sends [`BrokerMsg::Replay`] right after its subscriptions. A
//! broker answers from the client's own log (then drops its old
//! subscriptions), or from its log if that covers every requested filter;
//! any other asks every neighbour but the asker, so the request follows
//! the new subscriptions through the tree, and answers once all have.
//! Meanwhile the client's broker holds its notifications, then sends one
//! [`BrokerMsg::Replayed`] (oldest first) and each held notification the
//! replay does not hold. Links are FIFO, so nothing is lost or repeated
//! at the seam. A routed event first releases replays unanswered after
//! [`REPLAY_DEADLINE`] and detaches clients away too long.
//!
//! [`Broker::keep_log`]: crate::Broker::keep_log

use crate::broker::{BrokerMsg, SubId};
use crate::filter::Filter;
use crate::notification::Event;
use gloss_sim::{NodeIndex, Outbox, SimDuration, SimTime};
use std::collections::{BTreeMap, VecDeque};

/// The interface log subscriptions are stored for; no client has it.
pub(crate) const LOG: NodeIndex = NodeIndex(u32::MAX);

/// How long a roaming client's old broker logs for it (counted as
/// `pubsub.away_expired` when it runs out).
pub const AWAY_RETENTION: SimDuration = SimDuration::from_secs(60);

/// How long a broker waits for the answers to a replay it asked for
/// (counted as `pubsub.replay_expired` when it runs out).
pub const REPLAY_DEADLINE: SimDuration = SimDuration::from_secs(5);

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

    pub(crate) fn append(&mut self, now: SimTime, event: &Event) {
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

/// A replay asked of the neighbours: whom to answer, answers due and by
/// when, events answered, and the client's held notifications.
#[derive(Debug, Clone, Default)]
pub(crate) struct Pending {
    reply_to: NodeIndex,
    due: usize,
    deadline: SimTime,
    events: Vec<(SimTime, Event)>,
    held: Vec<Event>,
}

/// A client that moved out: its subscriptions here, when it is detached,
/// and what they matched since.
#[derive(Debug, Clone)]
pub(crate) struct Away {
    ids: Vec<SubId>,
    until: SimTime,
    log: ReplayLog,
}

/// A broker's log, if any, its replays awaiting answers, and the clients
/// away from it.
#[derive(Debug, Clone, Default)]
pub(crate) struct Replays {
    pub(crate) log: Option<ReplayLog>,
    pub(crate) pending: BTreeMap<NodeIndex, Pending>,
    pub(crate) away: BTreeMap<NodeIndex, Away>,
}

impl Replays {
    /// Makes the log keep events for at least `retention`.
    pub(crate) fn keep(&mut self, retention: SimDuration) {
        let log = self.log.get_or_insert_with(ReplayLog::default);
        log.retention = log.retention.max(retention);
    }

    /// Holds `event` back if `client` awaits a replay; returns whether
    /// it did.
    pub(crate) fn hold(&mut self, client: NodeIndex, event: &Event) -> bool {
        let Some(pending) = self.pending.get_mut(&client) else {
            return false;
        };
        pending.held.push(event.clone());
        true
    }

    /// Drops `client`'s pending replay and, if it moved out, its log.
    pub(crate) fn forget(&mut self, client: NodeIndex) {
        self.pending.remove(&client);
        self.away.remove(&client);
    }

    /// Starts logging for `client`, which moved out at `now`, what its
    /// subscriptions `ids` match.
    pub(crate) fn move_out(&mut self, now: SimTime, client: NodeIndex, ids: Vec<SubId>) {
        let until = now.saturating_add(AWAY_RETENTION);
        let log = ReplayLog { retention: AWAY_RETENTION, ..ReplayLog::default() };
        self.away.insert(client, Away { ids, until, log });
    }

    /// Events logged for `client` while it is away (0 if it is not).
    #[cfg(test)]
    pub(crate) fn away_log_len(&self, client: NodeIndex) -> usize {
        self.away.get(&client).map_or(0, |a| a.log.len())
    }

    /// Logs `event` for `client` if it moved out; returns whether it did.
    /// Its own publication is not logged for it.
    pub(crate) fn log_away(&mut self, client: NodeIndex, now: SimTime, event: &Event) -> bool {
        let Some(away) = self.away.get_mut(&client) else {
            return false;
        };
        if event.id().origin != client {
            away.log.append(now, event);
        }
        true
    }

    /// Handles [`BrokerMsg::Replay`] from `from`: answers it from the
    /// client's own log, or from the log if `covered` or no `targets`
    /// remain to ask, else asks `targets`. Returns the subscriptions an
    /// answered away client left here, for the broker to drop.
    pub(crate) fn request(
        &mut self,
        now: SimTime,
        from: NodeIndex,
        targets: Vec<NodeIndex>,
        covered: bool,
        (client, since, filters): (NodeIndex, SimTime, Vec<Filter>),
        out: &mut Outbox<BrokerMsg>,
    ) -> Vec<SubId> {
        if let Some(away) = self.away.remove(&client) {
            let events = away.log.matches(since, &filters);
            out.count("pubsub.replayed", events.len() as f64);
            out.send(from, BrokerMsg::Replayed { client, events });
            return away.ids;
        }
        let events = self.log.as_ref().map(|l| l.matches(since, &filters)).unwrap_or_default();
        if covered || targets.is_empty() {
            out.send(from, BrokerMsg::Replayed { client, events });
            return Vec::new();
        }
        let deadline = now.saturating_add(REPLAY_DEADLINE);
        let fresh = || Pending { reply_to: from, deadline, ..Pending::default() };
        let pending = self.pending.entry(client).or_insert_with(fresh);
        pending.due += targets.len();
        pending.events.extend(events);
        for target in targets {
            let filters = filters.clone();
            out.send(target, BrokerMsg::Replay { client, since, filters });
        }
        Vec::new()
    }

    /// Takes a neighbour's [`BrokerMsg::Replayed`] for `client`, and
    /// answers once all are in.
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
        if pending.due == 0 {
            let pending = self.pending.remove(&client).expect("pending");
            finish(client, pending, out);
        }
    }

    /// Releases each pending replay past its deadline with what has
    /// arrived, and detaches each client away longer than the retention.
    /// Returns the subscriptions the detached clients left here, for the
    /// broker to drop.
    pub(crate) fn expire(&mut self, now: SimTime, out: &mut Outbox<BrokerMsg>) -> Vec<SubId> {
        if self.pending.is_empty() && self.away.is_empty() {
            return Vec::new();
        }
        for (client, pending) in self.pending.extract_if(.., |_, p| p.deadline <= now) {
            out.count("pubsub.replay_expired", 1.0);
            finish(client, pending, out);
        }
        let gone = self.away.extract_if(.., |_, a| a.until <= now);
        gone.flat_map(|(_, away)| {
            out.count("pubsub.away_expired", 1.0);
            away.ids
        })
        .collect()
    }
}

/// Answers a replay with its events, oldest first, then sends the client
/// each held notification they do not hold.
fn finish(client: NodeIndex, pending: Pending, out: &mut Outbox<BrokerMsg>) {
    let Pending { reply_to, mut events, held, .. } = pending;
    events.sort_by_key(|&(at, _)| at);
    let live: Vec<Event> =
        held.into_iter().filter(|e| !events.iter().rev().any(|(_, r)| r == e)).collect();
    out.send(reply_to, BrokerMsg::Replayed { client, events });
    for event in live {
        out.send(client, BrokerMsg::Notify(event));
        out.count("pubsub.delivered_local", 1.0);
    }
}
