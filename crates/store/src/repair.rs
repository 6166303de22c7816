//! The self-healing pipeline's support types: fragment manifests and the
//! rate-limited repair scheduler.
//!
//! The paper expects storage that "permits data to be reconstituted from
//! a subset of the servers on which it is stored" (§3). Reconstitution
//! after a *crash* needs two things the read path does not: a durable
//! record of how an object was fragmented (the [`FragmentManifest`],
//! itself stored as a document so it enjoys replica healing), and a
//! governor on how fast the surviving nodes re-create lost copies (the
//! [`RepairScheduler`]) — an ungoverned repair storm after a correlated
//! regional crash would bury exactly the foreground traffic the repairs
//! exist to protect.

use crate::document::{Document, Priority};
use crate::erasure::MAX_SHARDS;
use gloss_governor::{backoff::jittered, TokenBucket};
use gloss_overlay::Key;
use gloss_sim::{splitmix64, NodeIndex, SimDuration, SimTime};
use std::collections::BTreeMap;

/// The durable record of an erasure-coded object: stored under
/// `"{base}#manifest"`, it names the coding parameters and original
/// length, from which every shard name (`"{base}#shard{i}"`) and GUID is
/// derivable. The manifest's primary is the object's repair coordinator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FragmentManifest {
    /// The object's base document name.
    pub base: String,
    /// Data shards (any `m` reconstruct).
    pub m: usize,
    /// Total shards.
    pub n: usize,
    /// Original object length in bytes.
    pub len: usize,
}

/// Suffix distinguishing manifest documents.
pub const MANIFEST_SUFFIX: &str = "#manifest";

impl FragmentManifest {
    /// The manifest document's name.
    pub fn doc_name(base: &str) -> String {
        format!("{base}{MANIFEST_SUFFIX}")
    }

    /// The name of shard `i` of `base`.
    pub fn shard_name(base: &str, i: usize) -> String {
        format!("{base}#shard{i}")
    }

    /// Serialises into a manifest [`Document`] carrying `priority` (the
    /// tier governs the manifest's own replication *and* is inherited by
    /// repaired shards).
    pub fn to_doc(&self, priority: Priority) -> Document {
        let body = format!("m={}\nn={}\nlen={}\nbase={}\n", self.m, self.n, self.len, self.base);
        Document::new(Self::doc_name(&self.base), body.into_bytes()).with_priority(priority)
    }

    /// Parses a manifest document; `None` if it is not one (wrong name
    /// suffix or malformed body — a repair coordinator must never panic
    /// on bytes another node produced).
    pub fn parse(doc: &Document) -> Option<FragmentManifest> {
        doc.name.strip_suffix(MANIFEST_SUFFIX)?;
        let body = std::str::from_utf8(&doc.content).ok()?;
        let mut m = None;
        let mut n = None;
        let mut len = None;
        let mut base = None;
        for line in body.lines() {
            let (k, v) = line.split_once('=')?;
            match k {
                "m" => m = v.parse().ok(),
                "n" => n = v.parse().ok(),
                "len" => len = v.parse().ok(),
                "base" => base = Some(v.to_string()),
                _ => return None,
            }
        }
        let (m, n, len, base) = (m?, n?, len?, base?);
        if m == 0 || n < m || n > MAX_SHARDS || doc.name.as_ref() != Self::doc_name(&base) {
            return None;
        }
        Some(FragmentManifest { base, m, n, len })
    }
}

/// Anti-storm pacing for repair traffic: a [`TokenBucket`] (the same
/// primitive the admission governor rate-limits joins with) bounds the
/// aggregate rate of repair transfers a node initiates, and a per-peer
/// in-flight cap keeps one slow or dead target from absorbing the whole
/// budget. Deferred work is counted, not dropped — the scan that wanted
/// it re-requests on its next tick, offset by a jittered backoff so
/// coordinators that crashed in the same region do not re-synchronise.
#[derive(Debug, Clone)]
pub struct RepairScheduler {
    bucket: TokenBucket,
    /// Granted transfers awaiting completion: per target, the documents.
    inflight: BTreeMap<NodeIndex, Vec<Key>>,
    max_inflight_per_peer: usize,
    rng: u64,
    /// Repair transfers granted.
    pub granted: u64,
    /// Repair transfers deferred (budget or cap exhausted).
    pub deferred: u64,
}

impl RepairScheduler {
    /// Creates a scheduler: at most `rate_per_sec` sustained repair
    /// transfers (bursting to `burst`), at most `max_inflight_per_peer`
    /// outstanding per target node. `seed` feeds the jitter stream.
    pub fn new(rate_per_sec: f64, burst: f64, max_inflight_per_peer: usize, seed: u64) -> Self {
        let mut s = seed ^ 0x5e1f_4ea1_9e37_79b9;
        splitmix64(&mut s);
        RepairScheduler {
            bucket: TokenBucket::new(burst.max(1.0), rate_per_sec.max(0.0), SimTime::ZERO),
            inflight: BTreeMap::new(),
            max_inflight_per_peer: max_inflight_per_peer.max(1),
            rng: s,
            granted: 0,
            deferred: 0,
        }
    }

    /// Asks to start one repair transfer of `guid` to `peer` now. A
    /// grant charges the budget and holds an in-flight slot until
    /// [`complete`](Self::complete).
    pub fn try_grant(&mut self, now: SimTime, peer: NodeIndex, guid: Key) -> bool {
        let slots = self.inflight.entry(peer).or_default();
        if slots.len() >= self.max_inflight_per_peer {
            self.deferred += 1;
            return false;
        }
        if !self.bucket.try_take(now, 1.0) {
            self.deferred += 1;
            return false;
        }
        slots.push(guid);
        self.granted += 1;
        true
    }

    /// Releases the slot granted for `guid` to `peer` (the transfer was
    /// acknowledged). A completion this scheduler never granted — the
    /// ack of an insert-time or heal put — releases nothing: the repair
    /// transfers to that peer are still outstanding.
    pub fn complete(&mut self, peer: NodeIndex, guid: Key) {
        if let Some(slots) = self.inflight.get_mut(&peer) {
            if let Some(i) = slots.iter().position(|g| *g == guid) {
                slots.remove(i);
            }
            if slots.is_empty() {
                self.inflight.remove(&peer);
            }
        }
    }

    /// Forgets all in-flight state toward `peer` (it crashed; the acks
    /// are never coming).
    pub fn forget_peer(&mut self, peer: NodeIndex) {
        self.inflight.remove(&peer);
    }

    /// A jittered pause (`base` ± 25%) before retrying deferred work,
    /// drawn from this scheduler's private deterministic stream.
    pub fn backoff(&mut self, base: SimDuration) -> SimDuration {
        jittered(base, 0.25, &mut self.rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_round_trip() {
        let m = FragmentManifest { base: "photo".into(), m: 3, n: 6, len: 1234 };
        let doc = m.to_doc(Priority::High);
        assert_eq!(doc.name.as_ref(), "photo#manifest");
        assert_eq!(doc.priority, Priority::High);
        assert_eq!(FragmentManifest::parse(&doc), Some(m));
    }

    #[test]
    fn manifest_rejects_garbage() {
        let not_manifest = Document::new("photo", b"m=1\nn=2\nlen=3\nbase=photo\n".to_vec());
        assert_eq!(FragmentManifest::parse(&not_manifest), None);
        let bad_body = Document::new("photo#manifest", b"not a manifest".to_vec());
        assert_eq!(FragmentManifest::parse(&bad_body), None);
        // Name must match the embedded base.
        let wrong_base = Document::new("photo#manifest", b"m=2\nn=3\nlen=9\nbase=other\n".to_vec());
        assert_eq!(FragmentManifest::parse(&wrong_base), None);
        let zero_m = Document::new("x#manifest", b"m=0\nn=3\nlen=9\nbase=x\n".to_vec());
        assert_eq!(FragmentManifest::parse(&zero_m), None);
        // More shards than a code can have: an audit would issue one
        // lookup per shard before any code was built.
        let huge_n = Document::new("x#manifest", b"m=2\nn=4294967296\nlen=9\nbase=x\n".to_vec());
        assert_eq!(FragmentManifest::parse(&huge_n), None);
    }

    #[test]
    fn shard_names_are_stable() {
        assert_eq!(FragmentManifest::shard_name("doc", 0), "doc#shard0");
        assert_eq!(FragmentManifest::shard_name("doc", 11), "doc#shard11");
    }

    #[test]
    fn scheduler_enforces_rate_and_inflight_cap() {
        let mut s = RepairScheduler::new(1.0, 2.0, 1, 7);
        let t0 = SimTime::ZERO;
        let (a, b) = (NodeIndex(1), NodeIndex(2));
        let (g, h) = (Key(7), Key(8));
        assert!(s.try_grant(t0, a, g));
        // Per-peer cap: a second transfer to the same peer is deferred
        // even though budget remains.
        assert!(!s.try_grant(t0, a, h));
        assert!(s.try_grant(t0, b, g));
        // Budget (burst 2) exhausted for everyone else.
        assert!(!s.try_grant(t0, NodeIndex(3), g));
        assert_eq!(s.granted, 2);
        assert_eq!(s.deferred, 2);
        // Only the granted transfer's completion frees the slot; refill
        // frees the budget.
        s.complete(a, h);
        assert!(!s.try_grant(SimTime::from_secs(1), a, h));
        s.complete(a, g);
        assert!(s.try_grant(SimTime::from_secs(1), a, h));
    }

    #[test]
    fn forget_peer_clears_slots() {
        let mut s = RepairScheduler::new(100.0, 100.0, 1, 7);
        let a = NodeIndex(1);
        assert!(s.try_grant(SimTime::ZERO, a, Key(7)));
        assert!(!s.try_grant(SimTime::ZERO, a, Key(7)));
        s.forget_peer(a);
        assert!(s.try_grant(SimTime::ZERO, a, Key(7)));
    }

    #[test]
    fn backoff_is_jittered_and_deterministic() {
        let base = SimDuration::from_secs(2);
        let mut s1 = RepairScheduler::new(1.0, 1.0, 1, 42);
        let mut s2 = RepairScheduler::new(1.0, 1.0, 1, 42);
        for _ in 0..16 {
            let d1 = s1.backoff(base);
            assert_eq!(d1, s2.backoff(base), "same seed, same stream");
            assert!(d1 >= SimDuration::from_millis(1500) && d1 <= SimDuration::from_millis(2500));
        }
    }
}
