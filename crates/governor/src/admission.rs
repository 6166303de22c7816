//! Join admission control: a token bucket per source prefix plus
//! exponential backoff with deterministic jitter for rejected requests.
//!
//! Rendezvous nodes (bootstraps, nodes adjacent in key space to many
//! joiners) are the melting point of a reconnection stampede: when a
//! partition heals, every node that crashed behind it retries its join at
//! once. The admission governor bounds the rate each node is willing to
//! serve per source neighbourhood and tells the overflow *when* to come
//! back, spreading the stampede over time instead of shedding it blindly.

use crate::backoff::{exponential, jittered};
use crate::bucket::TokenBucket;
use gloss_sim::{splitmix64, FnvHashMap, NodeIndex, SimDuration, SimTime};

/// Maximum burst of join requests admitted per source prefix.
const BURST: f64 = 8.0;
/// Sustained admission rate per source prefix (tokens per second).
const REFILL_PER_SEC: f64 = 4.0;
/// Source addresses are grouped by `node_index >> PREFIX_SHIFT`, so a
/// misbehaving neighbourhood exhausts its own bucket, not everyone's.
const PREFIX_SHIFT: u32 = 4;
/// First retry delay pushed back to a rejected joiner.
const BASE_BACKOFF: SimDuration = SimDuration::from_millis(500);
/// Backoff ceiling (doubling stops here).
const MAX_BACKOFF: SimDuration = SimDuration::from_secs(8);
/// Fraction of the backoff randomised (±25%), so rejected joiners do not
/// re-synchronise into a second stampede.
const JITTER: f64 = 0.25;

/// The governor's verdict on one join request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Serve the request.
    Admit,
    /// Reject; the joiner should retry after the given delay.
    Backoff(SimDuration),
}

/// Token-bucket join admission with per-source exponential backoff.
///
/// Deterministic: jitter draws from a private splitmix64 stream seeded by
/// the owner, and bucket state advances only on calls carrying simulated
/// time — identical call sequences yield identical verdicts. The bucket
/// itself is the shared [`TokenBucket`] primitive the storage plane's
/// repair pipeline also paces itself with.
#[derive(Debug, Clone)]
pub struct AdmissionGovernor {
    buckets: FnvHashMap<u32, TokenBucket>,
    /// Consecutive rejections per source prefix (drives the exponent).
    strikes: FnvHashMap<u32, u32>,
    rng: u64,
    /// Requests admitted.
    pub admitted: u64,
    /// Requests rejected with a backoff.
    pub rejected: u64,
}

impl AdmissionGovernor {
    /// Creates a governor; `seed` feeds the jitter stream.
    pub fn new(seed: u64) -> Self {
        let mut s = seed ^ 0xad31_5510_9e37_79b9;
        splitmix64(&mut s);
        AdmissionGovernor {
            buckets: FnvHashMap::default(),
            strikes: FnvHashMap::default(),
            rng: s,
            admitted: 0,
            rejected: 0,
        }
    }

    fn prefix(source: NodeIndex) -> u32 {
        source.0 >> PREFIX_SHIFT
    }

    /// Judges one join request from `source` at time `now`.
    pub fn check(&mut self, now: SimTime, source: NodeIndex) -> Admission {
        let prefix = Self::prefix(source);
        let b = self
            .buckets
            .entry(prefix)
            .or_insert_with(|| TokenBucket::new(BURST, REFILL_PER_SEC, now));
        if b.try_take(now, 1.0) {
            self.strikes.remove(&prefix);
            self.admitted += 1;
            return Admission::Admit;
        }
        let strikes = self.strikes.entry(prefix).or_insert(0);
        let exp = *strikes;
        *strikes = strikes.saturating_add(1);
        self.rejected += 1;
        Admission::Backoff(self.delay(exp, SimDuration::from_micros(1)))
    }

    /// `BASE_BACKOFF × 2^attempt`, capped at `MAX_BACKOFF`, floored, jittered.
    fn delay(&mut self, attempt: u32, floor: SimDuration) -> SimDuration {
        let capped = exponential(BASE_BACKOFF, attempt).min(MAX_BACKOFF).max(floor);
        jittered(capped, JITTER, &mut self.rng)
    }

    /// Joiner-side retry delay for an *unanswered* join attempt (the
    /// bootstrap never replied — it is down, partitioned away, or the
    /// message was lost). Follows the same exponential schedule the
    /// server side pushes to rejected joiners, jittered from this
    /// governor's private stream, but floored at one second so a healthy
    /// join round-trip is never raced by its own retry. Contrast with the
    /// ungoverned protocol's blind fixed-interval fallback: after a
    /// partition heals, governed joiners are already retrying on a short
    /// (≤ `MAX_BACKOFF`) cadence and complete quickly, while the jitter
    /// keeps them from re-synchronising into a stampede.
    pub fn retry_backoff(&mut self, attempt: u32) -> SimDuration {
        self.delay(attempt, SimDuration::from_secs(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gov() -> AdmissionGovernor {
        AdmissionGovernor::new(7)
    }

    #[test]
    fn burst_admitted_then_rejected() {
        let mut g = gov();
        let t = SimTime::ZERO;
        for _ in 0..8 {
            assert_eq!(g.check(t, NodeIndex(1)), Admission::Admit);
        }
        assert!(matches!(g.check(t, NodeIndex(1)), Admission::Backoff(_)));
        assert_eq!(g.admitted, 8);
        assert_eq!(g.rejected, 1);
    }

    #[test]
    fn refill_restores_admission() {
        let mut g = gov();
        for _ in 0..8 {
            g.check(SimTime::ZERO, NodeIndex(1));
        }
        assert!(matches!(g.check(SimTime::ZERO, NodeIndex(1)), Admission::Backoff(_)));
        // 1 second refills 4 tokens.
        assert_eq!(g.check(SimTime::from_secs(1), NodeIndex(1)), Admission::Admit);
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let mut g = gov();
        for _ in 0..8 {
            g.check(SimTime::ZERO, NodeIndex(1));
        }
        let mut last = SimDuration::ZERO;
        let mut grew = 0;
        for _ in 0..12 {
            match g.check(SimTime::ZERO, NodeIndex(1)) {
                Admission::Backoff(d) => {
                    if d > last {
                        grew += 1;
                    }
                    assert!(
                        d.as_micros() <= (MAX_BACKOFF.as_micros() as f64 * 1.25) as u64,
                        "backoff {d:?} exceeds jittered ceiling"
                    );
                    last = d;
                }
                Admission::Admit => panic!("no refill happened"),
            }
        }
        assert!(grew >= 4, "backoff never grew: {grew}");
    }

    #[test]
    fn sources_in_different_prefixes_do_not_interfere() {
        let mut g = gov();
        for _ in 0..8 {
            g.check(SimTime::ZERO, NodeIndex(1));
        }
        assert!(matches!(g.check(SimTime::ZERO, NodeIndex(2)), Admission::Backoff(_)));
        // Prefix shift 4: node 16 lives in another bucket.
        assert_eq!(g.check(SimTime::ZERO, NodeIndex(16)), Admission::Admit);
    }

    #[test]
    fn deterministic_across_instances() {
        let run = || {
            let mut g = AdmissionGovernor::new(99);
            let mut vs = Vec::new();
            for i in 0..20 {
                vs.push(g.check(SimTime::from_millis(i * 10), NodeIndex((i % 3) as u32)));
            }
            vs
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn admission_resets_strikes() {
        let mut g = gov();
        for _ in 0..9 {
            g.check(SimTime::ZERO, NodeIndex(1));
        }
        // Refill fully, admit, then exhaust again: backoff restarts small.
        let t = SimTime::from_secs(10);
        assert_eq!(g.check(t, NodeIndex(1)), Admission::Admit);
        for _ in 0..7 {
            g.check(t, NodeIndex(1));
        }
        match g.check(t, NodeIndex(1)) {
            Admission::Backoff(d) => {
                let ceiling = BASE_BACKOFF.as_micros() as f64 * 1.3;
                assert!((d.as_micros() as f64) <= ceiling, "strikes were not reset: {d:?}");
            }
            Admission::Admit => panic!("bucket should be empty"),
        }
    }
}
