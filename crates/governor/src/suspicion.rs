//! Per-peer suspicion scoring with a circuit breaker.
//!
//! Replaces binary three-strikes failure detection with a phi-accrual
//! style score: suspicion grows with both the number of missed probes and
//! the time elapsed relative to the peer's observed contact inter-arrival,
//! and *decays* on contact instead of resetting — so a flapping link
//! hovers at low suspicion (hysteresis) while a dead peer crosses the
//! threshold in a few probe intervals.
//!
//! Liveness is not the only failure mode: a byzantine peer can answer
//! probes while silently dropping forwarded traffic ("ack-then-drop").
//! The tracker therefore keeps two evidence channels per peer:
//!
//! * **liveness** — probe timeouts raise it, any probe contact decays it;
//! * **conduct** — unacknowledged forwards raise it, acknowledged
//!   forwards decay it. Probe contact does *not* refute conduct
//!   suspicion, so acking probes cannot whitewash dropped traffic.
//!
//! Either channel crossing its threshold opens the peer's circuit:
//!
//! ```text
//!            phi ≥ threshold            cooldown elapsed
//!  CLOSED ───────────────────▶ OPEN ──────────────────▶ HALF-OPEN
//!    ▲                                                     │ │
//!    │            contact / acked forward (refutation)     │ │
//!    └─────────────────────────────────────────────────────┘ │
//!                 trial failures ≥ EVICT_FAILURES ──▶ EVICTED (banned)
//! ```
//!
//! While OPEN the peer is skipped by routing, replica placement, and
//! regular probing (only the half-open trial probes go out). EVICTED is
//! terminal: the peer is banned so gossip cannot re-introduce it.

use gloss_sim::{FnvHashMap, NodeIndex, SimDuration, SimTime};

/// Liveness phi at which the circuit opens (≈ missed² at steady cadence,
/// so 6.0 opens on the third consecutive miss).
const SUSPECT_THRESHOLD: f64 = 6.0;
/// Unacked-forward score at which the circuit opens.
const CONDUCT_THRESHOLD: f64 = 4.0;
/// Multiplier applied to the missed-probe score on contact (< 1;
/// hysteresis — flapping decays instead of resetting).
const CONTACT_DECAY: f64 = 0.35;
/// Multiplier applied to the conduct score on an acked forward.
const CONDUCT_DECAY: f64 = 0.5;
/// How long an opened circuit rests before half-open trials.
const OPEN_COOLDOWN: SimDuration = SimDuration::from_secs(10);
/// Failed half-open trials before the peer is evicted outright.
const EVICT_FAILURES: u32 = 2;

/// Circuit breaker state of one peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CircuitState {
    /// Healthy: routed to, probed, eligible for replica placement.
    Closed,
    /// Suspected: skipped by routing and placement; probing paused until
    /// the cooldown elapses.
    Open,
    /// Trial period: probed and routable again; failures evict, contact
    /// refutes.
    HalfOpen,
}

/// What a new piece of evidence did to a peer's circuit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SuspicionVerdict {
    /// Nothing changed.
    None,
    /// The circuit just opened (peer newly suspected).
    Opened,
    /// The peer survived suspicion (circuit re-closed).
    Refuted,
    /// Half-open trials exhausted: the caller should remove the peer from
    /// its routing state and call [`SuspicionTracker::evict`].
    Evict,
}

/// Whether the probe loop should contact a peer this round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbeDecision {
    /// Send a probe.
    Probe,
    /// Circuit open and cooling down: skip.
    Skip,
}

#[derive(Debug, Clone, Copy)]
struct Peer {
    last_contact: SimTime,
    /// EWMA of contact inter-arrival (µs).
    mean_gap_us: f64,
    /// Missed-probe score (decays on contact).
    missed: f64,
    /// Unacked-forward score (decays on acked forwards only).
    conduct: f64,
    state: CircuitState,
    half_open_at: SimTime,
    trial_failures: u32,
}

/// Phi-accrual-style suspicion scores and circuit breakers for a node's
/// peers. Purely deterministic: state advances only through the feed
/// methods, all of which carry simulated time.
#[derive(Debug, Clone)]
pub struct SuspicionTracker {
    /// Expected probe cadence; scales the phi elapsed-time ratio.
    probe_interval: SimDuration,
    peers: FnvHashMap<u32, Peer>,
    banned: FnvHashMap<u32, ()>,
    /// Circuits opened so far.
    pub opened: u64,
    /// Suspicions refuted (peer came back) so far.
    pub refuted: u64,
    /// Peers evicted so far.
    pub evicted: u64,
}

impl SuspicionTracker {
    /// Creates a tracker for peers probed every `probe_interval`.
    pub fn new(probe_interval: SimDuration) -> Self {
        SuspicionTracker {
            probe_interval,
            peers: FnvHashMap::default(),
            banned: FnvHashMap::default(),
            opened: 0,
            refuted: 0,
            evicted: 0,
        }
    }

    fn entry(&mut self, now: SimTime, peer: NodeIndex) -> &mut Peer {
        let interval = self.probe_interval.as_micros() as f64;
        self.peers.entry(peer.0).or_insert(Peer {
            last_contact: now,
            mean_gap_us: interval,
            missed: 0.0,
            conduct: 0.0,
            state: CircuitState::Closed,
            half_open_at: SimTime::ZERO,
            trial_failures: 0,
        })
    }

    /// Ensures a peer is tracked (call when a peer is first learned, so
    /// phi has a baseline even if the peer never makes contact).
    pub fn observe(&mut self, now: SimTime, peer: NodeIndex) {
        self.entry(now, peer);
    }

    /// Feeds probe-layer contact (an ack or an incoming probe). Refutes
    /// liveness suspicion; does **not** touch the conduct channel.
    pub fn on_contact(&mut self, now: SimTime, peer: NodeIndex) -> SuspicionVerdict {
        let lo = self.probe_interval.as_micros() as f64 * 0.5;
        let hi = self.probe_interval.as_micros() as f64 * 10.0;
        let p = self.entry(now, peer);
        let gap = (now.since(p.last_contact).as_micros() as f64).clamp(lo, hi);
        p.mean_gap_us = 0.8 * p.mean_gap_us + 0.2 * gap;
        p.last_contact = now;
        p.missed *= CONTACT_DECAY;
        if p.state != CircuitState::Closed && p.conduct < CONDUCT_THRESHOLD {
            // Liveness-only suspicion: contact is a refutation. A circuit
            // held open by conduct evidence needs an acked forward.
            p.state = CircuitState::Closed;
            p.trial_failures = 0;
            self.refuted += 1;
            return SuspicionVerdict::Refuted;
        }
        SuspicionVerdict::None
    }

    /// Feeds a probe round that ended without contact from `peer`.
    pub fn on_probe_timeout(&mut self, now: SimTime, peer: NodeIndex) -> SuspicionVerdict {
        let phi = self.phi(now, peer);
        let p = self.entry(now, peer);
        p.missed += 1.0;
        match p.state {
            CircuitState::Closed if phi >= SUSPECT_THRESHOLD => {
                p.state = CircuitState::Open;
                p.half_open_at = now + OPEN_COOLDOWN;
                self.opened += 1;
                SuspicionVerdict::Opened
            }
            CircuitState::HalfOpen => {
                p.trial_failures += 1;
                if p.trial_failures >= EVICT_FAILURES {
                    SuspicionVerdict::Evict
                } else {
                    SuspicionVerdict::None
                }
            }
            _ => SuspicionVerdict::None,
        }
    }

    /// Feeds routing-conduct evidence: a forward to `peer` went
    /// unacknowledged past its deadline.
    pub fn on_forward_unacked(&mut self, now: SimTime, peer: NodeIndex) -> SuspicionVerdict {
        let p = self.entry(now, peer);
        p.conduct += 1.0;
        match p.state {
            CircuitState::Closed if p.conduct >= CONDUCT_THRESHOLD => {
                p.state = CircuitState::Open;
                p.half_open_at = now + OPEN_COOLDOWN;
                self.opened += 1;
                SuspicionVerdict::Opened
            }
            CircuitState::HalfOpen => {
                p.trial_failures += 1;
                if p.trial_failures >= EVICT_FAILURES {
                    SuspicionVerdict::Evict
                } else {
                    SuspicionVerdict::None
                }
            }
            _ => SuspicionVerdict::None,
        }
    }

    /// Feeds routing-conduct evidence: a forward to `peer` was
    /// acknowledged. Decays conduct suspicion and can refute a half-open
    /// circuit that conduct evidence opened.
    pub fn on_forward_acked(&mut self, now: SimTime, peer: NodeIndex) -> SuspicionVerdict {
        let p = self.entry(now, peer);
        p.conduct *= CONDUCT_DECAY;
        if p.state == CircuitState::HalfOpen {
            p.state = CircuitState::Closed;
            p.trial_failures = 0;
            self.refuted += 1;
            return SuspicionVerdict::Refuted;
        }
        SuspicionVerdict::None
    }

    /// The probe loop's gate for one peer this round; transitions an open
    /// circuit to half-open once its cooldown elapses.
    pub fn probe_decision(&mut self, now: SimTime, peer: NodeIndex) -> ProbeDecision {
        let p = self.entry(now, peer);
        match p.state {
            CircuitState::Open if now >= p.half_open_at => {
                p.state = CircuitState::HalfOpen;
                p.trial_failures = 0;
                ProbeDecision::Probe
            }
            CircuitState::Open => ProbeDecision::Skip,
            _ => ProbeDecision::Probe,
        }
    }

    /// The liveness phi score: missed-probe score scaled by elapsed time
    /// relative to the peer's expected contact gap.
    pub fn phi(&self, now: SimTime, peer: NodeIndex) -> f64 {
        let Some(p) = self.peers.get(&peer.0) else {
            return 0.0;
        };
        let expected = p.mean_gap_us.max(self.probe_interval.as_micros() as f64);
        let elapsed = now.since(p.last_contact).as_micros() as f64;
        p.missed * (elapsed / expected)
    }

    /// Current circuit state (unknown peers are closed).
    pub fn state(&self, peer: NodeIndex) -> CircuitState {
        self.peers.get(&peer.0).map_or(CircuitState::Closed, |p| p.state)
    }

    /// Whether routing may use this peer (closed or half-open trial).
    pub fn allows_routing(&self, peer: NodeIndex) -> bool {
        !self.banned.contains_key(&peer.0) && self.state(peer) != CircuitState::Open
    }

    /// Whether replica placement may use this peer (closed only).
    pub fn allows_placement(&self, peer: NodeIndex) -> bool {
        !self.banned.contains_key(&peer.0) && self.state(peer) == CircuitState::Closed
    }

    /// Permanently bans a peer (gossip cannot re-introduce it) and drops
    /// its score state.
    pub fn evict(&mut self, peer: NodeIndex) {
        self.peers.remove(&peer.0);
        self.banned.insert(peer.0, ());
        self.evicted += 1;
    }

    /// Whether `peer` has been evicted.
    pub fn is_banned(&self, peer: NodeIndex) -> bool {
        self.banned.contains_key(&peer.0)
    }

    /// Lifts a ban and clears score state: the peer re-joined through an
    /// admission-controlled path, i.e. it is a new incarnation.
    pub fn readmit(&mut self, peer: NodeIndex) {
        self.banned.remove(&peer.0);
        self.peers.remove(&peer.0);
    }

    /// Number of peers currently tracked.
    pub fn tracked(&self) -> usize {
        self.peers.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::from_secs(secs)
    }

    fn tracker() -> SuspicionTracker {
        SuspicionTracker::new(SimDuration::from_secs(5))
    }

    const PEER: NodeIndex = NodeIndex(1);

    /// Runs `rounds` probe rounds (5 s apart, starting at `from`) without
    /// contact, returning the verdicts.
    fn silent_rounds(tr: &mut SuspicionTracker, from: u64, rounds: u64) -> Vec<SuspicionVerdict> {
        (0..rounds)
            .filter(|k| tr.probe_decision(t(from + k * 5), PEER) == ProbeDecision::Probe)
            .collect::<Vec<_>>()
            .into_iter()
            .map(|k| tr.on_probe_timeout(t(from + k * 5), PEER))
            .collect()
    }

    #[test]
    fn dead_peer_opens_in_a_few_rounds() {
        let mut tr = tracker();
        tr.observe(t(0), PEER);
        let verdicts = silent_rounds(&mut tr, 5, 4);
        assert!(verdicts.contains(&SuspicionVerdict::Opened), "{verdicts:?}");
        assert_eq!(tr.state(PEER), CircuitState::Open);
        assert!(!tr.allows_routing(PEER));
        assert!(!tr.allows_placement(PEER));
    }

    #[test]
    fn steady_contact_stays_closed() {
        let mut tr = tracker();
        tr.observe(t(0), PEER);
        for k in 1..50 {
            assert_eq!(tr.on_contact(t(k * 5), PEER), SuspicionVerdict::None);
        }
        assert_eq!(tr.state(PEER), CircuitState::Closed);
        assert!(tr.phi(t(250), PEER) < 1.0);
    }

    #[test]
    fn flapping_link_does_not_open() {
        // Contact every other round: suspicion hovers, never crosses.
        let mut tr = tracker();
        tr.observe(t(0), PEER);
        for k in 1..40 {
            let now = t(k * 5);
            if k % 2 == 0 {
                tr.on_contact(now, PEER);
            } else {
                let v = tr.on_probe_timeout(now, PEER);
                assert_eq!(v, SuspicionVerdict::None, "flapping opened the circuit at {k}");
            }
        }
        assert_eq!(tr.state(PEER), CircuitState::Closed);
    }

    #[test]
    fn open_cools_down_then_half_open_then_evicts() {
        let mut tr = tracker();
        tr.observe(t(0), PEER);
        // Silence until open.
        let mut now = 5;
        while tr.state(PEER) != CircuitState::Open {
            tr.on_probe_timeout(t(now), PEER);
            now += 5;
        }
        // During the cooldown, probes are skipped.
        assert_eq!(tr.probe_decision(t(now), PEER), ProbeDecision::Skip);
        // After the cooldown (10 s), the circuit half-opens.
        now += 10;
        assert_eq!(tr.probe_decision(t(now), PEER), ProbeDecision::Probe);
        assert_eq!(tr.state(PEER), CircuitState::HalfOpen);
        // Two failed trials evict.
        assert_eq!(tr.on_probe_timeout(t(now + 5), PEER), SuspicionVerdict::None);
        assert_eq!(tr.on_probe_timeout(t(now + 10), PEER), SuspicionVerdict::Evict);
        tr.evict(PEER);
        assert!(tr.is_banned(PEER));
        assert!(!tr.allows_routing(PEER));
        assert_eq!(tr.evicted, 1);
    }

    #[test]
    fn contact_refutes_liveness_suspicion() {
        let mut tr = tracker();
        tr.observe(t(0), PEER);
        let mut now = 5;
        while tr.state(PEER) != CircuitState::Open {
            tr.on_probe_timeout(t(now), PEER);
            now += 5;
        }
        assert_eq!(tr.on_contact(t(now), PEER), SuspicionVerdict::Refuted);
        assert_eq!(tr.state(PEER), CircuitState::Closed);
        assert_eq!(tr.refuted, 1);
        assert!(tr.allows_routing(PEER));
    }

    #[test]
    fn probe_contact_does_not_whitewash_conduct() {
        // Ack-then-drop: probes ack every round, forwards vanish.
        let mut tr = tracker();
        tr.observe(t(0), PEER);
        let mut opened = false;
        for k in 1..10 {
            let now = t(k * 5);
            tr.on_contact(now, PEER);
            if tr.on_forward_unacked(now, PEER) == SuspicionVerdict::Opened {
                opened = true;
                break;
            }
        }
        assert!(opened, "conduct evidence never opened the circuit");
        assert_eq!(tr.state(PEER), CircuitState::Open);
        // Probe contact alone does not re-close a conduct-opened circuit.
        assert_eq!(tr.on_contact(t(60), PEER), SuspicionVerdict::None);
        assert_eq!(tr.state(PEER), CircuitState::Open);
        // An acked forward during the half-open trial does.
        let _ = tr.probe_decision(t(70), PEER); // cooldown elapsed -> HalfOpen
        assert_eq!(tr.state(PEER), CircuitState::HalfOpen);
        assert_eq!(tr.on_forward_acked(t(71), PEER), SuspicionVerdict::Refuted);
        assert_eq!(tr.state(PEER), CircuitState::Closed);
    }

    #[test]
    fn acked_forwards_decay_conduct() {
        let mut tr = tracker();
        tr.observe(t(0), PEER);
        for k in 1..100 {
            // One drop per four acks: decay dominates, stays closed.
            let v = if k % 5 == 0 {
                tr.on_forward_unacked(t(k), PEER)
            } else {
                tr.on_forward_acked(t(k), PEER)
            };
            assert_ne!(v, SuspicionVerdict::Opened, "lossy-but-honest peer opened at {k}");
        }
        assert_eq!(tr.state(PEER), CircuitState::Closed);
    }

    #[test]
    fn banned_peers_stay_banned() {
        let mut tr = tracker();
        tr.evict(PEER);
        assert!(tr.is_banned(PEER));
        // Later evidence does not resurrect it.
        tr.on_contact(t(5), PEER);
        assert!(tr.is_banned(PEER));
        assert!(!tr.allows_placement(PEER));
    }
}
