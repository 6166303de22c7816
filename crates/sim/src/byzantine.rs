//! Byzantine node behaviours for adversarial scenarios.
//!
//! A [`ByzantineActor`] wraps one node's message handling with a
//! misbehaviour policy. Harness node types (e.g. the overlay's world
//! node) consult it before handing an input to the wrapped protocol, so
//! the protocol code itself stays honest — the adversary lives entirely
//! in the harness layer.
//!
//! The behaviours model the failure modes that defeat naive liveness
//! detection:
//!
//! * [`ByzBehavior::AckThenDrop`] — participates fully in the probe /
//!   heartbeat machinery (so it always looks alive) while silently
//!   dropping payload traffic it was supposed to forward or serve.
//! * [`ByzBehavior::SelectiveSilence`] — drops all traffic from a
//!   deterministic subset of peers, creating the asymmetric "works for
//!   you, dead for me" disagreements that flap naive detectors.
//!
//! Everything is deterministic: behaviours branch on message class and
//! peer identity, never on randomness or time.

use crate::topology::NodeIndex;

/// Coarse classification of a message for fault policies. Harness layers
/// map their protocol's message enum onto this.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultClass {
    /// Probes, acks, heartbeats — the liveness machinery.
    Liveness,
    /// Application payload: routed messages, publications, fetches.
    Payload,
    /// State exchange: leaf sets, routing rows, advertisements.
    Gossip,
    /// Joins, handoffs, administrative traffic.
    Control,
}

/// A node's misbehaviour policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ByzBehavior {
    /// No misbehaviour.
    #[default]
    Honest,
    /// Answer liveness traffic normally; silently drop incoming payload.
    AckThenDrop,
    /// Drop *all* traffic from peers whose index satisfies
    /// `peer % modulus == 0`; behave normally for everyone else.
    SelectiveSilence {
        /// Which peers to ignore (`peer.0 % modulus == 0`).
        modulus: u32,
    },
}

/// Per-node byzantine state: the behaviour plus drop accounting.
#[derive(Debug, Clone, Copy, Default)]
pub struct ByzantineActor {
    /// The active misbehaviour policy.
    pub behavior: ByzBehavior,
    /// Inputs swallowed by the policy so far.
    pub dropped: u64,
}

impl ByzantineActor {
    /// Creates an actor with the given policy.
    pub fn new(behavior: ByzBehavior) -> Self {
        ByzantineActor { behavior, dropped: 0 }
    }

    /// Whether the actor misbehaves at all (fast path check).
    pub fn is_honest(&self) -> bool {
        self.behavior == ByzBehavior::Honest
    }

    /// Decides whether an incoming message of `class` from `from` is
    /// silently swallowed before the wrapped protocol sees it.
    pub fn should_drop_input(&mut self, from: NodeIndex, class: FaultClass) -> bool {
        let drop = match self.behavior {
            ByzBehavior::Honest => false,
            ByzBehavior::AckThenDrop => class == FaultClass::Payload,
            ByzBehavior::SelectiveSilence { modulus } => from.0.is_multiple_of(modulus.max(1)),
        };
        if drop {
            self.dropped += 1;
        }
        drop
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn honest_drops_nothing() {
        let mut a = ByzantineActor::default();
        assert!(a.is_honest());
        assert!(!a.should_drop_input(NodeIndex(3), FaultClass::Payload));
        assert_eq!(a.dropped, 0);
    }

    #[test]
    fn ack_then_drop_answers_probes_but_eats_payload() {
        let mut a = ByzantineActor::new(ByzBehavior::AckThenDrop);
        assert!(!a.should_drop_input(NodeIndex(3), FaultClass::Liveness));
        assert!(!a.should_drop_input(NodeIndex(3), FaultClass::Gossip));
        assert!(!a.should_drop_input(NodeIndex(3), FaultClass::Control));
        assert!(a.should_drop_input(NodeIndex(3), FaultClass::Payload));
        assert_eq!(a.dropped, 1);
    }

    #[test]
    fn selective_silence_targets_a_subset() {
        let mut a = ByzantineActor::new(ByzBehavior::SelectiveSilence { modulus: 3 });
        assert!(a.should_drop_input(NodeIndex(6), FaultClass::Liveness));
        assert!(a.should_drop_input(NodeIndex(9), FaultClass::Payload));
        assert!(!a.should_drop_input(NodeIndex(7), FaultClass::Payload));
    }
}
