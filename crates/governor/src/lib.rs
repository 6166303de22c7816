//! The admission and health plane ("governor") for the Gloss stack.
//!
//! The paper's active architecture assumes peers that join, advertise,
//! and fail politely. A pervasive deployment does not get that luxury:
//! radios flap, devices reconnect in stampedes after a partition heals,
//! and compromised nodes acknowledge probes while silently dropping
//! traffic. This crate is the layer between "node joins the overlay" and
//! "node is a trusted peer":
//!
//! * [`AdmissionGovernor`] — per-source-prefix token-bucket rate limiting
//!   for join requests, with exponential backoff + jitter pushed back to
//!   rejected joiners so a reconnection stampede drains smoothly.
//! * [`SuspicionTracker`] — a phi-accrual-style per-peer health score fed
//!   by the SWIM probe machinery (probe timeouts, contact inter-arrival,
//!   refutations) and by routing-layer conduct evidence (unacknowledged
//!   forwards), with hysteresis and a per-peer circuit breaker
//!   (closed → open → half-open) that gates routing and replica
//!   placement.
//! * [`LoadShedder`] — a bounded-ingress-queue model with a watermark
//!   policy for brokers: shed lowest-priority publications first, reject
//!   new subscriptions under overload, always admit unsubscribes and
//!   control traffic, with per-client fairness counters.
//!
//! Everything here is sans-IO and deterministic: no wall clocks, no
//! global randomness. Jitter draws from a seeded splitmix64 stream owned
//! by each governor instance, so identical call sequences yield
//! byte-identical simulation runs.

pub mod admission;
pub mod backoff;
pub mod bucket;
pub mod shedding;
pub mod suspicion;

pub use admission::{Admission, AdmissionGovernor};
pub use bucket::TokenBucket;
pub use shedding::{IngressClass, LoadShedder, ShedConfig, ShedDecision};
pub use suspicion::{CircuitState, ProbeDecision, SuspicionTracker, SuspicionVerdict};

/// Selects the governed protocol for an overlay: embedders pass
/// `Some(GovernorConfig::default())` for admission control plus suspicion
/// scoring and `None` for the legacy three-strikes detection. It carries
/// no field — the policy values are constants beside their use in
/// [`admission`] and [`suspicion`], and the one value that does vary, the
/// probe cadence, is [`SuspicionTracker::new`]'s argument.
#[derive(Debug, Clone, Default)]
pub struct GovernorConfig {}
