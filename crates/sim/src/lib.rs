//! Deterministic discrete-event simulation substrate for the Gloss
//! reproduction of *Active Architecture for Pervasive Contextual Services*
//! (MPAC 2003).
//!
//! The paper assumes a wide-area deployment over heterogeneous nodes. This
//! crate provides the synthetic equivalent: a seeded discrete-event
//! simulator with a geography-derived latency model, node failure
//! injection, and measurement utilities. Every protocol in the workspace
//! (pub/sub brokers, overlay routing, storage, deployment) is written as a
//! sans-IO state machine driven by [`World`], which owns time and message
//! delivery.
//!
//! The event plane is built for 1k–4k-node workloads (see the
//! [engine docs](engine) for the full architecture):
//!
//! - one **binary heap of event keys** over a payload slab, holding every
//!   pending message, timer and harness control event, drained on the
//!   calling thread;
//! - per-link state (FNV-keyed, purged on crash) caches geographic
//!   latency and carries an order-independent jitter/loss stream.
//!
//! Determinism: a fixed seed yields an identical event trace. Events are
//! processed in canonical key order (a pure function of link/timer/harness
//! sequence numbers, not of scheduler internals), and all randomness flows
//! from [`SimRng`] forks or per-link splitmix64 streams. The
//! `engine_equivalence` integration test checks the engine against a
//! transcription of the seed scheduler.
//!
//! # Example
//!
//! ```
//! use gloss_sim::{World, Node, Input, Outbox, Topology, SimTime, NodeIndex};
//!
//! /// A node that acknowledges every `Ping` with a `Pong`.
//! struct Echo { pongs: u32 }
//! #[derive(Debug, Clone)]
//! enum Msg { Ping, Pong }
//!
//! impl Node for Echo {
//!     type Msg = Msg;
//!     fn handle(&mut self, _now: SimTime, input: Input<Msg>, out: &mut Outbox<Msg>) {
//!         match input {
//!             Input::Msg { from, msg: Msg::Ping } => out.send(from, Msg::Pong),
//!             Input::Msg { msg: Msg::Pong, .. } => self.pongs += 1,
//!             _ => {}
//!         }
//!     }
//! }
//!
//! let topology = Topology::random(2, &["lab"], 7);
//! let mut world = World::new(topology, 7, vec![Echo { pongs: 0 }, Echo { pongs: 0 }]);
//! world.inject(NodeIndex(0), NodeIndex(1), Msg::Ping);
//! world.run_until(SimTime::from_secs(1));
//! assert_eq!(world.node(NodeIndex(0)).pongs, 1);
//! ```

pub mod engine;
pub mod failure;
pub mod hash;
pub mod metrics;
pub mod rng;
pub mod testkit;
pub mod time;
pub mod topology;
pub mod trace;

pub use engine::{link_stream_seed, Input, Node, Outbox, World};
pub use failure::{ChurnEvent, ChurnKind, ChurnModel};
pub use hash::{fnv1a, splitmix64, splitmix_unit, FnvBuildHasher, FnvHashMap, FnvHasher};
pub use metrics::{CounterId, Histogram, MetricsRegistry, Summary};
pub use rng::{SimRng, Zipf};
pub use time::{SimDuration, SimTime};
pub use topology::{GeoPoint, LatencyModel, NodeIndex, NodeInfo, Topology};
pub use trace::{TraceEvent, Tracer};
