//! Content-based publish/subscribe: the paper's "generic global event
//! service" (§4.1).
//!
//! The paper proposes "a general-purpose system such as Siena" to
//! distribute both low-level sensor events and high-level synthesised
//! events, because "it has enough expressibility in its publish/subscribe
//! language and shows evidence of being globally scalable". This crate
//! implements the published Siena design:
//!
//! * typed attribute events ([`Event`], [`AttrValue`]) with optional XML
//!   payloads bound via type projection,
//! * a subscription language ([`Filter`], [`Constraint`], [`Op`]) with the
//!   **covering** relation used to prune subscription propagation,
//! * [`Broker`] state machines supporting the *hierarchical* and *acyclic
//!   peer* topologies of the Siena paper; a broker with no neighbour is
//!   the one server of the Elvin-like client-server baseline
//!   ([`Architecture::Centralized`]: "it uses a client-server
//!   architecture, limiting its scalability" — experiment **C1**
//!   quantifies this),
//! * subscriptions that start in the past: a broker's time-bounded
//!   [`ReplayLog`] and the seamless [`replay`] a late subscriber asks
//!   for, and
//! * Mobikit-like [`mobility`]: a roaming client's old broker logs for it
//!   while it is disconnected, and the client reconnects as a late
//!   subscriber, replaying that log.
//!
//! # Example
//!
//! ```
//! use gloss_event::{Event, Filter, Op};
//!
//! let filter = Filter::for_kind("user.location")
//!     .with_eq("user", "bob")
//!     .with_constraint("lat", Op::Gt, 56.0);
//! let event = Event::new("user.location")
//!     .with_attr("user", "bob")
//!     .with_attr("lat", 56.34);
//! assert!(filter.matches(&event));
//! ```

pub mod baseline;
pub mod broker;
mod centralized;
pub mod filter;
pub mod index;
pub mod mobility;
pub mod network;
pub mod notification;
pub mod replay;
pub mod value;

pub use baseline::LinearBroker;
pub use broker::{Broker, BrokerMsg, BrokerTopology, SubId};
pub use filter::{merge_cover, Constraint, Filter, Op, Subscription};
pub use gloss_governor::{IngressClass, LoadShedder, ShedConfig, ShedDecision};
pub use index::FilterIndex;
pub use network::{Architecture, ClientApi, PubSubConfig, PubSubNetwork, PubSubNode, Role};
pub use notification::{Event, EventId};
pub use replay::ReplayLog;
pub use value::AttrValue;
