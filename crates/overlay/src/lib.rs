//! Plaxton-style structured overlay routing (Pastry flavour).
//!
//! The paper's storage architecture (§3, §4.5) builds on "a deterministic
//! routing algorithm by Plaxton, which permits the discovery of documents
//! stored in a wide area network", as used by PAST/Pastry/OceanStore, and
//! explicitly rejects systems that "rely exclusively on non-deterministic
//! algorithms", because then "data cannot always be found, rendering them
//! unsuitable as a base technology for this work".
//!
//! This crate implements:
//!
//! * [`Key`] — 128-bit identifiers with hexadecimal digit routing and
//!   FNV-1a content hashing (GUIDs),
//! * [`OverlayNode`] — a sans-IO Pastry-style node: prefix routing table +
//!   leaf set, join protocol, heartbeat failure detection and repair,
//! * [`OverlayNetwork`] — a simulation harness over [`gloss_sim::World`],
//! * [`freenet`] — the non-deterministic greedy/random-walk baseline used
//!   by experiment **C2** to quantify the paper's objection.
//!
//! Routing reaches the live node whose key is numerically closest to the
//! target in `O(log₁₆ N)` hops (measured in C2).
//!
//! # Example
//!
//! ```
//! use gloss_overlay::Key;
//! let a = Key::hash_of(b"janettas-gelateria");
//! let b = Key::hash_of(b"janettas-gelateria");
//! assert_eq!(a, b); // content-derived GUIDs are deterministic
//! ```

pub mod freenet;
pub mod id;
pub mod network;
pub mod node;
pub mod table;

pub use freenet::{FreenetNetwork, FreenetNode};
// Re-exported so embedders can select the governor without depending on
// `gloss_governor` directly.
pub use gloss_governor::{CircuitState, GovernorConfig, SuspicionTracker};
pub use id::{Key, KeyedNode, DIGITS};
pub use network::{ByzBehavior, OverlayNetwork, RouteOutcome};
pub use node::{ring_settle, Delivery, OverlayMsg, OverlayNode, JOIN_STAGGER};
pub use table::{LeafSet, RoutingTable};
