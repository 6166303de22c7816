//! P2P storage over the Plaxton overlay: the paper's knowledge-base
//! substrate (§4.5, §4.6).
//!
//! Implements the storage stack the paper assembles from the literature:
//!
//! * **PAST-style replication** — each document is stored at the `k` live
//!   nodes whose overlay keys are numerically closest to its GUID
//!   ([`StoreNode`]; a lookup's life there is `send_lookup` → `reply` at
//!   whichever node serves it → `conclude`, each written once — see the
//!   [`store_node`] module docs),
//! * **promiscuous caching** — "data is free to be cached anywhere at any
//!   time ... crucial to the performance of the system if the fetching of
//!   remote data at every access is to be avoided": lookup replies are
//!   pushed into LRU caches along the route path, and any node holding a
//!   copy answers immediately ([`LruCache`], experiment **C3**),
//! * **erasure codes** — "permit data to be reconstituted from a subset of
//!   the servers on which it is stored": systematic Reed–Solomon over
//!   GF(256) ([`ErasureCode`], experiment **C10**),
//! * **self-healing** — "a rule might create 5 copies of some data for
//!   resilience, but over time some of these might become unavailable — in
//!   which case further copies should be made. An obvious analogy is with
//!   RAID systems": periodic audits re-replicate lost copies (**C3**),
//! * **data placement policies** (§4.6) — the latency-reduction policy
//!   ("replicate progressively more of a user's personal data at storage
//!   units geographically close to the user") and the backup policy
//!   ("replicate data on a geographically remote storage unit as soon as
//!   possible after it was created") (**C5**).
//!
//! # Example
//!
//! ```
//! use gloss_store::{Document, StoreConfig, StoreNetwork};
//! use gloss_sim::SimDuration;
//!
//! let mut net = StoreNetwork::build(16, StoreConfig::default(), 42);
//! net.run_for(SimDuration::from_secs(300)); // overlay forms
//! let node = net.random_node();
//! let doc = Document::new("ice-cream-shops", b"janettas: market street".to_vec());
//! net.insert(node, doc.clone());
//! net.run_for(SimDuration::from_secs(30));
//! assert!(net.replica_count(doc.guid) >= 1);
//! ```

pub mod cache;
pub mod document;
pub mod erasure;
pub mod network;
pub mod placement;
pub mod repair;
pub mod store_node;

pub use cache::LruCache;
pub use document::{Document, Priority};
pub use erasure::{ErasureCode, ErasureError};
pub use network::StoreNetwork;
pub use placement::{
    plan_quota_targets, BackupPolicy, LatencyReductionPolicy, NodeCapacity, NodeSite,
};
pub use repair::{FragmentManifest, RepairScheduler};
pub use store_node::{LookupOutcome, LookupPath, StoreConfig, StoreMsg, StoreNode, StorePayload};
