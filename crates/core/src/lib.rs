//! The paper's contribution, assembled: an **active architecture for
//! pervasive contextual services**.
//!
//! "The overall system architecture consists of several P2P systems
//! overlaid on each other in order to implement and support the global
//! matching engine. An event system delivers events from users and
//! sensors. ... The caching and replication of data is handled by a
//! Plaxton based storage architecture supported by promiscuous caching
//! mechanisms. When new computational or storage resources are detected
//! by the matching engine, computations are pushed onto them as code
//! bundles ... Once installed, these computations can offer additional
//! computational resources for the matching engine (matchlets) or provide
//! storage capacity for the storage architecture (storelets)." (§5)
//!
//! Every node of an [`ActiveArchitecture`] hosts the full stack:
//!
//! * a Siena-like event **broker** (acyclic peer topology) — the generic
//!   global event service (§4.1),
//! * a **storelet**: Plaxton overlay + PAST storage + promiscuous caches
//!   (§4.5), which also carries the knowledge base (facts ingest
//!   automatically into the node-local fact store whenever a `kb/…`
//!   document lands on a node),
//! * a Cingal **thin server** hosting hot-deployed **matchlets**; on
//!   install, a node subscribes to the event kinds its rules consume and
//!   publishes every synthesised event back onto the bus (§4.2, §4.3),
//! * node 0 additionally runs the **monitoring** and **evolution**
//!   engines: workers advertise resources *as pub/sub events*;
//!   constraint violations are repaired by shipping code bundles (§4.4),
//!   and **discovery matchlets** fetch handler code for unknown event
//!   kinds from the storage architecture (§5).
//!
//! Start with [`ActiveArchitecture`] or run the `quickstart` example.

pub mod architecture;
pub mod node;
pub mod scenario;
pub mod service;

pub use architecture::{ActiveArchitecture, ArchConfig};
pub use node::{CoordinatorState, GlossMsg, GlossNode, KnowledgeDoc, Role, TAKEOVER_HORIZON};
pub use scenario::{IceCreamScenario, PopulationWorkload};
pub use service::{parse_service, ServiceError, ServiceSpec};
