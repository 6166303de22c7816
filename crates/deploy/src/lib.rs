//! Component deployment policies, monitoring, and the evolution engine
//! (§4.4, §4.6).
//!
//! "Policies take the form of constraints over the placement of
//! processing steps. For example, a constraint might specify that at
//! least 5 pipeline components providing a data replication service must
//! be deployed in parallel within a given geographical region. ... All
//! constraints will feed into an evolution engine, itself a distributed
//! computation, that will dynamically evolve the contextual matching
//! engine by manipulating the pipelines. As events arise that cause a
//! given constraint to be violated (such as the sudden unavailability of
//! a particular node), it is the role of the monitoring engine to make
//! appropriate adjustments to satisfy the constraint again."
//!
//! * [`NodeResources`] — resource advertisements, carried as events
//!   (nodes "advertise their resource availability, physical and logical
//!   connectivity, geographic location etc. via publish events"),
//! * [`Constraint`] — active-pipes-style placement constraints,
//! * [`solver`] — greedy repair planning for violated constraints,
//! * [`MonitorEngine`] — heartbeat tracking; silent nodes are suspected,
//!   then declared failed,
//! * [`EvolutionEngine`] — takes advertisements and departures, detects
//!   violations, plans repairs, and tracks the deployment as installs are
//!   confirmed,
//! * [`coordinator_sweep`] — one periodic pass of both engines: the
//!   evolution engine re-plans around the monitor's verdicts directly, so
//!   no failure is published on a silent node's behalf.
//!
//! The engines carry no transport. `gloss_core`'s `GlossNode` runs them on
//! its coordinator: resource advertisements and withdrawals arrive over
//! pub/sub and are decoded once into [`MonitorEngine::heard`] /
//! [`EvolutionEngine::advertised`] (or [`MonitorEngine::withdrew`] /
//! [`EvolutionEngine::departed`]), and each [`Deploy`] ships a code bundle
//! to a worker's thin server, whose install confirmation comes back to
//! [`EvolutionEngine::confirm_deploy`]. Experiments **E3** and **C4**
//! measure that path.
//!
//! # Example
//!
//! ```
//! use gloss_deploy::{Constraint, Deploy, EvolutionEngine, NodeResources};
//! use gloss_sim::{GeoPoint, NodeIndex, SimTime};
//!
//! let mut engine = EvolutionEngine::new(vec![Constraint::count("replicator", None, 1)]);
//! let worker = NodeResources {
//!     node: NodeIndex(3),
//!     region: "scotland".into(),
//!     geo: GeoPoint::new(56.34, -2.79),
//!     cpu: 1.0,
//!     storage: 1 << 20,
//! };
//! // The worker's advertisement plans a deploy onto it.
//! let deploys = engine.advertised(SimTime::ZERO, worker);
//! let [(instance, Deploy { node, .. })] = deploys.as_slice() else { panic!() };
//! assert_eq!(*node, NodeIndex(3));
//! assert!(engine.satisfaction() < 1.0, "planned, not yet installed");
//! engine.confirm_deploy(SimTime::from_secs(1), instance);
//! assert_eq!(engine.satisfaction(), 1.0);
//! ```

pub mod constraint;
pub mod evolution;
pub mod monitor;
pub mod resource;
pub mod solver;

pub use constraint::{Constraint, Deployment};
pub use evolution::{coordinator_sweep, Deploy, EvolutionEngine, Sweep};
pub use monitor::MonitorEngine;
pub use resource::NodeResources;
