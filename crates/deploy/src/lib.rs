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
//! * [`MonitorEngine`] — heartbeat tracking; silent failures are detected
//!   and published "on their behalf",
//! * [`EvolutionEngine`] — consumes resource events, detects violations,
//!   plans repairs, and tracks the deployment as installs are confirmed,
//! * [`DeploymentPlane`] — a simulation harness measuring
//!   violation-to-repair latency under churn (experiment **C4**).
//!
//! # Example
//!
//! ```
//! use gloss_deploy::{Constraint, DeploymentPlane};
//! use gloss_sim::SimDuration;
//!
//! let constraints = vec![Constraint::count("replicator", Some("scotland"), 3)];
//! let mut plane = DeploymentPlane::build(9, constraints, 42);
//! plane.run_for(SimDuration::from_secs(120));
//! assert!(plane.evolution().satisfaction() >= 1.0);
//! ```

pub mod constraint;
pub mod evolution;
pub mod monitor;
pub mod plane;
pub mod resource;
pub mod solver;

pub use constraint::{Constraint, Deployment, Violation};
pub use evolution::{coordinator_sweep, Action, EvolutionEngine, Sweep};
pub use monitor::MonitorEngine;
pub use plane::{DeployMsg, DeploymentPlane};
pub use resource::NodeResources;
