//! Event distillation pipelines (§4.2, Figure 2).
//!
//! "Our approach is to implement a distributed contextual matching engine
//! as XML pipelines, with XML events flowing between pipeline components,
//! both intra-node and inter-node. ... Each pipeline provides a web
//! service interface put(event), enabling remote pipeline components to
//! push events into it. Events may also arise from local devices and
//! sensors such as GPS and GSM devices, RFID tag readers, weather
//! sensors, etc. Each hardware device has a wrapper component that makes
//! it usable as a pipeline component. Other components perform filtering
//! (e.g. transmitting user-location events only when the distance moved
//! exceeds a certain threshold), buffering, communication with other
//! pipelines, and so on."
//!
//! * [`Component`] — the `put(event)` interface, plus the standard
//!   component library ([`standard`]) registered into a [`Registry`] of
//!   factories by kind name, so components can be deployed dynamically in
//!   code bundles (the static-Rust substitution for dynamic code loading),
//! * [`PipelineGraph`] — an intra-node bus wiring components together
//!   (experiment **E2** pushes events through one),
//! * [`assembly`] — building graphs from XML pipeline specifications.
//!
//! Inter-node flow is the event plane's job: between nodes, events travel
//! through `gloss_core`'s brokers, not through a pipeline-to-pipeline
//! link. The paper's device wrappers have no counterpart either. The
//! reproduction has no hardware: a workload injects each simulated sensor
//! reading into a node as a `gloss_core` `GlossMsg::Sensor`, and that
//! injection plays the role the paper gives a wrapper. No pipeline runs
//! on that sensor path yet.
//!
//! # Example
//!
//! ```
//! use gloss_pipeline::{standard::KindFilter, Component, Emit, PipelineGraph};
//! use gloss_event::{Event, Filter};
//! use gloss_sim::SimTime;
//!
//! let mut graph = PipelineGraph::new();
//! let f = graph.add(Box::new(KindFilter::new("only-loc", Filter::for_kind("user.location"))));
//! graph.mark_entry(f);
//! let out = graph.push(SimTime::ZERO, Event::new("user.location"));
//! assert_eq!(out.len(), 1);
//! let out = graph.push(SimTime::ZERO, Event::new("noise"));
//! assert!(out.is_empty());
//! ```

pub mod assembly;
pub mod component;
pub mod registry;
pub mod standard;

pub use assembly::{assemble, AssemblyError};
pub use component::{Component, Emit, PipelineGraph};
pub use registry::Registry;
