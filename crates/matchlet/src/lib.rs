//! Matchlets: the contextual matching language and engine (§4.2, §5).
//!
//! "A matching service can be considered to be an entity that, triggered
//! by the reception of events from multiple sources, synthesises a stream
//! of new events. Typically, the output events will be higher-level (more
//! semantically meaningful) than the input events." Matchlets are the
//! units of that computation: "pipeline code that accepts events from the
//! event distribution mechanism and performs matching on them. Each
//! matchlet writes its results onto the event bus."
//!
//! A matchlet is written in a small declarative rule language (so that
//! matching code can travel inside Cingal code bundles and be *hot
//! deployed* onto running nodes, standing in for dynamic code loading;
//! see the README's "Deploy + bundle + pipeline" section):
//!
//! ```text
//! rule ice_cream_meetup {
//!     on w: event weather.reading(street: ?street, celsius: ?temp)
//!     on l: event user.location(user: ?u, lat: ?lat, lon: ?lon)
//!     where fact(?u, likes, "ice cream") and fact(?u, nationality, ?nat)
//!     where ?temp >= hot_threshold(?nat)
//!     where fact(?shop, sells, "ice cream") and fact(?shop, located_at, ?g)
//!     where distance_km(geo(?lat, ?lon), ?g) < 0.5
//!     within 5m
//!     emit suggestion(user: ?u, shop: ?shop)
//! }
//! ```
//!
//! Semantics: each `on` clause buffers matching events for the `within`
//! window; every newly arrived event joins against the buffers of the
//! other patterns by variable unification; `where` clauses are solved
//! left-to-right with backtracking over the knowledge base (`fact`
//! patterns enumerate and bind); `emit` synthesises the higher-level
//! event, once per solution.
//!
//! Event fields bind from typed attributes, or — when the field key is a
//! quoted path such as `"pos/@lat"` — from the XML payload via type
//! projection (§3).
//!
//! # Example
//!
//! ```
//! use gloss_matchlet::MatchletEngine;
//! use gloss_knowledge::{Fact, InMemoryFacts, Term};
//! use gloss_event::Event;
//! use gloss_sim::SimTime;
//!
//! let src = r#"
//!     rule hot_alert {
//!         on w: event weather.reading(celsius: ?t)
//!         where ?t >= 18.0
//!         within 1m
//!         emit alert(level: "hot", celsius: ?t)
//!     }
//! "#;
//! let mut engine = MatchletEngine::compile(src)?;
//! let kb = InMemoryFacts::new();
//! let out = engine.on_event(
//!     SimTime::ZERO,
//!     &Event::new("weather.reading").with_attr("celsius", 20.0),
//!     &kb,
//! );
//! assert_eq!(out.len(), 1);
//! assert_eq!(out[0].kind(), "alert");
//! # Ok::<(), gloss_matchlet::MatchletError>(())
//! ```

pub mod ast;
pub mod builtin;
pub mod canonical;
pub mod engine;
pub mod eval;
pub mod lexer;
pub mod parser;
pub mod symbol;

pub use ast::{BinOp, EmitSpec, EventPattern, Expr, Goal, Pat, Rule, RuleSpans, Span};
pub use engine::{CompiledRule, EngineStats, MatchletEngine};
pub use eval::{Bindings, EvalError};
pub use parser::{parse_rules, MatchletError};
pub use symbol::Symbol;
