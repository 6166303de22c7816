//! The knowledge base: "relatively static information such as spatial data
//! from GIS, and more general information published on intranets and the
//! internet" (§1.1), plus user profiles, preferences and history.
//!
//! The matching service "will operate over a global knowledge base
//! comprising elements such as GIS, web-based systems, databases,
//! semi-structured data". This crate provides the synthetic equivalent:
//!
//! * [`Fact`]s — subject/predicate/object triples with optional validity
//!   intervals, behind the [`FactSource`] query trait used by matchlets.
//!   [`InMemoryFacts`] additionally keeps an insert/retract change feed
//!   ([`FactDelta`] + [`FactsVersion`] epochs) that incremental consumers
//!   — the matchlet engine's memo invalidation — follow instead of
//!   re-reading the store,
//! * [`gis`] — a spatial directory (places, streets, opening hours,
//!   haversine geometry) including the St Andrews scene of the paper's
//!   ice-cream scenario,
//! * [`profile`] — user profiles: preferences, traits, social graph,
//!   movement history,
//! * [`ontology`] — a term hierarchy plus the paper's three
//!   description-matching strategies (§3): text-based, lexical-descriptor
//!   (multi-faceted classification) and specification-based, compared in
//!   experiment **C9**,
//! * [`distributed`] — the codec for facts as XML documents in the P2P
//!   store (one `kb/<subject>` document per subject); a codec, not a
//!   client: `gloss_core` nodes do the storing and fetching,
//! * [`delta`] — epoch-tagged delta propagation: authoritative writers
//!   ship `kbdelta/<subject>@<from..to>` batches of the insert/retract
//!   tail instead of whole subject documents, and [`reconcile`] decides
//!   receiver-side whether a batch applies, is stale, or forces a full
//!   snapshot fetch (e.g. after the bounded delta log truncated).
//!   Receivers decode from a document's bytes only as far as that
//!   verdict needs: [`BatchReader`] and [`SnapshotReader`] read the root's
//!   attributes first and the body only on request.
//!
//! # Example
//!
//! ```
//! use gloss_knowledge::{Fact, FactSource, InMemoryFacts, Term};
//!
//! let mut kb = InMemoryFacts::new();
//! kb.add(Fact::new("bob", "likes", Term::str("ice cream")));
//! kb.add(Fact::new("bob", "nationality", Term::str("scottish")));
//! let likes: Vec<_> = kb.query(Some("bob"), Some("likes")).collect();
//! assert_eq!(likes[0].object.as_str(), Some("ice cream"));
//! ```

pub mod delta;
pub mod distributed;
pub mod fact;
pub mod gis;
pub mod ontology;
pub mod profile;

pub use delta::{
    reconcile, BatchReader, DeltaAction, DeltaBatch, EpochSpan, KnowledgeAuthority, Shipment,
    SnapshotReason,
};
pub use distributed::{DistributedKnowledge, SnapshotReader};
pub use fact::{Fact, FactDelta, FactSource, FactsVersion, InMemoryFacts, Term};
pub use gis::{Place, PlaceDirectory};
pub use ontology::{
    LexicalMatcher, Ontology, RetrievalScores, ServiceDescription, SpecMatcher, TextMatcher,
};
pub use profile::UserProfile;
