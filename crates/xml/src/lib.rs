//! XML subset used throughout the Gloss architecture.
//!
//! The paper (§3, §4.7) standardises on XML for events, knowledge, and code
//! bundles, and argues for **type projection** — matching a type taken from
//! the program context against the data — rather than type *generation*
//! from schemas, because projection "handles partial data model
//! specifications": documents with structured *islands* inside loosely
//! specified surroundings.
//!
//! This crate provides:
//!
//! * [`Element`]/[`Node`] — an ordered-tree document model,
//! * [`Reader`] — a pull tokenizer for a pragmatic XML subset (elements,
//!   attributes, text, comments, CDATA, the five named entities and
//!   numeric character references) that borrows from its input, and
//!   [`parse`]/[`parse_document`], the tree builder over it,
//! * a writer with compact and pretty forms ([`Element::to_xml`],
//!   [`Element::to_pretty_xml`]), and [`XmlWriter`], which streams the
//!   compact form into a caller's buffer with no tree built,
//! * [`Path`] — XPath-lite selection (`a/b[@k='v']//c/@attr`),
//! * [`ProjSpec`]/[`project`] — the type-projection binder, and
//! * [`schema`] — a type-generation baseline for experiment **C6**.
//!
//! # Example
//!
//! ```
//! use gloss_xml::{parse, Path};
//!
//! let doc = parse(r#"<event kind="location"><user id="bob"/><pos lat="56.34" lon="-2.80"/></event>"#)?;
//! let lat = Path::parse("pos/@lat")?.select_text(&doc);
//! assert_eq!(lat, vec!["56.34"]);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

pub mod document;
pub mod parser;
pub mod path;
pub mod projection;
pub mod schema;
pub mod writer;

pub use document::{Document, Element, Node};
pub use parser::{parse, parse_document, ParseError, Reader, Token};
pub use path::{Path, PathError};
pub use projection::{project, FieldSpec, FieldType, ProjError, ProjSpec, Record, Value};
pub use schema::{Schema, SchemaError};
pub use writer::XmlWriter;
