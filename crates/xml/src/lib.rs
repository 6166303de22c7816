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
//!   [`parse`], the tree builder over it,
//! * a writer with compact and pretty forms ([`Element::to_xml`],
//!   [`Element::to_pretty_xml`]), and [`XmlWriter`], which streams the
//!   compact form into a caller's buffer with no tree built, and
//! * [`Path`] — XPath-lite selection (`a/b[@k='v']//c/@attr`), the type
//!   projection a matchlet compiles each payload key into once and reads
//!   every event through.
//!
//! # Example
//!
//! ```
//! use gloss_xml::{parse, Path};
//!
//! let doc = parse(r#"<event kind="location"><user id="bob"/><pos lat="56.34" lon="-2.80"/></event>"#)?;
//! let lat = Path::parse("pos/@lat")?.select_text_first(&doc);
//! assert_eq!(lat.as_deref(), Some("56.34"));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod document;
mod parser;
mod path;
mod writer;

pub use document::{Element, Node};
pub use parser::{parse, ParseError, Reader, Token};
pub use path::{Path, PathError};
pub use writer::XmlWriter;
