//! Type generation baseline: inferring a rigid schema from sample
//! documents and binding against it.
//!
//! The paper (§3) contrasts two strategies for binding programs to XML:
//! *type generation* ("a programming language type is obtained by analysis
//! of either the data itself or a metadata description of it", as in JAXB
//! or Castor) versus *type projection*. Generation produces a **complete**
//! binding — fast to use, but brittle: documents that deviate from the
//! inferred shape are rejected outright, so evolving formats break deployed
//! consumers. Experiment **C6** measures both sides of that trade-off
//! against [`crate::projection`].

use crate::document::Element;
use crate::projection::{Record, Value};
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

/// How often a child or attribute appears across the sample set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Multiplicity {
    /// Exactly once in every sample.
    One,
    /// At most once.
    Optional,
    /// Any number of times.
    Many,
}

/// The scalar type inferred for an attribute or text content.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScalarKind {
    /// All observed values parsed as integers.
    Int,
    /// All observed values parsed as floats.
    Float,
    /// All observed values were `true`/`false`/`1`/`0`.
    Bool,
    /// Anything else.
    Str,
}

impl ScalarKind {
    fn of(text: &str) -> ScalarKind {
        let t = text.trim();
        if t.parse::<i64>().is_ok() {
            ScalarKind::Int
        } else if t.parse::<f64>().is_ok() {
            ScalarKind::Float
        } else if matches!(t, "true" | "false") {
            ScalarKind::Bool
        } else {
            ScalarKind::Str
        }
    }

    /// The least upper bound of two inferred kinds.
    fn unify(self, other: ScalarKind) -> ScalarKind {
        use ScalarKind::*;
        match (self, other) {
            (a, b) if a == b => a,
            (Int, Float) | (Float, Int) => Float,
            _ => Str,
        }
    }

    fn coerce(self, text: &str) -> Option<Value> {
        let t = text.trim();
        match self {
            ScalarKind::Int => t.parse().ok().map(Value::Int),
            ScalarKind::Float => t.parse().ok().map(Value::Float),
            ScalarKind::Bool => match t {
                "true" | "1" => Some(Value::Bool(true)),
                "false" | "0" => Some(Value::Bool(false)),
                _ => None,
            },
            ScalarKind::Str => Some(Value::Str(text.to_string())),
        }
    }
}

/// A schema inferred from sample documents (the "generated type").
#[derive(Debug, Clone, PartialEq)]
pub struct Schema {
    name: String,
    attrs: BTreeMap<String, (ScalarKind, Multiplicity)>,
    children: BTreeMap<String, (Schema, Multiplicity)>,
    text: Option<ScalarKind>,
}

/// A schema inference or binding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SchemaError {
    /// `infer` was called with no samples.
    NoSamples,
    /// Samples had differing root element names.
    RootMismatch {
        /// The first root name seen.
        expected: String,
        /// The conflicting root name.
        got: String,
    },
    /// A document carried an attribute the schema does not know.
    UnknownAttr {
        /// Element name.
        element: String,
        /// Attribute name.
        attr: String,
    },
    /// A document carried a child element the schema does not know.
    UnknownChild {
        /// Element name.
        element: String,
        /// Child name.
        child: String,
    },
    /// A required attribute or child was missing, or multiplicity was
    /// violated.
    Cardinality {
        /// Element name.
        element: String,
        /// The offending member.
        member: String,
        /// Description of the violation.
        detail: String,
    },
    /// A value did not parse as the inferred scalar kind.
    BadScalar {
        /// Element name.
        element: String,
        /// The member (attribute name or `#text`).
        member: String,
        /// The offending text.
        text: String,
    },
}

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemaError::NoSamples => write!(f, "schema inference needs at least one sample"),
            SchemaError::RootMismatch { expected, got } => {
                write!(f, "sample root `{got}` differs from `{expected}`")
            }
            SchemaError::UnknownAttr { element, attr } => {
                write!(f, "element `{element}`: unknown attribute `{attr}`")
            }
            SchemaError::UnknownChild { element, child } => {
                write!(f, "element `{element}`: unknown child `{child}`")
            }
            SchemaError::Cardinality { element, member, detail } => {
                write!(f, "element `{element}`, member `{member}`: {detail}")
            }
            SchemaError::BadScalar { element, member, text } => {
                write!(f, "element `{element}`, member `{member}`: bad value `{text}`")
            }
        }
    }
}

impl Error for SchemaError {}

impl Schema {
    /// Infers a schema from one or more sample documents.
    ///
    /// # Errors
    ///
    /// Returns [`SchemaError::NoSamples`] on an empty sample set and
    /// [`SchemaError::RootMismatch`] when samples disagree on the root name.
    pub fn infer(samples: &[&Element]) -> Result<Schema, SchemaError> {
        let first = samples.first().ok_or(SchemaError::NoSamples)?;
        for s in samples {
            if s.name() != first.name() {
                return Err(SchemaError::RootMismatch {
                    expected: first.name().to_string(),
                    got: s.name().to_string(),
                });
            }
        }
        Ok(Self::infer_unchecked(first.name(), samples))
    }

    fn infer_unchecked(name: &str, samples: &[&Element]) -> Schema {
        let mut attrs: BTreeMap<String, (ScalarKind, usize)> = BTreeMap::new();
        let mut child_groups: BTreeMap<String, (Vec<&Element>, usize, bool)> = BTreeMap::new();
        let mut text_kind: Option<ScalarKind> = None;

        for sample in samples {
            for (k, v) in sample.attrs() {
                let kind = ScalarKind::of(v);
                attrs
                    .entry(k.to_string())
                    .and_modify(|(sk, n)| {
                        *sk = sk.unify(kind);
                        *n += 1;
                    })
                    .or_insert((kind, 1));
            }
            let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
            for c in sample.children() {
                *counts.entry(c.name()).or_insert(0) += 1;
                let entry = child_groups
                    .entry(c.name().to_string())
                    .or_insert_with(|| (Vec::new(), 0, false));
                entry.0.push(c);
            }
            for (cname, n) in counts {
                let entry = child_groups.get_mut(cname).expect("inserted above");
                entry.1 += 1; // number of samples containing this child
                if n > 1 {
                    entry.2 = true; // repeats within one sample
                }
            }
            let t = sample.text();
            if !t.trim().is_empty() {
                let kind = ScalarKind::of(&t);
                text_kind = Some(match text_kind {
                    Some(k) => k.unify(kind),
                    None => kind,
                });
            }
        }

        let total = samples.len();
        let attrs = attrs
            .into_iter()
            .map(|(k, (kind, n))| {
                let m = if n == total { Multiplicity::One } else { Multiplicity::Optional };
                (k, (kind, m))
            })
            .collect();
        let children = child_groups
            .into_iter()
            .map(|(cname, (elems, present_in, repeats))| {
                let m = if repeats {
                    Multiplicity::Many
                } else if present_in == total {
                    Multiplicity::One
                } else {
                    Multiplicity::Optional
                };
                let sub = Self::infer_unchecked(&cname, &elems);
                (cname, (sub, m))
            })
            .collect();
        Schema { name: name.to_string(), attrs, children, text: text_kind }
    }

    /// The root element name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Validates a document strictly against the schema.
    ///
    /// Unknown attributes or children are errors — this is the brittleness
    /// of generation-based binding that the paper contrasts with
    /// projection.
    ///
    /// # Errors
    ///
    /// Returns the first [`SchemaError`] found.
    pub fn validate(&self, doc: &Element) -> Result<(), SchemaError> {
        if doc.name() != self.name {
            return Err(SchemaError::RootMismatch {
                expected: self.name.clone(),
                got: doc.name().to_string(),
            });
        }
        for (k, v) in doc.attrs() {
            match self.attrs.get(k) {
                None => {
                    return Err(SchemaError::UnknownAttr {
                        element: self.name.clone(),
                        attr: k.to_string(),
                    })
                }
                Some((kind, _)) => {
                    if kind.coerce(v).is_none() {
                        return Err(SchemaError::BadScalar {
                            element: self.name.clone(),
                            member: k.to_string(),
                            text: v.to_string(),
                        });
                    }
                }
            }
        }
        for (k, (_, m)) in &self.attrs {
            if *m == Multiplicity::One && doc.attr(k).is_none() {
                return Err(SchemaError::Cardinality {
                    element: self.name.clone(),
                    member: k.clone(),
                    detail: "required attribute missing".into(),
                });
            }
        }
        let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
        for c in doc.children() {
            *counts.entry(c.name()).or_insert(0) += 1;
            match self.children.get(c.name()) {
                None => {
                    return Err(SchemaError::UnknownChild {
                        element: self.name.clone(),
                        child: c.name().to_string(),
                    })
                }
                Some((sub, _)) => sub.validate(c)?,
            }
        }
        for (k, (_, m)) in &self.children {
            let n = counts.get(k.as_str()).copied().unwrap_or(0);
            let bad = match m {
                Multiplicity::One => n != 1,
                Multiplicity::Optional => n > 1,
                Multiplicity::Many => false,
            };
            if bad {
                return Err(SchemaError::Cardinality {
                    element: self.name.clone(),
                    member: k.clone(),
                    detail: format!("expected {m:?}, found {n}"),
                });
            }
        }
        Ok(())
    }

    /// Binds a document to a fully materialised [`Record`] — the
    /// generated-type access path. Validates implicitly.
    ///
    /// # Errors
    ///
    /// Returns [`SchemaError`] when the document deviates from the schema.
    pub fn bind(&self, doc: &Element) -> Result<Record, SchemaError> {
        self.validate(doc)?;
        Ok(self.bind_unchecked(doc))
    }

    fn bind_unchecked(&self, doc: &Element) -> Record {
        let mut rec = Record::new();
        for (k, (kind, _)) in &self.attrs {
            if let Some(v) = doc.attr(k) {
                if let Some(val) = kind.coerce(v) {
                    rec.insert(k.clone(), val);
                }
            }
        }
        for (k, (sub, m)) in &self.children {
            match m {
                Multiplicity::Many => {
                    let items: Vec<Value> = doc
                        .children_named(k)
                        .map(|c| Value::Record(sub.bind_unchecked(c)))
                        .collect();
                    rec.insert(k.clone(), Value::List(items));
                }
                _ => {
                    if let Some(c) = doc.child(k) {
                        rec.insert(k.clone(), Value::Record(sub.bind_unchecked(c)));
                    }
                }
            }
        }
        if let Some(kind) = self.text {
            let t = doc.text();
            if !t.trim().is_empty() {
                if let Some(v) = kind.coerce(&t) {
                    rec.insert("#text".to_string(), v);
                }
            }
        }
        rec
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn samples() -> Vec<Element> {
        vec![
            parse(r#"<ev seq="1"><u id="a"/><r v="1.5"/><r v="2"/></ev>"#).unwrap(),
            parse(r#"<ev seq="2" opt="x"><u id="b"/><r v="3"/></ev>"#).unwrap(),
        ]
    }

    #[test]
    fn infer_multiplicities_and_kinds() {
        let docs = samples();
        let refs: Vec<&Element> = docs.iter().collect();
        let schema = Schema::infer(&refs).unwrap();
        assert_eq!(schema.name(), "ev");
        assert_eq!(schema.attrs["seq"], (ScalarKind::Int, Multiplicity::One));
        assert_eq!(schema.attrs["opt"].1, Multiplicity::Optional);
        assert_eq!(schema.children["u"].1, Multiplicity::One);
        assert_eq!(schema.children["r"].1, Multiplicity::Many);
        // 1.5 and 2 and 3 unify to Float.
        assert_eq!(schema.children["r"].0.attrs["v"].0, ScalarKind::Float);
    }

    #[test]
    fn validate_accepts_conforming_documents() {
        let docs = samples();
        let refs: Vec<&Element> = docs.iter().collect();
        let schema = Schema::infer(&refs).unwrap();
        let ok = parse(r#"<ev seq="7"><u id="z"/><r v="9.9"/></ev>"#).unwrap();
        assert!(schema.validate(&ok).is_ok());
    }

    #[test]
    fn validate_rejects_unknown_members() {
        let docs = samples();
        let refs: Vec<&Element> = docs.iter().collect();
        let schema = Schema::infer(&refs).unwrap();
        let extra_attr = parse(r#"<ev seq="7" new="1"><u id="z"/></ev>"#).unwrap();
        assert!(matches!(schema.validate(&extra_attr), Err(SchemaError::UnknownAttr { .. })));
        let extra_child = parse(r#"<ev seq="7"><u id="z"/><brand_new/></ev>"#).unwrap();
        assert!(matches!(schema.validate(&extra_child), Err(SchemaError::UnknownChild { .. })));
    }

    #[test]
    fn validate_enforces_cardinality() {
        let docs = samples();
        let refs: Vec<&Element> = docs.iter().collect();
        let schema = Schema::infer(&refs).unwrap();
        let missing_u = parse(r#"<ev seq="7"/>"#).unwrap();
        assert!(matches!(schema.validate(&missing_u), Err(SchemaError::Cardinality { .. })));
        let two_u = parse(r#"<ev seq="7"><u id="a"/><u id="b"/></ev>"#).unwrap();
        assert!(matches!(schema.validate(&two_u), Err(SchemaError::Cardinality { .. })));
    }

    #[test]
    fn validate_checks_scalar_kinds() {
        let docs = samples();
        let refs: Vec<&Element> = docs.iter().collect();
        let schema = Schema::infer(&refs).unwrap();
        let bad = parse(r#"<ev seq="not-a-number"><u id="z"/></ev>"#).unwrap();
        assert!(matches!(schema.validate(&bad), Err(SchemaError::BadScalar { .. })));
    }

    #[test]
    fn bind_materialises_everything() {
        let docs = samples();
        let refs: Vec<&Element> = docs.iter().collect();
        let schema = Schema::infer(&refs).unwrap();
        let rec = schema.bind(&docs[0]).unwrap();
        assert_eq!(rec.int("seq"), Some(1));
        assert_eq!(rec.record("u").unwrap().str("id"), Some("a"));
        assert_eq!(rec.list("r").unwrap().len(), 2);
    }

    #[test]
    fn bind_rejects_evolved_format_where_projection_would_not() {
        // The core of C6: a producer adds a field; generated bindings break.
        let docs = samples();
        let refs: Vec<&Element> = docs.iter().collect();
        let schema = Schema::infer(&refs).unwrap();
        let evolved = parse(r#"<ev seq="7"><u id="z"/><r v="1"/><weather t="20"/></ev>"#).unwrap();
        assert!(schema.bind(&evolved).is_err());
        // Projection of the known island still works.
        let spec = crate::projection::ProjSpec::new("p").field(
            "id",
            "u/@id",
            crate::projection::FieldType::Str,
        );
        assert!(crate::projection::project(&evolved, &spec).is_ok());
    }

    #[test]
    fn text_content_inference() {
        let a = parse("<n>42</n>").unwrap();
        let b = parse("<n>17</n>").unwrap();
        let schema = Schema::infer(&[&a, &b]).unwrap();
        let rec = schema.bind(&a).unwrap();
        assert_eq!(rec.int("#text"), Some(42));
    }

    #[test]
    fn infer_errors() {
        assert_eq!(Schema::infer(&[]), Err(SchemaError::NoSamples));
        let a = parse("<a/>").unwrap();
        let b = parse("<b/>").unwrap();
        assert!(matches!(Schema::infer(&[&a, &b]), Err(SchemaError::RootMismatch { .. })));
    }

    #[test]
    fn scalar_unification() {
        assert_eq!(ScalarKind::Int.unify(ScalarKind::Int), ScalarKind::Int);
        assert_eq!(ScalarKind::Int.unify(ScalarKind::Float), ScalarKind::Float);
        assert_eq!(ScalarKind::Bool.unify(ScalarKind::Int), ScalarKind::Str);
        assert_eq!(ScalarKind::of("3"), ScalarKind::Int);
        assert_eq!(ScalarKind::of("3.5"), ScalarKind::Float);
        assert_eq!(ScalarKind::of("true"), ScalarKind::Bool);
        assert_eq!(ScalarKind::of("bob"), ScalarKind::Str);
    }
}
