//! Typed attribute values, following Siena's name/type/value tuples.

use std::cmp::Ordering;
use std::fmt;
use std::rc::Rc;

/// The value of an event attribute.
///
/// Comparisons between `Int` and `Float` are numeric; all other cross-type
/// comparisons are undefined (constraints on mismatched types simply fail
/// to match, they do not error).
///
/// Strings are `Rc<str>` so values clone by reference-count bump on the
/// broker routing and matching hot paths.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrValue {
    /// A string.
    Str(Rc<str>),
    /// A 64-bit integer.
    Int(i64),
    /// A 64-bit float.
    Float(f64),
    /// A boolean.
    Bool(bool),
}

impl AttrValue {
    /// The string inside, if this is a `Str`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            AttrValue::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Numeric view: `Int` and `Float` yield a float.
    pub fn as_number(&self) -> Option<f64> {
        match self {
            AttrValue::Int(i) => Some(*i as f64),
            AttrValue::Float(f) => Some(*f),
            _ => None,
        }
    }

    /// The boolean inside, if this is a `Bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            AttrValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// Total-order comparison where defined: numerics compare numerically,
    /// strings lexicographically, booleans false < true. Mismatched types
    /// return `None`.
    pub fn partial_cmp_value(&self, other: &AttrValue) -> Option<Ordering> {
        use AttrValue::*;
        match (self, other) {
            (Str(a), Str(b)) => Some(a.cmp(b)),
            (Bool(a), Bool(b)) => Some(a.cmp(b)),
            (a, b) => {
                let (x, y) = (a.as_number()?, b.as_number()?);
                x.partial_cmp(&y)
            }
        }
    }

    /// Equality where defined (numeric across `Int`/`Float`).
    pub fn eq_value(&self, other: &AttrValue) -> bool {
        self.partial_cmp_value(other) == Some(Ordering::Equal)
    }
}

impl fmt::Display for AttrValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AttrValue::Str(s) => write!(f, "\"{s}\""),
            AttrValue::Int(i) => write!(f, "{i}"),
            AttrValue::Float(x) => write!(f, "{x}"),
            AttrValue::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<&str> for AttrValue {
    fn from(s: &str) -> Self {
        AttrValue::Str(s.into())
    }
}

impl From<String> for AttrValue {
    fn from(s: String) -> Self {
        AttrValue::Str(s.into())
    }
}

impl From<Rc<str>> for AttrValue {
    fn from(s: Rc<str>) -> Self {
        AttrValue::Str(s)
    }
}

impl From<i64> for AttrValue {
    fn from(i: i64) -> Self {
        AttrValue::Int(i)
    }
}

impl From<i32> for AttrValue {
    fn from(i: i32) -> Self {
        AttrValue::Int(i as i64)
    }
}

impl From<u32> for AttrValue {
    fn from(i: u32) -> Self {
        AttrValue::Int(i as i64)
    }
}

impl From<f64> for AttrValue {
    fn from(f: f64) -> Self {
        AttrValue::Float(f)
    }
}

impl From<bool> for AttrValue {
    fn from(b: bool) -> Self {
        AttrValue::Bool(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn numeric_cross_type_comparison() {
        assert!(AttrValue::Int(3).eq_value(&AttrValue::Float(3.0)));
        assert_eq!(
            AttrValue::Int(2).partial_cmp_value(&AttrValue::Float(2.5)),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn mismatched_types_do_not_compare() {
        assert_eq!(AttrValue::Str("3".into()).partial_cmp_value(&AttrValue::Int(3)), None);
        assert!(!AttrValue::Bool(true).eq_value(&AttrValue::Int(1)));
    }

    #[test]
    fn string_ordering() {
        assert_eq!(
            AttrValue::Str("abc".into()).partial_cmp_value(&AttrValue::Str("abd".into())),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn conversions() {
        assert_eq!(AttrValue::from("x"), AttrValue::Str("x".into()));
        assert_eq!(AttrValue::from(5i64), AttrValue::Int(5));
        assert_eq!(AttrValue::from(5i32), AttrValue::Int(5));
        assert_eq!(AttrValue::from(2.5), AttrValue::Float(2.5));
        assert_eq!(AttrValue::from(true), AttrValue::Bool(true));
    }

    #[test]
    fn display_forms() {
        assert_eq!(AttrValue::Str("s".into()).to_string(), "\"s\"");
        assert_eq!(AttrValue::Int(1).to_string(), "1");
    }
}
