//! The subscription language: filters, constraints, and the covering
//! relations that make distributed routing scale.
//!
//! A [`Filter`] is a conjunction of [`Constraint`]s over attributes, plus
//! an optional event-kind test. Following Siena, brokers prune
//! subscription propagation using **covering**: if a broker has already
//! forwarded a filter `f` to a neighbour, any new subscription covered by
//! `f` need not be forwarded. Covering here is *sound* (it never claims
//! `f1` covers `f2` unless every event matching `f2` matches `f1`) but
//! deliberately incomplete — undecided cases simply forgo pruning.

use crate::notification::Event;
use crate::value::AttrValue;
use std::fmt;

/// A constraint operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Attribute equals the value.
    Eq,
    /// Attribute differs from the value (but must be present).
    Ne,
    /// Attribute is less than the value.
    Lt,
    /// Attribute is at most the value.
    Le,
    /// Attribute is greater than the value.
    Gt,
    /// Attribute is at least the value.
    Ge,
    /// String attribute starts with the value.
    Prefix,
    /// String attribute ends with the value.
    Suffix,
    /// String attribute contains the value.
    Contains,
    /// Attribute is present, any value (the operand is ignored).
    Exists,
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Op::Eq => "=",
            Op::Ne => "!=",
            Op::Lt => "<",
            Op::Le => "<=",
            Op::Gt => ">",
            Op::Ge => ">=",
            Op::Prefix => "=*",
            Op::Suffix => "*=",
            Op::Contains => "~",
            Op::Exists => "any",
        };
        f.write_str(s)
    }
}

impl Op {
    /// Whether `candidate` satisfies `candidate <op> operand`: the one
    /// comparison every matcher (filter scan and index alike) applies.
    pub(crate) fn holds(self, operand: &AttrValue, candidate: &AttrValue) -> bool {
        use std::cmp::Ordering::*;
        match self {
            Op::Exists => true,
            Op::Eq => candidate.eq_value(operand),
            Op::Ne => {
                // Comparable and unequal; mismatched types do not match.
                matches!(candidate.partial_cmp_value(operand), Some(Less | Greater))
            }
            Op::Lt => candidate.partial_cmp_value(operand) == Some(Less),
            Op::Le => matches!(candidate.partial_cmp_value(operand), Some(Less | Equal)),
            Op::Gt => candidate.partial_cmp_value(operand) == Some(Greater),
            Op::Ge => matches!(candidate.partial_cmp_value(operand), Some(Greater | Equal)),
            Op::Prefix => match (candidate.as_str(), operand.as_str()) {
                (Some(c), Some(p)) => c.starts_with(p),
                _ => false,
            },
            Op::Suffix => match (candidate.as_str(), operand.as_str()) {
                (Some(c), Some(p)) => c.ends_with(p),
                _ => false,
            },
            Op::Contains => match (candidate.as_str(), operand.as_str()) {
                (Some(c), Some(p)) => c.contains(p),
                _ => false,
            },
        }
    }
}

/// One constraint: attribute name, operator, operand.
#[derive(Debug, Clone, PartialEq)]
pub struct Constraint {
    /// The attribute the constraint applies to.
    pub attr: String,
    /// The operator.
    pub op: Op,
    /// The operand (ignored for [`Op::Exists`]).
    pub value: AttrValue,
}

impl Constraint {
    /// Creates a constraint.
    pub fn new(attr: impl Into<String>, op: Op, value: impl Into<AttrValue>) -> Self {
        Constraint { attr: attr.into(), op, value: value.into() }
    }

    /// Whether `candidate` (the event's value for this attribute)
    /// satisfies the constraint.
    pub fn matches_value(&self, candidate: &AttrValue) -> bool {
        self.op.holds(&self.value, candidate)
    }

    /// Whether every value satisfying this constraint is a string: the
    /// string operators require it, and comparisons against a string
    /// operand only ever match strings (cross-type comparisons are
    /// undefined and never match).
    fn string_only(&self) -> bool {
        match self.op {
            Op::Prefix | Op::Suffix | Op::Contains => true,
            Op::Eq | Op::Ne | Op::Lt | Op::Le | Op::Gt | Op::Ge => {
                matches!(self.value, AttrValue::Str(_))
            }
            Op::Exists => false,
        }
    }

    /// Whether every value satisfying this constraint is a non-string
    /// (comparison against a non-string operand).
    fn nonstring_only(&self) -> bool {
        match self.op {
            Op::Eq | Op::Ne | Op::Lt | Op::Le | Op::Gt | Op::Ge => {
                !matches!(self.value, AttrValue::Str(_))
            }
            _ => false,
        }
    }

    /// Whether every string value satisfies this constraint (an empty
    /// pattern matches every string).
    fn matches_every_string(&self) -> bool {
        matches!(self.op, Op::Prefix | Op::Suffix | Op::Contains) && self.value.as_str() == Some("")
    }

    /// Sound covering test: `true` only if **every** value satisfying
    /// `other` also satisfies `self` (both on the same attribute).
    ///
    /// Undecided cases return `false` (no pruning, still correct).
    pub fn covers(&self, other: &Constraint) -> bool {
        if self.attr != other.attr {
            return false;
        }
        use std::cmp::Ordering::*;
        let cmp = |a: &AttrValue, b: &AttrValue| a.partial_cmp_value(b);
        match (self.op, other.op) {
            // `exists` covers every constraint on the attribute.
            (Op::Exists, _) => true,
            // Identical constraints cover each other.
            (a, b) if a == b && self.value.eq_value(&other.value) => true,
            (Op::Eq, Op::Eq) => self.value.eq_value(&other.value),
            // x < v1 covers x < v2 when v2 <= v1; covers x <= v2 when v2 < v1;
            // covers x = v2 when v2 < v1.
            (Op::Lt, Op::Lt) | (Op::Lt, Op::Le) | (Op::Lt, Op::Eq) => {
                match cmp(&other.value, &self.value) {
                    Some(Less) => true,
                    Some(Equal) => other.op == Op::Lt,
                    _ => false,
                }
            }
            // x <= v1 covers x < v2 when v2 <= v1 (approximately: for ints
            // x < v2 implies x <= v2-1 <= v1; for floats x < v2 <= v1 means
            // x < v1 hence x <= v1); covers x <= v2 / x = v2 when v2 <= v1.
            (Op::Le, Op::Lt) | (Op::Le, Op::Le) | (Op::Le, Op::Eq) => {
                matches!(cmp(&other.value, &self.value), Some(Less | Equal))
            }
            (Op::Gt, Op::Gt) | (Op::Gt, Op::Ge) | (Op::Gt, Op::Eq) => {
                match cmp(&other.value, &self.value) {
                    Some(Greater) => true,
                    Some(Equal) => other.op == Op::Gt,
                    _ => false,
                }
            }
            (Op::Ge, Op::Gt) | (Op::Ge, Op::Ge) | (Op::Ge, Op::Eq) => {
                matches!(cmp(&other.value, &self.value), Some(Greater | Equal))
            }
            // x != v1 covers x = v2 (v2 != v1), x != v1 (same value),
            // and ranges strictly excluding v1.
            (Op::Ne, Op::Eq) => {
                matches!(cmp(&other.value, &self.value), Some(Less | Greater))
            }
            (Op::Ne, Op::Ne) => self.value.eq_value(&other.value),
            (Op::Ne, Op::Lt) | (Op::Ne, Op::Le) => {
                // all x < v2 (or <= v2) differ from v1 iff v1 >= v2 (resp >).
                match cmp(&self.value, &other.value) {
                    Some(Greater) => true,
                    Some(Equal) => other.op == Op::Lt,
                    _ => false,
                }
            }
            (Op::Ne, Op::Gt) | (Op::Ne, Op::Ge) => match cmp(&self.value, &other.value) {
                Some(Less) => true,
                Some(Equal) => other.op == Op::Gt,
                _ => false,
            },
            // prefix p1 covers prefix p2 when p2 extends p1; covers = v2
            // when v2 starts with p1.
            (Op::Prefix, Op::Prefix) | (Op::Prefix, Op::Eq) => {
                match (other.value.as_str(), self.value.as_str()) {
                    (Some(longer), Some(p)) => longer.starts_with(p),
                    _ => false,
                }
            }
            (Op::Suffix, Op::Suffix) | (Op::Suffix, Op::Eq) => {
                match (other.value.as_str(), self.value.as_str()) {
                    (Some(longer), Some(p)) => longer.ends_with(p),
                    _ => false,
                }
            }
            (Op::Contains, Op::Contains) | (Op::Contains, Op::Eq) => {
                match (other.value.as_str(), self.value.as_str()) {
                    (Some(longer), Some(p)) => longer.contains(p),
                    _ => false,
                }
            }
            (Op::Contains, Op::Prefix) | (Op::Contains, Op::Suffix) => {
                match (other.value.as_str(), self.value.as_str()) {
                    (Some(longer), Some(p)) => longer.contains(p),
                    _ => false,
                }
            }
            // x != v covers a string constraint none of whose matches can
            // equal v (string matches are always comparable to a string v).
            (Op::Ne, Op::Prefix) => match (self.value.as_str(), other.value.as_str()) {
                (Some(v), Some(p)) => !v.starts_with(p),
                _ => false,
            },
            (Op::Ne, Op::Suffix) => match (self.value.as_str(), other.value.as_str()) {
                (Some(v), Some(p)) => !v.ends_with(p),
                _ => false,
            },
            (Op::Ne, Op::Contains) => match (self.value.as_str(), other.value.as_str()) {
                (Some(v), Some(p)) => !v.contains(p),
                _ => false,
            },
            // An empty string pattern matches every string, so it covers
            // any constraint only strings can satisfy.
            _ if self.matches_every_string() && other.string_only() => true,
            _ => false,
        }
    }

    /// Sound *disjointness* test: `true` only if no value can satisfy both
    /// constraints. Used by the rule analyser's satisfiability pass.
    pub fn disjoint(&self, other: &Constraint) -> bool {
        if self.attr != other.attr {
            return false;
        }
        use std::cmp::Ordering::*;
        let cmp = |a: &AttrValue, b: &AttrValue| a.partial_cmp_value(b);
        // Type split: one side only strings can satisfy, the other only
        // non-strings — no value satisfies both.
        if (self.string_only() && other.nonstring_only())
            || (other.string_only() && self.nonstring_only())
        {
            return true;
        }
        match (self.op, other.op) {
            (Op::Eq, Op::Eq) => {
                matches!(cmp(&self.value, &other.value), Some(Less | Greater))
            }
            (Op::Eq, Op::Ne) | (Op::Ne, Op::Eq) => self.value.eq_value(&other.value),
            (Op::Lt, Op::Gt) | (Op::Lt, Op::Ge) | (Op::Le, Op::Gt) => {
                matches!(cmp(&self.value, &other.value), Some(Less | Equal))
            }
            (Op::Le, Op::Ge) => cmp(&self.value, &other.value) == Some(Less),
            (Op::Gt, Op::Lt) | (Op::Ge, Op::Lt) | (Op::Gt, Op::Le) => {
                matches!(cmp(&self.value, &other.value), Some(Greater | Equal))
            }
            (Op::Ge, Op::Le) => cmp(&self.value, &other.value) == Some(Greater),
            (Op::Eq, Op::Lt) | (Op::Eq, Op::Le) => match cmp(&self.value, &other.value) {
                Some(Greater) => true,
                Some(Equal) => other.op == Op::Lt,
                _ => false,
            },
            (Op::Lt, Op::Eq) | (Op::Le, Op::Eq) => other.disjoint(self),
            (Op::Eq, Op::Gt) | (Op::Eq, Op::Ge) => match cmp(&self.value, &other.value) {
                Some(Less) => true,
                Some(Equal) => other.op == Op::Gt,
                _ => false,
            },
            (Op::Gt, Op::Eq) | (Op::Ge, Op::Eq) => other.disjoint(self),
            (Op::Prefix, Op::Prefix) => match (self.value.as_str(), other.value.as_str()) {
                (Some(a), Some(b)) => !a.starts_with(b) && !b.starts_with(a),
                _ => false,
            },
            (Op::Prefix, Op::Eq) => match (self.value.as_str(), other.value.as_str()) {
                (Some(p), Some(v)) => !v.starts_with(p),
                _ => false,
            },
            (Op::Eq, Op::Prefix) => other.disjoint(self),
            // Two suffixes conflict unless one extends the other (a string
            // cannot end in both "dundee rd" and "perth rd").
            (Op::Suffix, Op::Suffix) => match (self.value.as_str(), other.value.as_str()) {
                (Some(a), Some(b)) => !a.ends_with(b) && !b.ends_with(a),
                _ => false,
            },
            (Op::Suffix, Op::Eq) => match (self.value.as_str(), other.value.as_str()) {
                (Some(p), Some(v)) => !v.ends_with(p),
                _ => false,
            },
            (Op::Eq, Op::Suffix) => other.disjoint(self),
            (Op::Contains, Op::Eq) => match (self.value.as_str(), other.value.as_str()) {
                (Some(p), Some(v)) => !v.contains(p),
                _ => false,
            },
            (Op::Eq, Op::Contains) => other.disjoint(self),
            _ => false,
        }
    }
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.op == Op::Exists {
            write!(f, "{} exists", self.attr)
        } else {
            write!(f, "{} {} {}", self.attr, self.op, self.value)
        }
    }
}

/// A conjunction of constraints, optionally restricted to one event kind.
///
/// # Example
///
/// ```
/// use gloss_event::{Event, Filter, Op};
/// let f = Filter::for_kind("weather.reading")
///     .with_constraint("celsius", Op::Ge, 18.0);
/// assert!(f.matches(&Event::new("weather.reading").with_attr("celsius", 20.0)));
/// assert!(!f.matches(&Event::new("weather.reading").with_attr("celsius", 3.0)));
/// assert!(!f.matches(&Event::new("other").with_attr("celsius", 20.0)));
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Filter {
    kind: Option<String>,
    constraints: Vec<Constraint>,
}

impl Filter {
    /// A filter matching every event.
    pub fn any() -> Self {
        Filter::default()
    }

    /// A filter matching events of one kind.
    pub fn for_kind(kind: impl Into<String>) -> Self {
        Filter { kind: Some(kind.into()), constraints: Vec::new() }
    }

    /// Reassembles a filter from a kind restriction and constraint list
    /// (used by analysis passes that rewrite constraint sets).
    pub fn from_parts(kind: Option<String>, constraints: Vec<Constraint>) -> Self {
        Filter { kind, constraints }
    }

    /// The kind restriction, if any.
    pub fn kind(&self) -> Option<&str> {
        self.kind.as_deref()
    }

    /// The constraints.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Adds a constraint.
    pub fn with_constraint(
        mut self,
        attr: impl Into<String>,
        op: Op,
        value: impl Into<AttrValue>,
    ) -> Self {
        self.constraints.push(Constraint::new(attr, op, value));
        self
    }

    /// Adds an equality constraint (the most common case).
    pub fn with_eq(self, attr: impl Into<String>, value: impl Into<AttrValue>) -> Self {
        self.with_constraint(attr, Op::Eq, value)
    }

    /// Adds an existence constraint.
    #[cfg(test)]
    pub(crate) fn with_exists(self, attr: impl Into<String>) -> Self {
        self.with_constraint(attr, Op::Exists, AttrValue::Bool(true))
    }

    /// Whether `event` satisfies the filter.
    pub fn matches(&self, event: &Event) -> bool {
        if let Some(k) = &self.kind {
            if event.kind() != k {
                return false;
            }
        }
        self.constraints.iter().all(|c| match event.attr(&c.attr) {
            Some(v) => c.matches_value(v),
            None => false,
        })
    }

    /// Sound covering: `true` only if every event matching `other` matches
    /// `self`.
    pub fn covers(&self, other: &Filter) -> bool {
        // Kind: self unrestricted, or kinds equal.
        match (&self.kind, &other.kind) {
            (Some(a), Some(b)) if a != b => return false,
            (Some(_), None) => return false,
            _ => {}
        }
        // Every constraint of self must be implied by some constraint of
        // other (conjunction semantics).
        self.constraints.iter().all(|c1| other.constraints.iter().any(|c2| c1.covers(c2)))
    }
}

impl fmt::Display for Filter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.kind {
            Some(k) => write!(f, "[{k}]")?,
            None => write!(f, "[*]")?,
        }
        for (i, c) in self.constraints.iter().enumerate() {
            write!(f, "{}{c}", if i == 0 { " " } else { " & " })?;
        }
        Ok(())
    }
}

/// A filter covering both `a` and `b`: `a`'s kind (when shared) plus the
/// constraints of `a` that some constraint of `b` implies. Every
/// constraint kept is implied by `a` (it is one of `a`'s) and by `b`, so
/// the result covers both. `None` when the filters target different
/// kinds or share no implied constraint (the merge would be `[*]`,
/// coarser than useful).
///
/// The broker uses this to forward one merged filter upstream instead of
/// two overlapping ones.
pub fn merge_cover(a: &Filter, b: &Filter) -> Option<Filter> {
    if a.kind() != b.kind() {
        return None;
    }
    let kept: Vec<_> = a
        .constraints()
        .iter()
        .filter(|ca| b.constraints().iter().any(|cb| ca.covers(cb)))
        .cloned()
        .collect();
    if kept.is_empty() {
        return None;
    }
    Some(Filter::from_parts(a.kind().map(str::to_owned), kept))
}

/// A subscription: a filter plus the subscriber-assigned identifier.
#[derive(Debug, Clone, PartialEq)]
pub struct Subscription {
    /// Unique id (assigned by the subscribing client).
    pub id: u64,
    /// What to receive.
    pub filter: Filter,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(pairs: &[(&str, AttrValue)]) -> Event {
        let mut e = Event::new("k");
        for (n, v) in pairs {
            e.set_attr(*n, v.clone());
        }
        e
    }

    #[test]
    fn matching_all_ops() {
        let e = ev(&[
            ("n", AttrValue::Int(10)),
            ("s", AttrValue::Str("south street".into())),
            ("b", AttrValue::Bool(true)),
        ]);
        let cases = [
            (Constraint::new("n", Op::Eq, 10i64), true),
            (Constraint::new("n", Op::Eq, 11i64), false),
            (Constraint::new("n", Op::Ne, 11i64), true),
            (Constraint::new("n", Op::Ne, 10i64), false),
            (Constraint::new("n", Op::Lt, 11i64), true),
            (Constraint::new("n", Op::Le, 10i64), true),
            (Constraint::new("n", Op::Gt, 10i64), false),
            (Constraint::new("n", Op::Ge, 10i64), true),
            (Constraint::new("s", Op::Prefix, "south"), true),
            (Constraint::new("s", Op::Suffix, "street"), true),
            (Constraint::new("s", Op::Contains, "h st"), true),
            (Constraint::new("s", Op::Contains, "north"), false),
            (Constraint::new("b", Op::Exists, true), true),
            (Constraint::new("missing", Op::Exists, true), false),
        ];
        for (c, expected) in cases {
            let f = Filter { kind: None, constraints: vec![c.clone()] };
            assert_eq!(f.matches(&e), expected, "constraint {c}");
        }
    }

    #[test]
    fn type_mismatch_never_matches() {
        let e = ev(&[("x", AttrValue::Str("5".into()))]);
        let f = Filter::any().with_constraint("x", Op::Eq, 5i64);
        assert!(!f.matches(&e));
        let f = Filter::any().with_constraint("x", Op::Lt, 9i64);
        assert!(!f.matches(&e));
    }

    #[test]
    fn kind_restriction() {
        let f = Filter::for_kind("a");
        assert!(f.matches(&Event::new("a")));
        assert!(!f.matches(&Event::new("b")));
        assert!(Filter::any().matches(&Event::new("b")));
    }

    #[test]
    fn numeric_covering() {
        let lt10 = Constraint::new("x", Op::Lt, 10i64);
        let lt5 = Constraint::new("x", Op::Lt, 5i64);
        let le10 = Constraint::new("x", Op::Le, 10i64);
        let eq3 = Constraint::new("x", Op::Eq, 3i64);
        assert!(lt10.covers(&lt5));
        assert!(!lt5.covers(&lt10));
        assert!(lt10.covers(&eq3));
        assert!(le10.covers(&lt10));
        assert!(!lt10.covers(&le10));
        assert!(lt10.covers(&lt10));
        let gt0 = Constraint::new("x", Op::Gt, 0i64);
        let ge1 = Constraint::new("x", Op::Ge, 1i64);
        assert!(gt0.covers(&ge1));
        assert!(!ge1.covers(&gt0));
    }

    #[test]
    fn exists_covers_everything_on_attr() {
        let exists = Constraint::new("x", Op::Exists, true);
        assert!(exists.covers(&Constraint::new("x", Op::Eq, 1i64)));
        assert!(exists.covers(&Constraint::new("x", Op::Prefix, "a")));
        assert!(!exists.covers(&Constraint::new("y", Op::Eq, 1i64)));
    }

    #[test]
    fn ne_covering() {
        let ne5 = Constraint::new("x", Op::Ne, 5i64);
        assert!(ne5.covers(&Constraint::new("x", Op::Eq, 4i64)));
        assert!(!ne5.covers(&Constraint::new("x", Op::Eq, 5i64)));
        assert!(ne5.covers(&Constraint::new("x", Op::Lt, 5i64)));
        assert!(!ne5.covers(&Constraint::new("x", Op::Le, 5i64)));
        assert!(ne5.covers(&Constraint::new("x", Op::Gt, 5i64)));
        assert!(ne5.covers(&Constraint::new("x", Op::Ne, 5i64)));
    }

    #[test]
    fn string_covering() {
        let pre = Constraint::new("s", Op::Prefix, "st and");
        assert!(pre.covers(&Constraint::new("s", Op::Prefix, "st andrews")));
        assert!(pre.covers(&Constraint::new("s", Op::Eq, "st andrews")));
        assert!(!pre.covers(&Constraint::new("s", Op::Prefix, "st")));
        let suf = Constraint::new("s", Op::Suffix, "street");
        assert!(suf.covers(&Constraint::new("s", Op::Eq, "market street")));
        let contains = Constraint::new("s", Op::Contains, "and");
        assert!(contains.covers(&Constraint::new("s", Op::Prefix, "st andrews")));
        assert!(!contains.covers(&Constraint::new("s", Op::Prefix, "st")));
    }

    #[test]
    fn ne_covers_string_ops() {
        let ne = Constraint::new("s", Op::Ne, "market street");
        // Everything prefixed "north" differs from "market street".
        assert!(ne.covers(&Constraint::new("s", Op::Prefix, "north")));
        assert!(!ne.covers(&Constraint::new("s", Op::Prefix, "market")));
        assert!(ne.covers(&Constraint::new("s", Op::Suffix, "lane")));
        assert!(!ne.covers(&Constraint::new("s", Op::Suffix, "street")));
        assert!(ne.covers(&Constraint::new("s", Op::Contains, "dundee")));
        assert!(!ne.covers(&Constraint::new("s", Op::Contains, "ket st")));
        // A non-string operand decides nothing.
        assert!(!Constraint::new("s", Op::Ne, 5i64).covers(&Constraint::new("s", Op::Prefix, "a")));
    }

    #[test]
    fn empty_pattern_covers_string_constraints() {
        for op in [Op::Prefix, Op::Suffix, Op::Contains] {
            let any_string = Constraint::new("s", op, "");
            assert!(any_string.covers(&Constraint::new("s", Op::Prefix, "north")), "{op}");
            assert!(any_string.covers(&Constraint::new("s", Op::Suffix, "street")), "{op}");
            assert!(any_string.covers(&Constraint::new("s", Op::Eq, "x")), "{op}");
            assert!(any_string.covers(&Constraint::new("s", Op::Lt, "m")), "{op}");
            // Non-strings can satisfy these, so no covering.
            assert!(!any_string.covers(&Constraint::new("s", Op::Eq, 3i64)), "{op}");
            assert!(!any_string.covers(&Constraint::new("s", Op::Exists, true)), "{op}");
        }
    }

    #[test]
    fn suffix_and_contains_disjointness() {
        let suf = Constraint::new("s", Op::Suffix, "street");
        assert!(suf.disjoint(&Constraint::new("s", Op::Suffix, "lane")));
        assert!(!suf.disjoint(&Constraint::new("s", Op::Suffix, "market street")));
        assert!(suf.disjoint(&Constraint::new("s", Op::Eq, "north haugh")));
        assert!(!suf.disjoint(&Constraint::new("s", Op::Eq, "market street")));
        assert!(Constraint::new("s", Op::Eq, "north haugh").disjoint(&suf));
        let con = Constraint::new("s", Op::Contains, "street");
        assert!(con.disjoint(&Constraint::new("s", Op::Eq, "north haugh")));
        assert!(!con.disjoint(&Constraint::new("s", Op::Eq, "market street")));
    }

    #[test]
    fn cross_type_disjointness() {
        // Only strings match a prefix; only numbers match `= 5`.
        let pre = Constraint::new("x", Op::Prefix, "a");
        assert!(pre.disjoint(&Constraint::new("x", Op::Eq, 5i64)));
        assert!(Constraint::new("x", Op::Lt, 9i64).disjoint(&Constraint::new("x", Op::Eq, "s")));
        assert!(Constraint::new("x", Op::Eq, "a").disjoint(&Constraint::new("x", Op::Eq, 1i64)));
        // Exists spans every type: never disjoint this way.
        assert!(!pre.disjoint(&Constraint::new("x", Op::Exists, true)));
        assert!(!Constraint::new("x", Op::Exists, true).disjoint(&Constraint::new(
            "x",
            Op::Eq,
            5i64
        )));
    }

    #[test]
    fn filter_covering_conjunctions() {
        let broad = Filter::for_kind("k").with_constraint("x", Op::Gt, 0i64);
        let narrow =
            Filter::for_kind("k").with_constraint("x", Op::Gt, 5i64).with_eq("user", "bob");
        assert!(broad.covers(&narrow));
        assert!(!narrow.covers(&broad));
        // Kindless covers kinded, not vice versa.
        let kindless = Filter::any().with_constraint("x", Op::Gt, 0i64);
        assert!(kindless.covers(&broad));
        assert!(!broad.covers(&kindless));
        // A filter covers itself.
        assert!(broad.covers(&broad));
    }

    #[test]
    fn covering_is_sound_on_spot_checks() {
        // If f1 covers f2 then every matching event of f2 matches f1.
        let f1 = Filter::any().with_constraint("x", Op::Le, 10i64);
        let f2 = Filter::any().with_constraint("x", Op::Lt, 10i64);
        assert!(f1.covers(&f2));
        for v in [-5i64, 0, 9] {
            let e = ev(&[("x", AttrValue::Int(v))]);
            if f2.matches(&e) {
                assert!(f1.matches(&e));
            }
        }
    }

    #[test]
    fn disjointness() {
        let a = Constraint::new("x", Op::Lt, 5i64);
        let b = Constraint::new("x", Op::Gt, 5i64);
        assert!(a.disjoint(&b));
        assert!(b.disjoint(&a));
        let c = Constraint::new("x", Op::Le, 5i64);
        let d = Constraint::new("x", Op::Ge, 5i64);
        assert!(!c.disjoint(&d)); // both allow x = 5
        let e1 = Constraint::new("u", Op::Eq, "bob");
        let e2 = Constraint::new("u", Op::Eq, "anna");
        assert!(e1.disjoint(&e2));
        assert!(!e1.disjoint(&e1));
        // Different attributes decide nothing.
        assert!(!a.disjoint(&Constraint::new("y", Op::Gt, 5i64)));
    }

    #[test]
    fn prefix_disjointness() {
        let a = Constraint::new("s", Op::Prefix, "north");
        let b = Constraint::new("s", Op::Prefix, "south");
        assert!(a.disjoint(&b));
        let c = Constraint::new("s", Op::Prefix, "sou");
        assert!(!b.disjoint(&c));
        let d = Constraint::new("s", Op::Eq, "east lane");
        assert!(a.disjoint(&d));
    }

    #[test]
    fn display_forms() {
        let f = Filter::for_kind("k").with_constraint("x", Op::Ge, 2i64).with_exists("y");
        let s = f.to_string();
        assert!(s.contains("[k]"), "{s}");
        assert!(s.contains("x >= 2"), "{s}");
        assert!(s.contains("y exists"), "{s}");
    }
}
