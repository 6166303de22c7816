//! XPath-lite: compact path expressions for selecting inside documents.
//!
//! Supported grammar (a pragmatic subset sufficient for a matchlet's
//! payload keys, the type projection of §3):
//!
//! ```text
//! path     := step ('/' step)* ('/' terminal)? | terminal
//! step     := '/'? name-or-* predicate*          (leading '//' = descendant)
//! pred     := '[@attr]' | '[@attr="v"]' | '[child="v"]' | '[n]'
//! terminal := '@attr' | 'text()'
//! ```
//!
//! Examples: `user/@id`, `pos/@lat`, `//sensor[@kind="gps"]/reading`,
//! `items/item[2]/name/text()`.

use crate::document::Element;
use std::error::Error;
use std::fmt;

/// A parse failure for a path expression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathError {
    /// Byte offset of the problem in the source expression.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for PathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "path error at byte {}: {}", self.at, self.message)
    }
}

impl Error for PathError {}

#[derive(Debug, Clone)]
enum Axis {
    Child,
    Descendant,
}

#[derive(Debug, Clone)]
enum NameTest {
    Any,
    Named(String),
}

#[derive(Debug, Clone)]
enum Pred {
    AttrExists(String),
    AttrEquals(String, String),
    ChildTextEquals(String, String),
    Position(usize),
}

#[derive(Debug, Clone)]
struct Step {
    axis: Axis,
    test: NameTest,
    preds: Vec<Pred>,
}

#[derive(Debug, Clone)]
enum Terminal {
    Attr(String),
    Text,
}

/// A compiled path expression.
///
/// # Example
///
/// ```
/// use gloss_xml::{parse, Path};
/// let doc = parse(r#"<m><u id="a"/><u id="b"/></m>"#)?;
/// let first = Path::parse("u/@id")?.select_text_first(&doc);
/// assert_eq!(first.as_deref(), Some("a"));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct Path {
    steps: Vec<Step>,
    terminal: Option<Terminal>,
}

impl Path {
    /// Compiles a path expression.
    ///
    /// # Errors
    ///
    /// Returns [`PathError`] on syntax errors.
    pub fn parse(expr: &str) -> Result<Path, PathError> {
        let mut p = PathParser { bytes: expr.as_bytes(), pos: 0 };
        let mut steps = Vec::new();
        let mut terminal = None;

        if p.at_end() {
            return Err(p.fail("empty path"));
        }
        loop {
            let axis = if p.eat("//") {
                Axis::Descendant
            } else {
                // A single leading '/' is allowed and means child (the
                // context element's children), same as no slash.
                p.eat("/");
                Axis::Child
            };
            if p.at_end() {
                return Err(p.fail("expected step"));
            }
            if p.peek() == Some(b'@') {
                p.bump();
                let name = p.name()?;
                terminal = Some(Terminal::Attr(name));
                break;
            }
            if p.eat("text()") {
                terminal = Some(Terminal::Text);
                break;
            }
            let test = if p.eat("*") { NameTest::Any } else { NameTest::Named(p.name()?) };
            let mut preds = Vec::new();
            while p.peek() == Some(b'[') {
                preds.push(p.predicate()?);
            }
            steps.push(Step { axis, test, preds });
            if p.at_end() {
                break;
            }
            if p.peek() != Some(b'/') {
                return Err(p.fail("expected `/` between steps"));
            }
        }
        if !p.at_end() {
            return Err(p.fail("trailing characters in path"));
        }
        if steps.is_empty() && terminal.is_none() {
            return Err(p.fail("path selects nothing"));
        }
        Ok(Path { steps, terminal })
    }

    /// Selects matching elements relative to `context` (its children for
    /// the first step; `//` searches the whole subtree).
    ///
    /// If the path ends in a terminal (`@attr` / `text()`), the elements
    /// *owning* the terminal are returned.
    fn select<'a>(&self, context: &'a Element) -> Vec<&'a Element> {
        let mut current: Vec<&'a Element> = vec![context];
        for step in &self.steps {
            let mut next = Vec::new();
            for ctx in current {
                // Candidates matching the name test, in document order.
                let mut candidates: Vec<&'a Element> = match step.axis {
                    Axis::Child => {
                        ctx.children().filter(|c| Self::test_matches(&step.test, c)).collect()
                    }
                    Axis::Descendant => DescendantsOrdered::new(ctx)
                        .filter(|d| Self::test_matches(&step.test, d))
                        .collect(),
                };
                // Predicates apply left to right, each filtering the list
                // and re-deriving positions — XPath's semantics.
                for pred in &step.preds {
                    candidates = candidates
                        .into_iter()
                        .enumerate()
                        .filter(|(i, el)| Self::pred_matches(pred, el, i + 1))
                        .map(|(_, el)| el)
                        .collect();
                }
                next.extend(candidates);
            }
            current = next;
            if current.is_empty() {
                break;
            }
        }
        current
    }

    /// Evaluates the path to strings: attribute values for `@attr`
    /// terminals, text content for `text()` or element results.
    #[cfg(test)]
    fn select_text(&self, context: &Element) -> Vec<String> {
        let owners = self.select(context);
        match &self.terminal {
            Some(Terminal::Attr(name)) => {
                owners.iter().filter_map(|e| e.attr(name)).map(str::to_string).collect()
            }
            Some(Terminal::Text) | None => owners.iter().map(|e| e.text()).collect(),
        }
    }

    /// The first string result, if any: the first owner's attribute
    /// value (the first that has the attribute) or text, the only string
    /// rendered.
    pub fn select_text_first(&self, context: &Element) -> Option<String> {
        let owners = self.select(context);
        match &self.terminal {
            Some(Terminal::Attr(name)) => {
                owners.iter().find_map(|e| e.attr(name)).map(str::to_string)
            }
            Some(Terminal::Text) | None => owners.first().map(|e| e.text()),
        }
    }

    fn test_matches(test: &NameTest, el: &Element) -> bool {
        match test {
            NameTest::Any => true,
            NameTest::Named(n) => el.name() == n,
        }
    }

    fn pred_matches(pred: &Pred, el: &Element, position: usize) -> bool {
        match pred {
            Pred::AttrExists(a) => el.attr(a).is_some(),
            Pred::AttrEquals(a, v) => el.attr(a) == Some(v.as_str()),
            Pred::ChildTextEquals(c, v) => el.children_named(c).any(|ch| ch.text() == *v),
            Pred::Position(n) => position == *n,
        }
    }
}

/// Document-order depth-first traversal (unlike `Element::descendants`,
/// which is unordered for speed).
struct DescendantsOrdered<'a> {
    stack: Vec<&'a Element>,
}

impl<'a> DescendantsOrdered<'a> {
    fn new(root: &'a Element) -> Self {
        let mut stack: Vec<&'a Element> = root.children().collect();
        stack.reverse();
        DescendantsOrdered { stack }
    }
}

impl<'a> Iterator for DescendantsOrdered<'a> {
    type Item = &'a Element;
    fn next(&mut self) -> Option<&'a Element> {
        let next = self.stack.pop()?;
        let children: Vec<&'a Element> = next.children().collect();
        for c in children.into_iter().rev() {
            self.stack.push(c);
        }
        Some(next)
    }
}

struct PathParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> PathParser<'a> {
    fn fail(&self, message: impl Into<String>) -> PathError {
        PathError { at: self.pos, message: message.into() }
    }

    fn at_end(&self) -> bool {
        self.pos >= self.bytes.len()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) {
        self.pos += 1;
    }

    fn eat(&mut self, s: &str) -> bool {
        if self.bytes[self.pos..].starts_with(s.as_bytes()) {
            self.pos += s.len();
            true
        } else {
            false
        }
    }

    fn name(&mut self) -> Result<String, PathError> {
        let start = self.pos;
        while matches!(self.peek(), Some(b) if b.is_ascii_alphanumeric() || matches!(b, b'_' | b'-' | b'.' | b':'))
        {
            self.bump();
        }
        if self.pos == start {
            return Err(self.fail("expected name"));
        }
        Ok(std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii").to_string())
    }

    fn quoted(&mut self) -> Result<String, PathError> {
        let quote = match self.peek() {
            Some(q @ (b'"' | b'\'')) => q,
            _ => return Err(self.fail("expected quoted value")),
        };
        self.bump();
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b == quote {
                let s = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.fail("invalid utf-8 in predicate value"))?
                    .to_string();
                self.bump();
                return Ok(s);
            }
            self.bump();
        }
        Err(self.fail("unterminated quoted value"))
    }

    fn predicate(&mut self) -> Result<Pred, PathError> {
        self.bump(); // '['
        let pred = match self.peek() {
            Some(b'@') => {
                self.bump();
                let name = self.name()?;
                if self.eat("=") {
                    Pred::AttrEquals(name, self.quoted()?)
                } else {
                    Pred::AttrExists(name)
                }
            }
            Some(b) if b.is_ascii_digit() => {
                let start = self.pos;
                while matches!(self.peek(), Some(d) if d.is_ascii_digit()) {
                    self.bump();
                }
                let n: usize = std::str::from_utf8(&self.bytes[start..self.pos])
                    .expect("digits")
                    .parse()
                    .map_err(|_| self.fail("bad position index"))?;
                if n == 0 {
                    return Err(self.fail("position index is 1-based"));
                }
                Pred::Position(n)
            }
            _ => {
                let name = self.name()?;
                if !self.eat("=") {
                    return Err(self.fail("expected `=` in child-text predicate"));
                }
                Pred::ChildTextEquals(name, self.quoted()?)
            }
        };
        if !self.eat("]") {
            return Err(self.fail("expected `]`"));
        }
        Ok(pred)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    fn doc() -> Element {
        parse(
            r#"<event kind="loc">
                 <user id="bob"><role>tourist</role></user>
                 <readings>
                   <r sensor="gps" q="hi">1</r>
                   <r sensor="temp">2</r>
                   <r sensor="gps">3</r>
                 </readings>
               </event>"#,
        )
        .unwrap()
    }

    #[test]
    fn child_steps() {
        let d = doc();
        let sel = Path::parse("readings/r").unwrap().select(&d);
        assert_eq!(sel.len(), 3);
    }

    #[test]
    fn attribute_terminal() {
        let d = doc();
        assert_eq!(Path::parse("user/@id").unwrap().select_text(&d), vec!["bob"]);
        assert_eq!(
            Path::parse("readings/r/@sensor").unwrap().select_text(&d),
            vec!["gps", "temp", "gps"]
        );
    }

    #[test]
    fn text_terminal() {
        let d = doc();
        assert_eq!(Path::parse("user/role/text()").unwrap().select_text(&d), vec!["tourist"]);
    }

    #[test]
    fn attr_equals_predicate() {
        let d = doc();
        let texts = Path::parse(r#"readings/r[@sensor="gps"]/text()"#).unwrap().select_text(&d);
        assert_eq!(texts, vec!["1", "3"]);
    }

    #[test]
    fn attr_exists_predicate() {
        let d = doc();
        let texts = Path::parse("readings/r[@q]").unwrap().select_text(&d);
        assert_eq!(texts, vec!["1"]);
    }

    #[test]
    fn position_predicate() {
        let d = doc();
        assert_eq!(Path::parse("readings/r[2]/text()").unwrap().select_text(&d), vec!["2"]);
    }

    #[test]
    fn position_counts_after_name_filter() {
        let d = doc();
        // Second *gps* reading, not second reading overall.
        assert_eq!(
            Path::parse(r#"readings/r[@sensor="gps"][2]/text()"#).unwrap().select_text(&d),
            vec!["3"]
        );
    }

    #[test]
    fn child_text_predicate() {
        let d = doc();
        let sel = Path::parse(r#"user[role="tourist"]/@id"#).unwrap().select_text(&d);
        assert_eq!(sel, vec!["bob"]);
    }

    #[test]
    fn descendant_axis() {
        let d = doc();
        let sel = Path::parse("//r").unwrap().select(&d);
        assert_eq!(sel.len(), 3);
        let roles = Path::parse("//role/text()").unwrap().select_text(&d);
        assert_eq!(roles, vec!["tourist"]);
    }

    #[test]
    fn descendant_axis_mid_path() {
        let d = parse("<a><b><c><t x=\"1\"/></c></b><t x=\"2\"/></a>").unwrap();
        let sel = Path::parse("//t/@x").unwrap().select_text(&d);
        assert_eq!(sel, vec!["1", "2"]); // document order
    }

    #[test]
    fn wildcard_step() {
        let d = doc();
        let sel = Path::parse("readings/*").unwrap().select(&d);
        assert_eq!(sel.len(), 3);
    }

    #[test]
    fn no_match_is_empty() {
        let d = doc();
        assert!(Path::parse("nope/way").unwrap().select(&d).is_empty());
        assert!(Path::parse("user/@missing").unwrap().select_text(&d).is_empty());
    }

    #[test]
    fn element_result_yields_text() {
        let d = doc();
        assert_eq!(Path::parse("user/role").unwrap().select_text(&d), vec!["tourist"]);
    }

    /// The first result, rendered alone, is the first of all results:
    /// attribute terminals (owners without the attribute skipped), text
    /// terminals, element results, position and attribute predicates,
    /// and paths with no result.
    #[test]
    fn first_text_is_the_first_of_all_texts() {
        let d = doc();
        let sparse = parse(r#"<a><t/><t x="2">two</t><t x="3">three</t></a>"#).unwrap();
        for (path, context) in [
            ("readings/r/@sensor", &d),
            ("readings/r/@q", &d),
            ("readings/r[3]/@sensor", &d),
            ("readings/r/text()", &d),
            ("readings/r[2]/text()", &d),
            (r#"readings/r[@sensor="gps"][2]/text()"#, &d),
            ("readings/r[@q]", &d),
            ("//role", &d),
            ("user/@missing", &d),
            ("readings/r[4]/text()", &d),
            ("t/@x", &sparse),
            ("t[2]/@x", &sparse),
            ("t", &sparse),
        ] {
            let p = Path::parse(path).unwrap();
            assert_eq!(
                p.select_text_first(context),
                p.select_text(context).first().cloned(),
                "{path}"
            );
        }
        assert_eq!(Path::parse("t/@x").unwrap().select_text_first(&sparse).as_deref(), Some("2"));
    }

    #[test]
    fn parse_errors() {
        assert!(Path::parse("").is_err());
        assert!(Path::parse("a/").is_err());
        assert!(Path::parse("a[").is_err());
        assert!(Path::parse("a[0]").is_err());
        assert!(Path::parse("a[@x=unquoted]").is_err());
        assert!(Path::parse("a]").is_err());
        assert!(Path::parse("@").is_err());
    }
}
