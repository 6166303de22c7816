//! A hand-written parser for the XML subset used by the architecture.
//!
//! Supported: elements, attributes (single- or double-quoted), text,
//! comments, CDATA sections, the five named entities (`&lt; &gt; &amp;
//! &quot; &apos;`) and numeric character references (`&#nn;`, `&#xhh;`),
//! and an optional leading `<?xml ...?>` declaration. Not supported (and
//! not needed by the architecture): DTDs, namespaces-as-semantics
//! (prefixed names are treated as opaque), and processing instructions
//! other than the declaration.
//!
//! There is one lexer, [`Reader`], and it is pulled: each step yields the
//! next [`Token`] — a start tag, a text run, an end tag — with names,
//! attribute values and text borrowed from the input unless an entity
//! reference forced a decoded copy. A consumer that needs only the root's
//! attributes reads one token and stops, paying for nothing after it; one
//! that needs the content reads on, building nothing it does not keep.
//! [`parse`] is a tree builder over the same tokens, so the tree and the
//! stream agree on what is well-formed. The reader checks well-formedness
//! as it goes (matching close tags, no duplicate attribute, nothing after
//! the root), so a consumer that reads until the reader ends has checked
//! the whole document. It keeps the open-element names and the last start
//! tag's attributes in place, so a document no deeper than eight
//! elements, with no start tag of more than eight attributes, is read with
//! no heap allocation (entity-decoded text and values aside). It refuses a
//! start tag nested more than 256 deep: every walk over a tree (drop,
//! clone, comparison, serialisation) recurses once per level, and
//! documents arrive from other nodes.

use crate::document::{Element, Node};
use std::borrow::Cow;
use std::error::Error;
use std::fmt;
use std::mem;

/// The deepest a start tag may nest, the root being at depth 1.
const MAX_DEPTH: usize = 256;

/// A parse failure, with 1-based line and column of the offending input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "xml parse error at {}:{}: {}", self.line, self.col, self.message)
    }
}

impl Error for ParseError {}

/// Parses a string holding exactly one element (plus optional declaration,
/// comments, and whitespace) and returns the root element.
///
/// # Errors
///
/// Returns [`ParseError`] on malformed input or trailing content.
pub fn parse(input: &str) -> Result<Element, ParseError> {
    let mut reader = Reader::new(input);
    // Elements opened and not yet closed, outermost first.
    let mut open: Vec<Element> = Vec::new();
    let mut root = None;
    while let Some(token) = reader.next().transpose()? {
        match token {
            Token::Start(name) => {
                let mut el = Element::new(name);
                // Values are moved out, so an entity-decoded one is not
                // copied; the next start tag clears what is left.
                for (key, value) in reader.attrs.iter_mut() {
                    el.set_attr(*key, mem::take(value));
                }
                open.push(el);
            }
            Token::Text(text) => {
                if let Some(el) = open.last_mut() {
                    el.push(Node::Text(text.into_owned()));
                }
            }
            Token::End(_) => {
                let el = open.pop().expect("the reader ends only elements it started");
                match open.last_mut() {
                    Some(parent) => parent.push(Node::Element(el)),
                    None => root = Some(el),
                }
            }
        }
    }
    Ok(root.expect("the reader yields the root's end before it ends"))
}

/// One step of a [`Reader`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Token<'a> {
    /// A start tag, by name. Its attributes are readable through
    /// [`Reader::attr`] until the next start tag. `<a/>` yields `Start`
    /// then `End`.
    Start(&'a str),
    /// A text run or CDATA section, entity references resolved: borrowed
    /// from the input unless it held one.
    Text(Cow<'a, str>),
    /// An end tag, by name.
    End(&'a str),
}

/// Where a [`Reader`] is in the document.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Place {
    /// Before the root's start tag.
    Prolog,
    /// Inside the root, or just past its end tag.
    Content,
    /// The document was read to its end, or failed.
    Done,
}

/// A pull tokenizer over one document: the one lexer behind [`parse`].
///
/// Iterating yields the document's [`Token`]s in order, then ends once
/// the root has closed and nothing but whitespace and comments follows
/// it. Malformed input yields one error, with the same message and
/// position [`parse`] reports, and then the reader ends.
///
/// ```
/// use gloss_xml::{Reader, Token};
///
/// let mut r = Reader::new(r#"<kbdelta subject="bob" from="3"><insert/>tail</kbdelta>"#);
/// assert_eq!(r.next(), Some(Ok(Token::Start("kbdelta"))));
/// assert_eq!(r.attr("from").map(|v| v.as_ref()), Some("3"));
/// // A consumer that needed only the root's attributes stops here.
/// assert_eq!(r.next(), Some(Ok(Token::Start("insert"))));
/// assert_eq!(r.next(), Some(Ok(Token::End("insert"))));
/// assert_eq!(r.next(), Some(Ok(Token::Text("tail".into()))));
/// assert_eq!(r.next(), Some(Ok(Token::End("kbdelta"))));
/// assert_eq!(r.next(), None);
/// ```
#[derive(Debug)]
pub struct Reader<'a> {
    input: &'a str,
    pos: usize,
    place: Place,
    /// Names of the open elements, outermost first.
    open: Stack<&'a str>,
    /// The last start tag's attributes, in document order.
    attrs: Stack<(&'a str, Cow<'a, str>)>,
    /// The end a self-closing start tag owes.
    pending_end: Option<&'a str>,
}

impl<'a> Iterator for Reader<'a> {
    type Item = Result<Token<'a>, ParseError>;

    fn next(&mut self) -> Option<Self::Item> {
        let step = self.step();
        if step.is_err() {
            self.place = Place::Done;
        }
        step.transpose()
    }
}

impl<'a> Reader<'a> {
    /// A reader positioned before the first token of `input`.
    pub fn new(input: &'a str) -> Self {
        Reader {
            input,
            pos: 0,
            place: Place::Prolog,
            open: Stack::default(),
            attrs: Stack::default(),
            pending_end: None,
        }
    }

    /// The value of attribute `key` on the last start tag read.
    pub fn attr(&self, key: &str) -> Option<&Cow<'a, str>> {
        self.attrs.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    fn step(&mut self) -> Result<Option<Token<'a>>, ParseError> {
        if let Some(name) = self.pending_end.take() {
            return Ok(Some(Token::End(name)));
        }
        match self.place {
            Place::Prolog => {
                self.skip_ws_and_comments()?;
                self.skip_declaration()?;
                self.skip_ws_and_comments()?;
                self.place = Place::Content;
                self.start_tag().map(Some)
            }
            Place::Content => match self.open.last() {
                Some(&open) => self.content(open).map(Some),
                None => {
                    self.place = Place::Done;
                    self.skip_ws_and_comments()?;
                    if self.at_end() {
                        Ok(None)
                    } else {
                        Err(self.err("trailing content after root element"))
                    }
                }
            },
            Place::Done => Ok(None),
        }
    }

    /// The next token inside the open element `open`.
    fn content(&mut self, open: &'a str) -> Result<Token<'a>, ParseError> {
        loop {
            if self.eat("</") {
                let close = self.name()?;
                if close != open {
                    return Err(
                        self.err(format!("mismatched close tag `{close}`, open was `{open}`"))
                    );
                }
                self.skip_ws();
                self.expect(">")?;
                self.open.pop();
                return Ok(Token::End(close));
            } else if self.starts_with("<!--") {
                self.comment()?;
            } else if self.eat("<![CDATA[") {
                let start = self.pos;
                let Some(len) = self.offset_of("]]>") else {
                    self.pos = self.input.len();
                    return Err(self.err("unterminated CDATA section"));
                };
                let input: &'a str = self.input;
                self.pos += len + "]]>".len();
                return Ok(Token::Text(Cow::Borrowed(&input[start..start + len])));
            } else if self.starts_with("<") {
                return self.start_tag();
            } else if self.at_end() {
                return Err(self.err(format!("unexpected end of input inside `{open}`")));
            } else {
                return self.text().map(Token::Text);
            }
        }
    }

    fn start_tag(&mut self) -> Result<Token<'a>, ParseError> {
        self.expect("<")?;
        let name = self.name()?;
        if self.open.len >= MAX_DEPTH {
            return Err(self.err(format!("elements nested deeper than {MAX_DEPTH}")));
        }
        self.attrs.clear();
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'/') => {
                    self.expect("/>")?;
                    self.pending_end = Some(name);
                    return Ok(Token::Start(name));
                }
                Some(b'>') => {
                    self.pos += 1;
                    self.open.push(name);
                    return Ok(Token::Start(name));
                }
                Some(b) if is_name_start(b) => {
                    let key = self.name()?;
                    self.skip_ws();
                    self.expect("=")?;
                    self.skip_ws();
                    let value = self.attr_value()?;
                    if self.attr(key).is_some() {
                        return Err(self.err(format!("duplicate attribute `{key}`")));
                    }
                    self.attrs.push((key, value));
                }
                _ => return Err(self.err("malformed start tag")),
            }
        }
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        let mut line = 1;
        let mut col = 1;
        for &b in &self.input.as_bytes()[..self.pos.min(self.input.len())] {
            if b == b'\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
        }
        ParseError { line, col, message: message.into() }
    }

    fn at_end(&self) -> bool {
        self.pos >= self.input.len()
    }

    fn peek(&self) -> Option<u8> {
        self.input.as_bytes().get(self.pos).copied()
    }

    fn starts_with(&self, s: &str) -> bool {
        self.input.as_bytes()[self.pos..].starts_with(s.as_bytes())
    }

    fn eat(&mut self, s: &str) -> bool {
        if self.starts_with(s) {
            self.pos += s.len();
            true
        } else {
            false
        }
    }

    fn expect(&mut self, s: &str) -> Result<(), ParseError> {
        if self.eat(s) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{s}`")))
        }
    }

    /// Offset from the cursor of the next occurrence of `s`.
    fn offset_of(&self, s: &str) -> Option<usize> {
        self.input.as_bytes()[self.pos..].windows(s.len()).position(|w| w == s.as_bytes())
    }

    /// Offset from the cursor of the next byte `stop` selects.
    fn offset_of_byte(&self, stop: impl Fn(u8) -> bool) -> Option<usize> {
        self.input.as_bytes()[self.pos..].iter().position(|&b| stop(b))
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.pos += 1;
        }
    }

    fn skip_ws_and_comments(&mut self) -> Result<(), ParseError> {
        loop {
            self.skip_ws();
            if self.starts_with("<!--") {
                self.comment()?;
            } else {
                return Ok(());
            }
        }
    }

    fn comment(&mut self) -> Result<(), ParseError> {
        self.expect("<!--")?;
        match self.offset_of("-->") {
            Some(len) => {
                self.pos += len + "-->".len();
                Ok(())
            }
            None => {
                self.pos = self.input.len();
                Err(self.err("unterminated comment"))
            }
        }
    }

    fn skip_declaration(&mut self) -> Result<(), ParseError> {
        if !self.starts_with("<?xml") {
            return Ok(());
        }
        match self.offset_of("?>") {
            Some(len) => {
                self.pos += len + "?>".len();
                Ok(())
            }
            None => {
                self.pos = self.input.len();
                Err(self.err("unterminated xml declaration"))
            }
        }
    }

    /// Scans a name, returned as a slice of the input.
    fn name(&mut self) -> Result<&'a str, ParseError> {
        let start = self.pos;
        match self.peek() {
            Some(b) if is_name_start(b) => self.pos += 1,
            _ => return Err(self.err("expected name")),
        }
        while matches!(self.peek(), Some(b) if is_name_char(b)) {
            self.pos += 1;
        }
        let input: &'a str = self.input;
        Ok(&input[start..self.pos])
    }

    fn entity(&mut self) -> Result<char, ParseError> {
        // Caller consumed '&'.
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b == b';' {
                let input: &'a str = self.input;
                let body = &input[start..self.pos];
                self.pos += 1;
                return match body {
                    "lt" => Ok('<'),
                    "gt" => Ok('>'),
                    "amp" => Ok('&'),
                    "quot" => Ok('"'),
                    "apos" => Ok('\''),
                    _ if body.starts_with("#x") || body.starts_with("#X") => {
                        let code = u32::from_str_radix(&body[2..], 16)
                            .map_err(|_| self.err(format!("bad character reference &{body};")))?;
                        char::from_u32(code)
                            .ok_or_else(|| self.err(format!("invalid codepoint &{body};")))
                    }
                    _ if body.starts_with('#') => {
                        let code = body[1..]
                            .parse::<u32>()
                            .map_err(|_| self.err(format!("bad character reference &{body};")))?;
                        char::from_u32(code)
                            .ok_or_else(|| self.err(format!("invalid codepoint &{body};")))
                    }
                    _ => Err(self.err(format!("unknown entity &{body};"))),
                };
            }
            if self.pos - start > 10 {
                break;
            }
            self.pos += 1;
        }
        Err(self.err("unterminated entity reference"))
    }

    /// Scans up to the first byte `stop` selects (or the end of input),
    /// resolving entity references on the way: a slice of the input when
    /// there were none.
    fn decoded_run(&mut self, stop: impl Fn(u8) -> bool) -> Result<Cow<'a, str>, ParseError> {
        let input: &'a str = self.input;
        let mut run = self.pos;
        let mut decoded: Option<String> = None;
        loop {
            self.pos +=
                self.offset_of_byte(|b| b == b'&' || stop(b)).unwrap_or(input.len() - self.pos);
            if self.peek() != Some(b'&') {
                let tail = &input[run..self.pos];
                return Ok(match decoded {
                    None => Cow::Borrowed(tail),
                    Some(mut s) => {
                        s.push_str(tail);
                        Cow::Owned(s)
                    }
                });
            }
            let s = decoded.get_or_insert_with(String::new);
            s.push_str(&input[run..self.pos]);
            self.pos += 1;
            s.push(self.entity()?);
            run = self.pos;
        }
    }

    fn attr_value(&mut self) -> Result<Cow<'a, str>, ParseError> {
        let quote = match self.peek() {
            Some(q @ (b'"' | b'\'')) => q,
            _ => {
                self.pos += usize::from(!self.at_end());
                return Err(self.err("expected quoted attribute value"));
            }
        };
        self.pos += 1;
        let value = self.decoded_run(|b| b == quote || b == b'<')?;
        match self.peek() {
            Some(b'<') => {
                self.pos += 1;
                Err(self.err("`<` in attribute value"))
            }
            Some(_) => {
                self.pos += 1;
                Ok(value)
            }
            None => Err(self.err("unterminated attribute value")),
        }
    }

    fn text(&mut self) -> Result<Cow<'a, str>, ParseError> {
        self.decoded_run(|b| b == b'<')
    }
}

/// How many items a [`Stack`] holds in place before it spills to the
/// heap.
const IN_PLACE: usize = 8;

/// A stack whose first [`IN_PLACE`] items live inside it and the rest in
/// a `Vec`, which allocates only once a deeper or wider document needs
/// it. Popped and cleared slots are reset, so an entity-decoded value is
/// freed when its start tag is left behind, as in a `Vec`.
#[derive(Debug)]
struct Stack<T> {
    in_place: [T; IN_PLACE],
    len: usize,
    spill: Vec<T>,
}

impl<T: Default> Default for Stack<T> {
    fn default() -> Self {
        Stack { in_place: std::array::from_fn(|_| T::default()), len: 0, spill: Vec::new() }
    }
}

impl<T: Default> Stack<T> {
    fn push(&mut self, item: T) {
        match self.in_place.get_mut(self.len) {
            Some(slot) => *slot = item,
            None => self.spill.push(item),
        }
        self.len += 1;
    }

    fn pop(&mut self) {
        self.len = self.len.saturating_sub(1);
        match self.in_place.get_mut(self.len) {
            Some(slot) => *slot = T::default(),
            None => self.spill.truncate(self.len - IN_PLACE),
        }
    }

    fn last(&self) -> Option<&T> {
        let last = self.len.checked_sub(1)?;
        self.in_place.get(last).or_else(|| self.spill.last())
    }

    fn iter(&self) -> impl Iterator<Item = &T> {
        self.in_place[..self.len.min(IN_PLACE)].iter().chain(&self.spill)
    }

    fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.in_place[..self.len.min(IN_PLACE)].iter_mut().chain(&mut self.spill)
    }

    fn clear(&mut self) {
        self.in_place[..self.len.min(IN_PLACE)].fill_with(T::default);
        self.spill.clear();
        self.len = 0;
    }
}

fn is_name_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b == b':'
}

fn is_name_char(b: u8) -> bool {
    b.is_ascii_alphanumeric() || matches!(b, b'_' | b':' | b'-' | b'.')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_element() {
        let e = parse("<a/>").unwrap();
        assert_eq!(e.name(), "a");
        assert!(e.is_empty());
    }

    #[test]
    fn attributes_both_quote_styles() {
        let e = parse(r#"<a x="1" y='two'/>"#).unwrap();
        assert_eq!(e.attr("x"), Some("1"));
        assert_eq!(e.attr("y"), Some("two"));
    }

    #[test]
    fn nested_elements_and_text() {
        let e = parse("<a>hi<b>there</b>bye</a>").unwrap();
        assert_eq!(e.text(), "hibye");
        assert_eq!(e.child("b").unwrap().text(), "there");
    }

    #[test]
    fn entities_decoded() {
        let e = parse("<a>&lt;x&gt; &amp; &quot;q&quot; &apos;a&apos; &#65;&#x42;</a>").unwrap();
        assert_eq!(e.text(), "<x> & \"q\" 'a' AB");
    }

    #[test]
    fn entities_in_attributes() {
        let e = parse(r#"<a v="&lt;&amp;&gt;"/>"#).unwrap();
        assert_eq!(e.attr("v"), Some("<&>"));
    }

    #[test]
    fn comments_skipped() {
        let e = parse("<!-- head --><a><!-- inner -->x</a><!-- tail -->").unwrap();
        assert_eq!(e.text(), "x");
    }

    #[test]
    fn cdata_preserved_verbatim() {
        let e = parse("<a><![CDATA[<not & parsed>]]></a>").unwrap();
        assert_eq!(e.text(), "<not & parsed>");
    }

    #[test]
    fn declaration_recognised() {
        let e = parse("<?xml version=\"1.0\" encoding=\"UTF-8\"?><a/>").unwrap();
        assert_eq!(e.name(), "a");
    }

    #[test]
    fn unicode_text() {
        let e = parse("<a>café ☕ 日本</a>").unwrap();
        assert_eq!(e.text(), "café ☕ 日本");
    }

    #[test]
    fn error_mismatched_close() {
        let err = parse("<a><b></a></b>").unwrap_err();
        assert!(err.message.contains("mismatched"), "{err}");
        assert_eq!(err.message, "mismatched close tag `a`, open was `b`");
    }

    #[test]
    fn error_trailing_content() {
        let err = parse("<a/><b/>").unwrap_err();
        assert!(err.message.contains("trailing"), "{err}");
    }

    #[test]
    fn error_duplicate_attribute() {
        let err = parse(r#"<a x="1" x="2"/>"#).unwrap_err();
        assert!(err.message.contains("duplicate"), "{err}");
    }

    #[test]
    fn error_unknown_entity() {
        let err = parse("<a>&nope;</a>").unwrap_err();
        assert!(err.message.contains("unknown entity"), "{err}");
    }

    #[test]
    fn error_positions_are_reported() {
        let err = parse("<a>\n  <b>\n</a>").unwrap_err();
        assert!(err.line >= 2, "line {}", err.line);
    }

    #[test]
    fn error_unterminated() {
        assert!(parse("<a>").is_err());
        assert!(parse("<a").is_err());
        assert!(parse("<!-- never ends").is_err());
        assert!(parse("<a><![CDATA[x").is_err());
    }

    #[test]
    fn error_lt_in_attribute() {
        assert!(parse(r#"<a v="<"/>"#).is_err());
    }

    #[test]
    fn whitespace_only_text_is_kept() {
        // The model is faithful: whitespace runs become text nodes.
        let e = parse("<a> <b/> </a>").unwrap();
        assert_eq!(e.nodes().len(), 3);
    }

    #[test]
    fn names_with_punctuation() {
        let e = parse("<ns:tag-1 data-x.y=\"v\"/>").unwrap();
        assert_eq!(e.name(), "ns:tag-1");
        assert_eq!(e.attr("data-x.y"), Some("v"));
    }

    #[test]
    fn reader_borrows_unless_an_entity_forces_a_copy() {
        let mut r = Reader::new(r#"<a k="plain" e="x&amp;y">run<![CDATA[<raw>]]>a&lt;b</a>"#);
        assert_eq!(r.next(), Some(Ok(Token::Start("a"))));
        assert!(matches!(r.attr("k"), Some(Cow::Borrowed("plain"))));
        assert!(matches!(r.attr("e"), Some(Cow::Owned(v)) if v == "x&y"));
        assert_eq!(r.attr("missing"), None);
        assert!(matches!(r.next(), Some(Ok(Token::Text(Cow::Borrowed("run"))))));
        assert!(matches!(r.next(), Some(Ok(Token::Text(Cow::Borrowed("<raw>"))))));
        assert!(matches!(r.next(), Some(Ok(Token::Text(Cow::Owned(t)))) if t == "a<b"));
        assert_eq!(r.next(), Some(Ok(Token::End("a"))));
        assert_eq!(r.next(), None);
    }

    #[test]
    fn reader_self_closing_tags_start_then_end_and_keep_their_attributes() {
        let mut r = Reader::new(r#"<?xml version="1.0"?><!-- c --><a x="1"><b y="2"/>t</a>"#);
        assert_eq!(r.next(), Some(Ok(Token::Start("a"))));
        assert_eq!(r.next(), Some(Ok(Token::Start("b"))));
        assert_eq!(r.attr("x"), None, "the last start tag's attributes only");
        assert_eq!(r.next(), Some(Ok(Token::End("b"))));
        assert_eq!(r.attr("y").map(|v| v.as_ref()), Some("2"), "kept until the next start tag");
        assert_eq!(r.next(), Some(Ok(Token::Text("t".into()))));
        assert_eq!(r.next(), Some(Ok(Token::End("a"))));
        assert_eq!(r.next(), None);
        let tokens: Vec<_> = Reader::new("<r/>").collect();
        assert_eq!(tokens, [Ok(Token::Start("r")), Ok(Token::End("r"))]);
    }

    /// Nesting up to the bound reads; one level more is an error, from
    /// the reader and from `parse`, wherever the deepest tag self-closes.
    #[test]
    fn nesting_deeper_than_the_bound_is_refused() {
        let nested = |depth: usize, leaf: &str| {
            format!("{}{leaf}{}", "<a>".repeat(depth - 1), "</a>".repeat(depth - 1))
        };
        for leaf in ["<b/>", "<b>t</b>"] {
            assert!(parse(&nested(MAX_DEPTH, leaf)).is_ok());
            let deep = nested(MAX_DEPTH + 1, leaf);
            let err = parse(&deep).unwrap_err();
            assert_eq!(err.message, "elements nested deeper than 256");
            assert_eq!((err.line, err.col), (1, 3 * MAX_DEPTH + 3));
            assert_eq!(Reader::new(&deep).find_map(Result::err), Some(err));
        }
    }

    /// A million levels is an error, not a stack overflow while the tree
    /// is built or dropped (the test thread has a 2 MiB stack).
    #[test]
    fn a_million_levels_is_an_error() {
        let deep = format!("{}{}", "<d>".repeat(1_000_000), "</d>".repeat(1_000_000));
        assert!(parse(&deep).is_err());
        let unclosed = "<d>".repeat(1_000_000);
        assert!(parse(&unclosed).is_err());
    }

    #[test]
    fn reader_reports_what_parse_reports_then_ends() {
        for bad in ["<a/><b/>", "<a><b></a></b>", "<a>&nope;</a>", "<a", r#"<a x="1" x="2"/>"#] {
            let mut r = Reader::new(bad);
            let err = r.by_ref().find_map(Result::err);
            assert_eq!(err, parse(bad).err(), "{bad}");
            assert_eq!(r.next(), None, "{bad}: the reader ends after an error");
        }
    }
}
