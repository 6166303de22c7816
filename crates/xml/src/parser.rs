//! A hand-written parser for the XML subset used by the architecture.
//!
//! Supported: elements, attributes (single- or double-quoted), text,
//! comments, CDATA sections, the five named entities (`&lt; &gt; &amp;
//! &quot; &apos;`) and numeric character references (`&#nn;`, `&#xhh;`),
//! and an optional leading `<?xml ...?>` declaration. Not supported (and
//! not needed by the architecture): DTDs, namespaces-as-semantics
//! (prefixed names are treated as opaque), and processing instructions
//! other than the declaration.

use crate::document::{Document, Element, Node};
use std::error::Error;
use std::fmt;

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
    parse_document(input).map(|d| d.root)
}

/// Parses a complete document.
///
/// # Errors
///
/// Returns [`ParseError`] on malformed input or trailing content.
pub fn parse_document(input: &str) -> Result<Document, ParseError> {
    let mut p = Parser::new(input);
    p.skip_ws_and_comments()?;
    let has_declaration = p.try_declaration()?;
    p.skip_ws_and_comments()?;
    let root = p.element()?;
    p.skip_ws_and_comments()?;
    if !p.at_end() {
        return Err(p.err("trailing content after root element"));
    }
    Ok(Document { has_declaration, root })
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser { bytes: input.as_bytes(), pos: 0 }
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        let mut line = 1;
        let mut col = 1;
        for &b in &self.bytes[..self.pos.min(self.bytes.len())] {
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
        self.pos >= self.bytes.len()
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        Some(b)
    }

    fn starts_with(&self, s: &str) -> bool {
        self.bytes[self.pos..].starts_with(s.as_bytes())
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
        while !self.at_end() {
            if self.eat("-->") {
                return Ok(());
            }
            self.pos += 1;
        }
        Err(self.err("unterminated comment"))
    }

    fn try_declaration(&mut self) -> Result<bool, ParseError> {
        if !self.starts_with("<?xml") {
            return Ok(false);
        }
        while !self.at_end() {
            if self.eat("?>") {
                return Ok(true);
            }
            self.pos += 1;
        }
        Err(self.err("unterminated xml declaration"))
    }

    fn is_name_start(b: u8) -> bool {
        b.is_ascii_alphabetic() || b == b'_' || b == b':'
    }

    fn is_name_char(b: u8) -> bool {
        b.is_ascii_alphanumeric() || matches!(b, b'_' | b':' | b'-' | b'.')
    }

    /// Scans a name, returned as a slice of the input.
    fn name(&mut self) -> Result<&'a str, ParseError> {
        let start = self.pos;
        match self.peek() {
            Some(b) if Self::is_name_start(b) => {
                self.pos += 1;
            }
            _ => return Err(self.err("expected name")),
        }
        while matches!(self.peek(), Some(b) if Self::is_name_char(b)) {
            self.pos += 1;
        }
        Ok(std::str::from_utf8(&self.bytes[start..self.pos]).expect("name chars are ascii"))
    }

    fn entity(&mut self) -> Result<char, ParseError> {
        // Caller consumed '&'.
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b == b';' {
                let body = std::str::from_utf8(&self.bytes[start..self.pos])
                    .map_err(|_| self.err("non-utf8 entity"))?;
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

    fn attr_value(&mut self) -> Result<String, ParseError> {
        let quote = match self.bump() {
            Some(q @ (b'"' | b'\'')) => q,
            _ => return Err(self.err("expected quoted attribute value")),
        };
        let mut out = String::new();
        loop {
            match self.bump() {
                None => return Err(self.err("unterminated attribute value")),
                Some(b) if b == quote => return Ok(out),
                Some(b'&') => out.push(self.entity()?),
                Some(b'<') => return Err(self.err("`<` in attribute value")),
                Some(b) => {
                    // Collect full UTF-8 sequences.
                    let len = utf8_len(b);
                    let start = self.pos - 1;
                    for _ in 1..len {
                        self.bump().ok_or_else(|| self.err("truncated utf-8"))?;
                    }
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    out.push_str(s);
                }
            }
        }
    }

    fn element(&mut self) -> Result<Element, ParseError> {
        self.expect("<")?;
        let name = self.name()?;
        let mut el = Element::new(name);
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'/') => {
                    self.expect("/>")?;
                    return Ok(el);
                }
                Some(b'>') => {
                    self.pos += 1;
                    break;
                }
                Some(b) if Self::is_name_start(b) => {
                    let key = self.name()?;
                    self.skip_ws();
                    self.expect("=")?;
                    self.skip_ws();
                    let value = self.attr_value()?;
                    if el.attr(key).is_some() {
                        return Err(self.err(format!("duplicate attribute `{key}`")));
                    }
                    el.set_attr(key, value);
                }
                _ => return Err(self.err("malformed start tag")),
            }
        }
        // Content until matching close tag.
        loop {
            if self.starts_with("</") {
                self.expect("</")?;
                let close = self.name()?;
                if close != name {
                    return Err(
                        self.err(format!("mismatched close tag `{close}`, open was `{name}`"))
                    );
                }
                self.skip_ws();
                self.expect(">")?;
                return Ok(el);
            } else if self.starts_with("<!--") {
                self.comment()?;
            } else if self.starts_with("<![CDATA[") {
                self.pos += "<![CDATA[".len();
                let start = self.pos;
                loop {
                    if self.starts_with("]]>") {
                        let text = std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| self.err("invalid utf-8 in CDATA"))?;
                        el.push(Node::Text(text.to_string()));
                        self.pos += 3;
                        break;
                    }
                    if self.bump().is_none() {
                        return Err(self.err("unterminated CDATA section"));
                    }
                }
            } else if self.starts_with("<") {
                let child = self.element()?;
                el.push(Node::Element(child));
            } else if self.at_end() {
                return Err(self.err(format!("unexpected end of input inside `{name}`")));
            } else {
                let text = self.text()?;
                if !text.is_empty() {
                    el.push(Node::Text(text));
                }
            }
        }
    }

    fn text(&mut self) -> Result<String, ParseError> {
        let mut out = String::new();
        loop {
            match self.peek() {
                None | Some(b'<') => break,
                Some(b'&') => {
                    self.pos += 1;
                    out.push(self.entity()?);
                }
                Some(b) => {
                    let len = utf8_len(b);
                    let start = self.pos;
                    for _ in 0..len {
                        self.bump().ok_or_else(|| self.err("truncated utf-8"))?;
                    }
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    out.push_str(s);
                }
            }
        }
        Ok(out)
    }
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7f => 1,
        0xc0..=0xdf => 2,
        0xe0..=0xef => 3,
        _ => 4,
    }
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
        let d = parse_document("<?xml version=\"1.0\" encoding=\"UTF-8\"?><a/>").unwrap();
        assert!(d.has_declaration);
        assert_eq!(d.root.name(), "a");
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
}
