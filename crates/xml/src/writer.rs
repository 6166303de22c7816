//! Serialisation back to XML text.
//!
//! [`XmlWriter`] streams elements into a caller's buffer as they are
//! opened: escaped text is written straight into the output, and no
//! string is built per element, attribute or text node. The document
//! model's compact form ([`Element::to_xml`]) is written through it, so
//! a producer that streams the same elements writes the same bytes
//! without building a tree.

use crate::document::{Element, Node};
use std::fmt::{self, Display, Write};

/// Appends `s` to `out` with `&`, `<` and `>` escaped, and `"` too when
/// `s` is an attribute value.
fn push_escaped(out: &mut String, s: &str, attribute: bool) {
    let mut run = 0;
    for (i, b) in s.bytes().enumerate() {
        let entity = match b {
            b'&' => "&amp;",
            b'<' => "&lt;",
            b'>' => "&gt;",
            b'"' if attribute => "&quot;",
            _ => continue,
        };
        out.push_str(&s[run..i]);
        out.push_str(entity);
        run = i + 1;
    }
    out.push_str(&s[run..]);
}

/// A [`fmt::Write`] sink that escapes what it is given into a buffer.
struct Escaped<'a> {
    out: &'a mut String,
    attribute: bool,
}

impl Write for Escaped<'_> {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        push_escaped(self.out, s, self.attribute);
        Ok(())
    }
}

/// A streaming XML writer over a caller's `String`: elements are written
/// as they are [`start`](Self::start)ed, attributes and text escaped as
/// [`Element::to_xml`] escapes them, so a producer that emits an
/// element's attributes, then its children, then its
/// [`end`](Self::end), writes the bytes `to_xml` writes for that element.
/// An element closed with nothing written inside it self-closes (`<e/>`);
/// one holding text, even empty text, does not (`<e></e>`), as in the
/// document model. The writer keeps no stack: `end` is given the name.
///
/// ```
/// use gloss_xml::{Element, XmlWriter};
/// let mut out = String::new();
/// let mut w = XmlWriter::new(&mut out);
/// w.start("a");
/// w.attr("q", "x<y");
/// w.attr_display("n", 7);
/// w.start("b");
/// w.end("b");
/// w.text("&");
/// w.end("a");
/// let tree = Element::new("a")
///     .with_attr("q", "x<y")
///     .with_attr("n", "7")
///     .with_child(Element::new("b"))
///     .with_text("&");
/// assert_eq!(out, tree.to_xml());
/// ```
#[derive(Debug)]
pub struct XmlWriter<'a> {
    out: &'a mut String,
    /// Whether the last start tag still lacks its `>` (nothing has been
    /// written inside its element yet).
    open: bool,
}

impl<'a> XmlWriter<'a> {
    /// A writer appending to `out`.
    pub fn new(out: &'a mut String) -> Self {
        XmlWriter { out, open: false }
    }

    /// Closes a start tag left open, before content is written after it.
    fn content(&mut self) {
        if self.open {
            self.out.push('>');
            self.open = false;
        }
    }

    /// Opens element `name` (inside the one currently open, if any).
    pub fn start(&mut self, name: &str) {
        self.content();
        self.out.push('<');
        self.out.push_str(name);
        self.open = true;
    }

    /// Writes attribute `key` of the element just started.
    pub fn attr(&mut self, key: &str, value: &str) {
        self.attr_start(key);
        push_escaped(self.out, value, true);
        self.out.push('"');
    }

    /// [`attr`](Self::attr) with the value's `Display` form, written
    /// escaped with no string built for it.
    pub fn attr_display(&mut self, key: &str, value: impl Display) {
        self.attr_start(key);
        write!(Escaped { out: self.out, attribute: true }, "{value}")
            .expect("writing to a String cannot fail");
        self.out.push('"');
    }

    fn attr_start(&mut self, key: &str) {
        debug_assert!(self.open, "attribute {key} written after the start tag closed");
        self.out.push(' ');
        self.out.push_str(key);
        self.out.push_str("=\"");
    }

    /// Writes a text run inside the open element.
    pub fn text(&mut self, text: &str) {
        self.content();
        push_escaped(self.out, text, false);
    }

    /// [`text`](Self::text) with the value's `Display` form.
    pub fn text_display(&mut self, text: impl Display) {
        self.content();
        write!(Escaped { out: self.out, attribute: false }, "{text}")
            .expect("writing to a String cannot fail");
    }

    /// Closes element `name`, the innermost one open.
    pub fn end(&mut self, name: &str) {
        if self.open {
            self.out.push_str("/>");
            self.open = false;
        } else {
            self.out.push_str("</");
            self.out.push_str(name);
            self.out.push('>');
        }
    }
}

/// Appends `<name` and the attributes, leaving the tag open.
fn push_open_tag(el: &Element, out: &mut String) {
    out.push('<');
    out.push_str(el.name());
    for (k, v) in el.attrs() {
        out.push(' ');
        out.push_str(k);
        out.push_str("=\"");
        push_escaped(out, v, true);
        out.push('"');
    }
}

/// Serialises an element compactly (no added whitespace); the output parses
/// back to an equal tree.
pub fn to_xml(el: &Element) -> String {
    let mut out = String::new();
    write_element(el, &mut XmlWriter::new(&mut out));
    out
}

/// Streams `el` and everything under it through `w`.
fn write_element(el: &Element, w: &mut XmlWriter<'_>) {
    w.start(el.name());
    for (k, v) in el.attrs() {
        w.attr(k, v);
    }
    for node in el.nodes() {
        match node {
            Node::Text(t) => w.text(t),
            Node::Element(c) => write_element(c, w),
        }
    }
    w.end(el.name());
}

/// Serialises with two-space indentation for human reading.
///
/// Elements whose children are exclusively text stay on one line; mixed
/// content is emitted compactly to avoid changing its meaning.
pub fn to_pretty_xml(el: &Element) -> String {
    let mut out = String::new();
    write_pretty(el, 0, &mut out);
    out.push('\n');
    out
}

fn has_element_children(el: &Element) -> bool {
    el.children().next().is_some()
}

fn has_text_children(el: &Element) -> bool {
    el.nodes().iter().any(|n| matches!(n, Node::Text(t) if !t.trim().is_empty()))
}

fn write_pretty(el: &Element, depth: usize, out: &mut String) {
    let indent = "  ".repeat(depth);
    out.push_str(&indent);
    if has_element_children(el) && has_text_children(el) {
        // Mixed content: whitespace is significant, emit compactly.
        write_element(el, &mut XmlWriter::new(out));
        return;
    }
    push_open_tag(el, out);
    if el.is_empty() {
        out.push_str("/>");
    } else if !has_element_children(el) {
        out.push('>');
        for t in el.nodes().iter().filter_map(Node::as_text) {
            push_escaped(out, t, false);
        }
        out.push_str("</");
        out.push_str(el.name());
        out.push('>');
    } else {
        out.push_str(">\n");
        for child in el.children() {
            write_pretty(child, depth + 1, out);
            out.push('\n');
        }
        out.push_str(&indent);
        out.push_str("</");
        out.push_str(el.name());
        out.push('>');
    }
}

impl Element {
    /// Compact XML serialisation. Round-trips through [`crate::parse`].
    pub fn to_xml(&self) -> String {
        to_xml(self)
    }

    /// Indented XML serialisation for logs and documentation.
    pub fn to_pretty_xml(&self) -> String {
        to_pretty_xml(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;

    #[test]
    fn compact_round_trip() {
        let src = r#"<a x="1"><b>hi &amp; bye</b><c/></a>"#;
        let e = parse(src).unwrap();
        assert_eq!(parse(&e.to_xml()).unwrap(), e);
    }

    #[test]
    fn escaping_in_text_and_attrs() {
        let e = Element::new("a").with_attr("v", "a\"<>&b").with_text("<&>");
        let s = e.to_xml();
        assert_eq!(s, r#"<a v="a&quot;&lt;&gt;&amp;b">&lt;&amp;&gt;</a>"#);
        assert_eq!(parse(&s).unwrap(), e);
    }

    /// Pins the bytes of both forms: every escaped character at the start,
    /// middle and end of a run, next to multi-byte text, in attributes and
    /// text; `'` and a text `"` are left alone.
    #[test]
    fn escaped_output_is_pinned_byte_for_byte() {
        let e = Element::new("k")
            .with_attr("a", "&x\"é<>")
            .with_attr("b", "plain 'q'")
            .with_child(Element::new("v").with_text(">日&\"'").with_text("<"))
            .with_child(Element::new("w").with_attr("c", ""))
            .with_text("&amp;");
        assert_eq!(
            e.to_xml(),
            r#"<k a="&amp;x&quot;é&lt;&gt;" b="plain 'q'"><v>&gt;日&amp;"'&lt;</v><w c=""/>&amp;amp;</k>"#
        );
        let plain = Element::new("k")
            .with_attr("a", "&x\"é<>")
            .with_child(Element::new("v").with_text(">日&\"'").with_text("<"))
            .with_child(Element::new("w").with_attr("c", ""));
        assert_eq!(
            plain.to_pretty_xml(),
            "<k a=\"&amp;x&quot;é&lt;&gt;\">\n  <v>&gt;日&amp;\"'&lt;</v>\n  <w c=\"\"/>\n</k>\n"
        );
    }

    /// The streaming writer against the tree writer: self-closing, empty
    /// text (which does not self-close), `Display` values escaped like
    /// strings, siblings after a self-closed child, and a buffer that
    /// already holds text (appended to, not replaced).
    #[test]
    fn streamed_elements_write_what_the_tree_writes() {
        let tree = Element::new("r")
            .with_attr("s", "a\"b&")
            .with_attr("n", "-0.5")
            .with_child(Element::new("e"))
            .with_child(Element::new("t").with_text(""))
            .with_child(Element::new("d").with_attr("x", "<1>").with_text("1 < 2"))
            .with_text("tail>");
        let mut out = String::from("head");
        let mut w = XmlWriter::new(&mut out);
        w.start("r");
        w.attr("s", "a\"b&");
        w.attr_display("n", -0.5);
        w.start("e");
        w.end("e");
        w.start("t");
        w.text("");
        w.end("t");
        w.start("d");
        w.attr_display("x", format_args!("<{}>", 1));
        w.text_display(format_args!("{} < {}", 1, 2));
        w.end("d");
        w.text("tail>");
        w.end("r");
        assert_eq!(out, format!("head{}", tree.to_xml()));
        assert_eq!(
            &out[4..],
            r#"<r s="a&quot;b&amp;" n="-0.5"><e/><t></t><d x="&lt;1&gt;">1 &lt; 2</d>tail&gt;</r>"#
        );
    }

    #[test]
    fn empty_element_self_closes() {
        assert_eq!(Element::new("e").to_xml(), "<e/>");
    }

    #[test]
    fn pretty_indents_nested_elements() {
        let e = Element::new("a")
            .with_child(Element::new("b").with_text("x"))
            .with_child(Element::new("c"));
        let s = e.to_pretty_xml();
        assert!(s.contains("\n  <b>x</b>\n"), "{s}");
        assert!(s.contains("\n  <c/>\n"), "{s}");
    }

    #[test]
    fn pretty_preserves_mixed_content_semantics() {
        let e = parse("<a>pre<b/>post</a>").unwrap();
        let pretty = e.to_pretty_xml();
        assert_eq!(parse(pretty.trim()).unwrap(), e);
    }

    #[test]
    fn pretty_round_trips_ignoring_layout() {
        let e = Element::new("root").with_child(
            Element::new("user")
                .with_attr("id", "bob")
                .with_child(Element::new("likes").with_text("ice cream")),
        );
        let reparsed = parse(e.to_pretty_xml().trim()).unwrap();
        // Text content of leaves survives; structural whitespace differs.
        assert_eq!(reparsed.child("user").unwrap().child("likes").unwrap().text(), "ice cream");
    }
}
