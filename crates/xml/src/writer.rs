//! Serialisation of the document model back to XML text.
//!
//! Escaped text is written straight into the output buffer: no string is
//! built per attribute or per text node.

use crate::document::{Element, Node};

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
    write_compact(el, &mut out);
    out
}

fn write_compact(el: &Element, out: &mut String) {
    push_open_tag(el, out);
    if el.is_empty() {
        out.push_str("/>");
        return;
    }
    out.push('>');
    for node in el.nodes() {
        match node {
            Node::Text(t) => push_escaped(out, t, false),
            Node::Element(c) => write_compact(c, out),
        }
    }
    out.push_str("</");
    out.push_str(el.name());
    out.push('>');
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
        write_compact(el, out);
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
