//! The document model: ordered trees of elements and text.

use std::fmt;

/// A node in an XML tree: an element or a text run.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Node {
    /// A child element.
    Element(Element),
    /// A text run (entity references already resolved).
    Text(String),
}

impl Node {
    /// The element inside this node, if it is one.
    pub fn as_element(&self) -> Option<&Element> {
        match self {
            Node::Element(e) => Some(e),
            Node::Text(_) => None,
        }
    }

    /// The text inside this node, if it is a text run.
    pub fn as_text(&self) -> Option<&str> {
        match self {
            Node::Text(t) => Some(t),
            Node::Element(_) => None,
        }
    }
}

impl From<Element> for Node {
    fn from(e: Element) -> Node {
        Node::Element(e)
    }
}

impl From<&str> for Node {
    fn from(t: &str) -> Node {
        Node::Text(t.to_string())
    }
}

impl From<String> for Node {
    fn from(t: String) -> Node {
        Node::Text(t)
    }
}

/// An XML element: a name, ordered attributes, and ordered children.
///
/// Construction uses a light builder style so event payloads read naturally:
///
/// ```
/// use gloss_xml::Element;
/// let e = Element::new("user")
///     .with_attr("id", "bob")
///     .with_child(Element::new("role").with_text("tourist"));
/// assert_eq!(e.attr("id"), Some("bob"));
/// assert_eq!(e.child("role").unwrap().text(), "tourist");
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
pub struct Element {
    name: String,
    attrs: Vec<(String, String)>,
    children: Vec<Node>,
}

impl Element {
    /// Creates an empty element with the given tag name.
    pub fn new(name: impl Into<String>) -> Self {
        Element { name: name.into(), attrs: Vec::new(), children: Vec::new() }
    }

    /// The tag name.
    pub fn name(&self) -> &str {
        &self.name
    }

    // --- attributes ---

    /// The value of attribute `key`, if present.
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs.iter().find(|(k, _)| k == key).map(|(_, v)| v.as_str())
    }

    /// All attributes in document order.
    pub fn attrs(&self) -> impl Iterator<Item = (&str, &str)> {
        self.attrs.iter().map(|(k, v)| (k.as_str(), v.as_str()))
    }

    /// Sets (or replaces) an attribute.
    pub fn set_attr(&mut self, key: impl Into<String>, value: impl Into<String>) {
        let key = key.into();
        let value = value.into();
        if let Some(slot) = self.attrs.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = value;
        } else {
            self.attrs.push((key, value));
        }
    }

    /// Builder form of [`set_attr`](Self::set_attr).
    pub fn with_attr(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.set_attr(key, value);
        self
    }

    // --- children ---

    /// All child nodes (elements and text) in document order.
    pub fn nodes(&self) -> &[Node] {
        &self.children
    }

    /// Child elements in document order.
    pub fn children(&self) -> impl Iterator<Item = &Element> {
        self.children.iter().filter_map(Node::as_element)
    }

    /// The first child element named `name`.
    pub fn child(&self, name: &str) -> Option<&Element> {
        self.children().find(|c| c.name == name)
    }

    /// All child elements named `name`.
    pub fn children_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Element> {
        self.children().filter(move |c| c.name == name)
    }

    /// Whether the element has no children at all.
    pub fn is_empty(&self) -> bool {
        self.children.is_empty()
    }

    /// Appends a child node.
    pub fn push(&mut self, node: impl Into<Node>) {
        self.children.push(node.into());
    }

    /// Builder form of [`push`](Self::push) for elements.
    pub fn with_child(mut self, child: Element) -> Self {
        self.children.push(Node::Element(child));
        self
    }

    /// Builder: appends a text child.
    pub fn with_text(mut self, text: impl Into<String>) -> Self {
        self.children.push(Node::Text(text.into()));
        self
    }

    /// The concatenation of all *direct* text children.
    pub fn text(&self) -> String {
        let mut out = String::new();
        for n in &self.children {
            if let Node::Text(t) = n {
                out.push_str(t);
            }
        }
        out
    }

    /// Depth-first iterator over all descendant elements (excluding self).
    pub fn descendants(&self) -> Descendants<'_> {
        Descendants { stack: self.children().collect::<Vec<_>>() }
    }
}

/// Iterator produced by [`Element::descendants`].
#[derive(Debug)]
pub struct Descendants<'a> {
    stack: Vec<&'a Element>,
}

impl<'a> Iterator for Descendants<'a> {
    type Item = &'a Element;
    fn next(&mut self) -> Option<&'a Element> {
        let next = self.stack.pop()?;
        self.stack.extend(next.children());
        Some(next)
    }
}

impl fmt::Display for Element {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&crate::writer::to_xml(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Element {
        Element::new("event")
            .with_attr("kind", "location")
            .with_child(Element::new("user").with_attr("id", "bob"))
            .with_child(
                Element::new("pos")
                    .with_attr("lat", "56.34")
                    .with_child(Element::new("src").with_text("gps")),
            )
            .with_text("tail")
    }

    #[test]
    fn attribute_access_and_replacement() {
        let mut e = sample();
        assert_eq!(e.attr("kind"), Some("location"));
        assert_eq!(e.attr("missing"), None);
        e.set_attr("kind", "updated");
        assert_eq!(e.attr("kind"), Some("updated"));
        assert_eq!(e.attrs().count(), 1);
    }

    #[test]
    fn child_navigation() {
        let e = sample();
        assert_eq!(e.child("user").unwrap().attr("id"), Some("bob"));
        assert!(e.child("nope").is_none());
        assert_eq!(e.children().count(), 2);
        assert_eq!(e.children_named("pos").count(), 1);
    }

    #[test]
    fn text_direct_vs_deep() {
        let e = sample();
        assert_eq!(e.text(), "tail");
    }

    #[test]
    fn descendants_covers_subtree() {
        let e = sample();
        let names: Vec<&str> = e.descendants().map(|d| d.name()).collect();
        assert_eq!(names.len(), 3);
        assert!(names.contains(&"user"));
        assert!(names.contains(&"pos"));
        assert!(names.contains(&"src"));
    }

    #[test]
    fn node_conversions() {
        let n: Node = Element::new("x").into();
        assert!(n.as_element().is_some());
        assert!(n.as_text().is_none());
        let t: Node = "hello".into();
        assert_eq!(t.as_text(), Some("hello"));
    }

    #[test]
    fn push_and_mutate() {
        let mut e = Element::new("list");
        e.push(Element::new("item"));
        e.push("text");
        assert_eq!(e.nodes().len(), 2);
        assert!(!e.is_empty());
    }
}
