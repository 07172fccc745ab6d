//! The element tree.

use crate::atom::Atom;
use std::collections::BTreeMap;
use std::ops::ControlFlow;

/// A node in the document tree: an element or a text run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Node {
    /// An element like `<a href="...">...</a>`.
    Element {
        /// Interned lowercase tag name.
        tag: Atom,
        /// Attributes with interned lowercase keys. `class` is stored here
        /// too; [`Node::classes`] splits it on whitespace.
        attrs: BTreeMap<Atom, String>,
        /// Child nodes in document order.
        children: Vec<Node>,
    },
    /// A text run (unescaped).
    Text(String),
}

impl Node {
    /// Create a bare element.
    pub fn element(tag: &str) -> Node {
        Node::Element {
            tag: Atom::new(tag),
            attrs: BTreeMap::new(),
            children: Vec::new(),
        }
    }

    /// Create a text node.
    pub fn text(t: impl Into<String>) -> Node {
        Node::Text(t.into())
    }

    /// Tag name, or `None` for text nodes.
    pub fn tag(&self) -> Option<&str> {
        match self {
            Node::Element { tag, .. } => Some(tag.as_str()),
            Node::Text(_) => None,
        }
    }

    /// Attribute lookup (element nodes only; key is case-insensitive).
    /// Zero-allocation for already-lowercase keys — the common case — via
    /// the atom map's `Borrow<str>` lookup.
    pub fn attr(&self, key: &str) -> Option<&str> {
        let Node::Element { attrs, .. } = self else {
            return None;
        };
        if key.bytes().any(|b| b.is_ascii_uppercase()) {
            attrs
                .get(key.to_ascii_lowercase().as_str())
                .map(String::as_str)
        } else {
            attrs.get(key).map(String::as_str)
        }
    }

    /// The element's `id` attribute.
    pub fn id(&self) -> Option<&str> {
        self.attr("id")
    }

    /// Whitespace-separated class list.
    pub fn classes(&self) -> Vec<&str> {
        self.attr("class")
            .map(|c| c.split_whitespace().collect())
            .unwrap_or_default()
    }

    /// Whether the element carries class `name`.
    pub fn has_class(&self, name: &str) -> bool {
        self.attr("class")
            .is_some_and(|c| c.split_whitespace().any(|class| class == name))
    }

    /// Children slice (empty for text nodes).
    pub fn children(&self) -> &[Node] {
        match self {
            Node::Element { children, .. } => children,
            Node::Text(_) => &[],
        }
    }

    /// Concatenated text content of the subtree, with runs separated by a
    /// single space and trimmed — matches what Selenium's `.text` yields for
    /// simple markup. Words are appended straight into the result as the
    /// walk meets them.
    pub fn text_content(&self) -> String {
        let mut out = String::new();
        self.push_words(&mut out);
        out
    }

    fn push_words(&self, out: &mut String) {
        match self {
            Node::Text(t) => {
                for word in t.split_whitespace() {
                    if !out.is_empty() {
                        out.push(' ');
                    }
                    out.push_str(word);
                }
            }
            Node::Element { children, .. } => {
                for c in children {
                    c.push_words(out);
                }
            }
        }
    }

    /// Depth-first pre-order walk over all element nodes in the subtree,
    /// including `self`.
    pub fn walk_elements<'a>(&'a self, visit: &mut dyn FnMut(&'a Node)) {
        let _ = walk(self, None, &mut |node, _| {
            visit(node);
            ControlFlow::Continue(())
        });
    }

    /// Number of element nodes in the subtree (including self).
    pub fn element_count(&self) -> usize {
        let mut n = 0;
        self.walk_elements(&mut |_| n += 1);
        n
    }
}

/// The ancestors of the element being visited by [`walk`], innermost
/// first: a linked list on the walk's call stack, so a visitor can look
/// upward without parent pointers in the tree and without allocating.
pub(crate) struct Ancestors<'a, 'n> {
    pub(crate) node: &'n Node,
    pub(crate) up: Option<&'a Ancestors<'a, 'n>>,
}

/// Pre-order walk over the elements of `node`'s subtree, `node` included,
/// calling `visit` with each element and its ancestors until it breaks.
pub(crate) fn walk<'n>(
    node: &'n Node,
    up: Option<&Ancestors<'_, 'n>>,
    visit: &mut dyn FnMut(&'n Node, Option<&Ancestors<'_, 'n>>) -> ControlFlow<()>,
) -> ControlFlow<()> {
    let Node::Element { children, .. } = node else {
        return ControlFlow::Continue(());
    };
    visit(node, up)?;
    let here = Ancestors { node, up };
    for child in children {
        walk(child, Some(&here), visit)?;
    }
    ControlFlow::Continue(())
}

/// A whole page: a root element (conventionally `<html>`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Document {
    /// The root node.
    pub root: Node,
}

impl Document {
    /// Wrap a root node as a document.
    pub fn new(root: Node) -> Document {
        Document { root }
    }

    /// All element nodes in document order.
    pub fn elements(&self) -> Vec<&Node> {
        let mut out = Vec::new();
        self.root.walk_elements(&mut |n| out.push(n));
        out
    }

    /// Page title, if a `<title>` element exists.
    pub fn title(&self) -> Option<String> {
        self.elements()
            .into_iter()
            .find(|n| n.tag() == Some("title"))
            .map(|n| n.text_content())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::el;

    #[test]
    fn attr_and_classes() {
        let n = el("div")
            .attr("ID", "main")
            .attr("class", "row  wide")
            .build();
        assert_eq!(n.id(), Some("main"));
        assert_eq!(n.classes(), vec!["row", "wide"]);
        assert!(n.has_class("wide"));
        assert!(!n.has_class("narrow"));
        assert_eq!(Node::text("x").attr("id"), None);
    }

    #[test]
    fn text_content_flattens_and_normalizes() {
        let n = el("p")
            .text("Hello ")
            .child(el("b").text("brave"))
            .text("  world")
            .build();
        assert_eq!(n.text_content(), "Hello brave world");
    }

    #[test]
    fn walk_counts_elements() {
        let n = el("div")
            .child(el("ul").child(el("li")).child(el("li")))
            .build();
        assert_eq!(n.element_count(), 4);
    }

    #[test]
    fn document_title() {
        let doc = Document::new(
            el("html")
                .child(el("head").child(el("title").text("Bot List — page 3")))
                .child(el("body"))
                .build(),
        );
        assert_eq!(doc.title().as_deref(), Some("Bot List — page 3"));
        let untitled = Document::new(el("html").build());
        assert_eq!(untitled.title(), None);
    }

    #[test]
    fn elements_in_document_order() {
        let doc = Document::new(
            el("html")
                .child(
                    el("body")
                        .child(el("a").attr("id", "first"))
                        .child(el("a").attr("id", "second")),
                )
                .build(),
        );
        let ids: Vec<_> = doc.elements().iter().filter_map(|e| e.id()).collect();
        assert_eq!(ids, vec!["first", "second"]);
    }
}
