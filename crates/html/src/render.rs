//! Serialization: the tree → HTML text that travels over the fabric.

use crate::node::{Document, Node};

/// Tags serialized without a closing tag (HTML "void elements").
const VOID_TAGS: &[&str] = &["br", "hr", "img", "input", "link", "meta"];

/// Render a document to an HTML string with a doctype line.
pub fn render_document(doc: &Document) -> String {
    let mut out = String::from("<!DOCTYPE html>");
    render_node(&doc.root, &mut out);
    out
}

/// Render a single node (and subtree) to HTML. Text and attribute values
/// are escaped straight into `out`.
pub fn render_node(node: &Node, out: &mut String) {
    match node {
        Node::Text(t) => push_escaped(out, t, false),
        Node::Element {
            tag,
            attrs,
            children,
        } => {
            out.push('<');
            out.push_str(tag);
            for (k, v) in attrs {
                out.push(' ');
                out.push_str(k);
                out.push_str("=\"");
                push_escaped(out, v, true);
                out.push('"');
            }
            out.push('>');
            if VOID_TAGS.contains(&tag.as_str()) {
                return;
            }
            for c in children {
                render_node(c, out);
            }
            out.push_str("</");
            out.push_str(tag);
            out.push('>');
        }
    }
}

/// Render a node to a fresh string.
pub fn render_to_string(node: &Node) -> String {
    let mut s = String::new();
    render_node(node, &mut s);
    s
}

/// Append `s` to `out` with `&`, `<` and `>` escaped, and `"` too when
/// `attr` is set. The specials are ASCII, so a byte scan copies every run
/// between them in one `push_str`.
fn push_escaped(out: &mut String, s: &str, attr: bool) {
    let mut start = 0;
    for (i, b) in s.bytes().enumerate() {
        let entity = match b {
            b'&' => "&amp;",
            b'<' => "&lt;",
            b'>' => "&gt;",
            b'"' if attr => "&quot;",
            _ => continue,
        };
        out.push_str(&s[start..i]);
        out.push_str(entity);
        start = i + 1;
    }
    out.push_str(&s[start..]);
}

/// The entities this crate emits, with the character each decodes to.
const ENTITIES: [(&str, char); 4] = [
    ("&quot;", '"'),
    ("&lt;", '<'),
    ("&gt;", '>'),
    ("&amp;", '&'),
];

/// Unescape the entities this crate emits (used by the parser). One
/// left-to-right pass: every `&` either starts `&quot;`, `&lt;`, `&gt;`
/// or `&amp;` and decodes, or passes through; decoded output is never
/// rescanned, so `&amp;lt;` yields `&lt;`. Input without `&` is copied
/// once.
pub fn unescape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(amp) = rest.find('&') {
        out.push_str(&rest[..amp]);
        rest = &rest[amp..];
        let (ch, len) = ENTITIES
            .iter()
            .find(|(entity, _)| rest.starts_with(entity))
            .map_or(('&', 1), |&(entity, ch)| (ch, entity.len()));
        out.push(ch);
        rest = &rest[len..];
    }
    out.push_str(rest);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::el;

    #[test]
    fn renders_simple_page() {
        let doc = Document::new(
            el("html")
                .child(el("body").child(el("p").id("x").text("hi")))
                .build(),
        );
        assert_eq!(
            render_document(&doc),
            "<!DOCTYPE html><html><body><p id=\"x\">hi</p></body></html>"
        );
    }

    #[test]
    fn escapes_text_and_attrs() {
        let n = el("a")
            .attr("title", "a \"b\" <c>")
            .text("x < y & z")
            .build();
        let html = render_to_string(&n);
        assert!(html.contains("a &quot;b&quot; &lt;c&gt;"));
        assert!(html.contains("x &lt; y &amp; z"));
    }

    #[test]
    fn void_tags_have_no_close() {
        let n = el("div")
            .child(el("br"))
            .child(el("img").attr("src", "/x.png"))
            .build();
        let html = render_to_string(&n);
        assert!(html.contains("<br>"));
        assert!(!html.contains("</br>"));
        assert!(!html.contains("</img>"));
    }

    #[test]
    fn unescape_decodes_each_entity_once() {
        assert_eq!(unescape("&amp;lt; &lt;&gt; &quot;&amp;"), "&lt; <> \"&");
        assert_eq!(unescape("& &am; &amp"), "& &am; &amp");
        assert_eq!(unescape("no entities"), "no entities");
    }

    #[test]
    fn unescape_inverts_escape() {
        for (original, attr) in [("a<b>&\"quoted\" & more", true), ("1 < 2 && 3 > 2", false)] {
            let mut escaped = String::new();
            push_escaped(&mut escaped, original, attr);
            assert_eq!(unescape(&escaped), original);
        }
    }
}
