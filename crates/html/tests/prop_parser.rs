//! Property tests for the HTML parser, the text kernels and the locators.

use htmlsim::build::{el, ElementBuilder};
use htmlsim::render::unescape;
use htmlsim::{parse_document, Document, LocateError, Locator, Node};
use proptest::prelude::*;

/// The reference `unescape`: four chained replaces, `&amp;` last so an
/// escaped entity decodes once.
fn unescape_by_replace(s: &str) -> String {
    s.replace("&quot;", "\"")
        .replace("&lt;", "<")
        .replace("&gt;", ">")
        .replace("&amp;", "&")
}

/// The reference `text_content`: collect every run behind a space, split on
/// whitespace, join with single spaces.
fn text_content_by_split_join(node: &Node) -> String {
    fn collect(node: &Node, out: &mut String) {
        match node {
            Node::Text(t) => {
                out.push(' ');
                out.push_str(t);
            }
            Node::Element { children, .. } => children.iter().for_each(|c| collect(c, out)),
        }
    }
    let mut out = String::new();
    collect(node, &mut out);
    out.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// The tags the generated trees and selectors draw from.
const TAGS: [&str; 4] = ["div", "span", "a", "p"];

/// An element with tag `TAGS[tag]` carrying class `hit`, id `x`,
/// `data-i="1"` and a leading class `wide` as the bits of `attrs` say.
fn element(tag: usize, attrs: usize, children: Vec<Node>) -> Node {
    let mut b = el(TAGS[tag]);
    if attrs & 8 != 0 {
        b = b.class("wide");
    }
    if attrs & 1 != 0 {
        b = b.class("hit");
    }
    if attrs & 2 != 0 {
        b = b.id("x");
    }
    if attrs & 4 != 0 {
        b = b.attr("data-i", "1");
    }
    children.into_iter().fold(b, ElementBuilder::node).build()
}

/// Trees up to four levels deep over those four tags, with whitespace-
/// ragged text runs.
fn tree() -> BoxedStrategy<Node> {
    let leaf = prop_oneof![
        "(go|stop| |\n|\t){0,4}".prop_map(Node::text),
        (0usize..4, 0usize..16).prop_map(|(tag, attrs)| element(tag, attrs, Vec::new())),
    ];
    leaf.prop_recursive(4, 64, 4, |inner| {
        (0usize..4, 0usize..16, prop::collection::vec(inner, 0..4))
            .prop_map(|(tag, attrs, children)| element(tag, attrs, children))
    })
}

/// Every element of `node`'s subtree in document order, by plain
/// recursion.
fn preorder<'n>(node: &'n Node, out: &mut Vec<&'n Node>) {
    if let Node::Element { children, .. } = node {
        out.push(node);
        children.iter().for_each(|c| preorder(c, out));
    }
}

/// Whether `node` carries class `hit`, read off the raw attribute.
fn has_hit_class(node: &Node) -> bool {
    node.attr("class")
        .is_some_and(|c| c.split_whitespace().any(|class| class == "hit"))
}

/// One compound step of a generated CSS-lite selector: tag `TAGS[tag]`
/// (any tag past the end), the `element` attribute bits `attrs` must
/// carry, and the combinator to the next step (descendant, ` > `, `>`).
#[derive(Debug, Clone)]
struct Step {
    tag: usize,
    attrs: usize,
    combinator: usize,
}

impl Step {
    fn matches(&self, node: &Node) -> bool {
        node.tag()
            .is_some_and(|tag| TAGS.get(self.tag).is_none_or(|want| *want == tag))
            && (self.attrs & 1 == 0 || has_hit_class(node))
            && (self.attrs & 2 == 0 || node.attr("id") == Some("x"))
            && (self.attrs & 4 == 0 || node.attr("data-i") == Some("1"))
    }
}

/// Selectors of one to four steps. A third of the steps take any tag and
/// over half need no attribute, so long selectors still match often
/// enough to exercise a child step that must look past the nearest
/// ancestor matching the step below it.
fn selector() -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(
        (0usize..6, 0usize..16, 0usize..3).prop_map(|(tag, attrs, combinator)| Step {
            tag,
            attrs: attrs.saturating_sub(8),
            combinator,
        }),
        1..5,
    )
}

/// The selector text `steps` stand for.
fn css_text(steps: &[Step]) -> String {
    let mut out = String::new();
    for (i, step) in steps.iter().enumerate() {
        if i > 0 {
            out.push_str([" ", " > ", ">"][steps[i - 1].combinator]);
        }
        out.push_str(TAGS.get(step.tag).copied().unwrap_or("*"));
        for (bit, part) in [(1, ".hit"), (2, "#x"), (4, "[data-i=1]")] {
            if step.attrs & bit != 0 {
                out.push_str(part);
            }
        }
    }
    out
}

/// The reference CSS-lite matcher: left to right, trying the whole
/// selector at every element and descending per combinator; each hit is
/// listed once, in discovery order.
fn select_by_descent<'n>(node: &'n Node, steps: &[Step], out: &mut Vec<&'n Node>) {
    fn match_from<'n>(node: &'n Node, steps: &[Step], out: &mut Vec<&'n Node>) {
        let Some((first, rest)) = steps.split_first() else {
            return;
        };
        if !first.matches(node) {
            return;
        }
        if rest.is_empty() {
            if !out.iter().any(|n| std::ptr::eq(*n, node)) {
                out.push(node);
            }
        } else if first.combinator == 0 {
            node.children().iter().for_each(|c| descend(c, rest, out));
        } else {
            node.children()
                .iter()
                .for_each(|c| match_from(c, rest, out));
        }
    }
    fn descend<'n>(node: &'n Node, steps: &[Step], out: &mut Vec<&'n Node>) {
        match_from(node, steps, out);
        node.children().iter().for_each(|c| descend(c, steps, out));
    }
    descend(node, steps, out);
}

proptest! {
    /// The tolerant parser must accept anything without panicking, and any
    /// successfully parsed document must re-parse to the same tree after
    /// rendering (idempotent normalization).
    #[test]
    fn parse_render_parse_is_stable(input in "\\PC{0,300}") {
        if let Ok(doc) = parse_document(&input) {
            let rendered = htmlsim::render::render_document(&doc);
            let reparsed = parse_document(&rendered).expect("rendered html parses");
            prop_assert_eq!(doc, reparsed);
        }
    }

    /// Locators never panic, whatever the selector garbage.
    #[test]
    fn locators_never_panic(selector in "\\PC{0,40}", html in "<div id=\"x\" class=\"a b\"><p>t</p></div>") {
        let doc = parse_document(&html).expect("fixture parses");
        let _ = Locator::css(&selector).find_all(&doc);
        let _ = Locator::id(&selector).find(&doc);
        let _ = Locator::class(&selector).find_all(&doc);
        let _ = Locator::tag(&selector).find_all(&doc);
    }

    /// The one-pass `unescape` decodes exactly like the four-replace chain,
    /// on strings dense in entity fragments.
    #[test]
    fn unescape_matches_the_replace_chain(input in "(&|;|quot|lt|gt|amp|<|\"|x){0,40}") {
        prop_assert_eq!(unescape(&input), unescape_by_replace(&input));
    }

    /// The streaming `text_content` equals the collect–split–join reference
    /// at every node of a generated tree.
    #[test]
    fn text_content_matches_split_join(root in tree()) {
        let root = element(0, 0, vec![root]);
        let mut order = Vec::new();
        preorder(&root, &mut order);
        for node in order {
            prop_assert_eq!(node.text_content(), text_content_by_split_join(node));
        }
    }

    /// For every locator kind, find_all() lists exactly the elements a
    /// reference predicate or matcher picks, in document order, and find()
    /// returns the first of them (or NoSuchElement). On a flat row of
    /// `n` hits, find_all() finds all `n` and find() the first.
    #[test]
    fn find_is_first_of_find_all(root in tree(), selectors in prop::collection::vec(selector(), 6..10), n in 1usize..6) {
        let doc = Document::new(element(0, 0, vec![root]));
        let mut order = Vec::new();
        preorder(&doc.root, &mut order);
        let picked = |pred: &dyn Fn(&Node) -> bool| -> Vec<usize> {
            (0..order.len()).filter(|&i| pred(order[i])).collect()
        };
        let mut cases: Vec<(Locator, Vec<usize>)> = vec![
            (Locator::id("x"), picked(&|e| e.attr("id") == Some("x"))),
            (Locator::class("hit"), picked(&has_hit_class)),
            (Locator::tag("a"), picked(&|e| e.tag() == Some("a"))),
            (Locator::tag("SPAN"), picked(&|e| e.tag() == Some("span"))),
            (
                Locator::Attr { name: "data-i".into(), value: "1".into() },
                picked(&|e| e.attr("data-i") == Some("1")),
            ),
            (
                Locator::LinkText("go".into()),
                picked(&|e| e.tag() == Some("a") && text_content_by_split_join(e) == "go"),
            ),
            (
                Locator::PartialLinkText("go".into()),
                picked(&|e| e.tag() == Some("a") && text_content_by_split_join(e).contains("go")),
            ),
        ];
        for steps in &selectors {
            let mut hits = Vec::new();
            select_by_descent(&doc.root, steps, &mut hits);
            let in_document_order = picked(&|e| hits.iter().any(|hit| std::ptr::eq(*hit, e)));
            prop_assert_eq!(in_document_order.len(), hits.len());
            cases.push((Locator::css(&css_text(steps)), in_document_order));
        }
        for (locator, expected) in cases {
            let all = locator.find_all(&doc).expect("valid locator");
            let positions: Vec<_> = all
                .iter()
                .map(|hit| order.iter().position(|e| std::ptr::eq(*e, *hit)))
                .collect();
            let want: Vec<_> = expected.iter().copied().map(Some).collect();
            prop_assert_eq!(positions, want, "{}", locator);
            match (expected.first(), locator.find(&doc)) {
                (Some(&first), Ok(found)) => prop_assert!(std::ptr::eq(order[first], found), "{}", locator),
                (None, Err(LocateError::NoSuchElement { .. })) => {}
                (first, found) => prop_assert!(false, "{}: find_all {:?} vs find {:?}", locator, first, found),
            }
        }

        let flat = Document::new(
            el("div")
                .children((0..n).map(|i| el("span").class("hit").attr("data-i", &i.to_string())))
                .build(),
        );
        let all = Locator::class("hit").find_all(&flat).expect("ok");
        let first = Locator::class("hit").find(&flat).expect("nonempty");
        prop_assert_eq!(all.len(), n);
        prop_assert!(std::ptr::eq(all[0], first));
        prop_assert_eq!(first.attr("data-i"), Some("0"));
    }
}
