//! Element locators, modeled on Selenium's locator strategies.
//!
//! The crawler uses these to pull attributes out of pages; when a page
//! variant doesn't contain the element, [`Locator::find`] returns
//! [`LocateError::NoSuchElement`] — the simulation's analogue of Selenium's
//! `NoSuchElementException` the paper explicitly handles.

use crate::node::{walk, Ancestors, Document, Node};
use std::fmt;
use std::ops::ControlFlow;

/// Failure to locate an element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LocateError {
    /// No element matched the locator (cf. `NoSuchElementException`).
    NoSuchElement {
        /// String form of the locator that failed.
        locator: String,
    },
    /// The locator itself is invalid (bad CSS-lite syntax).
    InvalidLocator {
        /// What was wrong.
        reason: String,
    },
}

impl fmt::Display for LocateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LocateError::NoSuchElement { locator } => {
                write!(f, "no such element: {locator}")
            }
            LocateError::InvalidLocator { reason } => write!(f, "invalid locator: {reason}"),
        }
    }
}

impl std::error::Error for LocateError {}

/// A locator strategy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Locator {
    /// By `id` attribute.
    Id(String),
    /// By a single class name.
    ClassName(String),
    /// By tag name.
    TagName(String),
    /// By exact attribute value.
    Attr {
        /// Attribute name.
        name: String,
        /// Required value.
        value: String,
    },
    /// `<a>` whose normalized text equals this string.
    LinkText(String),
    /// `<a>` whose normalized text contains this string.
    PartialLinkText(String),
    /// CSS-lite selector: compound steps `tag.class#id[attr=value]`,
    /// combined with descendant (space) or child (`>`) combinators.
    Css(String),
}

impl fmt::Display for Locator {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Locator::Id(v) => write!(f, "id={v}"),
            Locator::ClassName(v) => write!(f, "class={v}"),
            Locator::TagName(v) => write!(f, "tag={v}"),
            Locator::Attr { name, value } => write!(f, "[{name}={value}]"),
            Locator::LinkText(v) => write!(f, "link-text={v:?}"),
            Locator::PartialLinkText(v) => write!(f, "partial-link-text={v:?}"),
            Locator::Css(v) => write!(f, "css={v}"),
        }
    }
}

/// One compound step of a CSS-lite selector.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct CssStep {
    tag: Option<String>,
    id: Option<String>,
    classes: Vec<String>,
    attrs: Vec<(String, Option<String>)>,
    /// Whether the *next* step must be a direct child.
    child_combinator: bool,
}

impl CssStep {
    fn matches(&self, node: &Node) -> bool {
        let Some(tag) = node.tag() else { return false };
        if let Some(want) = &self.tag {
            if want != tag {
                return false;
            }
        }
        if let Some(want) = &self.id {
            if node.id() != Some(want.as_str()) {
                return false;
            }
        }
        for class in &self.classes {
            if !node.has_class(class) {
                return false;
            }
        }
        for (name, value) in &self.attrs {
            match (node.attr(name), value) {
                (Some(actual), Some(want)) if actual == want => {}
                (Some(_), None) => {}
                _ => return false,
            }
        }
        true
    }
}

fn parse_css(selector: &str) -> Result<Vec<CssStep>, LocateError> {
    let invalid = |reason: String| LocateError::InvalidLocator {
        reason: format!("{reason} in {selector:?}"),
    };
    let mut steps: Vec<CssStep> = Vec::new();
    for token in selector.split_whitespace() {
        if token == ">" {
            if let Some(last) = steps.last_mut() {
                last.child_combinator = true;
                continue;
            }
            return Err(invalid("leading '>'".into()));
        }
        // Inline `a>b` form: split on '>' inside the token.
        let parts: Vec<&str> = token.split('>').collect();
        if parts.len() > 1 {
            for (i, part) in parts.iter().enumerate() {
                if part.is_empty() {
                    return Err(invalid("empty step around '>'".into()));
                }
                let mut s = parse_compound(part).map_err(invalid)?;
                if i < parts.len() - 1 {
                    s.child_combinator = true;
                }
                steps.push(s);
            }
            continue;
        }
        steps.push(parse_compound(token).map_err(invalid)?);
    }
    if steps.is_empty() {
        return Err(invalid("empty selector".into()));
    }
    Ok(steps)
}

fn parse_compound(token: &str) -> Result<CssStep, String> {
    let mut step = CssStep::default();
    let bytes = token.as_bytes();
    let mut i = 0;
    // Leading tag name.
    let start = i;
    while i < bytes.len() && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'-') {
        i += 1;
    }
    if i > start {
        step.tag = Some(token[start..i].to_ascii_lowercase());
    } else if i < bytes.len() && bytes[i] == b'*' {
        i += 1;
    }
    while i < bytes.len() {
        match bytes[i] {
            b'.' => {
                i += 1;
                let start = i;
                while i < bytes.len()
                    && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'-' || bytes[i] == b'_')
                {
                    i += 1;
                }
                if i == start {
                    return Err("empty class".into());
                }
                step.classes.push(token[start..i].to_string());
            }
            b'#' => {
                i += 1;
                let start = i;
                while i < bytes.len()
                    && (bytes[i].is_ascii_alphanumeric() || bytes[i] == b'-' || bytes[i] == b'_')
                {
                    i += 1;
                }
                if i == start {
                    return Err("empty id".into());
                }
                step.id = Some(token[start..i].to_string());
            }
            b'[' => {
                let close = token[i..].find(']').ok_or("unclosed '['")? + i;
                let body = &token[i + 1..close];
                match body.split_once('=') {
                    Some((k, v)) => step.attrs.push((
                        k.to_ascii_lowercase(),
                        Some(v.trim_matches('"').to_string()),
                    )),
                    None => step.attrs.push((body.to_ascii_lowercase(), None)),
                }
                i = close + 1;
            }
            _ => return Err(format!("unexpected character {:?}", bytes[i] as char)),
        }
    }
    Ok(step)
}

impl Locator {
    /// Shorthand constructors.
    pub fn id(v: &str) -> Locator {
        Locator::Id(v.to_string())
    }
    /// Locate by class name.
    pub fn class(v: &str) -> Locator {
        Locator::ClassName(v.to_string())
    }
    /// Locate by tag name.
    pub fn tag(v: &str) -> Locator {
        Locator::TagName(v.to_string())
    }
    /// Locate by CSS-lite selector.
    pub fn css(v: &str) -> Locator {
        Locator::Css(v.to_string())
    }

    /// All matching elements in document order.
    pub fn find_all<'n>(&self, doc: &'n Document) -> Result<Vec<&'n Node>, LocateError> {
        let mut hits = Vec::new();
        self.scan(doc, &mut |node| {
            hits.push(node);
            ControlFlow::Continue(())
        })?;
        Ok(hits)
    }

    /// First matching element in document order, or `NoSuchElement`. The
    /// walk stops at that element.
    pub fn find<'n>(&self, doc: &'n Document) -> Result<&'n Node, LocateError> {
        let mut first = None;
        self.scan(doc, &mut |node| {
            first = Some(node);
            ControlFlow::Break(())
        })?;
        first.ok_or_else(|| LocateError::NoSuchElement {
            locator: self.to_string(),
        })
    }

    /// Walk the document in pre-order, handing every matching element to
    /// `hit` until it breaks.
    fn scan<'n>(
        &self,
        doc: &'n Document,
        hit: &mut dyn FnMut(&'n Node) -> ControlFlow<()>,
    ) -> Result<(), LocateError> {
        let steps = match self {
            Locator::Css(selector) => parse_css(selector)?,
            _ => Vec::new(),
        };
        let _ = walk(&doc.root, None, &mut |node, up| {
            if self.matches(node, &steps, up) {
                hit(node)
            } else {
                ControlFlow::Continue(())
            }
        });
        Ok(())
    }

    /// Whether `node`, below the ancestors `up`, matches; `steps` is the
    /// parsed selector of a [`Locator::Css`].
    fn matches(&self, node: &Node, steps: &[CssStep], up: Option<&Ancestors<'_, '_>>) -> bool {
        match self {
            Locator::Id(id) => node.id() == Some(id.as_str()),
            Locator::ClassName(c) => node.has_class(c),
            // Stored tags are lowercase; a case-insensitive compare avoids
            // lowercasing the query per call.
            Locator::TagName(t) => node.tag().is_some_and(|tag| tag.eq_ignore_ascii_case(t)),
            Locator::Attr { name, value } => node.attr(name) == Some(value.as_str()),
            Locator::LinkText(text) => node.tag() == Some("a") && node.text_content() == *text,
            Locator::PartialLinkText(text) => {
                node.tag() == Some("a") && node.text_content().contains(text.as_str())
            }
            Locator::Css(_) => steps
                .split_last()
                .is_some_and(|(last, rest)| last.matches(node) && ancestors_match(rest, up)),
        }
    }
}

/// Right-to-left CSS-lite matching: whether the ancestor chain `up` holds
/// `steps`, given that the step after them already matched the element
/// just below `up`. A step with a child combinator must match the parent;
/// otherwise any ancestor will do, backtracking over which one.
fn ancestors_match(steps: &[CssStep], up: Option<&Ancestors<'_, '_>>) -> bool {
    let Some((last, rest)) = steps.split_last() else {
        return true;
    };
    if last.child_combinator {
        return up
            .is_some_and(|parent| last.matches(parent.node) && ancestors_match(rest, parent.up));
    }
    let mut up = up;
    while let Some(ancestor) = up {
        if last.matches(ancestor.node) && ancestors_match(rest, ancestor.up) {
            return true;
        }
        up = ancestor.up;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::el;

    fn sample() -> Document {
        Document::new(
            el("html")
                .child(
                    el("body").child(
                        el("div")
                            .id("list")
                            .class("bots")
                            .child(
                                el("div")
                                    .class("bot-card")
                                    .attr("data-bot-id", "1")
                                    .child(el("a").attr("href", "/bot/1").text("FunBot"))
                                    .child(el("span").class("votes").text("876000")),
                            )
                            .child(
                                el("div")
                                    .class("bot-card")
                                    .class("promoted")
                                    .attr("data-bot-id", "2")
                                    .child(el("a").attr("href", "/bot/2").text("ModBot Deluxe"))
                                    .child(el("span").class("votes").text("6")),
                            ),
                    ),
                )
                .build(),
        )
    }

    #[test]
    fn by_id() {
        let doc = sample();
        let n = Locator::id("list").find(&doc).unwrap();
        assert!(n.has_class("bots"));
        assert!(matches!(
            Locator::id("missing").find(&doc),
            Err(LocateError::NoSuchElement { .. })
        ));
    }

    #[test]
    fn by_class_and_tag() {
        let doc = sample();
        assert_eq!(Locator::class("bot-card").find_all(&doc).unwrap().len(), 2);
        assert_eq!(Locator::tag("a").find_all(&doc).unwrap().len(), 2);
        assert_eq!(Locator::tag("A").find_all(&doc).unwrap().len(), 2);
    }

    #[test]
    fn by_attr() {
        let doc = sample();
        let n = Locator::Attr {
            name: "data-bot-id".into(),
            value: "2".into(),
        }
        .find(&doc)
        .unwrap();
        assert!(n.has_class("promoted"));
    }

    #[test]
    fn by_link_text() {
        let doc = sample();
        let n = Locator::LinkText("FunBot".into()).find(&doc).unwrap();
        assert_eq!(n.attr("href"), Some("/bot/1"));
        let n = Locator::PartialLinkText("Deluxe".into())
            .find(&doc)
            .unwrap();
        assert_eq!(n.attr("href"), Some("/bot/2"));
        assert!(Locator::LinkText("funbot".into()).find(&doc).is_err());
    }

    #[test]
    fn css_compound() {
        let doc = sample();
        let hits = Locator::css("div.bot-card.promoted")
            .find_all(&doc)
            .unwrap();
        assert_eq!(hits.len(), 1);
        let hits = Locator::css("div#list").find_all(&doc).unwrap();
        assert_eq!(hits.len(), 1);
        let hits = Locator::css("[data-bot-id=1]").find_all(&doc).unwrap();
        assert_eq!(hits.len(), 1);
        let hits = Locator::css("[data-bot-id]").find_all(&doc).unwrap();
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn css_descendant_and_child() {
        let doc = sample();
        let hits = Locator::css("div.bot-card a").find_all(&doc).unwrap();
        assert_eq!(hits.len(), 2);
        let hits = Locator::css("body > div").find_all(&doc).unwrap();
        assert_eq!(hits.len(), 1, "only #list is a direct child of body");
        let hits = Locator::css("body>div").find_all(&doc).unwrap();
        assert_eq!(hits.len(), 1, "inline '>' form");
        // span.votes is not a direct child of #list
        let hits = Locator::css("div#list > span.votes")
            .find_all(&doc)
            .unwrap();
        assert!(hits.is_empty());
        let hits = Locator::css("div#list span.votes").find_all(&doc).unwrap();
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn css_no_duplicates_on_nested_match() {
        // <div><div><p/></div></div> — "div p" must return p once.
        let doc = Document::new(el("div").child(el("div").child(el("p"))).build());
        let hits = Locator::css("div p").find_all(&doc).unwrap();
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn css_child_matches_come_in_document_order() {
        // "div > p" matches #late through the outer div and #early through
        // the inner one; #early still comes first.
        let doc = Document::new(
            el("div")
                .child(el("div").child(el("p").id("early")))
                .child(el("p").id("late"))
                .build(),
        );
        let hits = Locator::css("div > p").find_all(&doc).unwrap();
        let ids: Vec<_> = hits.iter().filter_map(|n| n.id()).collect();
        assert_eq!(ids, vec!["early", "late"]);
        let first = Locator::css("div > p").find(&doc).unwrap();
        assert_eq!(first.id(), Some("early"));
    }

    #[test]
    fn css_child_step_looks_past_the_nearest_ancestor() {
        // In "div > span a" the nearest span above the link is #inner,
        // whose parent is a span; only #outer sits directly under a div.
        let doc = Document::new(
            el("div")
                .child(
                    el("span")
                        .id("outer")
                        .child(el("span").id("inner").child(el("a").id("link"))),
                )
                .build(),
        );
        let hit = Locator::css("div > span a").find(&doc).unwrap();
        assert_eq!(hit.id(), Some("link"));
    }

    #[test]
    fn css_invalid_selectors() {
        let doc = sample();
        assert!(matches!(
            Locator::css("").find_all(&doc),
            Err(LocateError::InvalidLocator { .. })
        ));
        assert!(matches!(
            Locator::css("div..x").find_all(&doc),
            Err(LocateError::InvalidLocator { .. })
        ));
        assert!(matches!(
            Locator::css("> div").find_all(&doc),
            Err(LocateError::InvalidLocator { .. })
        ));
        assert!(matches!(
            Locator::css("div[unclosed").find_all(&doc),
            Err(LocateError::InvalidLocator { .. })
        ));
    }

    #[test]
    fn document_order_is_preserved() {
        let doc = sample();
        let hits = Locator::css("span.votes").find_all(&doc).unwrap();
        let texts: Vec<String> = hits.iter().map(|n| n.text_content()).collect();
        assert_eq!(texts, vec!["876000", "6"]);
    }
}
