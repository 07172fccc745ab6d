//! Interned tag/attribute names.
//!
//! Every element node used to carry a freshly allocated lowercased `String`
//! for its tag and each attribute key, and every case-insensitive lookup
//! allocated another one. At crawl scale (tens of thousands of pages, each
//! with hundreds of nodes naming the same dozen tags) that is millions of
//! identical allocations. [`Atom`] fixes the cost three ways:
//!
//! 1. a static table of well-known lowercase names (`WELL_KNOWN`) that
//!    resolve to `&'static str` — zero allocation, ever;
//! 2. a per-parse [`AtomInterner`] (backed by [`matchkit::Interner`]) that
//!    allocates each *unknown* name once per document and hands out shared
//!    [`Arc<str>`] clones afterwards;
//! 3. content-based `Borrow<str>`/`Ord`/`Hash`, so attribute maps keyed by
//!    `Atom` are queried with a plain `&str` — no temporary key allocation
//!    on lookup.

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Well-known lowercase tag and attribute names, sorted (binary-searched).
/// Covers every name the simulated sites emit on their hot paths; anything
/// else falls through to the interner.
static WELL_KNOWN: &[&str] = &[
    "a",
    "alt",
    "article",
    "b",
    "body",
    "br",
    "button",
    "class",
    "code",
    "content",
    "data-app-id",
    "data-bot-id",
    "data-challenge-id",
    "data-guilds",
    "data-i",
    "data-kind",
    "data-owner",
    "data-slug",
    "data-votes",
    "data-x",
    "disabled",
    "div",
    "em",
    "footer",
    "form",
    "h1",
    "h2",
    "h3",
    "head",
    "header",
    "hr",
    "href",
    "html",
    "i",
    "id",
    "img",
    "input",
    "li",
    "link",
    "meta",
    "name",
    "nav",
    "p",
    "pre",
    "rel",
    "script",
    "section",
    "span",
    "src",
    "strong",
    "style",
    "table",
    "tbody",
    "td",
    "th",
    "title",
    "tr",
    "type",
    "u",
    "ul",
    "value",
];

#[derive(Clone)]
enum Repr {
    Static(&'static str),
    Owned(Arc<str>),
}

/// An interned, always-lowercase tag or attribute name. Cheap to clone
/// (static pointer or `Arc` bump); compares, orders, and hashes by string
/// content, so a `BTreeMap<Atom, _>` behaves exactly like the
/// `BTreeMap<String, _>` it replaced — including lookup by plain `&str`.
#[derive(Clone)]
pub struct Atom(Repr);

impl Atom {
    /// Intern `raw` without a per-document interner: lowercases (only when
    /// needed), resolves well-known names statically, and otherwise
    /// allocates one `Arc`. Builder-style call sites use this; the parser
    /// goes through [`AtomInterner`] to also deduplicate unknown names.
    pub fn new(raw: &str) -> Atom {
        if raw.bytes().any(|b| b.is_ascii_uppercase()) {
            Atom::from_lowercase(&raw.to_ascii_lowercase())
        } else {
            Atom::from_lowercase(raw)
        }
    }

    /// The empty atom (used as the parser's stack sentinel).
    pub fn empty() -> Atom {
        Atom(Repr::Static(""))
    }

    fn from_lowercase(name: &str) -> Atom {
        match WELL_KNOWN.binary_search(&name) {
            Ok(idx) => Atom(Repr::Static(WELL_KNOWN[idx])),
            Err(_) => Atom(Repr::Owned(Arc::from(name))),
        }
    }

    /// The name as a string slice.
    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Static(s) => s,
            Repr::Owned(s) => s,
        }
    }
}

impl fmt::Debug for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for Atom {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl PartialEq for Atom {
    fn eq(&self, other: &Atom) -> bool {
        self.as_str() == other.as_str()
    }
}
impl Eq for Atom {}

impl PartialOrd for Atom {
    fn partial_cmp(&self, other: &Atom) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Atom {
    fn cmp(&self, other: &Atom) -> std::cmp::Ordering {
        self.as_str().cmp(other.as_str())
    }
}

impl Hash for Atom {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl Borrow<str> for Atom {
    fn borrow(&self) -> &str {
        self.as_str()
    }
}

impl std::ops::Deref for Atom {
    type Target = str;
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl From<&str> for Atom {
    fn from(raw: &str) -> Atom {
        Atom::new(raw)
    }
}

impl From<&String> for Atom {
    fn from(raw: &String) -> Atom {
        Atom::new(raw)
    }
}

/// Per-document name interner used by the parser: on top of the static
/// table, each distinct non-well-known name is allocated once per document
/// and shared (`Arc` clone) across every node that repeats it. A reusable
/// scratch buffer makes case folding allocation-free too.
#[derive(Debug, Default)]
pub struct AtomInterner {
    interner: matchkit::Interner,
    atoms: Vec<Atom>,
    scratch: String,
}

impl AtomInterner {
    /// A fresh interner (one per parse).
    pub fn new() -> AtomInterner {
        AtomInterner::default()
    }

    /// Intern `raw` as a lowercase atom.
    pub fn atom(&mut self, raw: &str) -> Atom {
        let name: &str = if raw.bytes().any(|b| b.is_ascii_uppercase()) {
            self.scratch.clear();
            self.scratch
                .extend(raw.chars().map(|c| c.to_ascii_lowercase()));
            &self.scratch
        } else {
            raw
        };
        if let Ok(idx) = WELL_KNOWN.binary_search(&name) {
            return Atom(Repr::Static(WELL_KNOWN[idx]));
        }
        let sym = self.interner.intern(name);
        if sym.index() == self.atoms.len() {
            self.atoms.push(Atom(Repr::Owned(Arc::from(name))));
        }
        self.atoms[sym.index()].clone()
    }

    /// Distinct non-well-known names seen so far.
    pub fn unknown_names(&self) -> usize {
        self.atoms.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn well_known_table_is_sorted_and_deduped() {
        for pair in WELL_KNOWN.windows(2) {
            assert!(pair[0] < pair[1], "{:?} out of order", pair);
        }
    }

    #[test]
    fn new_lowercases_and_resolves_statics() {
        assert_eq!(Atom::new("DIV").as_str(), "div");
        assert!(matches!(Atom::new("DIV").0, Repr::Static(_)));
        assert!(matches!(Atom::new("widget").0, Repr::Owned(_)));
        assert_eq!(Atom::new("Widget").as_str(), "widget");
    }

    #[test]
    fn content_equality_across_reprs() {
        let a = Atom::new("customtag");
        let b = Atom(Repr::Owned(Arc::from("customtag")));
        assert_eq!(a, b);
        let mut sorted = [Atom::new("div"), Atom::new("a"), Atom::new("zeta")];
        sorted.sort();
        assert_eq!(
            sorted.iter().map(Atom::as_str).collect::<Vec<_>>(),
            vec!["a", "div", "zeta"]
        );
    }

    #[test]
    fn btreemap_lookup_by_str() {
        let mut map = std::collections::BTreeMap::new();
        map.insert(Atom::new("href"), "/x".to_string());
        map.insert(Atom::new("data-custom"), "1".to_string());
        assert_eq!(map.get("href").map(String::as_str), Some("/x"));
        assert_eq!(map.get("data-custom").map(String::as_str), Some("1"));
        assert_eq!(map.get("missing"), None);
    }

    #[test]
    fn interner_dedupes_unknown_names() {
        let mut interner = AtomInterner::new();
        let a = interner.atom("x-custom");
        let b = interner.atom("X-CUSTOM");
        assert_eq!(a, b);
        assert_eq!(interner.unknown_names(), 1);
        interner.atom("div");
        assert_eq!(
            interner.unknown_names(),
            1,
            "well-known names never hit the interner"
        );
    }
}
