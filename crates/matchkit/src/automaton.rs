//! The Aho–Corasick automaton (see the crate docs for the construction
//! sketch).

use std::sync::atomic::{AtomicU64, Ordering};

/// How a candidate occurrence is accepted.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MatchMode {
    /// Plain substring matching: every occurrence counts.
    #[default]
    Substring,
    /// The occurrence must start at the beginning of the text or directly
    /// after a non-alphanumeric byte. This is a *left* boundary only —
    /// matches may extend into a longer word, which is what makes the
    /// policy ontology's stemmed keywords (`collect` → `collected`) work.
    WordPrefix,
}

/// One accepted occurrence yielded by [`AhoCorasick::find_iter`].
///
/// `start`/`end` are byte offsets into the scanned text; because patterns
/// are valid UTF-8, both always fall on `char` boundaries of a valid UTF-8
/// haystack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Match {
    /// Index of the pattern (in the order given to the builder).
    pub pattern: usize,
    /// Byte offset of the first byte of the occurrence.
    pub start: usize,
    /// Byte offset one past the last byte of the occurrence.
    pub end: usize,
}

/// A pattern occurrence ending at the byte just pushed into a
/// [`StreamMatcher`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hit {
    /// Index of the pattern (in the order given to the builder).
    pub pattern: u32,
    /// Pattern length in bytes.
    pub len: u32,
}

/// Scan-pass counters an automaton accumulates over its lifetime.
///
/// `bytes_scanned` counts bytes actually consumed (an early-exiting
/// [`AhoCorasick::contains_any`] stops counting where it stopped reading),
/// so `stats_after.bytes_scanned - stats_before.bytes_scanned == text.len()`
/// is exactly the statement "that call made one full pass and nothing
/// rescanned the text".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ScanStats {
    /// Completed scan passes (one per iterator/stream lifetime).
    pub scans: u64,
    /// Total bytes consumed across all passes.
    pub bytes_scanned: u64,
}

impl ScanStats {
    /// Counter deltas since an earlier snapshot.
    pub fn since(self, earlier: ScanStats) -> ScanStats {
        ScanStats {
            scans: self.scans.wrapping_sub(earlier.scans),
            bytes_scanned: self.bytes_scanned.wrapping_sub(earlier.bytes_scanned),
        }
    }
}

/// Configures and builds an [`AhoCorasick`] automaton.
#[derive(Debug, Clone, Default)]
pub struct AhoCorasickBuilder {
    case_insensitive: bool,
    mode: MatchMode,
}

impl AhoCorasickBuilder {
    /// A builder with the defaults: case-sensitive, substring mode.
    pub fn new() -> AhoCorasickBuilder {
        AhoCorasickBuilder::default()
    }

    /// Fold ASCII `A..=Z` to `a..=z` in both patterns and text. Non-ASCII
    /// bytes are never folded, matching `str::to_ascii_lowercase`
    /// semantics.
    pub fn ascii_case_insensitive(mut self, yes: bool) -> AhoCorasickBuilder {
        self.case_insensitive = yes;
        self
    }

    /// Set the match-acceptance mode.
    pub fn match_mode(mut self, mode: MatchMode) -> AhoCorasickBuilder {
        self.mode = mode;
        self
    }

    /// Build the automaton. Empty patterns are skipped (they would match
    /// between every byte); their indices still count, so pattern numbering
    /// matches the input order.
    pub fn build<I, P>(self, patterns: I) -> AhoCorasick
    where
        I: IntoIterator<Item = P>,
        P: AsRef<str>,
    {
        AhoCorasick::with_config(patterns, self.case_insensitive, self.mode)
    }
}

const NO_STATE: u32 = u32::MAX;

/// A byte-level multi-pattern matcher: one pass over the text finds every
/// occurrence of every pattern. See the crate docs for the construction.
pub struct AhoCorasick {
    /// Dense DFA: `delta[state * 256 + byte]` → next state.
    delta: Vec<u32>,
    /// Per-state accepted occurrences ending here, sorted by pattern index.
    outputs: Vec<Box<[Hit]>>,
    mode: MatchMode,
    pattern_count: usize,
    scans: AtomicU64,
    bytes_scanned: AtomicU64,
}

impl AhoCorasick {
    /// A case-sensitive substring automaton over `patterns` — the common
    /// case; use [`AhoCorasickBuilder`] for the other modes.
    pub fn new<I, P>(patterns: I) -> AhoCorasick
    where
        I: IntoIterator<Item = P>,
        P: AsRef<str>,
    {
        AhoCorasickBuilder::new().build(patterns)
    }

    fn with_config<I, P>(patterns: I, case_insensitive: bool, mode: MatchMode) -> AhoCorasick
    where
        I: IntoIterator<Item = P>,
        P: AsRef<str>,
    {
        let fold = |b: u8| {
            if case_insensitive {
                b.to_ascii_lowercase()
            } else {
                b
            }
        };

        // Step 1: trie. `delta` doubles as the sparse goto function during
        // construction (NO_STATE = no edge).
        let mut delta: Vec<u32> = vec![NO_STATE; 256];
        let mut outputs: Vec<Vec<Hit>> = vec![Vec::new()];
        let mut pattern_count = 0usize;
        for (idx, pattern) in patterns.into_iter().enumerate() {
            pattern_count = idx + 1;
            let bytes = pattern.as_ref().as_bytes();
            if bytes.is_empty() {
                continue;
            }
            let mut state = 0usize;
            for &b in bytes {
                let cell = state * 256 + fold(b) as usize;
                if delta[cell] == NO_STATE {
                    let next = outputs.len() as u32;
                    delta[cell] = next;
                    delta.extend(std::iter::repeat_n(NO_STATE, 256));
                    outputs.push(Vec::new());
                }
                state = delta[cell] as usize;
            }
            outputs[state].push(Hit {
                pattern: idx as u32,
                len: bytes.len() as u32,
            });
        }

        // Steps 2 + 3: failure links and in-place DFA completion, in one
        // breadth-first walk. When state `s` is dequeued every `delta[s]`
        // row is already total, so `delta[fail * 256 + b]` is the resolved
        // fallback transition.
        let mut fail: Vec<u32> = vec![0; outputs.len()];
        let mut queue: std::collections::VecDeque<u32> = std::collections::VecDeque::new();
        for cell in delta.iter_mut().take(256) {
            match *cell {
                NO_STATE => *cell = 0,
                next => {
                    fail[next as usize] = 0;
                    queue.push_back(next);
                }
            }
        }
        while let Some(state) = queue.pop_front() {
            let s = state as usize;
            let f = fail[s] as usize;
            // Merge the failure state's outputs: everything that ends on a
            // proper suffix of this state's path also ends here.
            let inherited: Vec<Hit> = outputs[f].clone();
            outputs[s].extend(inherited);
            outputs[s].sort_by_key(|hit| hit.pattern);
            for b in 0..256 {
                let cell = s * 256 + b;
                match delta[cell] {
                    NO_STATE => delta[cell] = delta[f * 256 + b],
                    next => {
                        fail[next as usize] = delta[f * 256 + b];
                        queue.push_back(next);
                    }
                }
            }
        }

        // Case-insensitive automatons alias the uppercase columns onto the
        // lowercase ones so the scan loop needs no per-byte folding.
        if case_insensitive {
            for s in 0..outputs.len() {
                for b in b'A'..=b'Z' {
                    delta[s * 256 + b as usize] = delta[s * 256 + fold(b) as usize];
                }
            }
        }

        AhoCorasick {
            delta,
            outputs: outputs.into_iter().map(Vec::into_boxed_slice).collect(),
            mode,
            pattern_count,
            scans: AtomicU64::new(0),
            bytes_scanned: AtomicU64::new(0),
        }
    }

    /// Number of patterns the automaton was built from (empty ones
    /// included, so indices line up with the builder input).
    pub fn pattern_count(&self) -> usize {
        self.pattern_count
    }

    /// Number of DFA states (trie nodes + the root).
    pub fn state_count(&self) -> usize {
        self.outputs.len()
    }

    /// Snapshot of the lifetime scan counters.
    pub fn stats(&self) -> ScanStats {
        ScanStats {
            scans: self.scans.load(Ordering::Relaxed),
            bytes_scanned: self.bytes_scanned.load(Ordering::Relaxed),
        }
    }

    fn record(&self, bytes: u64) {
        self.scans.fetch_add(1, Ordering::Relaxed);
        self.bytes_scanned.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Iterate over every accepted occurrence in `text`, ordered by end
    /// position (ties by pattern index). One pass, zero allocation.
    pub fn find_iter<'a, 't>(&'a self, text: &'t str) -> FindIter<'a, 't> {
        FindIter {
            automaton: self,
            text: text.as_bytes(),
            state: 0,
            pos: 0,
            pending: &[],
            pending_end: 0,
        }
    }

    /// Does any pattern occur in `text`? Stops at the first acceptance.
    pub fn contains_any(&self, text: &str) -> bool {
        self.find_iter(text).next().is_some()
    }

    /// Occurrence count per pattern, in builder order. Overlapping
    /// occurrences of one pattern all count (for patterns with no
    /// self-overlap — no proper border — this equals
    /// `text.matches(pattern).count()`).
    pub fn per_pattern_counts(&self, text: &str) -> Vec<usize> {
        let mut counts = vec![0usize; self.pattern_count];
        for m in self.find_iter(text) {
            counts[m.pattern] += 1;
        }
        counts
    }

    /// Which patterns occur at least once, in builder order.
    pub fn matched_patterns(&self, text: &str) -> Vec<bool> {
        let mut seen = vec![false; self.pattern_count];
        for m in self.find_iter(text) {
            seen[m.pattern] = true;
        }
        seen
    }

    /// A push-based matcher for callers that produce the text a byte at a
    /// time (the fused code scanner). Only meaningful in
    /// [`MatchMode::Substring`] — word-prefix acceptance needs to look at
    /// the byte before a match start, which a byte stream cannot replay.
    ///
    /// # Panics
    /// If the automaton was built with [`MatchMode::WordPrefix`].
    pub fn stream_matcher(&self) -> StreamMatcher<'_> {
        assert!(
            self.mode == MatchMode::Substring,
            "StreamMatcher requires MatchMode::Substring"
        );
        StreamMatcher {
            automaton: self,
            state: 0,
            consumed: 0,
        }
    }
}

impl std::fmt::Debug for AhoCorasick {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AhoCorasick")
            .field("patterns", &self.pattern_count)
            .field("states", &self.state_count())
            .field("mode", &self.mode)
            .finish()
    }
}

/// Iterator over accepted occurrences; see [`AhoCorasick::find_iter`].
///
/// Records the pass (bytes actually consumed) into the automaton's
/// [`ScanStats`] when dropped.
pub struct FindIter<'a, 't> {
    automaton: &'a AhoCorasick,
    text: &'t [u8],
    state: u32,
    pos: usize,
    /// Occurrences ending at `pending_end` not yet yielded.
    pending: &'a [Hit],
    pending_end: usize,
}

impl FindIter<'_, '_> {
    fn accept(&self, hit: Hit, end: usize) -> Option<Match> {
        let start = end - hit.len as usize;
        if self.automaton.mode == MatchMode::WordPrefix
            && start > 0
            && self.text[start - 1].is_ascii_alphanumeric()
        {
            return None;
        }
        Some(Match {
            pattern: hit.pattern as usize,
            start,
            end,
        })
    }
}

impl Iterator for FindIter<'_, '_> {
    type Item = Match;

    fn next(&mut self) -> Option<Match> {
        loop {
            while let Some((hit, rest)) = self.pending.split_first() {
                self.pending = rest;
                if let Some(m) = self.accept(*hit, self.pending_end) {
                    return Some(m);
                }
            }
            if self.pos >= self.text.len() {
                return None;
            }
            let b = self.text[self.pos] as usize;
            self.state = self.automaton.delta[self.state as usize * 256 + b];
            self.pos += 1;
            let out = &self.automaton.outputs[self.state as usize];
            if !out.is_empty() {
                self.pending = out;
                self.pending_end = self.pos;
            }
        }
    }
}

impl Drop for FindIter<'_, '_> {
    fn drop(&mut self) {
        self.automaton.record(self.pos as u64);
    }
}

/// Push-based matcher over a caller-produced byte stream; see
/// [`AhoCorasick::stream_matcher`]. Records its pass into the automaton's
/// [`ScanStats`] when dropped.
pub struct StreamMatcher<'a> {
    automaton: &'a AhoCorasick,
    state: u32,
    consumed: u64,
}

impl<'a> StreamMatcher<'a> {
    /// Advance by one byte; returns the occurrences ending on it (sorted by
    /// pattern index).
    pub fn push(&mut self, byte: u8) -> &'a [Hit] {
        self.state = self.automaton.delta[self.state as usize * 256 + byte as usize];
        self.consumed += 1;
        &self.automaton.outputs[self.state as usize]
    }

    /// Bytes pushed so far: what the pass records when dropped.
    pub fn consumed(&self) -> u64 {
        self.consumed
    }
}

impl Drop for StreamMatcher<'_> {
    fn drop(&mut self) {
        self.automaton.record(self.consumed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn counts(aut: &AhoCorasick, text: &str) -> Vec<usize> {
        aut.per_pattern_counts(text)
    }

    #[test]
    fn empty_pattern_set_matches_nothing() {
        let aut = AhoCorasick::new(Vec::<&str>::new());
        assert_eq!(aut.pattern_count(), 0);
        assert_eq!(aut.state_count(), 1);
        assert!(!aut.contains_any("anything at all"));
        assert_eq!(aut.find_iter("abc").count(), 0);
    }

    #[test]
    fn empty_patterns_are_skipped_but_keep_their_index() {
        let aut = AhoCorasick::new(["", "b"]);
        assert_eq!(aut.pattern_count(), 2);
        assert_eq!(counts(&aut, "abba"), vec![0, 2]);
    }

    #[test]
    fn single_pattern_all_occurrences() {
        let aut = AhoCorasick::new(["ab"]);
        let ms: Vec<Match> = aut.find_iter("abxabab").collect();
        assert_eq!(
            ms,
            vec![
                Match {
                    pattern: 0,
                    start: 0,
                    end: 2
                },
                Match {
                    pattern: 0,
                    start: 3,
                    end: 5
                },
                Match {
                    pattern: 0,
                    start: 5,
                    end: 7
                },
            ]
        );
    }

    #[test]
    fn overlapping_needles_all_reported() {
        // "he" ends inside "she"; "hers" extends past it.
        let aut = AhoCorasick::new(["he", "she", "his", "hers"]);
        let ms: Vec<(usize, usize)> = aut
            .find_iter("ushers")
            .map(|m| (m.pattern, m.start))
            .collect();
        // Both "he" and "she" end at offset 4; ties are ordered by pattern
        // index.
        assert_eq!(ms, vec![(0, 2), (1, 1), (3, 2)]);
    }

    #[test]
    fn self_overlapping_pattern_counts_every_occurrence() {
        let aut = AhoCorasick::new(["aa"]);
        // "aaaa" holds three (overlapping) occurrences; str::matches sees 2.
        assert_eq!(counts(&aut, "aaaa"), vec![3]);
    }

    #[test]
    fn substring_needle_of_another_pattern() {
        let aut = AhoCorasick::new([".hasPermission(", ".has("]);
        assert_eq!(counts(&aut, "m.hasPermission(x); p.has(y)"), vec![1, 1]);
    }

    #[test]
    fn case_folding() {
        let aut = AhoCorasickBuilder::new()
            .ascii_case_insensitive(true)
            .build(["collect"]);
        assert!(aut.contains_any("WE COLLECT EVERYTHING"));
        assert!(aut.contains_any("Collecting"));
        assert!(!aut.contains_any("COLLET"));
        // Non-ASCII bytes are not folded.
        let aut = AhoCorasickBuilder::new()
            .ascii_case_insensitive(true)
            .build(["é"]);
        assert!(aut.contains_any("café"));
        assert!(!aut.contains_any("cafÉ"), "non-ASCII is never case-folded");
    }

    #[test]
    fn word_prefix_boundary_at_text_start_and_end() {
        let aut = AhoCorasickBuilder::new()
            .match_mode(MatchMode::WordPrefix)
            .build(["use"]);
        assert!(aut.contains_any("use"), "match at text start");
        assert!(
            aut.contains_any("reuse misuse; use"),
            "boundary after space"
        );
        assert!(aut.contains_any("we use"), "plain interior");
        assert!(aut.contains_any("data-use"), "punctuation boundary");
        assert!(!aut.contains_any("misuse"), "no left boundary");
        assert!(
            !aut.contains_any("reuse"),
            "no left boundary at end of text"
        );
        assert!(aut.contains_any("used"), "right side is open (stemming)");
    }

    #[test]
    fn word_prefix_with_case_folding() {
        let aut = AhoCorasickBuilder::new()
            .ascii_case_insensitive(true)
            .match_mode(MatchMode::WordPrefix)
            .build(["use", "third party"]);
        assert!(aut.contains_any("USED for moderation"));
        assert!(!aut.contains_any("MISUSE"));
        assert!(aut.contains_any("a Third Party processor"));
    }

    #[test]
    fn matched_patterns_and_counts_agree() {
        let aut = AhoCorasick::new(["a", "b", "zz"]);
        let text = "abba";
        let counts = aut.per_pattern_counts(text);
        let matched = aut.matched_patterns(text);
        assert_eq!(counts, vec![2, 2, 0]);
        assert_eq!(matched, vec![true, true, false]);
    }

    #[test]
    fn stream_matcher_equals_batch_on_substring_mode() {
        let aut = AhoCorasick::new(["abc", "bc", "c", "cab"]);
        let text = "abcabcab";
        let mut streamed = vec![0usize; aut.pattern_count()];
        let mut m = aut.stream_matcher();
        for &b in text.as_bytes() {
            for hit in m.push(b) {
                streamed[hit.pattern as usize] += 1;
            }
        }
        drop(m);
        assert_eq!(streamed, aut.per_pattern_counts(text));
    }

    #[test]
    #[should_panic(expected = "Substring")]
    fn stream_matcher_rejects_word_prefix_mode() {
        let aut = AhoCorasickBuilder::new()
            .match_mode(MatchMode::WordPrefix)
            .build(["x"]);
        let _ = aut.stream_matcher();
    }

    #[test]
    fn utf8_matches_fall_on_char_boundaries() {
        let aut = AhoCorasick::new(["né", "e"]);
        let text = "née";
        for m in aut.find_iter(text) {
            assert!(text.is_char_boundary(m.start) && text.is_char_boundary(m.end));
        }
    }

    #[test]
    fn scan_stats_count_one_pass() {
        let aut = AhoCorasick::new(["needle"]);
        let before = aut.stats();
        let text = "a haystack without the word";
        assert_eq!(aut.find_iter(text).count(), 0);
        let delta = aut.stats().since(before);
        assert_eq!(delta.scans, 1);
        assert_eq!(delta.bytes_scanned, text.len() as u64);
    }

    #[test]
    fn contains_any_stops_early() {
        let aut = AhoCorasick::new(["ab"]);
        let before = aut.stats();
        assert!(aut.contains_any("abxxxxxxxxxxxxxxxx"));
        let delta = aut.stats().since(before);
        assert_eq!(delta.bytes_scanned, 2, "stopped right after the match");
    }

    #[test]
    fn duplicate_patterns_both_reported() {
        let aut = AhoCorasick::new(["dup", "dup"]);
        assert_eq!(counts(&aut, "a dup"), vec![1, 1]);
    }
}
