//! The Table 3 permission-check scanner.
//!
//! | # | Pattern              |
//! |---|----------------------|
//! | 1 | `.hasPermission(`    |
//! | 2 | `.has(`              |
//! | 3 | `member.roles.cache` |
//! | 4 | `userPermissions`    |
//!
//! Matching is performed on *code*, not raw text: line comments and string
//! literals are stripped first, so `// TODO call .hasPermission()` and
//! `"say .has( to confuse scanners"` do not count. This is the automated
//! analogue of the paper's "build an automated approach that looks for
//! these APIs".

use crate::repo::{Language, Repository};
use matchkit::{AhoCorasick, ScanStats};
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// One of the four check patterns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum CheckPattern {
    /// `.hasPermission(`
    HasPermission,
    /// `.has(`
    Has,
    /// `member.roles.cache`
    MemberRolesCache,
    /// `userPermissions`
    UserPermissions,
}

impl CheckPattern {
    /// All four patterns, in Table 3 order.
    pub const ALL: [CheckPattern; 4] = [
        CheckPattern::HasPermission,
        CheckPattern::Has,
        CheckPattern::MemberRolesCache,
        CheckPattern::UserPermissions,
    ];

    /// The literal source text to look for.
    pub fn needle(self) -> &'static str {
        match self {
            CheckPattern::HasPermission => ".hasPermission(",
            CheckPattern::Has => ".has(",
            CheckPattern::MemberRolesCache => "member.roles.cache",
            CheckPattern::UserPermissions => "userPermissions",
        }
    }
}

/// Scan result for one repository.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScanReport {
    /// Repo slug.
    pub slug: String,
    /// Main language scanned (only JS/TS/Python repos are scanned).
    pub language: Option<Language>,
    /// Patterns found, with occurrence counts.
    pub hits: Vec<(CheckPattern, usize)>,
    /// Total files scanned.
    pub files_scanned: usize,
}

impl ScanReport {
    /// Whether any check pattern appears — the paper's per-repo boolean.
    pub fn performs_checks(&self) -> bool {
        !self.hits.is_empty()
    }
}

/// Walk `content` and feed every *code* byte (comments removed, each string
/// literal collapsed to one space) to `emit`, in order. This is the single
/// tokenizer behind both [`strip_noncode`] (which materializes the bytes)
/// and the fused scan in [`scan_repository`] (which pipes them straight
/// into the pattern automaton and never allocates the stripped copy).
///
/// JS/TS: `//` comments, `/* */` blocks, `'`/`"`/`` ` `` strings.
/// Python: `#` comments, `'`/`"` strings (including naive triple-quote
/// handling). Escapes inside strings are honoured.
fn emit_code_bytes(content: &str, lang: &Language, mut emit: impl FnMut(u8)) {
    // Operates on raw bytes: source files can contain arbitrary UTF-8 (or
    // worse) in comments and strings, and byte-offset slicing of a &str
    // would panic on multibyte characters.
    let bytes = content.as_bytes();
    let line_comment: &[u8] = match lang {
        Language::Python => b"#",
        _ => b"//",
    };
    let block_comments = !matches!(lang, Language::Python);
    let mut i = 0;
    while i < bytes.len() {
        // Line comments.
        if bytes[i..].starts_with(line_comment) {
            while i < bytes.len() && bytes[i] != b'\n' {
                i += 1;
            }
            continue;
        }
        // Block comments.
        if block_comments && bytes[i..].starts_with(b"/*") {
            match find_subslice(&bytes[i + 2..], b"*/") {
                Some(end) => {
                    i += 2 + end + 2;
                }
                None => break, // unterminated block comment swallows the rest
            }
            continue;
        }
        // Strings.
        let c = bytes[i];
        if c == b'"' || c == b'\'' || (c == b'`' && block_comments) {
            // Triple quotes in Python.
            let triple = matches!(lang, Language::Python)
                && i + 2 < bytes.len()
                && bytes[i + 1] == c
                && bytes[i + 2] == c;
            let delim_len = if triple { 3 } else { 1 };
            let mut j = i + delim_len;
            while j < bytes.len() {
                if bytes[j] == b'\\' {
                    j += 2;
                    continue;
                }
                if triple {
                    if bytes[j..].starts_with(&[c, c, c]) {
                        j += 3;
                        break;
                    }
                    j += 1;
                } else if bytes[j] == c || bytes[j] == b'\n' {
                    j += 1;
                    break;
                } else {
                    j += 1;
                }
            }
            emit(b' '); // keep token separation
            i = j;
            continue;
        }
        emit(c);
        i += 1;
    }
}

/// Strip line comments and string literals for the given language,
/// materialized as a string. The scan hot path no longer calls this (it
/// streams `emit_code_bytes` straight into the automaton); it remains the
/// reference implementation the differential property tests and benches
/// compare the fused scan against.
pub fn strip_noncode(content: &str, lang: &Language) -> String {
    let mut out: Vec<u8> = Vec::with_capacity(content.len());
    emit_code_bytes(content, lang, |b| out.push(b));
    String::from_utf8_lossy(&out).into_owned()
}

/// The process-wide automaton over the four Table 3 needles, in
/// [`CheckPattern::ALL`] order. Case-sensitive, plain substring matching —
/// exactly what `code.matches(needle)` did, and since none of the needles
/// has a self-overlap (no proper border), the overlapping occurrence count
/// the automaton reports equals the non-overlapping `matches` count.
fn table3_automaton() -> &'static AhoCorasick {
    static AUTOMATON: OnceLock<AhoCorasick> = OnceLock::new();
    AUTOMATON.get_or_init(|| AhoCorasick::new(CheckPattern::ALL.iter().map(|p| p.needle())))
}

/// Kernel counters for the Table 3 scanner (process-wide, since the needle
/// automaton is shared).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ScannerKernelStats {
    /// DFA states in the needle automaton.
    pub automaton_states: u64,
    /// Completed scan passes (one per scanned source file).
    pub scans: u64,
    /// Total stripped-code bytes fed through the automaton.
    pub bytes_scanned: u64,
}

/// Snapshot the scanner's kernel counters.
pub fn scanner_kernel_stats() -> ScannerKernelStats {
    let automaton = table3_automaton();
    let ScanStats {
        scans,
        bytes_scanned,
    } = automaton.stats();
    ScannerKernelStats {
        automaton_states: automaton.state_count() as u64,
        scans,
        bytes_scanned,
    }
}

/// Count Table 3 pattern occurrences in one source file without
/// materializing the stripped code: the tokenizer's output bytes stream
/// straight into the shared needle automaton. Returns the bytes scanned.
fn scan_file_fused(content: &str, lang: &Language, counts: &mut [usize; 4]) -> u64 {
    let mut matcher = table3_automaton().stream_matcher();
    emit_code_bytes(content, lang, |b| {
        for hit in matcher.push(b) {
            counts[hit.pattern as usize] += 1;
        }
    });
    matcher.consumed()
}

fn find_subslice(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// Scan one repository for the Table 3 patterns.
///
/// Only JavaScript/TypeScript and Python files are scanned — the languages
/// the paper's analysis covers ("we only considered the bots developed
/// using the JavaScript and Python libraries").
pub fn scan_repository(repo: &Repository) -> ScanReport {
    scan_counted(repo).0
}

/// [`scan_repository`], with the passes and bytes it scanned.
/// [`scanner_kernel_stats`] counts every scan in the process, so audits
/// running side by side would count each other's; an audit counts the
/// stats this returns instead.
pub fn scan_counted(repo: &Repository) -> (ScanReport, ScanStats) {
    let language = repo.main_language();
    let mut counts = [0usize; 4];
    let mut files_scanned = 0;
    let mut bytes_scanned = 0;
    for file in &repo.files {
        let Some(lang) = file.language() else {
            continue;
        };
        let in_scope = matches!(
            lang,
            Language::JavaScript | Language::TypeScript | Language::Python
        );
        if !in_scope {
            continue;
        }
        files_scanned += 1;
        bytes_scanned += scan_file_fused(&file.content, &lang, &mut counts);
    }
    let hits = CheckPattern::ALL
        .iter()
        .enumerate()
        .filter(|(idx, _)| counts[*idx] > 0)
        .map(|(idx, p)| (*p, counts[idx]))
        .collect();
    let report = ScanReport {
        slug: repo.slug.clone(),
        language,
        hits,
        files_scanned,
    };
    let stats = ScanStats {
        scans: files_scanned as u64,
        bytes_scanned,
    };
    (report, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::repo::SourceFile;

    fn js_repo(code: &str) -> Repository {
        Repository::new("dev/bot", "bot", vec![SourceFile::new("index.js", code)])
    }

    fn py_repo(code: &str) -> Repository {
        Repository::new("dev/bot", "bot", vec![SourceFile::new("bot.py", code)])
    }

    #[test]
    fn a_counted_scan_reports_exactly_its_own_passes_and_bytes() {
        let (js, py) = (
            "// note\nif (m.hasPermission('X')) {}",
            "x = 'str' # comment\n",
        );
        let repo = Repository::new(
            "dev/bot",
            "bot",
            vec![
                SourceFile::new("index.js", js),
                SourceFile::new("bot.py", py),
                SourceFile::new("README.md", "not scanned"),
            ],
        );
        let (report, stats) = scan_counted(&repo);
        assert_eq!(report, scan_repository(&repo));
        let stripped = strip_noncode(js, &Language::JavaScript).len()
            + strip_noncode(py, &Language::Python).len();
        assert_eq!(stats.scans, 2, "two in-scope files");
        assert_eq!(stats.bytes_scanned, stripped as u64);
    }

    #[test]
    fn detects_has_permission() {
        let r = js_repo("if (message.member.hasPermission('KICK_MEMBERS')) { kick(); }");
        let report = scan_repository(&r);
        assert!(report.performs_checks());
        assert_eq!(report.hits, vec![(CheckPattern::HasPermission, 1)]);
    }

    #[test]
    fn detects_all_four_patterns() {
        let code = r#"
const ok = msg.member.permissions.has(Permissions.FLAGS.BAN_MEMBERS);
if (message.member.hasPermission('ADMINISTRATOR')) {}
const r = message.member.roles.cache.some(role => role.name === 'Mod');
module.exports = { userPermissions: ['MANAGE_MESSAGES'] };
"#;
        let report = scan_repository(&js_repo(code));
        let found: Vec<CheckPattern> = report.hits.iter().map(|(p, _)| *p).collect();
        assert_eq!(found, CheckPattern::ALL.to_vec());
    }

    #[test]
    fn comments_do_not_count_js() {
        let code =
            "// remember to call .hasPermission( here\n/* member.roles.cache */\nconst x = 1;";
        assert!(!scan_repository(&js_repo(code)).performs_checks());
    }

    #[test]
    fn strings_do_not_count_js() {
        let code = "console.log('.has( is an API'); const s = `userPermissions`;";
        assert!(!scan_repository(&js_repo(code)).performs_checks());
    }

    #[test]
    fn comments_do_not_count_python() {
        let code = "# ctx.author.guild_permissions.has( something\nx = 1\n";
        assert!(!scan_repository(&py_repo(code)).performs_checks());
    }

    #[test]
    fn python_docstrings_do_not_count() {
        let code = "\"\"\"uses member.roles.cache internally\"\"\"\ndef f():\n    pass\n";
        assert!(!scan_repository(&py_repo(code)).performs_checks());
    }

    #[test]
    fn python_real_check_counts() {
        let code = "async def kick(ctx):\n    if ctx.author.guild_permissions.has(kick_members=True):\n        await do_kick()\n";
        let report = scan_repository(&py_repo(code));
        assert_eq!(report.hits, vec![(CheckPattern::Has, 1)]);
        assert_eq!(report.language, Some(Language::Python));
    }

    #[test]
    fn out_of_scope_languages_not_scanned() {
        let repo = Repository::new(
            "dev/gobot",
            "go bot",
            vec![SourceFile::new("main.go", "m.member.hasPermission(x)")],
        );
        let report = scan_repository(&repo);
        assert_eq!(report.files_scanned, 0);
        assert!(!report.performs_checks());
        assert_eq!(report.language, Some(Language::Other("Go".into())));
    }

    #[test]
    fn counts_accumulate_across_files() {
        let repo = Repository::new(
            "dev/big",
            "",
            vec![
                SourceFile::new("a.js", "x.has(1); y.has(2);"),
                SourceFile::new("b.js", "z.has(3);"),
            ],
        );
        let report = scan_repository(&repo);
        assert_eq!(report.hits, vec![(CheckPattern::Has, 3)]);
        assert_eq!(report.files_scanned, 2);
    }

    #[test]
    fn escaped_quotes_inside_strings() {
        let code = r#"const s = "escaped \" quote .has( inside"; real.has(x);"#;
        let report = scan_repository(&js_repo(code));
        assert_eq!(report.hits, vec![(CheckPattern::Has, 1)]);
    }

    #[test]
    fn unterminated_string_swallows_to_line_end_only() {
        let code = "const s = 'unterminated\nreal.has(x);";
        let report = scan_repository(&js_repo(code));
        assert_eq!(report.hits, vec![(CheckPattern::Has, 1)]);
    }

    #[test]
    fn readme_only_repo_scans_clean() {
        let repo = Repository::new(
            "dev/readme",
            "",
            vec![SourceFile::new(
                "READ.ME",
                "commands: !kick — requires .hasPermission(",
            )],
        );
        let report = scan_repository(&repo);
        assert_eq!(report.files_scanned, 0);
        assert!(!report.performs_checks());
    }
}
