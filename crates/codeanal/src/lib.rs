//! # codeanal — static analysis of chatbot source code
//!
//! §3 "Code Analysis" / §4.2 "Discord Chatbots Code Analysis": collect the
//! GitHub links from bot listings, resolve them (many are profiles, empty,
//! or dead), detect each repository's main language, and scan JavaScript
//! and Python sources for the four permission-check API patterns of
//! Table 3. A bot whose privileged commands never consult those APIs is a
//! permission re-delegation hazard.
//!
//! * [`repo`] — the repository model and language detection;
//! * [`scanner`] — the Table 3 pattern scanner (comment/string aware);
//! * [`genrepo`] — seeded generators for realistic bot repositories
//!   (discord.js / discord.py idioms, README-only repos, license dumps);
//! * [`github`] — a GitHub-like site mounted on `netsim`, plus the
//!   link-resolution scraper that classifies scraped GitHub URLs;
//! * [`cache`] — the cross-bot memo table that lets parallel analysis
//!   workers resolve each distinct GitHub URL exactly once.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod cache;
pub mod genrepo;
pub mod github;
pub mod repo;
pub mod scanner;

pub use cache::LinkCache;
pub use repo::{Language, Repository, SourceFile};
pub use scanner::{
    scan_counted, scan_repository, scanner_kernel_stats, CheckPattern, ScanReport,
    ScannerKernelStats,
};
