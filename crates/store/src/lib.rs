//! # store — crash-safe persistence for the audit pipeline
//!
//! The paper's measurement ran for weeks against live services and had to
//! survive captchas, rate limits, and crashes mid-crawl (§4.2). This crate
//! is the durability layer that gives the reproduction the same property.
//! Every store file is one frame log, and only [`Journal`] touches its
//! bytes; each file has one owning type that keeps its index in memory:
//!
//! * [`frame`] — length-prefixed, CRC-checksummed records; decoding any
//!   byte soup recovers the longest valid prefix and never panics;
//! * [`journal`] — the append-only frame log under every file: replay
//!   with truncate-to-valid-prefix repair (also run before the next append
//!   after a failed one, so a long-lived handle never writes behind a torn
//!   frame), append, a scan of frames kept on disk only, one atomic
//!   whole-file replace, and the identity-checked open
//!   ([`Journal::open_as`]) that resumes a file only if its header frame
//!   carries the caller's fingerprint;
//! * [`store`] — the [`AuditStore`] facade the pipeline holds: the unit
//!   journal (`journal.wal`) scoped to a seed/config fingerprint, the
//!   artifact pack it is handed already open, the run's hit/miss and frame
//!   counts, and the kill-switch used to simulate crashes at exact frame
//!   boundaries;
//! * [`cache`] — the content-addressed artifact cache (`artifacts.pack`):
//!   canonical input bytes hash to an address, so unchanged bots are never
//!   re-analyzed across runs; history blobs (epoch reports and deltas) are
//!   indexed without holding their bytes, so an index held for a daemon's
//!   lifetime does not grow with history; compaction rewrites the pack
//!   atomically;
//! * [`validators`] — the HTTP-validator cache (`validators.wal`) behind
//!   the conditional-fetch incremental crawl: URL → (ETag, cached body)
//!   entries that let a warm re-audit validate unchanged pages for one
//!   cheap round-trip instead of a full fetch + parse; the file is
//!   checkpointed to its live map once dead frames outnumber live entries;
//! * [`backend`] — one file-shaped trait with hermetic in-memory and
//!   crash-safe on-disk implementations, so every test can run against
//!   RAM and every production run against a directory.
//!
//! The fourth store file, a tenant's epoch chain (`oplog.wal`), is owned by
//! the `oplog` crate's `EpochChain`, on the same [`Journal`].
//!
//! Like `matchkit`, the crate is intentionally dependency-free: payloads
//! are opaque bytes (serialization stays with the caller), hashing and
//! checksumming are implemented here, and the property tests use an
//! in-crate xorshift generator.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod backend;
pub mod cache;
pub mod checksum;
pub mod frame;
pub mod hash;
pub mod journal;
pub mod store;
pub mod validators;

pub use backend::{Backend, DiskBackend, MemBackend, ScopedBackend};
pub use cache::{ArtifactCache, CacheSnapshot, Compacted};
pub use checksum::crc32;
pub use frame::{decode_all, Decoded, Frame, StopReason};
pub use hash::{fingerprint, fnv64, ContentHash};
pub use journal::{Journal, Kept, Replay};
pub use store::{AuditStore, StoreError, StoreStats, JOURNAL_FILE, K_RUN_HEADER, PACK_FILE};
pub use validators::{ValidatorCache, ValidatorCacheStats, VALIDATOR_FILE};
