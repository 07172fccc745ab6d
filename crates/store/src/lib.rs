//! # store — crash-safe persistence for the audit pipeline
//!
//! The paper's measurement ran for weeks against live services and had to
//! survive captchas, rate limits, and crashes mid-crawl (§4.2). This crate
//! is the durability layer that gives the reproduction the same property.
//! A store directory holds up to three files, and each addresses what it
//! holds by content, by URL or by epoch, never by a run's position: a rerun
//! after a crash finds what the killed run stored, whatever order it ran
//! in. Every store file is one frame log, and only [`Journal`] touches its
//! bytes; each file has one owning type that keeps its index in memory:
//!
//! * [`frame`] — length-prefixed, CRC-checksummed records; decoding any
//!   byte soup recovers the longest valid prefix and never panics;
//! * [`journal`] — the append-only frame log under every file: replay
//!   with truncate-to-valid-prefix repair (also run before the next append
//!   after a failed one, so a long-lived handle never writes behind a torn
//!   frame), append, a scan of frames kept on disk only, one atomic
//!   whole-file replace, and the identity-checked open
//!   ([`Journal::open_as`]) that keeps a file only if its header frame
//!   carries the caller's fingerprint;
//! * [`cache`] — the content-addressed artifact cache (`artifacts.pack`):
//!   canonical input bytes hash to an address, so unchanged bots are never
//!   re-analyzed across runs and a bot's honeypot guild is never re-driven;
//!   history blobs (epoch reports and deltas) are indexed without holding
//!   their bytes, so an index held for a daemon's lifetime does not grow
//!   with history; compaction rewrites the pack atomically;
//! * [`store`] — the [`AuditStore`] facade one run holds over the pack it
//!   is handed already open: the run's hit/miss counts, the addresses it
//!   referenced, and the kill switch that simulates a crash at an exact
//!   durable write;
//! * [`validators`] — the HTTP-validator cache (`validators.wal`) behind
//!   the conditional-fetch incremental crawl: URL → (ETag, cached body)
//!   entries, each tagged with the epoch it was fetched at, that let a
//!   warm re-audit, or a rerun after a crash, validate unchanged pages for
//!   one cheap round-trip instead of a full fetch + parse; a read at an
//!   older epoch does not see a later entry, and the file is checkpointed
//!   to its live map once dead frames outnumber live entries;
//! * [`backend`] — one file-shaped trait with hermetic in-memory and
//!   crash-safe on-disk implementations, so every test can run against
//!   RAM and every production run against a directory.
//!
//! The third store file, a tenant's epoch chain (`oplog.wal`), is owned by
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
pub use store::{AuditStore, StoreError, StoreStats, PACK_FILE};
pub use validators::{ValidatorCache, ValidatorCacheStats, VALIDATOR_FILE};
