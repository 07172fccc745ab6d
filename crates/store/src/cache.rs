//! The content-addressed artifact cache.
//!
//! Analysis outputs (traceability reports, code-scan findings, …) are
//! stored as blobs addressed by a [`ContentHash`] of their canonical
//! *input* bytes: the same bot content under the same configuration always
//! maps to the same address, so a re-run over an unchanged population
//! resolves every analysis with a cache hit and performs zero re-analysis.
//!
//! On disk the cache is one pack file of `[16-byte address][blob]` frames
//! kept by a [`Journal`], replayed into an in-memory index at open. The
//! journal repairs a torn pack to its longest valid prefix and appends
//! each new blob; [`ArtifactCache::compact`] rewrites the pack through
//! [`Journal::replace`] keeping only a live set, which is how snapshots
//! drop artifacts orphaned by config changes or superseded runs. The cache
//! keeps no counters: [`crate::AuditStore`] counts a run's hits and misses.

use crate::backend::Backend;
use crate::frame::Frame;
use crate::hash::ContentHash;
use crate::journal::Journal;
use std::collections::BTreeMap;
use std::io;
use std::sync::{Arc, Mutex};

/// Frame kind used inside pack files (distinct namespace from the journal,
/// but kept non-colliding for debuggability).
const K_ARTIFACT: u16 = 0x00a7;

/// Point-in-time shape of the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheSnapshot {
    /// Distinct artifacts indexed.
    pub entries: usize,
    /// Total blob bytes (excluding framing).
    pub blob_bytes: usize,
}

/// A shared, append-only blob store addressed by content hash.
pub struct ArtifactCache {
    journal: Journal,
    index: Mutex<BTreeMap<ContentHash, Vec<u8>>>,
}

/// The pack frame holding `blob` at `hash`.
fn artifact_frame(hash: &ContentHash, blob: &[u8]) -> Frame {
    let mut payload = Vec::with_capacity(16 + blob.len());
    payload.extend_from_slice(&hash.0);
    payload.extend_from_slice(blob);
    Frame::new(K_ARTIFACT, hash.short(), payload)
}

impl ArtifactCache {
    /// Open (replaying and, when damaged, repairing) the pack at `file`.
    pub fn open(backend: Arc<dyn Backend>, file: &str) -> io::Result<ArtifactCache> {
        let (journal, replay) = Journal::open(backend, file)?;
        let mut index = BTreeMap::new();
        for frame in replay.frames {
            if frame.kind != K_ARTIFACT || frame.payload.len() < 16 {
                continue; // foreign or malformed record: skip, don't fail
            }
            let Some(hash) = ContentHash::from_bytes(&frame.payload[..16]) else {
                continue;
            };
            index
                .entry(hash)
                .or_insert_with(|| frame.payload[16..].to_vec());
        }
        Ok(ArtifactCache {
            journal,
            index: Mutex::new(index),
        })
    }

    /// Look up the blob at `hash`.
    pub fn get(&self, hash: &ContentHash) -> Option<Vec<u8>> {
        self.index
            .lock()
            .expect("cache index lock")
            .get(hash)
            .cloned()
    }

    /// Store `blob` at `hash`. Idempotent: re-putting an existing address
    /// is a no-op (content-addressed blobs cannot conflict).
    pub fn put(&self, hash: ContentHash, blob: &[u8]) -> io::Result<()> {
        {
            let mut index = self.index.lock().expect("cache index lock");
            if index.contains_key(&hash) {
                return Ok(());
            }
            index.insert(hash, blob.to_vec());
        }
        let frame = artifact_frame(&hash, blob);
        self.journal.append(frame.kind, frame.key, frame.payload)
    }

    /// Rewrite the pack keeping only `live` addresses (atomically — a crash
    /// mid-compaction leaves the old pack intact), and drop everything else
    /// from the index. Returns how many artifacts were discarded.
    pub fn compact(&self, live: &[ContentHash]) -> io::Result<usize> {
        let mut index = self.index.lock().expect("cache index lock");
        let keep: BTreeMap<ContentHash, Vec<u8>> = live
            .iter()
            .filter_map(|h| index.get(h).map(|blob| (*h, blob.clone())))
            .collect();
        let dropped = index.len() - keep.len();
        self.journal
            .replace(keep.iter().map(|(hash, blob)| artifact_frame(hash, blob)))?;
        *index = keep;
        Ok(dropped)
    }

    /// Current entry count and blob volume.
    pub fn snapshot(&self) -> CacheSnapshot {
        let index = self.index.lock().expect("cache index lock");
        CacheSnapshot {
            entries: index.len(),
            blob_bytes: index.values().map(Vec::len).sum(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;

    fn open(backend: &Arc<MemBackend>) -> ArtifactCache {
        ArtifactCache::open(backend.clone() as Arc<dyn Backend>, "pack").unwrap()
    }

    #[test]
    fn put_get_roundtrip() {
        let backend = Arc::new(MemBackend::new());
        let cache = open(&backend);
        let h = ContentHash::of(b"input");
        assert_eq!(cache.get(&h), None);
        cache.put(h, b"blob bytes").unwrap();
        assert_eq!(cache.get(&h).as_deref(), Some(&b"blob bytes"[..]));
    }

    #[test]
    fn survives_reopen() {
        let backend = Arc::new(MemBackend::new());
        let cache = open(&backend);
        let h = ContentHash::of(b"x");
        cache.put(h, b"persisted").unwrap();
        drop(cache);
        let cache = open(&backend);
        assert_eq!(cache.get(&h).as_deref(), Some(&b"persisted"[..]));
        assert_eq!(
            cache.snapshot(),
            CacheSnapshot {
                entries: 1,
                blob_bytes: 9
            }
        );
    }

    #[test]
    fn torn_pack_tail_recovers_prefix() {
        let backend = Arc::new(MemBackend::new());
        let cache = open(&backend);
        let (h1, h2) = (ContentHash::of(b"1"), ContentHash::of(b"2"));
        cache.put(h1, b"first").unwrap();
        cache.put(h2, b"second").unwrap();
        let bytes = backend.read("pack").unwrap().unwrap();
        backend.poke("pack", bytes[..bytes.len() - 5].to_vec());

        let cache = open(&backend);
        assert!(cache.get(&h1).is_some());
        assert_eq!(cache.get(&h2), None);
        // The torn record was truncated away: new puts replay cleanly.
        cache.put(h2, b"second again").unwrap();
        let cache = open(&backend);
        assert_eq!(cache.get(&h2).as_deref(), Some(&b"second again"[..]));
    }

    #[test]
    fn compact_keeps_only_live() {
        let backend = Arc::new(MemBackend::new());
        let cache = open(&backend);
        let hashes: Vec<ContentHash> = (0..10u8).map(|i| ContentHash::of(&[i])).collect();
        for h in &hashes {
            cache.put(*h, b"payload").unwrap();
        }
        let before = backend.read("pack").unwrap().unwrap().len();
        let dropped = cache.compact(&hashes[..3]).unwrap();
        assert_eq!(dropped, 7);
        assert!(backend.read("pack").unwrap().unwrap().len() < before);
        assert_eq!(cache.snapshot().entries, 3);
        // Survives reopen with only the live set.
        let cache = open(&backend);
        assert!(cache.get(&hashes[0]).is_some());
        assert!(cache.get(&hashes[5]).is_none());
    }

    #[test]
    fn put_is_idempotent() {
        let backend = Arc::new(MemBackend::new());
        let cache = open(&backend);
        let h = ContentHash::of(b"same");
        cache.put(h, b"blob").unwrap();
        let size = backend.read("pack").unwrap().unwrap().len();
        cache.put(h, b"blob").unwrap();
        assert_eq!(
            backend.read("pack").unwrap().unwrap().len(),
            size,
            "no duplicate append"
        );
    }
}
