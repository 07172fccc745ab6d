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
//!
//! A long-lived index must not grow with history, so blobs come in two
//! frame kinds. An ordinary blob ([`ArtifactCache::put`]) is held in
//! memory: audits look these up by the hundred. A *history* blob
//! ([`ArtifactCache::put_history`]) — an epoch's report or delta, written
//! once and read back only to restore a restarted daemon's baseline or to
//! survive compaction — is indexed by address alone; reading it scans the
//! file. Packs written before history frames existed load unchanged, their
//! reports as ordinary blobs.

use crate::backend::Backend;
use crate::frame::Frame;
use crate::hash::ContentHash;
use crate::journal::Journal;
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::sync::{Arc, Mutex};

/// Frame kind used inside pack files (distinct namespace from the journal,
/// but kept non-colliding for debuggability).
const K_ARTIFACT: u16 = 0x00a7;
/// Frame kind of a history blob: same layout, bytes left on disk.
const K_HISTORY: u16 = 0x00a8;

/// Point-in-time shape of the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheSnapshot {
    /// Distinct blobs indexed, history blobs included.
    pub entries: usize,
    /// History blobs among them, whose bytes stay on disk.
    pub history: usize,
    /// Blob bytes held in memory (excluding framing).
    pub held_bytes: usize,
}

/// What one [`ArtifactCache::compact`] rewrite did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Compacted {
    /// Blobs the new pack holds.
    pub kept: usize,
    /// Blobs dropped from the index and the pack.
    pub dropped: usize,
    /// Bytes of valid frames in the pack before the rewrite.
    pub bytes_before: u64,
    /// Bytes of the rewritten pack.
    pub bytes_after: u64,
}

/// One indexed blob: its bytes, or only its presence for a history blob.
enum Slot {
    Held(Vec<u8>),
    History,
}

/// A shared, append-only blob store addressed by content hash.
pub struct ArtifactCache {
    journal: Journal,
    index: Mutex<BTreeMap<ContentHash, Slot>>,
}

/// The pack frame of `kind` holding `blob` at `hash`.
fn pack_frame(kind: u16, hash: &ContentHash, blob: &[u8]) -> Frame {
    let mut payload = Vec::with_capacity(16 + blob.len());
    payload.extend_from_slice(&hash.0);
    payload.extend_from_slice(blob);
    Frame::new(kind, hash.short(), payload)
}

/// The address of a pack frame of either blob kind; `None` for a foreign
/// or malformed frame, which is skipped rather than failed on.
fn address(frame: &Frame) -> Option<ContentHash> {
    if frame.kind != K_ARTIFACT && frame.kind != K_HISTORY {
        return None;
    }
    ContentHash::from_bytes(frame.payload.get(..16)?)
}

/// The history blobs among `wanted` in `frames`, a scan of the pack.
fn history_blobs(
    frames: Vec<Frame>,
    wanted: &BTreeSet<ContentHash>,
) -> BTreeMap<ContentHash, Vec<u8>> {
    let mut found = BTreeMap::new();
    for mut frame in frames {
        match address(&frame) {
            Some(hash) if frame.kind == K_HISTORY && wanted.contains(&hash) => {
                frame.payload.drain(..16);
                found.entry(hash).or_insert(frame.payload);
            }
            _ => {}
        }
    }
    found
}

impl ArtifactCache {
    /// Open (replaying and, when damaged, repairing) the pack at `file`.
    pub fn open(backend: Arc<dyn Backend>, file: &str) -> io::Result<ArtifactCache> {
        let (journal, replay) = Journal::open(backend, file)?;
        let mut index = BTreeMap::new();
        for frame in replay.frames {
            let Some(hash) = address(&frame) else {
                continue;
            };
            index.entry(hash).or_insert_with(|| match frame.kind {
                K_HISTORY => Slot::History,
                _ => Slot::Held(frame.payload[16..].to_vec()),
            });
        }
        Ok(ArtifactCache {
            journal,
            index: Mutex::new(index),
        })
    }

    /// Look up the blob at `hash`. A history blob costs a scan of the
    /// file, and one the scan cannot read is a miss.
    pub fn get(&self, hash: &ContentHash) -> Option<Vec<u8>> {
        match self.index.lock().expect("cache index lock").get(hash)? {
            Slot::Held(blob) => return Some(blob.clone()),
            Slot::History => {}
        }
        let scan = self.journal.scan().ok()?;
        history_blobs(scan.frames, &BTreeSet::from([*hash])).remove(hash)
    }

    /// Store `blob` at `hash`. Idempotent: re-putting an existing address
    /// is a no-op (content-addressed blobs cannot conflict).
    pub fn put(&self, hash: ContentHash, blob: &[u8]) -> io::Result<()> {
        self.insert(K_ARTIFACT, hash, blob)
    }

    /// Store `blob` at `hash` as a history blob: indexed, but its bytes are
    /// not held in memory. Idempotent like [`Self::put`].
    pub fn put_history(&self, hash: ContentHash, blob: &[u8]) -> io::Result<()> {
        self.insert(K_HISTORY, hash, blob)
    }

    fn insert(&self, kind: u16, hash: ContentHash, blob: &[u8]) -> io::Result<()> {
        {
            let mut index = self.index.lock().expect("cache index lock");
            if index.contains_key(&hash) {
                return Ok(());
            }
            let slot = match kind {
                K_HISTORY => Slot::History,
                _ => Slot::Held(blob.to_vec()),
            };
            index.insert(hash, slot);
        }
        let frame = pack_frame(kind, &hash, blob);
        self.journal
            .append(frame.kind, frame.key, frame.payload)
            .inspect_err(|_| {
                // Not on disk, so a reopen would not index it either.
                self.index.lock().expect("cache index lock").remove(&hash);
            })
    }

    /// Rewrite the pack keeping only `live` addresses (atomically — a crash
    /// mid-compaction leaves the old pack intact), and drop everything else
    /// from the index. History blobs stay history frames; their bytes come
    /// from one scan of the file.
    pub fn compact(&self, live: &[ContentHash]) -> io::Result<Compacted> {
        let mut index = self.index.lock().expect("cache index lock");
        let mut live: BTreeSet<ContentHash> = live
            .iter()
            .filter(|hash| index.contains_key(hash))
            .copied()
            .collect();
        let scan = self.journal.scan()?;
        let bytes_before = scan.valid_bytes as u64;
        let history = history_blobs(scan.frames, &live);
        // A history blob the scan cannot find is gone from the file too.
        live.retain(|hash| matches!(index[hash], Slot::Held(_)) || history.contains_key(hash));
        let frames = live.iter().map(|hash| match &index[hash] {
            Slot::Held(blob) => pack_frame(K_ARTIFACT, hash, blob),
            Slot::History => pack_frame(K_HISTORY, hash, &history[hash]),
        });
        let bytes_after = self.journal.replace(frames)?;
        let before = index.len();
        index.retain(|hash, _| live.contains(hash));
        Ok(Compacted {
            kept: index.len(),
            dropped: before - index.len(),
            bytes_before,
            bytes_after,
        })
    }

    /// Current entry count and held blob volume.
    pub fn snapshot(&self) -> CacheSnapshot {
        let index = self.index.lock().expect("cache index lock");
        let mut snapshot = CacheSnapshot {
            entries: index.len(),
            history: 0,
            held_bytes: 0,
        };
        for slot in index.values() {
            match slot {
                Slot::Held(blob) => snapshot.held_bytes += blob.len(),
                Slot::History => snapshot.history += 1,
            }
        }
        snapshot
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
                history: 0,
                held_bytes: 9
            }
        );
    }

    #[test]
    fn history_blobs_are_indexed_but_not_held() {
        let backend = Arc::new(MemBackend::new());
        let cache = open(&backend);
        let (report, blob) = (ContentHash::of(b"report"), vec![7u8; 4096]);
        cache.put_history(report, &blob).unwrap();
        cache.put(ContentHash::of(b"analysis"), b"held").unwrap();
        let expect = CacheSnapshot {
            entries: 2,
            history: 1,
            held_bytes: 4,
        };
        assert_eq!(cache.snapshot(), expect);
        assert_eq!(cache.get(&report), Some(blob.clone()));
        drop(cache);

        let cache = open(&backend);
        assert_eq!(cache.snapshot(), expect, "the index holds no history bytes");
        assert_eq!(cache.get(&report), Some(blob), "read back by a scan");
        // Idempotent across kinds: the address is already indexed.
        let size = backend.read("pack").unwrap().unwrap().len();
        cache.put(report, b"other").unwrap();
        assert_eq!(backend.read("pack").unwrap().unwrap().len(), size);
    }

    #[test]
    fn compaction_keeps_history_blobs_as_history_frames() {
        let backend = Arc::new(MemBackend::new());
        let cache = open(&backend);
        let keys: Vec<ContentHash> = (0..6u8).map(|i| ContentHash::of(&[i])).collect();
        for (i, key) in keys.iter().enumerate() {
            let blob = vec![i as u8; 100 + i];
            match i % 2 {
                0 => cache.put_history(*key, &blob).unwrap(),
                _ => cache.put(*key, &blob).unwrap(),
            }
        }
        let before = backend.read("pack").unwrap().unwrap().len() as u64;
        let compacted = cache.compact(&keys[..4]).unwrap();
        let after = backend.read("pack").unwrap().unwrap();
        assert_eq!(
            compacted,
            Compacted {
                kept: 4,
                dropped: 2,
                bytes_before: before,
                bytes_after: after.len() as u64,
            }
        );
        let kinds: BTreeMap<ContentHash, u16> = crate::frame::decode_all(&after)
            .frames
            .iter()
            .map(|frame| (address(frame).unwrap(), frame.kind))
            .collect();
        let expect: BTreeMap<ContentHash, u16> = keys[..4]
            .iter()
            .enumerate()
            .map(|(i, key)| (*key, [K_HISTORY, K_ARTIFACT][i % 2]))
            .collect();
        assert_eq!(kinds, expect);
        assert_eq!(cache.snapshot().history, 2);
        let cache = open(&backend);
        assert_eq!(cache.snapshot().history, 2);
        assert_eq!(cache.get(&keys[2]), Some(vec![2u8; 102]));
        assert_eq!(cache.get(&keys[4]), None);
    }

    /// A backend whose armed append writes half its bytes, then fails.
    #[derive(Default)]
    struct TearOnce {
        inner: MemBackend,
        armed: Mutex<bool>,
    }

    impl Backend for TearOnce {
        fn read(&self, name: &str) -> io::Result<Option<Vec<u8>>> {
            self.inner.read(name)
        }
        fn write_atomic(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
            self.inner.write_atomic(name, bytes)
        }
        fn append(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
            if std::mem::take(&mut *self.armed.lock().unwrap()) {
                self.inner.append(name, &bytes[..bytes.len() / 2])?;
                return Err(io::Error::other("injected torn append"));
            }
            self.inner.append(name, bytes)
        }
        fn remove(&self, name: &str) -> io::Result<()> {
            self.inner.remove(name)
        }
    }

    #[test]
    fn a_failed_put_is_forgotten_and_the_next_put_repairs_the_tail() {
        let backend = Arc::new(TearOnce::default());
        let cache = ArtifactCache::open(backend.clone(), "pack").unwrap();
        let (first, torn, later) = (
            ContentHash::of(b"1"),
            ContentHash::of(b"2"),
            ContentHash::of(b"3"),
        );
        cache.put(first, b"first").unwrap();
        *backend.armed.lock().unwrap() = true;
        cache.put_history(torn, b"torn in half").unwrap_err();
        assert_eq!(cache.get(&torn), None, "a failed put is not indexed");
        cache.put(later, b"later").unwrap();

        let reopened = ArtifactCache::open(backend, "pack").unwrap();
        assert_eq!(reopened.get(&first).as_deref(), Some(&b"first"[..]));
        assert_eq!(reopened.get(&torn), None);
        assert_eq!(reopened.get(&later).as_deref(), Some(&b"later"[..]));
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
        let compacted = cache.compact(&hashes[..3]).unwrap();
        assert_eq!((compacted.kept, compacted.dropped), (3, 7));
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
