//! The validator cache: journaled HTTP content validators for the
//! conditional-fetch crawl.
//!
//! An incremental re-audit only pays off if the crawler remembers, across
//! processes, which validator (ETag) each page served last time and what
//! body that validator covered. [`ValidatorCache`] persists exactly that:
//! a string-keyed map (URL → opaque caller bytes) journaled through the
//! same crash-safe [`Journal`] as the pipeline's unit log, with the same
//! identity-checked open ([`Journal::open_as`]), living in its own file
//! (`validators.wal`) next to the artifact pack so it survives fresh
//! (non-resume) runs the way the pack does.
//!
//! The cache is *performance state, not correctness state*: a stale or
//! missing entry only costs an extra full fetch, never a wrong report, so
//! recovery policy is simple — any damage or identity mismatch throws the
//! whole file away. Identity is the run fingerprint (seed + config, epoch
//! excluded), so epoch N+1 of the same world warms from epoch N, while a
//! different seed or crawl config starts cold.
//!
//! The meta frame also records the *epoch* the cached validators describe.
//! That drives the `changed-since` cross-check: a crawler warming from
//! epoch N asks the listing site what changed after N. The epoch is only
//! advanced by the caller once a crawl completes, so a crash mid-crawl
//! leaves a conservative (older) epoch behind — the next run re-checks
//! more pages than strictly needed, which is safe.

use crate::backend::Backend;
use crate::frame::Frame;
use crate::hash::fnv64;
use crate::journal::Journal;
use std::collections::BTreeMap;
use std::io;
use std::sync::{Arc, Mutex};

/// Validator journal file name inside a store directory.
pub const VALIDATOR_FILE: &str = "validators.wal";

/// Frame kind: cache identity (fingerprint + epoch). Re-appended on epoch
/// advance; the latest frame wins on replay.
const K_VALIDATOR_META: u16 = 0x0100;
/// Frame kind: one cached entry (`key_len | key | value`).
const K_VALIDATOR_ENTRY: u16 = 0x0101;

/// Counters describing how an open went and what the cache holds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ValidatorCacheStats {
    /// Entries live in the map.
    pub entries: u64,
    /// Entries recovered from the journal at open.
    pub replayed: u64,
    /// True when the on-disk cache belonged to a different run identity
    /// (or was damaged beyond the valid prefix) and was discarded.
    pub reset: bool,
}

/// A journaled, crash-safe map of content validators for one run identity.
pub struct ValidatorCache {
    journal: Journal,
    entries: Mutex<BTreeMap<String, Vec<u8>>>,
    fingerprint: u64,
    epoch: Mutex<u32>,
    replayed: u64,
    reset: bool,
}

fn encode_meta(fingerprint: u64, epoch: u32) -> Vec<u8> {
    let mut payload = fingerprint.to_le_bytes().to_vec();
    payload.extend_from_slice(&epoch.to_le_bytes());
    payload
}

fn decode_meta(payload: &[u8]) -> Option<(u64, u32)> {
    if payload.len() < 12 {
        return None;
    }
    let fp = u64::from_le_bytes(payload[..8].try_into().ok()?);
    let epoch = u32::from_le_bytes(payload[8..12].try_into().ok()?);
    Some((fp, epoch))
}

fn encode_entry(key: &str, value: &[u8]) -> Vec<u8> {
    let mut payload = (key.len() as u32).to_le_bytes().to_vec();
    payload.extend_from_slice(key.as_bytes());
    payload.extend_from_slice(value);
    payload
}

fn decode_entry(payload: &[u8]) -> Option<(String, Vec<u8>)> {
    if payload.len() < 4 {
        return None;
    }
    let key_len = u32::from_le_bytes(payload[..4].try_into().ok()?) as usize;
    if payload.len() < 4 + key_len {
        return None;
    }
    let key = String::from_utf8(payload[4..4 + key_len].to_vec()).ok()?;
    Some((key, payload[4 + key_len..].to_vec()))
}

impl ValidatorCache {
    /// Open (or create) the validator cache for the run identified by
    /// `fingerprint`. An existing cache with a different identity is
    /// discarded — warming from another world's validators would only
    /// waste conditional fetches.
    pub fn open(backend: Arc<dyn Backend>, fingerprint: u64) -> io::Result<ValidatorCache> {
        let header = Frame::new(K_VALIDATOR_META, 0, encode_meta(fingerprint, 0));
        let (journal, kept) = Journal::open_as(backend, VALIDATOR_FILE, header, true)?;
        let mut entries = BTreeMap::new();
        let mut epoch = 0u32;
        for frame in kept.frames {
            match frame.kind {
                K_VALIDATOR_META => {
                    if let Some((_, e)) = decode_meta(&frame.payload) {
                        epoch = e;
                    }
                }
                K_VALIDATOR_ENTRY => {
                    if let Some((key, value)) = decode_entry(&frame.payload) {
                        entries.insert(key, value);
                    }
                }
                _ => {}
            }
        }
        Ok(ValidatorCache {
            journal,
            replayed: entries.len() as u64,
            entries: Mutex::new(entries),
            fingerprint,
            epoch: Mutex::new(epoch),
            reset: kept.discarded,
        })
    }

    /// The epoch the cached validators describe (0 until a crawl commits).
    pub fn epoch(&self) -> u32 {
        *self.epoch.lock().expect("epoch lock")
    }

    /// Durably advance the described epoch (call once a crawl of `epoch`
    /// has completed and every entry reflects that world).
    pub fn commit_epoch(&self, epoch: u32) -> io::Result<()> {
        self.journal
            .append(K_VALIDATOR_META, 0, encode_meta(self.fingerprint, epoch))?;
        *self.epoch.lock().expect("epoch lock") = epoch;
        Ok(())
    }

    /// The cached bytes for `key`, if any.
    pub fn get(&self, key: &str) -> Option<Vec<u8>> {
        self.entries.lock().expect("entries lock").get(key).cloned()
    }

    /// Durably record (or replace) an entry.
    pub fn put(&self, key: &str, value: &[u8]) -> io::Result<()> {
        self.journal.append(
            K_VALIDATOR_ENTRY,
            fnv64(key.as_bytes()),
            encode_entry(key, value),
        )?;
        self.entries
            .lock()
            .expect("entries lock")
            .insert(key.to_string(), value.to_vec());
        Ok(())
    }

    /// Open-time and shape counters.
    pub fn stats(&self) -> ValidatorCacheStats {
        ValidatorCacheStats {
            entries: self.entries.lock().expect("entries lock").len() as u64,
            replayed: self.replayed,
            reset: self.reset,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;

    fn mem() -> Arc<MemBackend> {
        Arc::new(MemBackend::new())
    }

    #[test]
    fn entries_and_epoch_survive_reopen() {
        let backend = mem();
        let cache = ValidatorCache::open(backend.clone(), 42).unwrap();
        cache.put("https://a/x", b"etag-1|body").unwrap();
        cache.put("https://a/y", b"etag-2|body").unwrap();
        cache.put("https://a/x", b"etag-3|newer").unwrap();
        cache.commit_epoch(2).unwrap();
        drop(cache);

        let cache = ValidatorCache::open(backend, 42).unwrap();
        assert_eq!(cache.epoch(), 2);
        assert_eq!(
            cache.get("https://a/x").as_deref(),
            Some(&b"etag-3|newer"[..])
        );
        assert_eq!(
            cache.get("https://a/y").as_deref(),
            Some(&b"etag-2|body"[..])
        );
        assert_eq!(cache.stats().entries, 2);
        assert!(!cache.stats().reset);
    }

    #[test]
    fn foreign_fingerprint_resets_the_cache() {
        let backend = mem();
        let cache = ValidatorCache::open(backend.clone(), 1).unwrap();
        cache.put("k", b"v").unwrap();
        cache.commit_epoch(5).unwrap();
        drop(cache);

        let cache = ValidatorCache::open(backend, 2).unwrap();
        assert_eq!(cache.get("k"), None, "foreign validators must not warm");
        assert_eq!(cache.epoch(), 0);
        assert!(cache.stats().reset);
    }

    #[test]
    fn torn_tail_keeps_the_valid_prefix() {
        let backend = mem();
        let cache = ValidatorCache::open(backend.clone(), 7).unwrap();
        cache.put("keep", b"safe").unwrap();
        cache.put("tear", b"lost to the torn tail").unwrap();
        drop(cache);

        let bytes = backend.read(VALIDATOR_FILE).unwrap().unwrap();
        backend.poke(VALIDATOR_FILE, bytes[..bytes.len() - 4].to_vec());

        let cache = ValidatorCache::open(backend.clone(), 7).unwrap();
        assert_eq!(cache.get("keep").as_deref(), Some(&b"safe"[..]));
        assert_eq!(cache.get("tear"), None);
        // And the repaired file accepts new entries that then replay.
        cache.put("tear", b"rewritten").unwrap();
        drop(cache);
        let cache = ValidatorCache::open(backend, 7).unwrap();
        assert_eq!(cache.get("tear").as_deref(), Some(&b"rewritten"[..]));
    }

    #[test]
    fn uncommitted_crash_replays_a_conservative_superset_at_the_old_epoch() {
        let backend = mem();
        let cache = ValidatorCache::open(backend.clone(), 11).unwrap();
        cache.put("https://a/x", b"etag-1").unwrap();
        cache.commit_epoch(1).unwrap();
        // Epoch 2's crawl gets partway — new and updated validators are
        // journaled — and then the process dies before commit_epoch(2).
        cache.put("https://a/x", b"etag-2").unwrap();
        cache.put("https://a/z", b"etag-new").unwrap();
        drop(cache);

        let cache = ValidatorCache::open(backend, 11).unwrap();
        // Conservative: the epoch stays at the last committed crawl, so
        // the next run re-checks everything changed after epoch 1...
        assert_eq!(cache.epoch(), 1);
        // ...while every entry written before the crash is retained — a
        // superset of epoch 1's map, never a partial rollback. Stale
        // entries only cost an extra conditional fetch, never a wrong
        // report.
        assert_eq!(cache.stats().entries, 2);
        assert_eq!(cache.get("https://a/x").as_deref(), Some(&b"etag-2"[..]));
        assert_eq!(cache.get("https://a/z").as_deref(), Some(&b"etag-new"[..]));
    }

    #[test]
    fn damaged_header_resets_rather_than_lies() {
        let backend = mem();
        let cache = ValidatorCache::open(backend.clone(), 9).unwrap();
        cache.put("k", b"v").unwrap();
        drop(cache);

        // Flip a byte inside the meta frame: the whole file is discarded.
        let mut bytes = backend.read(VALIDATOR_FILE).unwrap().unwrap();
        let mid = bytes.len() / 4;
        bytes[mid] ^= 0xff;
        backend.poke(VALIDATOR_FILE, bytes);

        let cache = ValidatorCache::open(backend, 9).unwrap();
        assert_eq!(cache.get("k"), None);
    }
}
