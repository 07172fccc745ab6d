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
//!
//! A cache may stay open across many runs (the fleet daemon holds one per
//! tenant), so the file must not grow without bound: committing an
//! unchanged epoch appends nothing, and once dead frames (superseded
//! entries and metas) outnumber live entries, the commit checkpoints the
//! live map through one atomic [`Journal::replace`] — after a crash the
//! file holds the old generation or the new one, whole.

use crate::backend::Backend;
use crate::frame::Frame;
use crate::hash::fnv64;
use crate::journal::Journal;
use std::collections::BTreeMap;
use std::io;
use std::iter;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

/// Validator journal file name inside a store directory.
pub const VALIDATOR_FILE: &str = "validators.wal";

/// Frame kind: cache identity (fingerprint + epoch). Re-appended when the
/// epoch advances; the latest frame wins on replay.
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
    fingerprint: u64,
    live: Mutex<Live>,
    replayed: u64,
    reset: bool,
    /// Whether [`Self::take_open_counts`] has handed out the open's counts.
    open_counted: AtomicBool,
}

/// The in-memory map and what the file holds beyond it.
struct Live {
    entries: BTreeMap<String, Vec<u8>>,
    epoch: u32,
    /// Frames in the file: one meta frame and one per entry are live, the
    /// rest dead.
    frames: usize,
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

fn meta_frame(fingerprint: u64, epoch: u32) -> Frame {
    Frame::new(K_VALIDATOR_META, 0, encode_meta(fingerprint, epoch))
}

fn entry_frame(key: &str, value: &[u8]) -> Frame {
    let mut payload = (key.len() as u32).to_le_bytes().to_vec();
    payload.extend_from_slice(key.as_bytes());
    payload.extend_from_slice(value);
    Frame::new(K_VALIDATOR_ENTRY, fnv64(key.as_bytes()), payload)
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
        let header = meta_frame(fingerprint, 0);
        let (journal, kept) = Journal::open_as(backend, VALIDATOR_FILE, header, true)?;
        let mut live = Live {
            entries: BTreeMap::new(),
            epoch: 0,
            frames: kept.frames.len().max(1),
        };
        for frame in kept.frames {
            match frame.kind {
                K_VALIDATOR_META => {
                    if let Some((_, e)) = decode_meta(&frame.payload) {
                        live.epoch = e;
                    }
                }
                K_VALIDATOR_ENTRY => {
                    if let Some((key, value)) = decode_entry(&frame.payload) {
                        live.entries.insert(key, value);
                    }
                }
                _ => {}
            }
        }
        Ok(ValidatorCache {
            journal,
            fingerprint,
            replayed: live.entries.len() as u64,
            live: Mutex::new(live),
            reset: kept.discarded,
            open_counted: AtomicBool::new(false),
        })
    }

    fn live(&self) -> std::sync::MutexGuard<'_, Live> {
        self.live.lock().expect("validator map lock")
    }

    /// The epoch the cached validators describe (0 until a crawl commits).
    pub fn epoch(&self) -> u32 {
        self.live().epoch
    }

    /// Durably advance the described epoch (call once a crawl of `epoch`
    /// has completed and every entry reflects that world). Committing the
    /// epoch already held writes nothing, unless dead frames outnumber live
    /// entries: then the file is checkpointed to the live map, atomically.
    pub fn commit_epoch(&self, epoch: u32) -> io::Result<()> {
        let mut live = self.live();
        let dead = live.frames.saturating_sub(1 + live.entries.len());
        if dead > live.entries.len() {
            let entries = live.entries.iter().map(|(k, v)| entry_frame(k, v));
            self.journal
                .replace(iter::once(meta_frame(self.fingerprint, epoch)).chain(entries))?;
            live.frames = 1 + live.entries.len();
        } else if epoch != live.epoch {
            let meta = meta_frame(self.fingerprint, epoch);
            self.journal.append(meta.kind, meta.key, meta.payload)?;
            live.frames += 1;
        }
        live.epoch = epoch;
        Ok(())
    }

    /// The cached bytes for `key`, if any.
    pub fn get(&self, key: &str) -> Option<Vec<u8>> {
        self.live().entries.get(key).cloned()
    }

    /// Durably record (or replace) an entry.
    pub fn put(&self, key: &str, value: &[u8]) -> io::Result<()> {
        let mut live = self.live();
        let frame = entry_frame(key, value);
        self.journal.append(frame.kind, frame.key, frame.payload)?;
        live.frames += 1;
        live.entries.insert(key.to_string(), value.to_vec());
        Ok(())
    }

    /// Open-time and shape counters.
    pub fn stats(&self) -> ValidatorCacheStats {
        ValidatorCacheStats {
            entries: self.live().entries.len() as u64,
            replayed: self.replayed,
            reset: self.reset,
        }
    }

    /// The open's [`ValidatorCacheStats::replayed`] count and
    /// [`ValidatorCacheStats::reset`] flag the first time it is called, and
    /// `(0, false)` after: a cache held across runs reports its open once.
    pub fn take_open_counts(&self) -> (u64, bool) {
        match self.open_counted.swap(true, Ordering::Relaxed) {
            false => (self.replayed, self.reset),
            true => (0, false),
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
    fn committing_the_held_epoch_appends_nothing() {
        let backend = mem();
        let cache = ValidatorCache::open(backend.clone(), 3).unwrap();
        cache.put("https://a/x", b"etag-1").unwrap();
        cache.commit_epoch(1).unwrap();
        let size = backend.read(VALIDATOR_FILE).unwrap().unwrap().len();
        for _ in 0..3 {
            cache.commit_epoch(1).unwrap();
        }
        assert_eq!(backend.read(VALIDATOR_FILE).unwrap().unwrap().len(), size);
        assert_eq!(ValidatorCache::open(backend, 3).unwrap().epoch(), 1);
    }

    #[test]
    fn open_counts_are_taken_once_per_handle() {
        let backend = mem();
        let cache = ValidatorCache::open(backend.clone(), 1).unwrap();
        cache.put("k", b"v").unwrap();
        assert_eq!(cache.take_open_counts(), (0, false));
        drop(cache);
        let cache = ValidatorCache::open(backend.clone(), 2).unwrap();
        assert_eq!(cache.take_open_counts(), (0, true), "a reset open");
        assert_eq!(cache.take_open_counts(), (0, false));
        cache.put("k", b"v").unwrap();
        drop(cache);
        let cache = ValidatorCache::open(backend, 2).unwrap();
        assert_eq!(cache.take_open_counts(), (1, false));
        assert_eq!(cache.take_open_counts(), (0, false), "held: counted once");
        assert_eq!(cache.stats().replayed, 1);
    }

    /// A cache whose five puts to one key leave four dead frames beside
    /// two live entries, so its next commit checkpoints.
    fn churned(backend: Arc<dyn Backend>) -> ValidatorCache {
        let cache = ValidatorCache::open(backend, 5).unwrap();
        for round in 0..5u8 {
            cache.put("https://a/hot", &[round; 32]).unwrap();
        }
        cache.put("https://a/cold", b"etag-cold").unwrap();
        cache
    }

    fn assert_churned_map(cache: &ValidatorCache) {
        assert_eq!(cache.stats().entries, 2);
        assert_eq!(cache.get("https://a/hot"), Some(vec![4u8; 32]));
        assert_eq!(
            cache.get("https://a/cold").as_deref(),
            Some(&b"etag-cold"[..])
        );
    }

    #[test]
    fn a_checkpoint_keeps_the_map_and_epoch_across_reopen() {
        let backend = mem();
        let cache = churned(backend.clone());
        let before = backend.read(VALIDATOR_FILE).unwrap().unwrap().len();
        cache.commit_epoch(3).unwrap();
        let after = backend.read(VALIDATOR_FILE).unwrap().unwrap();
        assert!(after.len() < before, "{} >= {before}", after.len());
        assert_eq!(crate::frame::decode_all(&after).frames.len(), 3);
        assert_churned_map(&cache);
        // The checkpointed file is still appendable and replays whole.
        cache.put("https://a/new", b"etag-new").unwrap();
        drop(cache);
        let cache = ValidatorCache::open(backend, 5).unwrap();
        assert_eq!(cache.epoch(), 3);
        assert_eq!(cache.stats().entries, 3);
        assert!(!cache.stats().reset);
        assert_eq!(cache.get("https://a/hot"), Some(vec![4u8; 32]));
    }

    /// How [`CrashyBackend`] sabotages the checkpoint's atomic replace.
    #[derive(Clone, Copy, PartialEq, Debug)]
    enum Sabotage {
        /// Fail without touching the file: the old generation survives.
        FailBeforeApply,
        /// Apply the replace, then report failure: the new generation is
        /// already durable.
        FailAfterApply,
    }

    /// A backend that injects exactly one crash into a validator rewrite.
    struct CrashyBackend {
        inner: MemBackend,
        armed: Mutex<Option<Sabotage>>,
    }

    impl Backend for CrashyBackend {
        fn read(&self, name: &str) -> io::Result<Option<Vec<u8>>> {
            self.inner.read(name)
        }
        fn write_atomic(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
            if name == VALIDATOR_FILE {
                if let Some(mode) = self.armed.lock().expect("sabotage lock").take() {
                    if mode == Sabotage::FailAfterApply {
                        self.inner.write_atomic(name, bytes)?;
                    }
                    return Err(io::Error::other("injected crash mid-checkpoint"));
                }
            }
            self.inner.write_atomic(name, bytes)
        }
        fn append(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
            self.inner.append(name, bytes)
        }
        fn remove(&self, name: &str) -> io::Result<()> {
            self.inner.remove(name)
        }
    }

    #[test]
    fn a_crash_mid_checkpoint_leaves_the_old_or_new_generation_whole() {
        let control = mem();
        churned(control.clone()).commit_epoch(3).unwrap();
        let new_generation = control.read(VALIDATOR_FILE).unwrap().unwrap();

        for sabotage in [Sabotage::FailBeforeApply, Sabotage::FailAfterApply] {
            let crashy = Arc::new(CrashyBackend {
                inner: MemBackend::new(),
                armed: Mutex::new(None),
            });
            let cache = churned(crashy.clone());
            let old_generation = crashy.read(VALIDATOR_FILE).unwrap().unwrap();
            *crashy.armed.lock().unwrap() = Some(sabotage);
            let err = cache.commit_epoch(3).unwrap_err();
            assert!(err.to_string().contains("injected crash"), "{sabotage:?}");
            assert_eq!(cache.epoch(), 0, "{sabotage:?}: the commit did not land");
            let (file, epoch) = match sabotage {
                Sabotage::FailBeforeApply => (old_generation, 0),
                Sabotage::FailAfterApply => (new_generation.clone(), 3),
            };
            assert_eq!(crashy.read(VALIDATOR_FILE).unwrap().unwrap(), file);
            let reopened = ValidatorCache::open(crashy.clone(), 5).unwrap();
            assert_eq!(reopened.epoch(), epoch, "{sabotage:?}");
            assert_churned_map(&reopened);
            // Retrying on the held handle converges on the new generation.
            cache.commit_epoch(3).unwrap();
            assert_eq!(
                crashy.read(VALIDATOR_FILE).unwrap().unwrap(),
                new_generation,
                "{sabotage:?}"
            );
        }
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
