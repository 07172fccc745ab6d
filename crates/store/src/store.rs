//! The audit store: one journal under a run identity, plus the artifact
//! cache the run reads and extends.
//!
//! [`AuditStore`] is what the pipeline holds. It scopes the write-ahead
//! journal to a *fingerprint* — a caller-computed digest of seed and
//! configuration — so frames from an incompatible earlier run are never
//! replayed into the wrong world: on open, a journal whose header frame
//! disagrees with the requested fingerprint is discarded (the artifact
//! pack, being content-addressed, always survives and simply misses).
//! The store takes its pack already open: a one-off run opens one for
//! itself, while a long-lived owner (the fleet daemon) hands every run of a
//! tenant the same held [`ArtifactCache`], so no run re-reads the pack.
//! The run's artifact hit and miss counts live here too, since every
//! per-bot lookup goes through [`AuditStore::artifact_get`], which counts
//! each address once per handle.
//!
//! The store also hosts the crash lever the resumability tests lean on:
//! [`AuditStore::set_kill_after`] arms a budget of durable writes, and the
//! write that would exceed it fails with [`StoreError::Interrupted`] — from
//! the pipeline's point of view, the process died right there, except the
//! test harness gets to keep the handle and resume.

use crate::backend::Backend;
use crate::cache::ArtifactCache;
use crate::frame::Frame;
use crate::hash::ContentHash;
use crate::journal::Journal;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Journal file name inside a store directory.
pub const JOURNAL_FILE: &str = "journal.wal";
/// Artifact pack file name inside a store directory.
pub const PACK_FILE: &str = "artifacts.pack";

/// Reserved frame kind for the run-header frame the store writes itself.
pub const K_RUN_HEADER: u16 = 0x0001;

/// Store operation failure.
#[derive(Debug)]
pub enum StoreError {
    /// The armed kill switch fired: the write was *not* made.
    Interrupted,
    /// The backend failed.
    Io(io::Error),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Interrupted => f.write_str("store kill switch fired"),
            StoreError::Io(e) => write!(f, "store backend error: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> StoreError {
        StoreError::Io(e)
    }
}

/// Durability counters, reported alongside the pipeline's cache stats.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Frames appended to the journal by this handle.
    pub frames_written: u64,
    /// Frames recovered from the journal at open.
    pub frames_replayed: u64,
    /// Artifact addresses served from the pack.
    pub artifact_hits: u64,
    /// Artifact addresses that missed (and were computed + stored).
    pub artifact_misses: u64,
}

/// Journal + artifact cache, scoped to one run fingerprint.
pub struct AuditStore {
    journal: Journal,
    artifacts: Arc<ArtifactCache>,
    /// Units recovered at open, keyed by (kind, key). Later frames win so a
    /// unit re-recorded after partial corruption replays its newest copy.
    replayed: Mutex<BTreeMap<(u16, u64), Vec<u8>>>,
    /// Every artifact address this handle touched (get, peek, or put) —
    /// the liveness census longitudinal compaction keeps per epoch.
    touched: Mutex<BTreeSet<ContentHash>>,
    /// Addresses [`Self::artifact_get`] counted, found and not found.
    artifact_hits: AtomicU64,
    artifact_misses: AtomicU64,
    /// Durable writes allowed before [`StoreError::Interrupted`]; `u64::MAX` = off.
    kill_after: AtomicU64,
    /// Addresses [`Self::artifact_get`] counted. Held across the kill-switch
    /// check and the write, so concurrent workers never overshoot the budget.
    counted: Mutex<BTreeSet<ContentHash>>,
}

impl AuditStore {
    /// Open a store on `backend` for the run identified by `fingerprint`,
    /// over `artifacts`, the pack at [`PACK_FILE`] already open.
    ///
    /// With `resume` the existing journal is replayed — unless its header
    /// frame carries a different fingerprint, in which case it is discarded
    /// (resuming someone else's run would be corruption, not convenience).
    /// Without `resume` the journal always starts empty. The artifact pack
    /// is used as-is in both cases.
    pub fn open(
        backend: Arc<dyn Backend>,
        artifacts: Arc<ArtifactCache>,
        fingerprint: u64,
        resume: bool,
    ) -> Result<AuditStore, StoreError> {
        // A fresh journal starts with its header frame, so even a run
        // killed after zero units resumes against the right identity.
        let header = Frame::new(K_RUN_HEADER, 0, fingerprint.to_le_bytes().to_vec());
        let (journal, kept) = Journal::open_as(backend, JOURNAL_FILE, header, resume)?;
        let mut replayed = BTreeMap::new();
        for Frame { kind, key, payload } in kept.frames {
            replayed.insert((kind, key), payload);
        }
        Ok(AuditStore {
            journal,
            artifacts,
            replayed: Mutex::new(replayed),
            touched: Mutex::new(BTreeSet::new()),
            artifact_hits: AtomicU64::new(0),
            artifact_misses: AtomicU64::new(0),
            kill_after: AtomicU64::new(u64::MAX),
            counted: Mutex::new(BTreeSet::new()),
        })
    }

    /// The payload of a unit recovered at open (or recorded earlier in this
    /// process), if any.
    pub fn lookup_unit(&self, kind: u16, key: u64) -> Option<Vec<u8>> {
        self.replayed
            .lock()
            .expect("replay map lock")
            .get(&(kind, key))
            .cloned()
    }

    /// Durably record a completed unit. Honors the kill switch: once the
    /// armed budget is exhausted, nothing is written and the caller sees
    /// [`StoreError::Interrupted`] — the simulated crash point.
    pub fn record_unit(&self, kind: u16, key: u64, payload: Vec<u8>) -> Result<(), StoreError> {
        let _serial = self.counted.lock().expect("record lock");
        if self.budget_spent() {
            return Err(StoreError::Interrupted);
        }
        self.journal.append(kind, key, payload.clone())?;
        self.replayed
            .lock()
            .expect("replay map lock")
            .insert((kind, key), payload);
        Ok(())
    }

    /// Whether the armed kill switch would refuse the next durable write: a
    /// caller about to start work whose write cannot land checks this first
    /// and stops before the work.
    pub fn budget_spent(&self) -> bool {
        self.writes() >= self.kill_after.load(Ordering::Relaxed)
    }

    /// Durable writes through this handle, what the kill switch counts:
    /// its journal frames, plus one pack frame per analysis miss.
    pub fn writes(&self) -> u64 {
        self.journal.frames_written() + self.artifact_misses.load(Ordering::Relaxed)
    }

    /// Look up an analysis artifact by content address. The first lookup of
    /// an address counts a hit or a miss, later ones nothing. A miss owes the
    /// pack frame of its computed artifact, so once the armed budget is spent
    /// it is refused with [`StoreError::Interrupted`], uncounted, before the
    /// caller does the work; a hit writes nothing and is always served.
    pub fn artifact_get(&self, hash: &ContentHash) -> Result<Option<Vec<u8>>, StoreError> {
        let found = self.artifact_peek(hash);
        let mut counted = self.counted.lock().expect("record lock");
        if !counted.contains(hash) {
            let counter = match found {
                Some(_) => &self.artifact_hits,
                None if self.budget_spent() => return Err(StoreError::Interrupted),
                None => &self.artifact_misses,
            };
            counter.fetch_add(1, Ordering::Relaxed);
            counted.insert(*hash);
        }
        Ok(found)
    }

    /// Look up an artifact without counting a hit or miss — for side caches
    /// whose reuse is reported on a dedicated counter, keeping
    /// [`StoreStats::artifact_hits`]/[`StoreStats::artifact_misses`] an
    /// exact census of per-bot analyses.
    pub fn artifact_peek(&self, hash: &ContentHash) -> Option<Vec<u8>> {
        self.touch(hash);
        self.artifacts.get(hash)
    }

    /// Store an artifact (idempotent, not subject to the kill switch — an
    /// analysis's pack frame was budgeted by the miss that owes it, and
    /// guild transcripts are performance state).
    pub fn artifact_put(&self, hash: ContentHash, blob: &[u8]) -> Result<(), StoreError> {
        self.touch(&hash);
        Ok(self.artifacts.put(hash, blob)?)
    }

    fn touch(&self, hash: &ContentHash) {
        self.touched.lock().expect("touched set lock").insert(*hash);
    }

    /// Every artifact address this handle referenced, sorted and
    /// deduplicated. A fleet run completes through the one handle it
    /// opened, however many slices it takes, so this is the full set of
    /// pack keys it depends on — what the epoch chain records so
    /// generational compaction never drops a live blob. (A handle that
    /// replays a journaled campaign references none of its guild
    /// transcripts.)
    pub fn referenced_keys(&self) -> Vec<ContentHash> {
        self.touched
            .lock()
            .expect("touched set lock")
            .iter()
            .copied()
            .collect()
    }

    /// Allow durable writes through this handle ([`Self::writes`]) up to
    /// `writes`, then fail with [`StoreError::Interrupted`]. The header
    /// frame of a fresh store has already spent one by the time a caller
    /// can arm the switch; a handle held across slices re-arms it past
    /// what it has spent. `u64::MAX` disarms it.
    pub fn set_kill_after(&self, writes: u64) {
        self.kill_after.store(writes, Ordering::Relaxed);
    }

    /// Durability counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            frames_written: self.journal.frames_written(),
            frames_replayed: self.journal.frames_replayed(),
            artifact_hits: self.artifact_hits.load(Ordering::Relaxed),
            artifact_misses: self.artifact_misses.load(Ordering::Relaxed),
        }
    }
}

impl fmt::Debug for AuditStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AuditStore")
            .field("stats", &self.stats())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemBackend;

    fn mem() -> Arc<MemBackend> {
        Arc::new(MemBackend::new())
    }

    /// A store over a pack opened for it, the way a one-off run opens one.
    fn open(backend: Arc<MemBackend>, fingerprint: u64, resume: bool) -> AuditStore {
        let pack = ArtifactCache::open(backend.clone(), PACK_FILE).unwrap();
        AuditStore::open(backend, Arc::new(pack), fingerprint, resume).unwrap()
    }

    #[test]
    fn units_survive_reopen_with_resume() {
        let backend = mem();
        let store = open(backend.clone(), 99, false);
        store.record_unit(3, 0, b"unit zero".to_vec()).unwrap();
        store.record_unit(3, 1, b"unit one".to_vec()).unwrap();
        drop(store);

        let store = open(backend.clone(), 99, true);
        assert_eq!(store.lookup_unit(3, 0).as_deref(), Some(&b"unit zero"[..]));
        assert_eq!(store.lookup_unit(3, 1).as_deref(), Some(&b"unit one"[..]));
        assert_eq!(store.stats().frames_replayed, 3); // header + 2 units

        // Without resume, history is gone (but the store works).
        let store = open(backend, 99, false);
        assert_eq!(store.lookup_unit(3, 0), None);
    }

    #[test]
    fn fingerprint_mismatch_discards_journal() {
        let backend = mem();
        let store = open(backend.clone(), 1, false);
        store.record_unit(3, 0, b"world one".to_vec()).unwrap();
        drop(store);

        let store = open(backend, 2, true);
        assert_eq!(
            store.lookup_unit(3, 0),
            None,
            "foreign frames must not replay"
        );
        assert_eq!(store.stats().frames_replayed, 0);
    }

    #[test]
    fn kill_switch_interrupts_and_resume_continues() {
        let backend = mem();
        let store = open(backend.clone(), 5, false);
        store.set_kill_after(3); // header already wrote 1: two units fit
        store.record_unit(3, 0, b"a".to_vec()).unwrap();
        store.record_unit(3, 1, b"b".to_vec()).unwrap();
        let err = store.record_unit(3, 2, b"c".to_vec()).unwrap_err();
        assert!(matches!(err, StoreError::Interrupted));
        assert_eq!(store.stats().frames_written, 3);

        let store = open(backend, 5, true);
        assert!(store.lookup_unit(3, 1).is_some());
        assert_eq!(store.lookup_unit(3, 2), None);
        store.record_unit(3, 2, b"c".to_vec()).unwrap();
        assert!(store.lookup_unit(3, 2).is_some());
    }

    #[test]
    fn kill_switch_budget_holds_under_concurrent_records() {
        let store = Arc::new(open(mem(), 5, false));
        store.set_kill_after(100);
        let start = Arc::new(std::sync::Barrier::new(8));
        let recorders: Vec<_> = (0..8u64)
            .map(|t| {
                let (store, start) = (store.clone(), start.clone());
                std::thread::spawn(move || {
                    start.wait();
                    for i in 0..50 {
                        let _ = store.record_unit(3, t * 100 + i, vec![0; 8]);
                    }
                })
            })
            .collect();
        for recorder in recorders {
            recorder.join().expect("recorder thread panicked");
        }
        assert_eq!(store.stats().frames_written, 100, "budget overshot");
    }

    #[test]
    fn kill_switch_budget_holds_under_concurrent_misses_and_records() {
        let store = Arc::new(open(mem(), 5, false));
        store.set_kill_after(100);
        let start = Arc::new(std::sync::Barrier::new(8));
        let workers: Vec<_> = (0..8u64)
            .map(|t| {
                let (store, start) = (store.clone(), start.clone());
                std::thread::spawn(move || {
                    start.wait();
                    for i in 0..50u64 {
                        let key = t * 100 + i;
                        let _ = store.record_unit(3, key, vec![0; 8]);
                        let _ = store.artifact_get(&ContentHash::of(&key.to_le_bytes()));
                    }
                })
            })
            .collect();
        for worker in workers {
            worker.join().expect("worker thread panicked");
        }
        let stats = store.stats();
        assert_eq!(store.writes(), 100, "budget overshot");
        assert_eq!(stats.frames_written + stats.artifact_misses, 100);
        assert!(stats.artifact_misses > 0 && stats.frames_written > 1);
    }

    #[test]
    fn artifacts_survive_fresh_journal() {
        let backend = mem();
        let store = open(backend.clone(), 7, false);
        let h = ContentHash::of(b"bot content");
        store.artifact_put(h, b"analysis blob").unwrap();
        drop(store);

        // Fresh (non-resume) run: journal empty, pack warm.
        let store = open(backend, 7, false);
        assert_eq!(
            store.artifact_get(&h).unwrap().as_deref(),
            Some(&b"analysis blob"[..])
        );
        assert_eq!(store.stats().artifact_hits, 1);
    }

    #[test]
    fn only_artifact_get_counts_hits_and_misses() {
        let store = open(mem(), 7, false);
        let h = ContentHash::of(b"input");
        let warm = ContentHash::of(b"warm");
        assert_eq!(store.artifact_get(&h).unwrap(), None);
        store.artifact_put(h, b"blob").unwrap();
        store.artifact_put(h, b"blob").unwrap();
        store.artifact_put(warm, b"blob").unwrap();
        assert!(store.artifact_peek(&h).is_some());
        assert!(store.artifact_peek(&ContentHash::of(b"absent")).is_none());
        assert_eq!(
            store.artifact_get(&warm).unwrap().as_deref(),
            Some(&b"blob"[..])
        );
        let stats = store.stats();
        assert_eq!((stats.artifact_hits, stats.artifact_misses), (1, 1));
    }

    #[test]
    fn an_address_counts_once_and_only_a_miss_spends_budget() {
        let store = open(mem(), 7, false);
        let (warm, cold, refused) = (
            ContentHash::of(b"warm"),
            ContentHash::of(b"cold"),
            ContentHash::of(b"refused"),
        );
        store.artifact_put(warm, b"blob").unwrap();
        store.set_kill_after(2); // the header spent one: one miss fits
        assert_eq!(store.artifact_get(&cold).unwrap(), None);
        assert_eq!(store.writes(), 2, "a miss owes its pack frame");
        // Counted once: a second lookup neither counts nor is refused.
        assert_eq!(store.artifact_get(&cold).unwrap(), None);
        assert!(matches!(
            store.artifact_get(&refused),
            Err(StoreError::Interrupted)
        ));
        // A hit writes nothing, so a spent budget still serves it.
        for _ in 0..2 {
            assert_eq!(
                store.artifact_get(&warm).unwrap().as_deref(),
                Some(&b"blob"[..])
            );
        }
        let stats = store.stats();
        assert_eq!((stats.artifact_hits, stats.artifact_misses), (1, 1));
        assert_eq!((store.writes(), stats.frames_written), (2, 1));

        // The refused miss was not counted: re-armed, it counts now.
        store.set_kill_after(store.writes() + 1);
        assert_eq!(store.artifact_get(&refused).unwrap(), None);
        assert_eq!(store.stats().artifact_misses, 2);
        assert!(store.budget_spent());
    }

    #[test]
    fn budget_spent_is_the_kill_switch_comparison() {
        let store = open(mem(), 5, false);
        assert!(!store.budget_spent(), "unarmed");
        store.set_kill_after(2); // the header spent one
        assert!(!store.budget_spent());
        store.record_unit(3, 0, b"a".to_vec()).unwrap();
        assert!(store.budget_spent());
        assert!(matches!(
            store.record_unit(3, 1, b"b".to_vec()),
            Err(StoreError::Interrupted)
        ));
    }

    #[test]
    fn referenced_keys_census_every_touched_address() {
        let backend = mem();
        let store = open(backend, 7, false);
        let put = ContentHash::of(b"computed");
        let hit = ContentHash::of(b"warm");
        let peeked = ContentHash::of(b"side-cache");
        let missed = ContentHash::of(b"absent");
        store.artifact_put(hit, b"warm blob").unwrap();
        store.artifact_put(put, b"fresh blob").unwrap();
        assert!(store.artifact_get(&hit).unwrap().is_some());
        assert!(store.artifact_peek(&peeked).is_none());
        assert!(store.artifact_get(&missed).unwrap().is_none());
        // Gets, peeks, and puts all count — even ones that missed, since a
        // miss that is then computed + put resolves to the same address —
        // and repeats deduplicate.
        assert!(store.artifact_get(&hit).unwrap().is_some());
        let keys = store.referenced_keys();
        let mut expected = vec![put, hit, peeked, missed];
        expected.sort();
        assert_eq!(keys, expected);
    }
}
