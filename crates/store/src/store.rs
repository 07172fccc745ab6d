//! The audit store: the artifact pack one run reads and extends, with the
//! run's counts and its crash lever.
//!
//! [`AuditStore`] is what the pipeline holds. It keeps no file of its own:
//! every durable byte a run writes is content-addressed — an analysis at
//! the address its bot's crawled bytes hash to, a guild transcript at its
//! bot's identity — so a rerun over the same pack finds exactly what an
//! earlier run stored, and never a blob of another world. The store takes
//! its pack already open: a one-off run opens one for itself, while a
//! long-lived owner (the fleet daemon) hands every run of a tenant the same
//! held [`ArtifactCache`], so no run re-reads the pack. The run's artifact
//! hit and miss counts live here too, since every per-bot lookup goes
//! through [`AuditStore::artifact_get`], which counts each address once per
//! handle.
//!
//! The store also hosts the crash lever the resumability tests lean on:
//! [`AuditStore::set_kill_after`] arms a budget of durable writes — the
//! pack frame each analysis miss owes, and one for a campaign's guild
//! transcripts — and the write that would exceed it fails with
//! [`StoreError::Interrupted`]. From the pipeline's point of view the
//! process died right there; a rerun over the same files continues.

use crate::cache::ArtifactCache;
use crate::hash::ContentHash;
use std::collections::BTreeSet;
use std::fmt;
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Artifact pack file name inside a store directory.
pub const PACK_FILE: &str = "artifacts.pack";

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

/// Artifact counters, reported alongside the pipeline's cache stats.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Artifact addresses served from the pack.
    pub artifact_hits: u64,
    /// Artifact addresses that missed (and were computed + stored).
    pub artifact_misses: u64,
}

/// One run's handle on the artifact pack.
pub struct AuditStore {
    artifacts: Arc<ArtifactCache>,
    /// Every artifact address this handle touched (get, peek, or put) —
    /// the liveness census longitudinal compaction keeps per epoch.
    touched: Mutex<BTreeSet<ContentHash>>,
    /// Addresses [`Self::artifact_get`] counted, found and not found.
    artifact_hits: AtomicU64,
    artifact_misses: AtomicU64,
    /// Campaigns whose guild transcripts this handle stored.
    campaigns: AtomicU64,
    /// Durable writes allowed before [`StoreError::Interrupted`]; `u64::MAX` = off.
    kill_after: AtomicU64,
    /// Addresses [`Self::artifact_get`] counted. Held across the kill-switch
    /// check and the count, so concurrent workers never overshoot the budget.
    counted: Mutex<BTreeSet<ContentHash>>,
}

impl AuditStore {
    /// A store over `artifacts`, the pack at [`PACK_FILE`] already open.
    pub fn open(artifacts: Arc<ArtifactCache>) -> AuditStore {
        AuditStore {
            artifacts,
            touched: Mutex::new(BTreeSet::new()),
            artifact_hits: AtomicU64::new(0),
            artifact_misses: AtomicU64::new(0),
            campaigns: AtomicU64::new(0),
            kill_after: AtomicU64::new(u64::MAX),
            counted: Mutex::new(BTreeSet::new()),
        }
    }

    /// Whether the armed kill switch would refuse the next durable write: a
    /// caller about to start work whose write cannot land checks this first
    /// and stops before the work.
    pub fn budget_spent(&self) -> bool {
        self.writes() >= self.kill_after.load(Ordering::Relaxed)
    }

    /// Durable writes through this handle, what the kill switch counts: one
    /// pack frame per analysis miss, plus one per campaign whose guild
    /// transcripts it stored.
    pub fn writes(&self) -> u64 {
        self.artifact_misses.load(Ordering::Relaxed) + self.campaigns.load(Ordering::Relaxed)
    }

    /// Count a finished campaign's guild-transcript puts as one durable
    /// write. The caller checks [`Self::budget_spent`] before the campaign
    /// starts, so an armed budget never runs a campaign it cannot count.
    pub fn record_campaign(&self) {
        self.campaigns.fetch_add(1, Ordering::Relaxed);
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
    /// analysis's pack frame was budgeted by the miss that owes it, and a
    /// campaign's transcripts by the check before it started).
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
    /// generational compaction never drops a live blob.
    pub fn referenced_keys(&self) -> Vec<ContentHash> {
        self.touched
            .lock()
            .expect("touched set lock")
            .iter()
            .copied()
            .collect()
    }

    /// Allow durable writes through this handle ([`Self::writes`]) up to
    /// `writes`, then fail with [`StoreError::Interrupted`]. A handle held
    /// across slices re-arms it past what it has spent. `u64::MAX` disarms
    /// it.
    pub fn set_kill_after(&self, writes: u64) {
        self.kill_after.store(writes, Ordering::Relaxed);
    }

    /// Artifact counters.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            artifact_hits: self.artifact_hits.load(Ordering::Relaxed),
            artifact_misses: self.artifact_misses.load(Ordering::Relaxed),
        }
    }
}

impl fmt::Debug for AuditStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AuditStore")
            .field("stats", &self.stats())
            .field("writes", &self.writes())
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
    fn open(backend: Arc<MemBackend>) -> AuditStore {
        let pack = ArtifactCache::open(backend, PACK_FILE).unwrap();
        AuditStore::open(Arc::new(pack))
    }

    #[test]
    fn kill_switch_budget_holds_under_concurrent_misses() {
        let store = Arc::new(open(mem()));
        store.set_kill_after(100);
        let start = Arc::new(std::sync::Barrier::new(8));
        let workers: Vec<_> = (0..8u64)
            .map(|t| {
                let (store, start) = (store.clone(), start.clone());
                std::thread::spawn(move || {
                    start.wait();
                    for i in 0..50u64 {
                        let key = t * 100 + i;
                        let _ = store.artifact_get(&ContentHash::of(&key.to_le_bytes()));
                    }
                })
            })
            .collect();
        for worker in workers {
            worker.join().expect("worker thread panicked");
        }
        assert_eq!(store.writes(), 100, "budget overshot");
        assert_eq!(store.stats().artifact_misses, 100);
    }

    #[test]
    fn artifacts_survive_reopen() {
        let backend = mem();
        let store = open(backend.clone());
        let h = ContentHash::of(b"bot content");
        store.artifact_put(h, b"analysis blob").unwrap();
        drop(store);

        // A later run over the same files: the pack is warm.
        let store = open(backend);
        assert_eq!(
            store.artifact_get(&h).unwrap().as_deref(),
            Some(&b"analysis blob"[..])
        );
        assert_eq!(store.stats().artifact_hits, 1);
    }

    #[test]
    fn only_artifact_get_counts_hits_and_misses() {
        let store = open(mem());
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
        let store = open(mem());
        let (warm, cold, refused) = (
            ContentHash::of(b"warm"),
            ContentHash::of(b"cold"),
            ContentHash::of(b"refused"),
        );
        store.artifact_put(warm, b"blob").unwrap();
        store.set_kill_after(1); // one miss fits
        assert_eq!(store.artifact_get(&cold).unwrap(), None);
        assert_eq!(store.writes(), 1, "a miss owes its pack frame");
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
        assert_eq!(store.writes(), 1);

        // The refused miss was not counted: re-armed, it counts now.
        store.set_kill_after(store.writes() + 1);
        assert_eq!(store.artifact_get(&refused).unwrap(), None);
        assert_eq!(store.stats().artifact_misses, 2);
        assert!(store.budget_spent());
    }

    #[test]
    fn budget_spent_is_the_kill_switch_comparison() {
        let store = open(mem());
        assert!(!store.budget_spent(), "unarmed");
        store.set_kill_after(1);
        assert!(!store.budget_spent());
        store.record_campaign();
        assert!(store.budget_spent());
        assert_eq!(store.writes(), 1, "a campaign is one durable write");
        assert!(matches!(
            store.artifact_get(&ContentHash::of(b"cold")),
            Err(StoreError::Interrupted)
        ));
    }

    #[test]
    fn referenced_keys_census_every_touched_address() {
        let store = open(mem());
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
