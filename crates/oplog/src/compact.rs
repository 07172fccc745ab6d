//! Generational artifact-pack compaction driven by the epoch chain.
//!
//! A tenant's pack grows monotonically: every epoch appends its analysis
//! artifacts, honeypot snapshots, and (with the oplog) report/delta blobs,
//! and nothing ever leaves. The chain knows exactly which keys the last K
//! epochs reference, so compaction is a pure policy decision here plus the
//! already-crash-safe [`ArtifactCache::compact`] rebuild: the keep-set is
//! computed from [`EpochChain::live_keys`], the pack is rewritten in one
//! atomic [`store::Journal::replace`], and a crash at any point leaves
//! either the old or the new generation fully intact (the fault test in
//! this module pins both arms). Determinism is pinned too: the rebuilt
//! pack is a sorted fold of the kept blobs, so identical chains + packs
//! compact to identical bytes.
//!
//! Compaction runs on the caller's open [`ArtifactCache`] — the fleet
//! daemon's held one — so the index every later audit reads stays exact:
//! the same call that rewrites the pack drops the index entries it
//! dropped.

use obs::Obs;
use std::io;
use store::ArtifactCache;

use crate::chain::EpochChain;

/// What one generational compaction did, in counters the caller can log
/// or assert on (`BENCH_oplog.json` records these per tenant).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionOutcome {
    /// Epochs whose references were kept live.
    pub kept_epochs: usize,
    /// Blobs surviving the rewrite.
    pub live_blobs: usize,
    /// Blobs dropped by the rewrite.
    pub dropped_blobs: usize,
    /// Pack size before, in bytes.
    pub pack_bytes_before: u64,
    /// Pack size after, in bytes.
    pub pack_bytes_after: u64,
}

impl CompactionOutcome {
    /// Bytes the rewrite gave back (zero when nothing was dropped).
    pub fn reclaimed_bytes(&self) -> u64 {
        self.pack_bytes_before.saturating_sub(self.pack_bytes_after)
    }
}

/// Rewrite `cache`'s pack, keeping only blobs referenced by the last
/// `keep_last` epochs of `chain` (the head generation is always kept).
/// Emits `store.compaction.runs` / `.dropped` / `.reclaimed_bytes`
/// counters on `obs`.
///
/// Must not run concurrently with an audit of the same tenant: the
/// keep-set is computed from the chain, so blobs written by an in-flight,
/// not-yet-committed epoch would be dropped.
pub fn compact_generations(
    cache: &ArtifactCache,
    chain: &EpochChain,
    keep_last: usize,
    obs: &Obs,
) -> io::Result<CompactionOutcome> {
    let compacted = cache.compact(&chain.live_keys(keep_last))?;
    let outcome = CompactionOutcome {
        kept_epochs: keep_last.max(1).min(chain.len()),
        live_blobs: compacted.kept,
        dropped_blobs: compacted.dropped,
        pack_bytes_before: compacted.bytes_before,
        pack_bytes_after: compacted.bytes_after,
    };
    obs.counter("store.compaction.runs").incr();
    obs.counter("store.compaction.dropped")
        .add(compacted.dropped as u64);
    obs.counter("store.compaction.reclaimed_bytes")
        .add(outcome.reclaimed_bytes());
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hexhash;
    use crate::record::tests::sample_record;
    use crate::record::ZERO_HASH;
    use std::sync::{Arc, Mutex};
    use store::{Backend, ContentHash, MemBackend, PACK_FILE};

    /// How the wrapper backend sabotages the pack's atomic replace.
    #[derive(Clone, Copy, PartialEq)]
    enum Sabotage {
        /// Fail without touching the file: the old generation survives.
        FailBeforeApply,
        /// Apply the replace, then report failure: the new generation is
        /// already durable (the crash "happened" after the rename).
        FailAfterApply,
    }

    /// A backend that injects exactly one crash into the pack rewrite.
    struct CrashyBackend {
        inner: MemBackend,
        armed: Mutex<Option<Sabotage>>,
    }

    impl Backend for CrashyBackend {
        fn read(&self, name: &str) -> io::Result<Option<Vec<u8>>> {
            self.inner.read(name)
        }
        fn write_atomic(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
            if name == PACK_FILE {
                if let Some(mode) = self.armed.lock().expect("sabotage lock").take() {
                    if mode == Sabotage::FailAfterApply {
                        self.inner.write_atomic(name, bytes)?;
                    }
                    return Err(io::Error::other("injected crash mid-compaction"));
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

    /// A 4-epoch workspace: pack blobs for every epoch's keys — reports
    /// and deltas as history blobs, as the daemon writes them — plus two
    /// stale blobs nothing references, and a chain referencing them.
    fn workspace(backend: &Arc<dyn Backend>) -> (ArtifactCache, EpochChain) {
        let cache = ArtifactCache::open(Arc::clone(backend), PACK_FILE).unwrap();
        let mut chain = EpochChain::open(Arc::clone(backend)).unwrap();
        for epoch in 0..4u32 {
            let record = chain.append(sample_record(epoch, ZERO_HASH)).unwrap();
            let history = [Some(&record.report_key), record.delta_key.as_ref()];
            for key in record.live_keys() {
                let hex = hexhash::to_hex(&key);
                let blob = format!("blob-for-{hex}");
                if history.contains(&Some(&hex)) {
                    cache.put_history(key, blob.as_bytes()).unwrap();
                } else {
                    cache.put(key, blob.as_bytes()).unwrap();
                }
            }
        }
        for stale in ["orphan-1", "orphan-2"] {
            cache
                .put(ContentHash::of(stale.as_bytes()), &[0xaa; 256])
                .unwrap();
        }
        (cache, chain)
    }

    #[test]
    fn compaction_drops_old_generations_and_counts_bytes() {
        let backend: Arc<dyn Backend> = Arc::new(MemBackend::new());
        let (cache, chain) = workspace(&backend);
        let before = backend.read(PACK_FILE).unwrap().unwrap().len() as u64;
        let obs = Obs::disabled();
        let outcome = compact_generations(&cache, &chain, 2, &obs).unwrap();
        assert_eq!(outcome.kept_epochs, 2);
        assert_eq!(outcome.pack_bytes_before, before);
        let after = backend.read(PACK_FILE).unwrap().unwrap().len() as u64;
        assert_eq!(outcome.pack_bytes_after, after);
        assert_eq!(outcome.live_blobs, cache.snapshot().entries);
        assert!(outcome.dropped_blobs >= 2, "orphans at least must go");
        assert!(outcome.reclaimed_bytes() > 0);
        assert_eq!(obs.counter_value("store.compaction.runs"), 1);
        assert_eq!(
            obs.counter_value("store.compaction.reclaimed_bytes"),
            outcome.reclaimed_bytes()
        );
        // Every key of the last two epochs survived, in the held index and
        // on disk; epoch 0's and 1's unshared keys did not.
        let reopened = ArtifactCache::open(Arc::clone(&backend), PACK_FILE).unwrap();
        for key in chain.live_keys(2) {
            assert!(cache.get(&key).is_some(), "live key {key} must survive");
            assert_eq!(cache.get(&key), reopened.get(&key), "{key}");
        }
        assert_eq!(reopened.snapshot(), cache.snapshot());
        assert_eq!(cache.snapshot().history, 4, "two reports, two deltas");
        assert!(cache.get(&ContentHash::of(b"orphan-1")).is_none());
    }

    #[test]
    fn compaction_output_is_deterministic() {
        let run = || {
            let backend: Arc<dyn Backend> = Arc::new(MemBackend::new());
            let (cache, chain) = workspace(&backend);
            compact_generations(&cache, &chain, 2, &Obs::disabled()).unwrap();
            backend.read(PACK_FILE).unwrap().unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn crash_mid_compaction_leaves_old_or_new_generation_intact() {
        // The uncrashed control: what the new generation's bytes must be.
        let control: Arc<dyn Backend> = Arc::new(MemBackend::new());
        let (control_cache, control_chain) = workspace(&control);
        compact_generations(&control_cache, &control_chain, 2, &Obs::disabled()).unwrap();
        let new_generation = control.read(PACK_FILE).unwrap().unwrap();

        for sabotage in [Sabotage::FailBeforeApply, Sabotage::FailAfterApply] {
            let crashy = Arc::new(CrashyBackend {
                inner: MemBackend::new(),
                armed: Mutex::new(None),
            });
            let backend: Arc<dyn Backend> = Arc::clone(&crashy) as Arc<dyn Backend>;
            let (cache, chain) = workspace(&backend);
            let old_generation = backend.read(PACK_FILE).unwrap().unwrap();
            *crashy.armed.lock().unwrap() = Some(sabotage);
            let err = compact_generations(&cache, &chain, 2, &Obs::disabled()).unwrap_err();
            assert!(err.to_string().contains("injected crash"));
            // Atomic-replace contract: the pack is exactly one whole
            // generation, never a mix or a torn file.
            let after_crash = backend.read(PACK_FILE).unwrap().unwrap();
            match sabotage {
                Sabotage::FailBeforeApply => assert_eq!(after_crash, old_generation),
                Sabotage::FailAfterApply => assert_eq!(after_crash, new_generation),
            }
            // Either way the workspace is fully usable: reopening replays
            // a valid pack, and retrying on the held cache converges on the
            // new generation.
            let reopened = ArtifactCache::open(Arc::clone(&backend), PACK_FILE).unwrap();
            for key in chain.live_keys(2) {
                assert!(reopened.get(&key).is_some());
            }
            drop(reopened);
            compact_generations(&cache, &chain, 2, &Obs::disabled()).unwrap();
            assert_eq!(backend.read(PACK_FILE).unwrap().unwrap(), new_generation);
        }
    }
}
