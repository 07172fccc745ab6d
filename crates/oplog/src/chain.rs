//! The append-only, hash-linked epoch chain of one tenant.
//!
//! Persistence reuses the CRC-framed [`Journal`] from `store` verbatim: one
//! frame per committed epoch, kind [`K_EPOCH`], frame key = the epoch
//! number, payload = the record's canonical JSON. On top of the journal's
//! own torn-tail repair, the chain adds *linkage* verification: each record
//! names the content hash of its predecessor's exact bytes, so a frame that
//! decodes fine but does not extend the chain (wrong parent, non-monotonic
//! epoch) marks the chain **sealed** — the valid prefix stays readable, but
//! appends are refused rather than forking history.

use std::io;
use std::sync::Arc;

use store::{Backend, ContentHash, Journal};

use crate::hexhash;
use crate::record::{EpochRecord, ZERO_HASH};

/// The tenant-scoped file the epoch chain journals to.
pub const OPLOG_FILE: &str = "oplog.wal";

/// Frame kind of a committed epoch record.
///
/// Distinct from the artifact pack's kinds (`0x00xx`) and from the
/// validator cache's (`0x01xx`); the oplog lives in its own file,
/// but unique kinds keep frames self-describing if files are ever merged.
pub const K_EPOCH: u16 = 0x0200;

/// A tenant's epoch history: replayed on open, extended by append.
pub struct EpochChain {
    journal: Journal,
    records: Vec<EpochRecord>,
    sealed: bool,
}

impl EpochChain {
    /// Open (creating if absent) the chain journaled in `backend`'s
    /// [`OPLOG_FILE`].
    ///
    /// Replays every epoch frame and verifies linkage; the first frame that
    /// fails to decode, names the wrong parent hash, or does not increase
    /// the epoch number ends the replay and seals the chain. A sealed chain
    /// still serves reads over its valid prefix.
    pub fn open(backend: Arc<dyn Backend>) -> io::Result<EpochChain> {
        let (journal, replay) = Journal::open(backend, OPLOG_FILE)?;
        let mut records: Vec<EpochRecord> = Vec::new();
        let mut sealed = false;
        let mut expected_parent = hexhash::to_hex(&ZERO_HASH);
        for frame in &replay.frames {
            if frame.kind != K_EPOCH {
                continue;
            }
            let record: EpochRecord = match serde_json::from_slice(&frame.payload) {
                Ok(record) => record,
                Err(_) => {
                    sealed = true;
                    break;
                }
            };
            let extends = record.parent == expected_parent
                && records
                    .last()
                    .map(|head: &EpochRecord| record.epoch > head.epoch)
                    .unwrap_or(true);
            if !extends {
                sealed = true;
                break;
            }
            expected_parent = hexhash::to_hex(&record.frame_hash());
            records.push(record);
        }
        Ok(EpochChain {
            journal,
            records,
            sealed,
        })
    }

    /// Commit `record` as the new head.
    ///
    /// The chain fills in the linkage itself — `prev_epoch` and `parent`
    /// are overwritten from the current head — so callers only provide the
    /// epoch's content. Fails if the chain is sealed or `record.epoch` does
    /// not exceed the head's epoch; the journal append is durable before
    /// the in-memory head moves.
    pub fn append(&mut self, mut record: EpochRecord) -> io::Result<&EpochRecord> {
        if self.sealed {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "epoch chain is sealed (damaged or forked tail); refusing to extend it",
            ));
        }
        match self.records.last() {
            Some(head) => {
                if record.epoch <= head.epoch {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidInput,
                        format!(
                            "epoch {} does not extend the chain head (epoch {})",
                            record.epoch, head.epoch
                        ),
                    ));
                }
                record.prev_epoch = Some(head.epoch);
                record.parent = hexhash::to_hex(&head.frame_hash());
            }
            None => {
                record.prev_epoch = None;
                record.parent = hexhash::to_hex(&ZERO_HASH);
            }
        }
        self.journal
            .append(K_EPOCH, record.epoch as u64, record.canonical_json())?;
        self.records.push(record);
        Ok(self.records.last().expect("just pushed"))
    }

    /// The committed records, genesis first.
    pub fn records(&self) -> &[EpochRecord] {
        &self.records
    }

    /// The newest committed record, if any.
    pub fn head(&self) -> Option<&EpochRecord> {
        self.records.last()
    }

    /// Number of committed epochs.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the chain has no committed epochs.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Whether open found a damaged/forked tail and refused further appends.
    pub fn is_sealed(&self) -> bool {
        self.sealed
    }

    /// Every committed epoch number, genesis first.
    pub fn epochs(&self) -> Vec<u32> {
        self.records.iter().map(|r| r.epoch).collect()
    }

    /// The union of pack keys pinned live by the last `keep_last` epochs
    /// (at least the head is always kept), sorted and deduplicated — the
    /// keep-set generational compaction hands to the artifact cache.
    pub fn live_keys(&self, keep_last: usize) -> Vec<ContentHash> {
        let keep = keep_last.max(1).min(self.records.len());
        let mut keys: std::collections::BTreeSet<ContentHash> = std::collections::BTreeSet::new();
        for record in &self.records[self.records.len() - keep..] {
            keys.extend(record.live_keys());
        }
        keys.into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::tests::sample_record;
    use store::MemBackend;

    fn mem() -> Arc<dyn Backend> {
        Arc::new(MemBackend::new())
    }

    #[test]
    fn appends_link_and_survive_reopen() {
        let backend = mem();
        let mut chain = EpochChain::open(Arc::clone(&backend)).unwrap();
        assert!(chain.is_empty() && !chain.is_sealed());
        for epoch in [0u32, 1, 3] {
            chain.append(sample_record(epoch, ZERO_HASH)).unwrap();
        }
        assert_eq!(chain.epochs(), vec![0, 1, 3]);
        // Linkage was filled in by the chain, not trusted from the caller.
        assert_eq!(chain.records()[0].parent, hexhash::to_hex(&ZERO_HASH));
        assert_eq!(chain.records()[2].prev_epoch, Some(1));
        assert_eq!(
            chain.records()[2].parent,
            hexhash::to_hex(&chain.records()[1].frame_hash())
        );
        let records = chain.records().to_vec();
        drop(chain);
        let reopened = EpochChain::open(backend).unwrap();
        assert!(!reopened.is_sealed());
        assert_eq!(reopened.records(), &records[..]);
    }

    #[test]
    fn non_monotonic_epochs_are_refused() {
        let mut chain = EpochChain::open(mem()).unwrap();
        chain.append(sample_record(2, ZERO_HASH)).unwrap();
        let err = chain.append(sample_record(2, ZERO_HASH)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert_eq!(chain.len(), 1);
    }

    #[test]
    fn wrong_parent_frame_seals_the_chain_at_its_valid_prefix() {
        let backend: Arc<MemBackend> = Arc::new(MemBackend::new());
        let dynamic: Arc<dyn Backend> = Arc::clone(&backend) as Arc<dyn Backend>;
        let mut chain = EpochChain::open(Arc::clone(&dynamic)).unwrap();
        chain.append(sample_record(0, ZERO_HASH)).unwrap();
        chain.append(sample_record(1, ZERO_HASH)).unwrap();
        drop(chain);
        // Append a well-formed frame whose parent hash is garbage: a fork.
        let (journal, _) = Journal::open(Arc::clone(&dynamic), OPLOG_FILE).unwrap();
        let mut forged = sample_record(2, ZERO_HASH);
        forged.parent = hexhash::to_hex(&ContentHash::of(b"not the head"));
        journal.append(K_EPOCH, 2, forged.canonical_json()).unwrap();
        drop(journal);
        let reopened = EpochChain::open(dynamic).unwrap();
        assert!(reopened.is_sealed());
        assert_eq!(reopened.epochs(), vec![0, 1]);
        let mut sealed = reopened;
        let err = sealed.append(sample_record(5, ZERO_HASH)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn torn_tail_is_repaired_by_the_journal_without_sealing() {
        let backend: Arc<MemBackend> = Arc::new(MemBackend::new());
        let dynamic: Arc<dyn Backend> = Arc::clone(&backend) as Arc<dyn Backend>;
        let mut chain = EpochChain::open(Arc::clone(&dynamic)).unwrap();
        chain.append(sample_record(0, ZERO_HASH)).unwrap();
        chain.append(sample_record(1, ZERO_HASH)).unwrap();
        drop(chain);
        // A crash mid-append leaves a half-written frame; the journal
        // truncates it, leaving an intact (unsealed) shorter chain.
        let bytes = backend.read(OPLOG_FILE).unwrap().unwrap();
        backend.poke(OPLOG_FILE, bytes[..bytes.len() - 7].to_vec());
        let mut reopened = EpochChain::open(dynamic).unwrap();
        assert!(!reopened.is_sealed());
        assert_eq!(reopened.epochs(), vec![0]);
        reopened.append(sample_record(4, ZERO_HASH)).unwrap();
        assert_eq!(reopened.epochs(), vec![0, 4]);
    }

    #[test]
    fn live_keys_union_the_last_k_records() {
        let mut chain = EpochChain::open(mem()).unwrap();
        for epoch in 0..4 {
            chain.append(sample_record(epoch, ZERO_HASH)).unwrap();
        }
        let last_two = chain.live_keys(2);
        // Shared artifact-a + per-epoch artifact/report/delta keys.
        assert!(last_two.contains(&ContentHash::of(b"artifact-a")));
        assert!(last_two.contains(&ContentHash::of(b"artifact-3")));
        assert!(!last_two.contains(&ContentHash::of(b"artifact-1")));
        let everything = chain.live_keys(usize::MAX);
        assert!(everything.len() > last_two.len());
        // Zero is clamped to "keep the head".
        assert_eq!(chain.live_keys(0), chain.live_keys(1));
        let sorted = {
            let mut copy = last_two.clone();
            copy.sort();
            copy
        };
        assert_eq!(last_two, sorted);
    }
}
