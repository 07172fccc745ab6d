//! Workspace templates: point-in-time tenant snapshots for what-if runs.
//!
//! A clone copies a tenant's *state* — artifact pack, validator cache, and
//! a genesis epoch record equal to the source's head — but none of its
//! *history*: the clone's chain starts at one frame, and the source's
//! earlier epoch records are not carried over. That is exactly what a
//! cheap what-if re-audit needs: warm artifact hits and conditional
//! fetches from the snapshot, a delta baseline at the snapshot epoch, and
//! no risk of the experiment contaminating the original's history.

use std::io;
use std::sync::Arc;

use store::{Backend, Journal, PACK_FILE, VALIDATOR_FILE};

use crate::chain::{EpochChain, OPLOG_FILE};
use crate::hexhash;
use crate::record::{EpochRecord, EpochTrend, ZERO_HASH};

/// Snapshot `src`'s workspace into `dst` (both tenant-scoped backends).
///
/// Copies the artifact pack and validator cache byte-for-byte, then
/// commits a genesis epoch record mirroring `src`'s head (same epoch,
/// platform, report key, and artifact references; no delta, no trend, no
/// parent). Returns that genesis record.
///
/// Fails with [`io::ErrorKind::InvalidInput`] when `src` has no committed
/// epochs, and [`io::ErrorKind::AlreadyExists`] when `dst` already has an
/// oplog — clones only materialize into fresh workspaces.
pub fn clone_workspace(src: &Arc<dyn Backend>, dst: &Arc<dyn Backend>) -> io::Result<EpochRecord> {
    let source = EpochChain::open(Arc::clone(src))?;
    let head = source.head().ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            "source tenant has no committed epochs to snapshot",
        )
    })?;
    if dst
        .read(OPLOG_FILE)?
        .map(|bytes| !bytes.is_empty())
        .unwrap_or(false)
    {
        return Err(io::Error::new(
            io::ErrorKind::AlreadyExists,
            "destination workspace already has an epoch chain",
        ));
    }
    for file in [PACK_FILE, VALIDATOR_FILE] {
        if let Some(bytes) = src.read(file)? {
            dst.write_atomic(file, &bytes)?;
        }
    }
    // Replay the copied pack so a torn source pack is repaired in the
    // clone exactly as it would be on the source.
    Journal::open(Arc::clone(dst), PACK_FILE)?;
    let genesis = EpochRecord {
        epoch: head.epoch,
        prev_epoch: None,
        platform: head.platform,
        parent: hexhash::to_hex(&ZERO_HASH),
        report_key: head.report_key.clone(),
        delta_key: None,
        artifact_keys: head.artifact_keys.clone(),
        bots: head.bots,
        trend: EpochTrend::default(),
    };
    let mut chain = EpochChain::open(Arc::clone(dst))?;
    chain.append(genesis)?;
    Ok(chain.head().expect("genesis just appended").clone())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::tests::sample_record;
    use store::{ArtifactCache, ContentHash, MemBackend};

    fn mem() -> Arc<dyn Backend> {
        Arc::new(MemBackend::new())
    }

    fn seeded_source() -> Arc<dyn Backend> {
        let src = mem();
        let cache = ArtifactCache::open(Arc::clone(&src), PACK_FILE).unwrap();
        cache
            .put(ContentHash::of(b"artifact-a"), b"blob-a")
            .unwrap();
        src.append(VALIDATOR_FILE, b"validator-bytes").unwrap();
        let mut chain = EpochChain::open(Arc::clone(&src)).unwrap();
        chain.append(sample_record(0, ZERO_HASH)).unwrap();
        chain.append(sample_record(1, ZERO_HASH)).unwrap();
        src
    }

    #[test]
    fn clone_copies_state_but_not_history() {
        let src = seeded_source();
        let dst = mem();
        let genesis = clone_workspace(&src, &dst).unwrap();
        assert_eq!(genesis.epoch, 1);
        assert_eq!(genesis.prev_epoch, None);
        assert_eq!(genesis.delta_key, None);
        assert_eq!(genesis.trend, EpochTrend::default());
        // State came over byte-for-byte...
        assert_eq!(src.read(PACK_FILE).unwrap(), dst.read(PACK_FILE).unwrap());
        assert_eq!(
            dst.read(VALIDATOR_FILE).unwrap().as_deref(),
            Some(&b"validator-bytes"[..])
        );
        // ...but the chain is genesis-only and the source is untouched.
        let clone_chain = EpochChain::open(Arc::clone(&dst)).unwrap();
        assert_eq!(clone_chain.epochs(), vec![1]);
        assert_eq!(
            EpochChain::open(Arc::clone(&src)).unwrap().epochs(),
            vec![0, 1]
        );
    }

    #[test]
    fn clone_refuses_empty_sources_and_occupied_destinations() {
        let empty = mem();
        let dst = mem();
        let err = clone_workspace(&empty, &dst).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);

        let src = seeded_source();
        clone_workspace(&src, &dst).unwrap();
        let err = clone_workspace(&src, &dst).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::AlreadyExists);
    }

    #[test]
    fn clone_is_a_fork_point_not_a_mirror() {
        let src = seeded_source();
        let dst = mem();
        clone_workspace(&src, &dst).unwrap();
        let mut clone_chain = EpochChain::open(Arc::clone(&dst)).unwrap();
        clone_chain.append(sample_record(2, ZERO_HASH)).unwrap();
        assert_eq!(clone_chain.epochs(), vec![1, 2]);
        // The source's chain never sees the what-if epoch.
        assert_eq!(
            EpochChain::open(Arc::clone(&src)).unwrap().epochs(),
            vec![0, 1]
        );
    }
}
