//! The per-epoch commit record and its pre-digested trend summary.
//!
//! An [`EpochRecord`] is what the fleet daemon appends to a tenant's
//! [`EpochChain`](crate::chain::EpochChain) after each completed audit. It
//! never embeds the report or delta themselves — those are content-addressed
//! blobs in the tenant's artifact pack, referenced here by key — but it does
//! embed an [`EpochTrend`], the handful of counters and per-bot drift facts
//! that trend queries need. That split is what makes
//! [`TrendQuery`](crate::views::TrendQuery) answerable from the chain alone:
//! replaying the chain's small JSON frames materializes every view without
//! touching a single report blob, let alone re-running an audit.

use platform::PlatformKind;
use serde::{Deserialize, Serialize};
use store::ContentHash;

use crate::hexhash;

/// The all-zero hash: parent of a genesis frame, never a real content key.
pub const ZERO_HASH: ContentHash = ContentHash([0u8; 16]);

/// One bot's traceability verdict changing between consecutive epochs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceFlip {
    /// The bot's listing name.
    pub bot: String,
    /// Verdict at the previous epoch (lowercase, e.g. `"traceable"`).
    pub from: String,
    /// Verdict at this epoch.
    pub to: String,
}

/// One bot's permission-set churn between consecutive epochs.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PermCreep {
    /// The bot's listing name.
    pub bot: String,
    /// Permissions gained this epoch.
    pub added: u32,
    /// Permissions dropped this epoch.
    pub removed: u32,
}

/// The pre-digested drift facts of one epoch, relative to the previous one.
///
/// A genesis epoch (no predecessor) carries the default: all counters zero,
/// no flips, no creep.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct EpochTrend {
    /// Bots present in both epochs whose canonical form changed.
    pub drifted: u32,
    /// Bots present in both epochs, byte-identical.
    pub unchanged: u32,
    /// Bots new in this epoch.
    pub appeared: u32,
    /// Bots gone since the previous epoch.
    pub disappeared: u32,
    /// Traceability verdict changes, in listing order.
    pub flips: Vec<TraceFlip>,
    /// Permission churn per bot, in listing order.
    pub permissions: Vec<PermCreep>,
    /// Policy/code detections that appeared this epoch.
    pub new_detections: u32,
    /// Detections that disappeared this epoch.
    pub resolved_detections: u32,
}

/// One committed epoch of one tenant: the chain frame payload.
///
/// `parent` hash-links the record to the exact bytes of its predecessor
/// frame, so the chain is tamper- and truncation-evident on open. All
/// content keys are rendered as 32-char lowercase hex (see
/// [`hexhash`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EpochRecord {
    /// This epoch's number (monotonically increasing per tenant, gaps
    /// allowed — an expired or failed submission consumes no epoch frame).
    pub epoch: u32,
    /// The epoch of the predecessor frame, `None` for a genesis frame.
    pub prev_epoch: Option<u32>,
    /// Platform the tenant audits.
    pub platform: PlatformKind,
    /// `frame_hash()` of the predecessor record, [`ZERO_HASH`] (as hex)
    /// for a genesis frame.
    pub parent: String,
    /// Artifact-pack key of this epoch's canonical report JSON.
    pub report_key: String,
    /// Artifact-pack key of this epoch's delta JSON, `None` for genesis.
    pub delta_key: Option<String>,
    /// Every artifact-pack key the completing run referenced (analysis
    /// artifacts and honeypot snapshots), sorted and deduplicated.
    pub artifact_keys: Vec<String>,
    /// Bots in this epoch's listing.
    pub bots: u32,
    /// Pre-digested drift facts vs the previous epoch.
    pub trend: EpochTrend,
}

impl EpochRecord {
    /// The canonical serialized form: exactly the bytes journaled as the
    /// chain frame payload, and the bytes `frame_hash` digests.
    pub fn canonical_json(&self) -> Vec<u8> {
        serde_json::to_vec(self).expect("epoch records always serialize")
    }

    /// The content hash of this record's canonical bytes — what the next
    /// frame stores as its `parent`.
    pub fn frame_hash(&self) -> ContentHash {
        ContentHash::of_parts(&[b"oplog-frame-v1", &self.canonical_json()])
    }

    /// All pack keys this record pins live: report, delta, and every
    /// referenced artifact. Unparseable hex entries are skipped (they can
    /// only arise from hand-edited files; compaction must not guess).
    pub fn live_keys(&self) -> Vec<ContentHash> {
        let mut keys = Vec::with_capacity(self.artifact_keys.len() + 2);
        keys.extend(hexhash::parse_hex(&self.report_key));
        if let Some(delta) = &self.delta_key {
            keys.extend(hexhash::parse_hex(delta));
        }
        for key in &self.artifact_keys {
            keys.extend(hexhash::parse_hex(key));
        }
        keys
    }
}

/// The pack key of an epoch's canonical report JSON blob.
pub fn report_blob_key(report_json: &[u8]) -> ContentHash {
    ContentHash::of_parts(&[b"oplog-report-v1", report_json])
}

/// The pack key of an epoch's delta JSON blob.
pub fn delta_blob_key(delta_json: &[u8]) -> ContentHash {
    ContentHash::of_parts(&[b"oplog-delta-v1", delta_json])
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    pub(crate) fn sample_record(epoch: u32, parent: ContentHash) -> EpochRecord {
        EpochRecord {
            epoch,
            prev_epoch: if epoch == 0 { None } else { Some(epoch - 1) },
            platform: PlatformKind::Discord,
            parent: hexhash::to_hex(&parent),
            report_key: hexhash::to_hex(&ContentHash::of(format!("report-{epoch}").as_bytes())),
            delta_key: (epoch > 0)
                .then(|| hexhash::to_hex(&ContentHash::of(format!("delta-{epoch}").as_bytes()))),
            artifact_keys: vec![
                hexhash::to_hex(&ContentHash::of(b"artifact-a")),
                hexhash::to_hex(&ContentHash::of(format!("artifact-{epoch}").as_bytes())),
            ],
            bots: 12,
            trend: EpochTrend {
                drifted: 2,
                unchanged: 9,
                appeared: 1,
                disappeared: 0,
                flips: vec![TraceFlip {
                    bot: "EchoBot".into(),
                    from: "traceable".into(),
                    to: "untraceable".into(),
                }],
                permissions: vec![PermCreep {
                    bot: "EchoBot".into(),
                    added: 2,
                    removed: 0,
                }],
                new_detections: 1,
                resolved_detections: 0,
            },
        }
    }

    #[test]
    fn records_roundtrip_through_canonical_json() {
        let record = sample_record(3, ContentHash::of(b"parent"));
        let bytes = record.canonical_json();
        let back: EpochRecord = serde_json::from_slice(&bytes).expect("roundtrip");
        assert_eq!(back, record);
        // Canonical bytes are stable: serializing again is byte-identical.
        assert_eq!(back.canonical_json(), bytes);
    }

    #[test]
    fn frame_hash_pins_every_field() {
        let base = sample_record(3, ContentHash::of(b"parent"));
        let mut bumped = base.clone();
        bumped.bots += 1;
        assert_ne!(base.frame_hash(), bumped.frame_hash());
        let mut relinked = base.clone();
        relinked.parent = hexhash::to_hex(&ContentHash::of(b"other-parent"));
        assert_ne!(base.frame_hash(), relinked.frame_hash());
    }

    #[test]
    fn live_keys_cover_report_delta_and_artifacts() {
        let record = sample_record(2, ContentHash::of(b"parent"));
        let keys = record.live_keys();
        assert_eq!(keys.len(), 4); // report + delta + 2 artifacts
        assert!(keys.contains(&ContentHash::of(b"artifact-a")));
        let genesis = sample_record(0, ZERO_HASH);
        assert_eq!(genesis.live_keys().len(), 3); // no delta at genesis
    }

    #[test]
    fn blob_keys_are_domain_separated() {
        let json = br#"{"bots":[]}"#;
        assert_ne!(report_blob_key(json), delta_blob_key(json));
        assert_ne!(report_blob_key(json), ContentHash::of(json));
    }
}
