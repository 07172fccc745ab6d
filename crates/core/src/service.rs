//! The fleet's job vocabulary: the validated [`AuditJob`] a
//! [`FleetDaemon`](crate::FleetDaemon) runs, the [`JobOutcome`] it settles
//! per job, and [`platform_breakdown`], the per-substrate rollup over a
//! heterogeneous fleet's outcomes.

use crate::audit::{Audit, HeldRun};
use crate::delta::DeltaReport;
use crate::error::AuditError;
use crate::report::CanonicalReport;
use crate::resume::StoreConfig;
use sched::JobId;
use std::sync::Arc;
use store::{ArtifactCache, ContentHash, StoreStats, ValidatorCache};

/// A validated audit wrapped for fleet submission. Obtained from
/// [`AuditBuilder::into_job`](crate::AuditBuilder::into_job).
pub struct AuditJob {
    audit: Audit,
    /// The run a parked slice left: its world, crawl and open store. Set
    /// only while a sliced job is parked.
    held: Option<HeldRun>,
}

impl std::fmt::Debug for AuditJob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AuditJob")
            .field("audit", &self.audit)
            .field("held", &self.held.is_some())
            .finish()
    }
}

impl AuditJob {
    pub(crate) fn new(audit: Audit) -> AuditJob {
        AuditJob { audit, held: None }
    }

    pub(crate) fn audit(&self) -> &Audit {
        &self.audit
    }

    /// Run one dispatch of the job: [`Audit::run_scoped`] over the run a
    /// parked slice held.
    pub(crate) fn run_scoped(
        &mut self,
        store: &StoreConfig,
        pack: Arc<ArtifactCache>,
        validators: Option<Arc<ValidatorCache>>,
    ) -> Result<(CanonicalReport, StoreStats, Vec<ContentHash>), AuditError> {
        self.audit
            .run_scoped(store, pack, validators, &mut self.held)
    }

    /// The wrapped audit's drift epoch.
    pub fn epoch(&self) -> u32 {
        self.audit.epoch()
    }
}

/// What the daemon settles for one audit job: completed or expired.
pub struct JobOutcome {
    /// Scheduler job id.
    pub id: JobId,
    /// Owning tenant.
    pub tenant: String,
    /// Which substrate the tenant's world mounts on — a heterogeneous
    /// fleet mixes Discord and Telegram tenants in one queue.
    pub platform: platform::PlatformKind,
    /// Drift epoch the audit observed.
    pub epoch: u32,
    /// Virtual milliseconds the job waited in the queue.
    pub wait_ms: u64,
    /// The full canonical report (byte-identical at any worker count).
    pub report: Result<CanonicalReport, AuditError>,
    /// Delta against this tenant's previous successful report, when one
    /// exists.
    pub delta: Option<DeltaReport>,
    /// Analysis artifacts served from the tenant's warm pack — for an
    /// incremental re-audit this counts the bots that did *not* drift.
    pub artifact_hits: u64,
    /// Analysis artifacts recomputed — the drifted bots (plus everything,
    /// on a tenant's first audit).
    pub artifact_misses: u64,
}

/// One substrate's slice of a settled heterogeneous fleet: the same
/// methodology measured on both platforms, side by side — the paper's §6
/// cross-ecosystem comparison as a first-class output.
#[derive(Debug, Clone, PartialEq, serde::Serialize)]
pub struct PlatformBreakdown {
    /// The substrate this row aggregates.
    pub platform: platform::PlatformKind,
    /// Successful audits on this substrate.
    pub audits: u64,
    /// Bots crawled across those audits.
    pub bots: u64,
    /// Bots whose policy traces every requested permission.
    pub complete_traceability: u64,
    /// Bots with no usable policy at all.
    pub broken_traceability: u64,
    /// Honeypot detections attributed across those audits.
    pub detections: u64,
    /// Analysis artifacts served warm across those audits.
    pub artifact_hits: u64,
    /// Analysis artifacts recomputed across those audits.
    pub artifact_misses: u64,
}

/// Roll settled outcomes up per substrate, in canonical platform order.
/// Rows only appear for platforms that completed at least one audit; the
/// aggregation is a pure fold over [`JobOutcome`]s, so it is byte-identical
/// whenever the outcomes are.
pub fn platform_breakdown(outcomes: &[JobOutcome]) -> Vec<PlatformBreakdown> {
    platform::PlatformKind::ALL
        .iter()
        .filter_map(|&kind| {
            let mut row = PlatformBreakdown {
                platform: kind,
                audits: 0,
                bots: 0,
                complete_traceability: 0,
                broken_traceability: 0,
                detections: 0,
                artifact_hits: 0,
                artifact_misses: 0,
            };
            for outcome in outcomes.iter().filter(|o| o.platform == kind) {
                let Ok(report) = &outcome.report else {
                    continue;
                };
                row.audits += 1;
                row.bots += report.bots.len() as u64;
                for bot in &report.bots {
                    match bot.traceability.classification {
                        policy::Traceability::Complete => row.complete_traceability += 1,
                        policy::Traceability::Broken => row.broken_traceability += 1,
                        policy::Traceability::Partial => {}
                    }
                }
                if let Some(hp) = &report.honeypot {
                    row.detections += hp.detections.len() as u64;
                }
                row.artifact_hits += outcome.artifact_hits;
                row.artifact_misses += outcome.artifact_misses;
            }
            (row.audits > 0).then_some(row)
        })
        .collect()
}
