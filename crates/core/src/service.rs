//! The fleet service: audits as a long-running, multi-tenant operation.
//!
//! The paper's measurement was one batch crawl. Run as a *service* —
//! several teams re-auditing their bot populations on their own cadences —
//! the same pipeline needs an admission-controlled queue, fair scheduling
//! across tenants, and an incremental path so that re-auditing a world in
//! which 4% of bots drifted does not redo 100% of the analysis.
//!
//! [`FleetService`] composes those pieces:
//!
//! * a [`sched::Daemon`] provides lanes, deadlines, bounded admission
//!   and per-tenant rate limits, all on the shared virtual clock;
//! * every tenant gets its own journal + artifact pack, namespaced inside
//!   one root [`Backend`] via [`ScopedBackend`] — so a tenant's epoch-N+1
//!   audit re-analyzes only bots whose content hash changed since epoch N
//!   (the warm pack serves the rest);
//! * each completed job carries the full [`CanonicalReport`] *and* a
//!   [`DeltaReport`] against the tenant's previous run — traceability
//!   flips, permission creep, newly leaking honeypot bots.
//!
//! Everything observable (reports, deltas, hit counters, `sched.*`
//! metrics and spans) is byte-identical at any worker count; the
//! `sched_determinism` integration suite pins this.
//!
//! Since the service API redesign, [`FleetService`] is a thin facade
//! over the always-on [`FleetDaemon`](crate::FleetDaemon) pinned to
//! legacy batch semantics (no fairness quantum, no deadline expiry, no
//! preemption slicing): `submit` + `run` keep working byte-for-byte,
//! while new callers drive the daemon loop directly.

use crate::audit::Audit;
use crate::daemon::{FleetDaemon, FleetDaemonConfig};
use crate::delta::DeltaReport;
use crate::error::AuditError;
use crate::report::CanonicalReport;
use netsim::VirtualClock;
use obs::Obs;
use sched::{JobId, JobSpec, TenantRate};
use std::sync::Arc;
use store::{Backend, MemBackend};

/// Fleet-level configuration (the scheduler knobs, re-exported shape).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetConfig {
    /// Maximum jobs queued between [`FleetService::run`] calls.
    pub queue_capacity: usize,
    /// Worker threads multiplexed across in-flight audits. Reports are
    /// byte-identical at any value.
    pub workers: usize,
    /// Optional per-tenant submission rate limit on the virtual clock.
    pub tenant_rate: Option<TenantRate>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            queue_capacity: 64,
            workers: 1,
            tenant_rate: None,
        }
    }
}

/// A validated audit wrapped for fleet submission. Obtained from
/// [`AuditBuilder::into_job`](crate::AuditBuilder::into_job).
pub struct AuditJob {
    audit: Audit,
}

impl std::fmt::Debug for AuditJob {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AuditJob")
            .field("audit", &self.audit)
            .finish()
    }
}

impl AuditJob {
    pub(crate) fn new(audit: Audit) -> AuditJob {
        AuditJob { audit }
    }

    pub(crate) fn audit(&self) -> &Audit {
        &self.audit
    }

    /// The wrapped audit's drift epoch.
    pub fn epoch(&self) -> u32 {
        self.audit.epoch()
    }
}

/// What the service returns for one completed audit job.
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

/// One substrate's slice of a drained heterogeneous fleet: the same
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

/// Roll a drained fleet up per substrate, in canonical platform order.
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

/// Batch-style multi-tenant audit service over one shared worker pool —
/// the legacy facade over [`FleetDaemon`](crate::FleetDaemon).
pub struct FleetService {
    daemon: FleetDaemon,
}

impl FleetService {
    /// A service journaling every tenant into a private in-memory store.
    pub fn new(config: FleetConfig) -> FleetService {
        FleetService::with_backend(config, Arc::new(MemBackend::new()))
    }

    /// A service with an explicit root backend (e.g. a
    /// [`store::DiskBackend`] to persist tenant journals and artifact
    /// packs across process restarts). Each tenant's store is scoped
    /// under `<tenant>/` inside the root.
    pub fn with_backend(config: FleetConfig, root: Arc<dyn Backend>) -> FleetService {
        let clock = VirtualClock::new();
        let obs = Obs::disabled();
        FleetService::assemble(config, root, clock, obs)
    }

    /// Full control: supply the virtual clock and observability handle
    /// (attach a tracing recorder to capture the deterministic `sched.*`
    /// span tree).
    pub fn with_obs(
        config: FleetConfig,
        root: Arc<dyn Backend>,
        clock: VirtualClock,
        obs: Obs,
    ) -> FleetService {
        FleetService::assemble(config, root, clock, obs)
    }

    fn assemble(
        config: FleetConfig,
        root: Arc<dyn Backend>,
        clock: VirtualClock,
        obs: Obs,
    ) -> FleetService {
        // Legacy batch semantics: quantum 0 (every drain runs the whole
        // queue in one global (lane, deadline, id) sort), no expiry, no
        // preemption slicing.
        let daemon = FleetDaemon::with_obs(
            FleetDaemonConfig {
                queue_capacity: config.queue_capacity,
                workers: config.workers,
                tenant_rate: config.tenant_rate,
                quantum: 0,
                batch_slice_frames: None,
                tick_ms: FleetDaemonConfig::default().tick_ms,
            },
            root,
            clock,
            obs,
        );
        FleetService { daemon }
    }

    /// The virtual clock the service (and its rate limiter) runs on.
    /// Advancing it is the driver's job, exactly as in the simulator.
    pub fn clock(&self) -> &VirtualClock {
        self.daemon.clock()
    }

    /// The observability handle (`sched.*`, `store.*`, stage metrics).
    pub fn obs(&self) -> &Obs {
        self.daemon.obs()
    }

    /// Jobs currently queued.
    pub fn queued(&self) -> usize {
        self.daemon.queued()
    }

    /// Submit a job for `spec.tenant`. Fails with [`AuditError::Config`]
    /// when the tenant id is path-shaped (it would escape the tenant's
    /// store namespace) and with [`AuditError::Saturated`] when the
    /// queue is full or the tenant is over its rate — deterministically,
    /// given the same submission sequence at the same virtual times.
    ///
    /// Unlike [`FleetDaemon::submit`](crate::FleetDaemon::submit), a
    /// deadline already in the past is accepted: this facade never
    /// expires jobs, so a stale deadline is merely an ordering hint.
    pub fn submit(&self, spec: JobSpec, job: AuditJob) -> Result<JobId, AuditError> {
        self.daemon
            .admit(spec, job, false)
            .map(|handle| handle.id())
    }

    /// Drain the queue: run every admitted job across the worker pool and
    /// return outcomes in dispatch order. Jobs of one tenant run
    /// sequentially against that tenant's scoped store (so a re-audit
    /// finds the warm artifact pack its predecessor wrote); different
    /// tenants run concurrently.
    pub fn run(&self) -> Vec<JobOutcome> {
        self.daemon.drain_queue();
        self.daemon.poll_outcomes()
    }

    /// A tenant's committed epoch records, genesis first — the persisted
    /// oplog chain, answered without replaying any audit. See
    /// [`FleetDaemon::history`](crate::FleetDaemon::history).
    pub fn history(&self, tenant: &str) -> Result<Vec<oplog::EpochRecord>, AuditError> {
        self.daemon.history(tenant)
    }

    /// Materialized trend views over a tenant's chain. See
    /// [`FleetDaemon::trends`](crate::FleetDaemon::trends).
    pub fn trends(&self, tenant: &str) -> Result<oplog::TrendQuery, AuditError> {
        self.daemon.trends(tenant)
    }

    /// Fleet-wide per-platform drift curves. See
    /// [`FleetDaemon::fleet_trends`](crate::FleetDaemon::fleet_trends).
    pub fn fleet_trends(&self) -> Result<Vec<oplog::PlatformDrift>, AuditError> {
        self.daemon.fleet_trends()
    }

    /// Snapshot tenant `src` into fresh tenant `dst` for a what-if
    /// re-audit. See
    /// [`FleetDaemon::clone_tenant`](crate::FleetDaemon::clone_tenant).
    pub fn clone_tenant(&self, src: &str, dst: &str) -> Result<oplog::EpochRecord, AuditError> {
        self.daemon.clone_tenant(src, dst)
    }

    /// Generational pack compaction for one tenant. Call between [`run`]
    /// drains only. See
    /// [`FleetDaemon::compact_tenant`](crate::FleetDaemon::compact_tenant).
    ///
    /// [`run`]: Self::run
    pub fn compact_tenant(
        &self,
        tenant: &str,
        keep_last: usize,
    ) -> Result<oplog::CompactionOutcome, AuditError> {
        self.daemon.compact_tenant(tenant, keep_last)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::audit::Audit;
    use crate::error::ErrorKind;
    use sched::Lane;

    fn job(seed: u64, epoch: u32) -> AuditJob {
        Audit::builder()
            .scale(30)
            .seed(seed)
            .honeypot_sample(4)
            .site_defenses(false)
            .drift(synth::DriftConfig::default())
            .epoch(epoch)
            .into_job()
            .unwrap()
    }

    #[test]
    fn single_tenant_roundtrip_produces_report_and_delta() {
        let service = FleetService::new(FleetConfig::default());
        service.submit(JobSpec::new("acme"), job(2022, 0)).unwrap();
        let first = service.run();
        assert_eq!(first.len(), 1);
        assert!(first[0].report.is_ok());
        assert!(first[0].delta.is_none(), "no previous report to diff");
        assert!(first[0].artifact_misses > 0, "cold run analyzes everything");
        assert_eq!(first[0].artifact_hits, 0);

        service
            .submit(JobSpec::new("acme").lane(Lane::Interactive), job(2022, 1))
            .unwrap();
        let second = service.run();
        let outcome = &second[0];
        assert!(outcome.report.is_ok());
        let delta = outcome.delta.as_ref().expect("second run diffs the first");
        assert!(!delta.is_empty());
        assert!(
            outcome.artifact_hits > 0,
            "undrifted bots must come from the warm pack"
        );
    }

    #[test]
    fn facade_accepts_epoch_resubmission_without_forking_the_chain() {
        let service = FleetService::new(FleetConfig::default());
        service.submit(JobSpec::new("acme"), job(2022, 0)).unwrap();
        assert!(service.run()[0].report.is_ok());
        // Legacy batch semantics admit a deliberate re-run of epoch 0
        // (the strict daemon path would reject it)...
        service.submit(JobSpec::new("acme"), job(2022, 0)).unwrap();
        assert!(service.run()[0].report.is_ok());
        // ...but the persisted chain never forks: epoch 0 stays a single
        // committed record.
        let history = service.history("acme").unwrap();
        assert_eq!(history.iter().map(|r| r.epoch).collect::<Vec<_>>(), [0]);
        assert_eq!(service.obs().counter_value("oplog.append_skipped"), 1);
    }

    #[test]
    fn saturation_surfaces_as_typed_audit_error() {
        let service = FleetService::new(FleetConfig {
            queue_capacity: 1,
            ..FleetConfig::default()
        });
        service.submit(JobSpec::new("a"), job(7, 0)).unwrap();
        let err = service.submit(JobSpec::new("b"), job(7, 0)).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Saturated);
        assert_eq!(err.kind().as_str(), "saturated");
    }

    #[test]
    fn path_shaped_tenant_ids_are_rejected_before_queueing() {
        let service = FleetService::new(FleetConfig::default());
        for bad in ["", ".", "..", "a/b", "a\\b", "../escape"] {
            let err = service.submit(JobSpec::new(bad), job(7, 0)).unwrap_err();
            assert_eq!(err.kind(), ErrorKind::Config, "tenant {bad:?}");
        }
        assert_eq!(service.queued(), 0, "rejected jobs must not be queued");
    }

    #[test]
    fn disk_backend_persists_tenant_packs_across_service_restarts() {
        let dir = std::env::temp_dir().join(format!("fleet-disk-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let service = FleetService::with_backend(
            FleetConfig::default(),
            Arc::new(store::DiskBackend::open(&dir).unwrap()),
        );
        service.submit(JobSpec::new("acme"), job(2022, 0)).unwrap();
        let first = service.run();
        assert!(first[0].report.is_ok(), "disk-backed audit must complete");
        assert!(first[0].artifact_misses > 0);
        drop(service);

        // A fresh service over the same root finds the warm pack.
        let revived = FleetService::with_backend(
            FleetConfig::default(),
            Arc::new(store::DiskBackend::open(&dir).unwrap()),
        );
        revived.submit(JobSpec::new("acme"), job(2022, 1)).unwrap();
        let second = revived.run();
        assert!(second[0].report.is_ok());
        assert!(
            second[0].artifact_hits > 0,
            "undrifted bots must come from the persisted pack"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tenants_do_not_share_artifact_packs() {
        let service = FleetService::new(FleetConfig {
            workers: 2,
            ..FleetConfig::default()
        });
        service.submit(JobSpec::new("a"), job(5, 0)).unwrap();
        service.submit(JobSpec::new("b"), job(5, 0)).unwrap();
        let outcomes = service.run();
        // Same world, but tenant b's cold run cannot hit tenant a's pack.
        for o in &outcomes {
            assert_eq!(o.artifact_hits, 0, "tenant {} leaked a pack", o.tenant);
        }
    }
}
