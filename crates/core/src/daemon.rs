//! The always-on fleet daemon: audits as a long-running, multi-tenant
//! service.
//!
//! The paper's measurement was one batch crawl. Run as a service —
//! several teams re-auditing their bot populations on their own cadences —
//! the same pipeline needs an admission-controlled queue, fair scheduling
//! across tenants, and an incremental path so that re-auditing a world in
//! which 4% of bots drifted does not redo 100% of the analysis. It also
//! never drains: tenants submit forever, an interactive request must not
//! sit behind a 300-bot backfill, and a job whose deadline has passed is
//! worthless to run. [`FleetDaemon`] is that service:
//!
//! * [`FleetDaemon::submit`] validates the spec up front (path-shaped
//!   tenant ids, zero weights, deadlines already in the past, and epochs
//!   at or below the tenant's newest all fail fast with a `config`-kind
//!   error) and returns a typed [`JobHandle`];
//! * every tenant gets its own journal + artifact pack, namespaced inside
//!   one root [`Backend`] via [`ScopedBackend`] — so a tenant's epoch-N+1
//!   audit re-analyzes only bots whose content hash changed since epoch N
//!   — and each settled [`JobOutcome`] carries a [`DeltaReport`] against
//!   the tenant's previous run, committed to the tenant's epoch chain;
//! * [`FleetDaemon::tick`] runs one scheduler round at the current
//!   virtual time: overdue queued jobs expire with a typed
//!   [`AuditError::Expired`] outcome, deficit-round-robin grants each
//!   backlogged tenant `quantum × weight` dispatch slots, and a running
//!   `Batch` audit cooperatively parks at a journal-frame boundary when
//!   its slice budget runs out — resuming byte-identically on a later
//!   tick via the crash-safe journal replay path;
//! * [`FleetDaemon::run_until`] drives tick-then-advance on the virtual
//!   clock until a target time — the daemon loop in one call;
//! * [`FleetDaemon::poll_outcomes`] / [`FleetDaemon::resolve`] deliver
//!   settled [`JobOutcome`]s, in settle order or by handle;
//! * [`FleetDaemon::shutdown`] ends the service with a typed
//!   [`ShutdownMode`]: `Drain` finishes everything queued (including
//!   parked audits), `Abandon` returns what was still waiting.
//!
//! Everything observable — outcomes, deltas, expiry decisions, the
//! `sched.tick` span tree and `sched.*` counters — is a pure function of
//! the submission sequence and clock advances, byte-identical at any
//! worker count. The `sched_determinism` and `daemon_determinism`
//! integration suites pin this, the latter under adversarial load.

use crate::delta::DeltaReport;
use crate::error::AuditError;
use crate::report::CanonicalReport;
use crate::resume::StoreConfig;
use crate::service::{AuditJob, JobOutcome};
use netsim::{SimDuration, VirtualClock};
use obs::{Clock, Obs};
use oplog::{CompactionOutcome, EpochChain, EpochRecord, PlatformDrift, TrendQuery};
use sched::{
    CompletedJob, Daemon, DaemonConfig, ExecCtx, JobEvent, JobId, JobSpec, StepResult, TenantRate,
};
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::sync::{Arc, Mutex};
use store::{
    ArtifactCache, Backend, ContentHash, MemBackend, ScopedBackend, StoreStats, PACK_FILE,
};

/// Knobs for the always-on daemon: the scheduler trio
/// (`queue_capacity` / `workers` / `tenant_rate`) plus the loop itself.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetDaemonConfig {
    /// Maximum jobs queued awaiting dispatch.
    pub queue_capacity: usize,
    /// Worker threads multiplexed across in-flight audits. Outcomes are
    /// byte-identical at any value.
    pub workers: usize,
    /// Optional per-tenant submission rate limit on the virtual clock.
    pub tenant_rate: Option<TenantRate>,
    /// Deficit-round-robin quantum: each tick every backlogged tenant
    /// earns `quantum × weight` dispatch slots, which bounds the service
    /// gap between equal-weight tenants. `0` disables fairness bounding
    /// (every tick dispatches everything queued).
    pub quantum: u32,
    /// Cooperative preemption slice for `Batch`-lane audits, in journal
    /// frames. A batch audit that appends this many fresh frames in one
    /// tick parks at the frame boundary and resumes on a later tick via
    /// journal replay; `None` disables slicing.
    pub batch_slice_frames: Option<u64>,
    /// Virtual milliseconds [`FleetDaemon::run_until`] advances the clock
    /// between ticks.
    pub tick_ms: u64,
}

impl Default for FleetDaemonConfig {
    fn default() -> Self {
        FleetDaemonConfig {
            queue_capacity: 64,
            workers: 1,
            tenant_rate: None,
            quantum: 1,
            batch_slice_frames: Some(8),
            tick_ms: 10,
        }
    }
}

/// Typed receipt for a submitted job: proof the spec validated and a key
/// for claiming the job's [`JobOutcome`] via [`FleetDaemon::resolve`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobHandle {
    id: JobId,
}

impl JobHandle {
    /// The scheduler id this handle resolves.
    pub fn id(self) -> JobId {
        self.id
    }
}

impl std::fmt::Display for JobHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.id.fmt(f)
    }
}

/// How [`FleetDaemon::shutdown`] disposes of work still queued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShutdownMode {
    /// Finish everything: run every queued job (parked audits resume
    /// first) and deliver their outcomes before stopping.
    Drain,
    /// Stop now: queued jobs are returned un-run as
    /// [`ShutdownReport::abandoned`].
    Abandon,
}

/// A queued audit [`ShutdownMode::Abandon`] returned without running.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AbandonedAudit {
    /// Scheduler id the job held while queued.
    pub id: JobId,
    /// Owning tenant.
    pub tenant: String,
    /// Drift epoch the audit would have observed.
    pub epoch: u32,
}

/// What [`FleetDaemon::shutdown`] hands back.
pub struct ShutdownReport {
    /// Every settled outcome not yet claimed via
    /// [`FleetDaemon::poll_outcomes`] / [`FleetDaemon::resolve`],
    /// including (under [`ShutdownMode::Drain`]) the final drain's.
    pub outcomes: Vec<JobOutcome>,
    /// Jobs still queued at shutdown, un-run. Empty under
    /// [`ShutdownMode::Drain`].
    pub abandoned: Vec<AbandonedAudit>,
}

/// Per-tenant service state: the scoped store every audit of the tenant
/// runs against, plus the last successful report (and its epoch) for
/// delta computation. On first touch the baseline is restored from the
/// tenant's persisted epoch chain, so a daemon restarted over a
/// [`store::DiskBackend`] resumes delta chaining where it left off.
pub(crate) struct TenantState {
    pub(crate) backend: Arc<dyn Backend>,
    pub(crate) last_report: Option<CanonicalReport>,
    pub(crate) last_epoch: Option<u32>,
}

/// The epochs a tenant has used, split by lifecycle. Seeded from the
/// tenant's persisted epoch chain on first touch, so stale-epoch
/// rejection survives daemon restarts.
#[derive(Default)]
struct EpochLedger {
    /// Epochs submitted and not yet settled.
    inflight: BTreeSet<u32>,
    /// Epochs with a successfully settled audit (persisted or this run's).
    committed: BTreeSet<u32>,
}

/// What the executor hands back per completed dispatch.
type ExecOutput = (
    u32,
    platform::PlatformKind,
    Result<(CanonicalReport, StoreStats, Vec<ContentHash>), AuditError>,
);

/// Always-on multi-tenant audit daemon over one shared worker pool.
///
/// The driver owns the loop: advance the virtual clock (or let
/// [`Self::run_until`] do it) and call [`Self::tick`]; collect settled
/// outcomes with [`Self::poll_outcomes`] or [`Self::resolve`]. See the
/// [module docs](self) for the full contract.
pub struct FleetDaemon {
    config: FleetDaemonConfig,
    daemon: Daemon<AuditJob>,
    clock: VirtualClock,
    obs: Obs,
    root: Arc<dyn Backend>,
    tenants: Mutex<BTreeMap<String, Arc<TenantState>>>,
    epochs: Mutex<BTreeMap<String, EpochLedger>>,
    settled: Mutex<Vec<JobOutcome>>,
}

impl FleetDaemon {
    /// A daemon journaling every tenant into a private in-memory store.
    pub fn new(config: FleetDaemonConfig) -> FleetDaemon {
        FleetDaemon::with_backend(config, Arc::new(MemBackend::new()))
    }

    /// A daemon with an explicit root backend (e.g. a
    /// [`store::DiskBackend`] to persist tenant journals and artifact
    /// packs across restarts). Each tenant's store is scoped under
    /// `<tenant>/` inside the root.
    pub fn with_backend(config: FleetDaemonConfig, root: Arc<dyn Backend>) -> FleetDaemon {
        FleetDaemon::with_obs(config, root, VirtualClock::new(), Obs::disabled())
    }

    /// Full control: supply the virtual clock and observability handle
    /// (attach a tracing recorder to capture the deterministic
    /// `sched.tick` span tree).
    pub fn with_obs(
        config: FleetDaemonConfig,
        root: Arc<dyn Backend>,
        clock: VirtualClock,
        obs: Obs,
    ) -> FleetDaemon {
        let daemon = Daemon::new(
            DaemonConfig {
                queue_capacity: config.queue_capacity,
                workers: config.workers,
                tenant_rate: config.tenant_rate,
                quantum: config.quantum,
                batch_slice_frames: config.batch_slice_frames,
            },
            Arc::new(clock.clone()),
            obs.clone(),
        );
        FleetDaemon {
            config,
            daemon,
            clock,
            obs,
            root,
            tenants: Mutex::new(BTreeMap::new()),
            epochs: Mutex::new(BTreeMap::new()),
            settled: Mutex::new(Vec::new()),
        }
    }

    /// The daemon's configuration.
    pub fn config(&self) -> &FleetDaemonConfig {
        &self.config
    }

    /// The virtual clock the daemon runs on. [`Self::run_until`] advances
    /// it; between calls the driver may advance it directly.
    pub fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    /// The observability handle (`sched.*`, `store.*`, stage metrics).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Jobs currently queued (including parked audits awaiting resume).
    pub fn queued(&self) -> usize {
        self.daemon.len()
    }

    /// The deficit-round-robin fairness watermark: the maximum service
    /// gap observed so far between equal-weight backlogged tenants. The
    /// scheduler bounds this by `quantum × weight`.
    pub fn fairness_gap(&self) -> u64 {
        self.daemon.fairness_gap()
    }

    /// Submit an audit for `spec.tenant`.
    ///
    /// Fails fast — before anything is queued — with a `config`-kind
    /// error on a path-shaped tenant id, a zero weight, a deadline
    /// already behind the virtual clock, or an epoch at or below the
    /// newest one the tenant has run or has in flight (re-running or
    /// rewinding an epoch would overwrite the tenant's delta baseline and
    /// corrupt its epoch chain); and with a `saturated`-kind error when
    /// the queue is full or the tenant is over its rate. All of it
    /// deterministic given the same submission sequence at the same
    /// virtual times.
    pub fn submit(&self, spec: JobSpec, job: AuditJob) -> Result<JobHandle, AuditError> {
        validate_tenant(&spec.tenant)?;
        if spec.weight == 0 {
            return Err(sched::SpecError::ZeroWeight {
                tenant: spec.tenant,
            }
            .into());
        }
        if let Some(deadline) = spec.deadline_ms {
            let now = self.clock.now_millis();
            if deadline < now {
                return Err(AuditError::config(format!(
                    "deadline {deadline} ms is already {} ms in the past \
                     (virtual now: {now} ms); it would expire before dispatch",
                    now - deadline
                )));
            }
        }
        let tenant = spec.tenant.clone();
        let epoch = job.epoch();
        let mut ledgers = self.epochs.lock().expect("epoch ledger poisoned");
        let ledger = self.ledger_entry(&mut ledgers, &tenant);
        let newest = ledger.committed.last().max(ledger.inflight.last());
        if let Some(&newest) = newest.filter(|&&newest| epoch <= newest) {
            let state = if ledger.inflight.contains(&epoch) {
                "is already in flight".to_string()
            } else if ledger.committed.contains(&epoch) {
                "has already run".to_string()
            } else {
                format!("is older than its newest epoch {newest}")
            };
            return Err(AuditError::config(format!(
                "tenant {tenant:?} epoch {epoch} {state}: a re-run or late \
                 epoch would rewind the tenant's delta baseline; submit the \
                 next epoch (or clone the tenant for a what-if re-audit) instead"
            )));
        }
        let id = self.daemon.submit(spec, job)?;
        self.ledger_entry(&mut ledgers, &tenant)
            .inflight
            .insert(epoch);
        Ok(JobHandle { id })
    }

    /// The ledger for `tenant`, created on first touch with `committed`
    /// seeded from the tenant's persisted epoch chain.
    fn ledger_entry<'a>(
        &self,
        ledgers: &'a mut BTreeMap<String, EpochLedger>,
        tenant: &str,
    ) -> &'a mut EpochLedger {
        if !ledgers.contains_key(tenant) {
            let scoped: Arc<dyn Backend> =
                Arc::new(ScopedBackend::new(Arc::clone(&self.root), tenant));
            let committed = match EpochChain::open(scoped) {
                Ok(chain) => chain.epochs().into_iter().collect(),
                Err(_) => BTreeSet::new(),
            };
            ledgers.insert(
                tenant.to_string(),
                EpochLedger {
                    inflight: BTreeSet::new(),
                    committed,
                },
            );
        }
        ledgers.get_mut(tenant).expect("just inserted")
    }

    /// Record `epoch` settling for `tenant`: successful runs commit, the
    /// rest merely release the in-flight reservation.
    fn settle_epoch(&self, tenant: &str, epoch: u32, committed: bool) {
        let mut ledgers = self.epochs.lock().expect("epoch ledger poisoned");
        let ledger = self.ledger_entry(&mut ledgers, tenant);
        ledger.inflight.remove(&epoch);
        if committed {
            ledger.committed.insert(epoch);
        }
    }

    /// Run one scheduler round at the current virtual time: expire
    /// overdue queued jobs, dispatch this round's deficit-round-robin
    /// selection, park any batch audit that exhausts its frame slice.
    /// Returns a handle per job that settled (completed or expired) this
    /// tick; claim the outcomes via [`Self::poll_outcomes`] or
    /// [`Self::resolve`].
    pub fn tick(&self) -> Vec<JobHandle> {
        let events = self
            .daemon
            .tick(|_id, spec, job: &mut AuditJob, ctx| self.execute(spec, job, ctx));
        self.settle(events)
    }

    /// Drive the daemon loop until the virtual clock reaches `clock_ms`:
    /// tick, advance by [`FleetDaemonConfig::tick_ms`] (capped at the
    /// target), repeat — ending with a tick at `clock_ms` itself. Returns
    /// every handle that settled along the way.
    pub fn run_until(&self, clock_ms: u64) -> Vec<JobHandle> {
        let step = self.config.tick_ms.max(1);
        let mut handles = self.tick();
        loop {
            let now = self.clock.now_millis();
            if now >= clock_ms {
                break;
            }
            self.clock
                .advance(SimDuration::from_millis(step.min(clock_ms - now)));
            handles.extend(self.tick());
        }
        handles
    }

    /// Take every settled outcome not yet claimed, in settle order
    /// (expiries of a tick before its completions, ticks in time order).
    pub fn poll_outcomes(&self) -> Vec<JobOutcome> {
        std::mem::take(&mut *self.settled.lock().expect("outcome buffer poisoned"))
    }

    /// Claim one settled outcome by handle. Returns `None` while the job
    /// is still queued, running, or parked — and after the outcome was
    /// already claimed (here or via [`Self::poll_outcomes`]).
    pub fn resolve(&self, handle: JobHandle) -> Option<JobOutcome> {
        let mut settled = self.settled.lock().expect("outcome buffer poisoned");
        let at = settled.iter().position(|o| o.id == handle.id)?;
        Some(settled.remove(at))
    }

    /// Stop the service. [`ShutdownMode::Drain`] finishes everything
    /// still queued (parked audits resume and run to completion, with no
    /// slice limit); [`ShutdownMode::Abandon`] returns queued jobs un-run.
    pub fn shutdown(self, mode: ShutdownMode) -> ShutdownReport {
        let abandoned = match mode {
            ShutdownMode::Drain => {
                let completed = self
                    .daemon
                    .drain_all(|_id, spec, job: &mut AuditJob, ctx| self.execute(spec, job, ctx));
                self.settle(completed.into_iter().map(JobEvent::Completed).collect());
                Vec::new()
            }
            ShutdownMode::Abandon => self
                .daemon
                .abandon()
                .into_iter()
                .map(|a| AbandonedAudit {
                    id: a.id,
                    tenant: a.spec.tenant,
                    epoch: a.payload.epoch(),
                })
                .collect(),
        };
        ShutdownReport {
            outcomes: self.poll_outcomes(),
            abandoned,
        }
    }

    /// Run one dispatch slice of `job` against its tenant's scoped store.
    /// Called from worker threads; everything it touches is behind the
    /// tenant map lock or owned by the job.
    fn execute(&self, spec: &JobSpec, job: &AuditJob, ctx: ExecCtx) -> StepResult<ExecOutput> {
        let state = self.tenant_state(&spec.tenant);
        let store = StoreConfig {
            backend: Arc::clone(&state.backend),
            resume: ctx.resuming,
            kill_after_frames: ctx.slice_frames,
        };
        let result = job.audit().run_scoped(&store);
        if ctx.slice_frames.is_some() && matches!(result, Err(AuditError::Interrupted { .. })) {
            // The slice lever fired at a frame boundary: every frame
            // written is durable, so park and resume on a later tick.
            return StepResult::Parked;
        }
        StepResult::Done((job.epoch(), job.audit().ecosystem_config().platform, result))
    }

    /// Turn this tick's scheduler events into [`JobOutcome`]s,
    /// sequentially in event order (so delta chaining is deterministic),
    /// and buffer them for [`Self::poll_outcomes`] / [`Self::resolve`].
    fn settle(&self, events: Vec<JobEvent<ExecOutput, AuditJob>>) -> Vec<JobHandle> {
        let mut handles = Vec::with_capacity(events.len());
        let mut settled = self.settled.lock().expect("outcome buffer poisoned");
        for event in events {
            let outcome = match event {
                JobEvent::Expired(ex) => {
                    self.settle_epoch(&ex.tenant, ex.payload.epoch(), false);
                    JobOutcome {
                        id: ex.id,
                        tenant: ex.tenant.clone(),
                        platform: ex.payload.audit().ecosystem_config().platform,
                        epoch: ex.payload.epoch(),
                        wait_ms: ex.expired_at_ms - ex.submitted_ms,
                        report: Err(ex.rejection().into()),
                        delta: None,
                        artifact_hits: 0,
                        artifact_misses: 0,
                    }
                }
                JobEvent::Completed(done) => self.settle_completed(done),
            };
            handles.push(JobHandle { id: outcome.id });
            settled.push(outcome);
        }
        handles
    }

    fn settle_completed(&self, done: CompletedJob<ExecOutput>) -> JobOutcome {
        let (epoch, platform, result) = done.output;
        let (report, delta, hits, misses) = match result {
            Ok((report, stats, referenced)) => {
                let mut tenants = self.tenants.lock().expect("tenant map poisoned");
                let state = tenants
                    .get_mut(&done.tenant)
                    .expect("tenant state exists after run");
                let delta = state.last_report.as_ref().map(|prev| {
                    DeltaReport::between_at(prev, &report, state.last_epoch.unwrap_or(0), epoch)
                });
                self.append_epoch(&state.backend, epoch, &report, delta.as_ref(), &referenced);
                // Arc::make_mut would clone the backend; rebuild the
                // state instead so the backend Arc is shared.
                *state = Arc::new(TenantState {
                    backend: Arc::clone(&state.backend),
                    last_report: Some(report.clone()),
                    last_epoch: Some(epoch),
                });
                drop(tenants);
                self.settle_epoch(&done.tenant, epoch, true);
                (
                    Ok(report),
                    delta,
                    stats.artifact_hits,
                    stats.artifact_misses,
                )
            }
            Err(e) => {
                self.settle_epoch(&done.tenant, epoch, false);
                (Err(e), None, 0, 0)
            }
        };
        JobOutcome {
            id: done.id,
            tenant: done.tenant,
            platform,
            epoch,
            wait_ms: done.wait_ms,
            report,
            delta,
            artifact_hits: hits,
            artifact_misses: misses,
        }
    }

    /// Commit one settled epoch to the tenant's chain: journal the report
    /// and delta as content-addressed pack blobs, then append the linked
    /// epoch record. Best-effort by design — the chain is history, the
    /// outcome already stands — so failures only move `oplog.*` counters.
    /// Admission refuses epochs at or below the tenant's newest, so the
    /// head check is a backstop: an epoch that still meets a chain head at
    /// or past it is skipped, never forked.
    fn append_epoch(
        &self,
        backend: &Arc<dyn Backend>,
        epoch: u32,
        report: &CanonicalReport,
        delta: Option<&DeltaReport>,
        referenced: &[ContentHash],
    ) {
        let appended = (|| -> io::Result<bool> {
            let mut chain = EpochChain::open(Arc::clone(backend))?;
            if chain.is_sealed() || chain.head().map(|h| epoch <= h.epoch).unwrap_or(false) {
                return Ok(false);
            }
            let cache = ArtifactCache::open(Arc::clone(backend), PACK_FILE)?;
            let report_json = serde_json::to_vec(report).expect("reports always serialize");
            let report_key = oplog::report_blob_key(&report_json);
            cache.put(report_key, &report_json)?;
            let delta_key = match delta {
                Some(delta) => {
                    let delta_json = serde_json::to_vec(delta).expect("deltas always serialize");
                    let key = oplog::delta_blob_key(&delta_json);
                    cache.put(key, &delta_json)?;
                    Some(oplog::to_hex(&key))
                }
                None => None,
            };
            chain.append(EpochRecord {
                epoch,
                prev_epoch: None, // linkage is filled in by the chain
                platform: report.platform,
                parent: oplog::to_hex(&oplog::ZERO_HASH),
                report_key: oplog::to_hex(&report_key),
                delta_key,
                artifact_keys: referenced.iter().map(oplog::to_hex).collect(),
                bots: report.bots.len() as u32,
                trend: trend_of(delta),
            })?;
            Ok(true)
        })();
        let counter = match appended {
            Ok(true) => "oplog.appended",
            Ok(false) => "oplog.append_skipped",
            Err(_) => "oplog.append_failed",
        };
        self.obs.counter(counter).incr();
    }

    fn tenant_state(&self, tenant: &str) -> Arc<TenantState> {
        let mut tenants = self.tenants.lock().expect("tenant map poisoned");
        if !tenants.contains_key(tenant) {
            let backend: Arc<dyn Backend> =
                Arc::new(ScopedBackend::new(Arc::clone(&self.root), tenant));
            let (last_report, last_epoch) = self.restore_baseline(&backend);
            tenants.insert(
                tenant.to_string(),
                Arc::new(TenantState {
                    backend,
                    last_report,
                    last_epoch,
                }),
            );
        }
        Arc::clone(tenants.get(tenant).expect("just inserted"))
    }

    /// Rehydrate a tenant's delta baseline from its persisted chain: the
    /// head record names the report blob by content key, so no audit is
    /// replayed. Any damage degrades to a cold baseline, never an error.
    fn restore_baseline(
        &self,
        backend: &Arc<dyn Backend>,
    ) -> (Option<CanonicalReport>, Option<u32>) {
        let head = match EpochChain::open(Arc::clone(backend)) {
            Ok(chain) => match chain.head() {
                Some(head) => head.clone(),
                None => return (None, None),
            },
            Err(_) => return (None, None),
        };
        let report = oplog::parse_hex(&head.report_key)
            .and_then(|key| {
                ArtifactCache::open(Arc::clone(backend), PACK_FILE)
                    .ok()?
                    .peek(&key)
            })
            .and_then(|blob| serde_json::from_slice::<CanonicalReport>(&blob).ok());
        if report.is_some() {
            self.obs.counter("oplog.restored").incr();
        }
        (report, Some(head.epoch))
    }

    /// The committed epoch records of `tenant`, genesis first. Answered
    /// from the persisted chain — no audit is replayed. Unknown tenants
    /// (valid id, nothing persisted) have empty histories.
    pub fn history(&self, tenant: &str) -> Result<Vec<EpochRecord>, AuditError> {
        validate_tenant(tenant)?;
        let state = self.tenant_state(tenant);
        let chain = EpochChain::open(Arc::clone(&state.backend))
            .map_err(|e| AuditError::Store(e.into()))?;
        Ok(chain.records().to_vec())
    }

    /// Materialized trend views over `tenant`'s chain: traceability
    /// flips, cumulative permission creep, drift curve. Computed from the
    /// chain's pre-digested trend facts with zero audit replays.
    pub fn trends(&self, tenant: &str) -> Result<TrendQuery, AuditError> {
        Ok(TrendQuery::from_records(&self.history(tenant)?))
    }

    /// Fleet-wide drift curves: per-platform, per-epoch drift counters
    /// summed across every tenant this daemon has touched.
    pub fn fleet_trends(&self) -> Result<Vec<PlatformDrift>, AuditError> {
        let names: Vec<String> = {
            let tenants = self.tenants.lock().expect("tenant map poisoned");
            tenants.keys().cloned().collect()
        };
        let mut histories = Vec::with_capacity(names.len());
        for name in names {
            let records = self.history(&name)?;
            histories.push((name, records));
        }
        Ok(oplog::fleet_drift_curves(&histories))
    }

    /// Snapshot tenant `src`'s workspace (artifact pack, validator cache,
    /// head epoch — no history) into fresh tenant `dst` for a cheap
    /// what-if re-audit. Returns the clone's genesis record. Fails with a
    /// `config`-kind error when `src` has no committed epochs or `dst`
    /// already exists. Call between ticks — never while an audit of `src`
    /// is in flight.
    pub fn clone_tenant(&self, src: &str, dst: &str) -> Result<EpochRecord, AuditError> {
        validate_tenant(src)?;
        validate_tenant(dst)?;
        if self
            .tenants
            .lock()
            .expect("tenant map poisoned")
            .contains_key(dst)
        {
            return Err(AuditError::config(format!(
                "tenant {dst:?} already exists; clones only materialize into \
                 fresh workspaces"
            )));
        }
        let src_backend = Arc::clone(&self.tenant_state(src).backend);
        let dst_backend: Arc<dyn Backend> =
            Arc::new(ScopedBackend::new(Arc::clone(&self.root), dst));
        let genesis =
            oplog::clone_workspace(&src_backend, &dst_backend).map_err(|e| match e.kind() {
                io::ErrorKind::InvalidInput | io::ErrorKind::AlreadyExists => {
                    AuditError::config(e.to_string())
                }
                _ => AuditError::Store(e.into()),
            })?;
        // A refused submission may already have opened `dst`'s epoch
        // ledger; reseed it from the cloned chain on next touch.
        self.epochs
            .lock()
            .expect("epoch ledger poisoned")
            .remove(dst);
        self.obs.counter("oplog.clones").incr();
        Ok(genesis)
    }

    /// Generational pack compaction for `tenant`: drop every artifact
    /// blob not referenced by the last `keep_last` committed epochs (the
    /// head generation is always kept). Emits `store.compaction.*`
    /// counters. Call between ticks — never while an audit of the tenant
    /// is in flight, since blobs of an uncommitted epoch are not yet in
    /// the chain's keep-set.
    pub fn compact_tenant(
        &self,
        tenant: &str,
        keep_last: usize,
    ) -> Result<CompactionOutcome, AuditError> {
        validate_tenant(tenant)?;
        let state = self.tenant_state(tenant);
        let chain = EpochChain::open(Arc::clone(&state.backend))
            .map_err(|e| AuditError::Store(e.into()))?;
        if chain.is_empty() {
            return Err(AuditError::config(format!(
                "tenant {tenant:?} has no committed epochs; nothing pins the \
                 pack, so compaction would drop live artifacts"
            )));
        }
        oplog::compact_generations(&state.backend, &chain, keep_last, &self.obs)
            .map_err(|e| AuditError::Store(e.into()))
    }
}

/// Digest a delta into the chain's pre-materialized trend facts. A
/// genesis epoch (no delta) digests to the all-zero trend.
fn trend_of(delta: Option<&DeltaReport>) -> oplog::EpochTrend {
    let Some(delta) = delta else {
        return oplog::EpochTrend::default();
    };
    oplog::EpochTrend {
        drifted: delta.drifted.len() as u32,
        unchanged: delta.unchanged as u32,
        appeared: delta.appeared.len() as u32,
        disappeared: delta.disappeared.len() as u32,
        flips: delta
            .traceability_transitions
            .iter()
            .map(|t| oplog::TraceFlip {
                bot: t.name.clone(),
                from: format!("{:?}", t.from).to_lowercase(),
                to: format!("{:?}", t.to).to_lowercase(),
            })
            .collect(),
        permissions: delta
            .permission_changes
            .iter()
            .map(|p| oplog::PermCreep {
                bot: p.name.clone(),
                added: p.added.len() as u32,
                removed: p.removed.len() as u32,
            })
            .collect(),
        new_detections: delta.new_detections.len() as u32,
        resolved_detections: delta.resolved_detections.len() as u32,
    }
}

/// Tenant ids become backend name prefixes (`<tenant>/...` inside the
/// shared root), so anything that alters path structure — separators,
/// `.`/`..` components, empty names — could collide with or escape
/// another tenant's namespace once the root is a [`store::DiskBackend`].
/// Such ids are refused at submission with a `config`-kind error before
/// anything is queued.
pub(crate) fn validate_tenant(tenant: &str) -> Result<(), AuditError> {
    let path_shaped = tenant.is_empty()
        || tenant == "."
        || tenant == ".."
        || tenant.contains('/')
        || tenant.contains('\\');
    if path_shaped {
        return Err(AuditError::config(format!(
            "invalid tenant id {tenant:?}: must be non-empty and \
             contain no path separators or dot components"
        )));
    }
    Ok(())
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
    fn daemon_roundtrip_settles_outcomes_behind_handles() {
        let daemon = FleetDaemon::new(FleetDaemonConfig::default());
        let handle = daemon.submit(JobSpec::new("acme"), job(2022, 0)).unwrap();
        assert!(
            daemon.resolve(handle).is_none(),
            "not settled before a tick"
        );
        let settled = daemon.run_until(50);
        assert_eq!(settled, vec![handle]);
        let outcome = daemon.resolve(handle).expect("settled after the loop");
        assert!(outcome.report.is_ok());
        assert!(
            daemon.resolve(handle).is_none(),
            "resolve takes the outcome"
        );
    }

    #[test]
    fn invalid_specs_fail_fast_with_config_errors() {
        let daemon = FleetDaemon::new(FleetDaemonConfig::default());
        daemon.clock().advance(SimDuration::from_millis(100));

        let weightless = JobSpec::new("acme").weight(0);
        let err = daemon.submit(weightless, job(7, 0)).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Config);
        assert!(err.to_string().contains("weight 0"), "{err}");

        let stale = JobSpec::new("acme").deadline_ms(40);
        let err = daemon.submit(stale, job(7, 0)).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Config);
        assert!(
            err.to_string().contains("already 60 ms in the past"),
            "{err}"
        );

        for bad in ["", ".", "..", "a/b", "a\\b", "../escape"] {
            let err = daemon.submit(JobSpec::new(bad), job(7, 0)).unwrap_err();
            assert_eq!(err.kind(), ErrorKind::Config, "tenant {bad:?}");
        }

        assert_eq!(daemon.queued(), 0, "rejected jobs must not be queued");
    }

    #[test]
    fn disk_backend_persists_tenant_packs_across_restarts() {
        let dir = std::env::temp_dir().join(format!("fleet-disk-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        let daemon = FleetDaemon::with_backend(
            FleetDaemonConfig::default(),
            Arc::new(store::DiskBackend::open(&dir).unwrap()),
        );
        let h = daemon.submit(JobSpec::new("acme"), job(2022, 0)).unwrap();
        daemon.run_until(50);
        let first = daemon.resolve(h).expect("settled");
        assert!(first.report.is_ok(), "disk-backed audit must complete");
        assert!(first.artifact_misses > 0);
        drop(daemon);

        // A fresh daemon over the same root finds the warm pack.
        let revived = FleetDaemon::with_backend(
            FleetDaemonConfig::default(),
            Arc::new(store::DiskBackend::open(&dir).unwrap()),
        );
        let h = revived.submit(JobSpec::new("acme"), job(2022, 1)).unwrap();
        revived.run_until(50);
        let second = revived.resolve(h).expect("settled");
        assert!(second.report.is_ok());
        assert!(
            second.artifact_hits > 0,
            "undrifted bots must come from the persisted pack"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tenants_do_not_share_artifact_packs() {
        let daemon = FleetDaemon::new(FleetDaemonConfig {
            workers: 2,
            ..FleetDaemonConfig::default()
        });
        daemon.submit(JobSpec::new("a"), job(5, 0)).unwrap();
        daemon.submit(JobSpec::new("b"), job(5, 0)).unwrap();
        daemon.run_until(50);
        let outcomes = daemon.poll_outcomes();
        assert_eq!(outcomes.len(), 2);
        // Same world, but tenant b's cold run cannot hit tenant a's pack.
        for o in &outcomes {
            assert_eq!(o.artifact_hits, 0, "tenant {} leaked a pack", o.tenant);
        }
    }

    #[test]
    fn queued_jobs_expire_into_typed_outcomes() {
        let daemon = FleetDaemon::new(FleetDaemonConfig {
            // Tiny quantum keeps the flooder's later jobs queued long
            // enough to expire.
            quantum: 1,
            ..FleetDaemonConfig::default()
        });
        // One tenant floods distinct epochs; a deadline close behind the
        // clock expires before the backlog reaches it.
        for epoch in 0..3 {
            daemon.submit(JobSpec::new("flood"), job(7, epoch)).unwrap();
        }
        let doomed = daemon
            .submit(JobSpec::new("flood").deadline_ms(5), job(7, 3))
            .unwrap();
        let settled = daemon.run_until(400);
        assert!(settled.contains(&doomed));
        let outcome = daemon.resolve(doomed).expect("expired jobs still settle");
        let err = outcome.report.unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Expired);
        match err {
            AuditError::Expired { deadline_ms, .. } => assert_eq!(deadline_ms, 5),
            other => panic!("wrong variant: {other}"),
        }
        assert!(outcome.delta.is_none());
    }

    #[test]
    fn duplicate_epochs_are_rejected_in_flight_committed_and_across_restarts() {
        let root: Arc<dyn Backend> = Arc::new(MemBackend::new());
        let daemon = FleetDaemon::with_backend(FleetDaemonConfig::default(), Arc::clone(&root));
        daemon.submit(JobSpec::new("acme"), job(7, 0)).unwrap();

        // Queued but not yet settled: the epoch is in flight.
        let err = daemon.submit(JobSpec::new("acme"), job(7, 0)).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Config);
        assert!(err.to_string().contains("is already in flight"), "{err}");

        // Same epoch elsewhere is fine — the ledger is per tenant.
        daemon.submit(JobSpec::new("globex"), job(7, 0)).unwrap();

        daemon.run_until(100);

        // Settled: the epoch is committed to the tenant's chain.
        let err = daemon.submit(JobSpec::new("acme"), job(7, 0)).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Config);
        assert!(err.to_string().contains("has already run"), "{err}");

        // The rejection is durable: a fresh daemon over the same root
        // seeds its ledger from the persisted chain, so the restart
        // cannot be tricked into forking history.
        drop(daemon);
        let daemon = FleetDaemon::with_backend(FleetDaemonConfig::default(), root);
        let err = daemon.submit(JobSpec::new("acme"), job(7, 0)).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Config);
        assert!(err.to_string().contains("has already run"), "{err}");
        // ...while the next epoch is admitted normally.
        daemon.submit(JobSpec::new("acme"), job(7, 1)).unwrap();
    }

    #[test]
    fn stale_epochs_are_rejected_behind_committed_and_queued_ones() {
        let daemon = FleetDaemon::new(FleetDaemonConfig::default());
        daemon.submit(JobSpec::new("acme"), job(7, 1)).unwrap();
        daemon.run_until(100);
        // A late epoch 0 would become the delta baseline: epoch 2 would
        // then diff against it while the chain names epoch 1 its parent.
        let err = daemon.submit(JobSpec::new("acme"), job(7, 0)).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Config);
        assert!(err.to_string().contains("older than"), "{err}");

        // An epoch queued behind a newer one is just as stale.
        daemon.submit(JobSpec::new("beta"), job(7, 2)).unwrap();
        let err = daemon.submit(JobSpec::new("beta"), job(7, 1)).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Config);
        assert!(err.to_string().contains("older than"), "{err}");
        assert_eq!(daemon.queued(), 1, "the stale epoch must not be queued");
    }

    #[test]
    fn a_clone_genesis_counts_as_the_clones_newest_epoch() {
        let daemon = FleetDaemon::new(FleetDaemonConfig {
            queue_capacity: 1,
            ..FleetDaemonConfig::default()
        });
        daemon.submit(JobSpec::new("acme"), job(7, 1)).unwrap();
        // A refused submission still touches the fork's epoch ledger.
        let err = daemon.submit(JobSpec::new("fork"), job(7, 0)).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Saturated);
        daemon.run_until(100);

        let genesis = daemon.clone_tenant("acme", "fork").unwrap();
        assert_eq!(genesis.epoch, 1);
        let err = daemon.submit(JobSpec::new("fork"), job(7, 0)).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Config);
        assert!(err.to_string().contains("older than"), "{err}");
        daemon.submit(JobSpec::new("fork"), job(7, 2)).unwrap();
    }

    #[test]
    fn expired_epochs_release_their_ledger_slot() {
        let daemon = FleetDaemon::new(FleetDaemonConfig {
            quantum: 1,
            ..FleetDaemonConfig::default()
        });
        for epoch in 0..3 {
            daemon.submit(JobSpec::new("flood"), job(7, epoch)).unwrap();
        }
        let doomed = daemon
            .submit(JobSpec::new("flood").deadline_ms(5), job(7, 3))
            .unwrap();
        daemon.run_until(400);
        assert!(daemon.resolve(doomed).unwrap().report.is_err());
        // The expired epoch never committed, so resubmitting it is legal.
        let retry = daemon
            .submit(JobSpec::new("flood").deadline_ms(10_000), job(7, 3))
            .unwrap();
        daemon.run_until(2_000);
        assert!(daemon.resolve(retry).unwrap().report.is_ok());
    }

    #[test]
    fn epoch_chains_answer_history_trends_and_clones_without_replay() {
        let root: Arc<dyn Backend> = Arc::new(MemBackend::new());
        let daemon = FleetDaemon::with_backend(FleetDaemonConfig::default(), Arc::clone(&root));
        for epoch in 0..3 {
            daemon
                .submit(JobSpec::new("acme"), job(2022, epoch))
                .unwrap();
        }
        daemon.run_until(400);

        let history = daemon.history("acme").unwrap();
        assert_eq!(
            history.iter().map(|r| r.epoch).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert_eq!(history[0].prev_epoch, None);
        assert_eq!(history[2].prev_epoch, Some(1));
        assert!(history[0].delta_key.is_none(), "genesis has no delta");
        assert!(history[1].delta_key.is_some());
        assert!(!history[2].artifact_keys.is_empty());

        let trends = daemon.trends("acme").unwrap();
        assert_eq!(trends.drift_curve().len(), 3);
        let fleet = daemon.fleet_trends().unwrap();
        assert_eq!(fleet.len(), 1, "one platform in play");
        assert_eq!(fleet[0].tenants, 1);

        // Restart: the baseline is restored from the chain (no replay), so
        // the next epoch still yields a delta against epoch 2.
        drop(daemon);
        let daemon = FleetDaemon::with_backend(FleetDaemonConfig::default(), Arc::clone(&root));
        let h = daemon.submit(JobSpec::new("acme"), job(2022, 3)).unwrap();
        daemon.run_until(600);
        let outcome = daemon.resolve(h).unwrap();
        let delta = outcome.delta.expect("restored baseline yields a delta");
        assert_eq!((delta.prev_epoch, delta.epoch), (2, 3));
        assert_eq!(daemon.history("acme").unwrap().len(), 4);

        // Clone: point-in-time snapshot, no history.
        let genesis = daemon.clone_tenant("acme", "fork").unwrap();
        assert_eq!(genesis.epoch, 3);
        let fork_history = daemon.history("fork").unwrap();
        assert_eq!(fork_history.len(), 1);
        let err = daemon.clone_tenant("acme", "fork").unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Config);

        // Compaction: dropping generations before the last two reclaims
        // bytes while every surviving epoch's blobs stay resolvable.
        let outcome = daemon.compact_tenant("acme", 2).unwrap();
        assert!(outcome.reclaimed_bytes() > 0, "{outcome:?}");
        assert_eq!(outcome.kept_epochs, 2);
        let err = daemon.compact_tenant("empty", 2).unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Config);
    }

    #[test]
    fn shutdown_drain_finishes_everything() {
        let daemon = FleetDaemon::new(FleetDaemonConfig::default());
        let a = daemon.submit(JobSpec::new("a"), job(5, 0)).unwrap();
        let b = daemon.submit(JobSpec::new("b"), job(5, 0)).unwrap();
        let report = daemon.shutdown(ShutdownMode::Drain);
        assert!(report.abandoned.is_empty());
        let ids: Vec<JobId> = report.outcomes.iter().map(|o| o.id).collect();
        assert_eq!(ids, vec![a.id(), b.id()]);
        assert!(report.outcomes.iter().all(|o| o.report.is_ok()));
    }

    #[test]
    fn shutdown_abandon_returns_queued_jobs_unrun() {
        let daemon = FleetDaemon::new(FleetDaemonConfig::default());
        let done = daemon.submit(JobSpec::new("a"), job(5, 0)).unwrap();
        daemon.run_until(20);
        let waiting = daemon
            .submit(JobSpec::new("b").lane(Lane::Batch), job(5, 1))
            .unwrap();
        let report = daemon.shutdown(ShutdownMode::Abandon);
        assert_eq!(report.outcomes.len(), 1);
        assert_eq!(report.outcomes[0].id, done.id());
        assert_eq!(
            report.abandoned,
            vec![AbandonedAudit {
                id: waiting.id(),
                tenant: "b".into(),
                epoch: 1,
            }]
        );
    }

    #[test]
    fn preempted_batch_audit_resumes_to_an_identical_report() {
        // Reference: the same audit, never sliced.
        let unsliced = FleetDaemon::new(FleetDaemonConfig {
            batch_slice_frames: None,
            ..FleetDaemonConfig::default()
        });
        let h = unsliced
            .submit(JobSpec::new("acme").lane(Lane::Batch), job(2022, 0))
            .unwrap();
        unsliced.run_until(50);
        let reference = unsliced.resolve(h).unwrap().report.unwrap();

        // Sliced: the batch audit parks repeatedly and resumes from its
        // journal each tick.
        let sliced = FleetDaemon::new(FleetDaemonConfig {
            batch_slice_frames: Some(4),
            ..FleetDaemonConfig::default()
        });
        let h = sliced
            .submit(JobSpec::new("acme").lane(Lane::Batch), job(2022, 0))
            .unwrap();
        let settled = sliced.run_until(600);
        assert_eq!(settled, vec![h], "sliced audit must finish within the loop");
        let report = sliced.resolve(h).unwrap().report.unwrap();
        assert_eq!(
            serde_json::to_string(&report).unwrap(),
            serde_json::to_string(&reference).unwrap(),
            "a parked-and-resumed audit must reproduce the unsliced report"
        );
        let parked = sliced
            .obs()
            .metrics_snapshot()
            .into_iter()
            .find_map(|(name, v)| match (name.as_str(), v) {
                ("sched.parked", obs::MetricValue::Counter(n)) => Some(n),
                _ => None,
            })
            .unwrap_or(0);
        assert!(parked >= 1, "the slice lever must actually have fired");
    }
}
