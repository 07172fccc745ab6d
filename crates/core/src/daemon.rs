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
//!   the tenant's previous run, committed to the tenant's epoch chain.
//!   The daemon opens each tenant's chain, artifact pack and validator
//!   cache once, on first use, and holds them for its lifetime: every
//!   audit slice and settle works on the held handles, and
//!   [`FleetDaemon::history`], the trend views and compaction read the
//!   chain without replaying `oplog.wal`;
//! * [`FleetDaemon::tick`] runs one scheduler round at the current
//!   virtual time: overdue queued jobs expire with a typed
//!   [`AuditError::Expired`] outcome, deficit-round-robin grants each
//!   backlogged tenant `quantum × weight` dispatch slots, and a running
//!   `Batch` audit cooperatively parks when its slice budget of durable
//!   writes runs out — resuming byte-identically on a later tick from the
//!   world, crawl and open store its job holds;
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
use obs::{Clock, Obs, Severity};
use oplog::{CompactionOutcome, EpochChain, EpochRecord, PlatformDrift, TrendQuery};
use sched::{
    CompletedJob, Daemon, DaemonConfig, ExecCtx, JobEvent, JobId, JobSpec, StepResult, TenantRate,
};
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::sync::{Arc, Mutex};
use store::{
    ArtifactCache, Backend, ContentHash, MemBackend, ScopedBackend, StoreStats, ValidatorCache,
    PACK_FILE,
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
    /// Cooperative preemption slice for `Batch`-lane audits, in durable
    /// writes: journal frames, plus the pack frame each analysis miss
    /// owes. A batch audit whose next write in one tick would exceed this
    /// many parks before it and resumes on a later tick: its job holds the
    /// world, crawl and open store, so the resumed slice neither rebuilds
    /// the world nor re-crawls nor reopens its journal, and re-serves the
    /// analyses it stored from the pack. The held run lives in memory:
    /// after a restart, a resubmitted audit rebuilds its world and 304s its
    /// way back through the crawl. `None` disables slicing.
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

/// One tenant's service state, created on first touch and kept for the
/// daemon's lifetime. A daemon restarted over a [`store::DiskBackend`]
/// rebuilds it from disk, so stale-epoch rejection and delta chaining
/// resume where they left off.
///
/// The record holds the tenant's files open. An append to a held file that
/// fails marks the file's journal, and its next append first repairs any
/// torn tail, so no later frame lands behind bytes a restart would stop at.
struct TenantRecord {
    backend: Arc<dyn Backend>,
    /// The tenant's epoch chain; `None` until [`Self::chain`] opens it.
    chain: Option<EpochChain>,
    /// The artifact pack every audit and settle of the tenant appends to;
    /// `None` until [`FleetDaemon::held`] opens it.
    pack: Option<Arc<ArtifactCache>>,
    /// The validator cache, with the run fingerprint it was opened for.
    validators: Option<(u64, Arc<ValidatorCache>)>,
    /// Epochs submitted and not yet settled.
    inflight: BTreeSet<u32>,
    /// Epochs with a successfully settled audit (persisted or this run's).
    /// Not derived from the chain: appends are best effort, so an epoch
    /// can settle without reaching it.
    committed: BTreeSet<u32>,
    /// The last successful report and its epoch: the delta baseline.
    last_report: Option<CanonicalReport>,
    last_epoch: Option<u32>,
}

impl TenantRecord {
    /// The tenant's chain, opened here and nowhere else in the daemon. The
    /// first open seeds `committed` and, unless this run set one, the
    /// baseline epoch from the chain head; [`Self::restore_baseline`]
    /// fetches its report when a settle first needs it. A failed open is
    /// retried on the next call.
    fn chain(&mut self) -> io::Result<&mut EpochChain> {
        let chain = match self.chain.take() {
            Some(chain) => chain,
            None => {
                let chain = EpochChain::open(Arc::clone(&self.backend))?;
                self.committed.extend(chain.epochs());
                if self.last_epoch.is_none() {
                    self.last_epoch = chain.head().map(|head| head.epoch);
                }
                chain
            }
        };
        Ok(self.chain.insert(chain))
    }

    /// Restore the delta baseline a restart left on disk: the chain head's
    /// report blob, a history blob read from the held pack (no audit is
    /// replayed). A missing or damaged blob means a cold baseline.
    fn restore_baseline(&mut self, obs: &Obs) {
        let key = self
            .chain
            .as_ref()
            .and_then(EpochChain::head)
            .and_then(|head| oplog::parse_hex(&head.report_key));
        self.last_report = key
            .zip(self.pack.as_ref())
            .and_then(|(key, pack)| pack.get(&key))
            .and_then(|blob| serde_json::from_slice(&blob).ok());
        if self.last_report.is_some() {
            obs.counter("oplog.restored").incr();
        }
    }
}

/// A tenant's backend and held files: its artifact pack and, when asked
/// for, its validator cache.
type HeldFiles = (
    Arc<dyn Backend>,
    Arc<ArtifactCache>,
    Option<Arc<ValidatorCache>>,
);

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
    tenants: Mutex<BTreeMap<String, TenantRecord>>,
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
        let epoch = job.epoch();
        let mut tenants = self.tenants.lock().expect("tenant map poisoned");
        let record = self.tenant(&mut tenants, &spec.tenant);
        // Seeds `committed` from disk. If the chain cannot open, admission
        // goes by this run's epochs and the next use retries the open.
        let _ = record.chain();
        let newest = record.committed.last().max(record.inflight.last());
        if let Some(&newest) = newest.filter(|&&newest| epoch <= newest) {
            let state = if record.inflight.contains(&epoch) {
                "is already in flight".to_string()
            } else if record.committed.contains(&epoch) {
                "has already run".to_string()
            } else {
                format!("is older than its newest epoch {newest}")
            };
            return Err(AuditError::config(format!(
                "tenant {:?} epoch {epoch} {state}: a re-run or late \
                 epoch would rewind the tenant's delta baseline; submit the \
                 next epoch (or clone the tenant for a what-if re-audit) instead",
                spec.tenant
            )));
        }
        let id = self.daemon.submit(spec, job)?;
        record.inflight.insert(epoch);
        Ok(JobHandle { id })
    }

    /// `tenant`'s record, created on first touch.
    fn tenant<'a>(
        &self,
        tenants: &'a mut BTreeMap<String, TenantRecord>,
        tenant: &str,
    ) -> &'a mut TenantRecord {
        tenants
            .entry(tenant.to_string())
            .or_insert_with(|| TenantRecord {
                backend: self.scoped(tenant),
                chain: None,
                pack: None,
                validators: None,
                inflight: BTreeSet::new(),
                committed: BTreeSet::new(),
                last_report: None,
                last_epoch: None,
            })
    }

    /// `tenant`'s slice of the root store, under `<tenant>/`.
    fn scoped(&self, tenant: &str) -> Arc<dyn Backend> {
        Arc::new(ScopedBackend::new(Arc::clone(&self.root), tenant))
    }

    /// `tenant`'s backend, held pack and, given a run `fingerprint`, held
    /// validator cache for it. A file not held yet — or a validator cache
    /// held for another fingerprint — is opened here, outside the
    /// tenant-map lock, which is taken only to clone or install a handle.
    /// A validator cache that cannot open is `None`: a warning names the
    /// error, the run crawls cold, and the next one retries.
    fn held(&self, tenant: &str, fingerprint: Option<u64>) -> io::Result<HeldFiles> {
        let (backend, pack, validators) = {
            let mut tenants = self.tenants.lock().expect("tenant map poisoned");
            let record = self.tenant(&mut tenants, tenant);
            let validators = record
                .validators
                .as_ref()
                .filter(|(held, _)| Some(*held) == fingerprint)
                .map(|(_, cache)| Arc::clone(cache));
            (Arc::clone(&record.backend), record.pack.clone(), validators)
        };
        let pack = match pack {
            Some(pack) => pack,
            None => Arc::new(ArtifactCache::open(Arc::clone(&backend), PACK_FILE)?),
        };
        let validators = match (validators, fingerprint) {
            (Some(cache), _) => Some(cache),
            (None, Some(fingerprint)) => ValidatorCache::open(Arc::clone(&backend), fingerprint)
                .inspect_err(|e| {
                    self.obs.event(
                        Severity::Warn,
                        "store.validators",
                        format!(
                            "tenant {tenant:?}: validator cache unavailable ({e}); crawling cold"
                        ),
                    )
                })
                .ok()
                .map(Arc::new),
            (None, None) => None,
        };
        let mut tenants = self.tenants.lock().expect("tenant map poisoned");
        let record = self.tenant(&mut tenants, tenant);
        let pack = Arc::clone(record.pack.get_or_insert(pack));
        if let (Some(cache), Some(fingerprint)) = (&validators, fingerprint) {
            record.validators = Some((fingerprint, Arc::clone(cache)));
        }
        Ok((backend, pack, validators))
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

    /// Run one dispatch slice of `job` against its tenant's scoped store
    /// and held files. Called from worker threads, which take the tenant
    /// map only to fetch or install held handles: the rest of the record
    /// changes only when the slice's outcome settles.
    fn execute(&self, spec: &JobSpec, job: &mut AuditJob, ctx: ExecCtx) -> StepResult<ExecOutput> {
        let result = self
            .held(&spec.tenant, Some(job.audit().fingerprint()))
            .map_err(store_error)
            .and_then(|(backend, pack, validators)| {
                // Later slices of a sliced job run on the store it holds.
                let store = StoreConfig {
                    backend,
                    resume: false,
                    kill_after_frames: ctx.slice_frames,
                };
                job.run_scoped(&store, pack, validators)
            });
        if ctx.slice_frames.is_some() && matches!(result, Err(AuditError::Interrupted { .. })) {
            // The slice lever fired before a durable write: every write
            // made is durable, and the job holds its world, crawl and
            // store, so park and resume on a later tick.
            return StepResult::Parked;
        }
        let platform = job.audit().ecosystem_config().platform;
        StepResult::Done((job.epoch(), platform, result))
    }

    /// Turn this tick's scheduler events into [`JobOutcome`]s,
    /// sequentially in event order (so delta chaining is deterministic),
    /// and buffer them for [`Self::poll_outcomes`] / [`Self::resolve`].
    fn settle(&self, events: Vec<JobEvent<ExecOutput, AuditJob>>) -> Vec<JobHandle> {
        let mut handles = Vec::with_capacity(events.len());
        let mut tenants = self.tenants.lock().expect("tenant map poisoned");
        let mut settled = self.settled.lock().expect("outcome buffer poisoned");
        for event in events {
            let outcome = match event {
                JobEvent::Expired(ex) => {
                    self.tenant(&mut tenants, &ex.tenant)
                        .inflight
                        .remove(&ex.payload.epoch());
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
                JobEvent::Completed(done) => {
                    self.settle_completed(self.tenant(&mut tenants, &done.tenant), done)
                }
            };
            handles.push(JobHandle { id: outcome.id });
            settled.push(outcome);
        }
        handles
    }

    /// Settle a finished run: a successful one is diffed against the
    /// baseline, committed, and becomes the new baseline.
    fn settle_completed(
        &self,
        record: &mut TenantRecord,
        done: CompletedJob<ExecOutput>,
    ) -> JobOutcome {
        let (epoch, platform, result) = done.output;
        record.inflight.remove(&epoch);
        let (report, delta, hits, misses) = match result {
            Ok((report, stats, referenced)) => {
                // Open the chain (or retry a failed open) before diffing:
                // a restart's baseline is the chain head's report.
                let _ = record.chain();
                if record.last_report.is_none() {
                    record.restore_baseline(&self.obs);
                }
                let delta = record.last_report.as_ref().map(|prev| {
                    DeltaReport::between_at(prev, &report, record.last_epoch.unwrap_or(0), epoch)
                });
                self.append_epoch(record, epoch, &report, delta.as_ref(), &referenced);
                record.committed.insert(epoch);
                record.last_report = Some(report.clone());
                record.last_epoch = Some(epoch);
                (
                    Ok(report),
                    delta,
                    stats.artifact_hits,
                    stats.artifact_misses,
                )
            }
            Err(e) => (Err(e), None, 0, 0),
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

    /// Commit one settled epoch to the tenant's chain: put the report and
    /// delta in the held pack as content-addressed history blobs, then
    /// append the linked epoch record. Best-effort by design — the chain
    /// is history, the outcome already stands — so failures only move
    /// `oplog.*` counters, and a torn frame a failed append left is
    /// repaired by the file's next append. Admission refuses epochs at or
    /// below the tenant's newest, so the head check is a backstop: an epoch
    /// that still meets a chain head at or past it is skipped, never forked.
    fn append_epoch(
        &self,
        record: &mut TenantRecord,
        epoch: u32,
        report: &CanonicalReport,
        delta: Option<&DeltaReport>,
        referenced: &[ContentHash],
    ) {
        let appended = (|| -> io::Result<bool> {
            // The slice that just settled opened the pack.
            let pack = record
                .pack
                .clone()
                .ok_or_else(|| io::Error::other("the tenant's artifact pack is not open"))?;
            let chain = record.chain()?;
            if chain.is_sealed() || chain.head().map(|h| epoch <= h.epoch).unwrap_or(false) {
                return Ok(false);
            }
            let report_json = serde_json::to_vec(report).expect("reports always serialize");
            let report_key = oplog::report_blob_key(&report_json);
            pack.put_history(report_key, &report_json)?;
            let delta_key = match delta {
                Some(delta) => {
                    let delta_json = serde_json::to_vec(delta).expect("deltas always serialize");
                    let key = oplog::delta_blob_key(&delta_json);
                    pack.put_history(key, &delta_json)?;
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

    /// The committed epoch records of `tenant`, genesis first. Answered
    /// from the tenant's open chain — no audit is replayed. Unknown
    /// tenants (valid id, nothing persisted) have empty histories.
    pub fn history(&self, tenant: &str) -> Result<Vec<EpochRecord>, AuditError> {
        validate_tenant(tenant)?;
        let mut tenants = self.tenants.lock().expect("tenant map poisoned");
        let chain = self
            .tenant(&mut tenants, tenant)
            .chain()
            .map_err(store_error)?;
        Ok(chain.records().to_vec())
    }

    /// Materialized trend views over `tenant`'s chain: traceability
    /// flips, cumulative permission creep, drift curve. Computed from the
    /// chain's pre-digested trend facts with zero audit replays.
    pub fn trends(&self, tenant: &str) -> Result<TrendQuery, AuditError> {
        Ok(TrendQuery::from_records(&self.history(tenant)?))
    }

    /// Fleet-wide drift curves: per-platform, per-epoch drift counters
    /// summed across every tenant this daemon has touched — submitted to
    /// (admitted or not), queried, cloned into, or compacted.
    pub fn fleet_trends(&self) -> Result<Vec<PlatformDrift>, AuditError> {
        let mut tenants = self.tenants.lock().expect("tenant map poisoned");
        let mut histories = Vec::with_capacity(tenants.len());
        for (name, record) in tenants.iter_mut() {
            let chain = record.chain().map_err(store_error)?;
            histories.push((name.clone(), chain.records().to_vec()));
        }
        Ok(oplog::fleet_drift_curves(&histories))
    }

    /// Snapshot tenant `src`'s workspace (artifact pack, validator cache,
    /// head epoch — no history) into fresh tenant `dst` for a cheap
    /// what-if re-audit. Returns the clone's genesis record. Fails with a
    /// `config`-kind error when `src` has no committed epochs or `dst`
    /// has an epoch (committed, in flight, or on disk); a query or a
    /// refused submission does not count. Call between ticks — never
    /// while an audit of `src` is in flight.
    pub fn clone_tenant(&self, src: &str, dst: &str) -> Result<EpochRecord, AuditError> {
        validate_tenant(src)?;
        validate_tenant(dst)?;
        let mut tenants = self.tenants.lock().expect("tenant map poisoned");
        if tenants
            .get(dst)
            .is_some_and(|t| !t.committed.is_empty() || !t.inflight.is_empty())
        {
            return Err(AuditError::config(format!(
                "tenant {dst:?} already has a committed or in-flight epoch; \
                 clones only materialize into fresh workspaces"
            )));
        }
        let genesis =
            oplog::clone_workspace(&self.scoped(src), &self.scoped(dst)).map_err(|e| {
                match e.kind() {
                    io::ErrorKind::InvalidInput | io::ErrorKind::AlreadyExists => {
                        AuditError::config(e.to_string())
                    }
                    _ => store_error(e),
                }
            })?;
        // Install `dst`'s record afresh, opened from the cloned files.
        tenants.remove(dst);
        let _ = self.tenant(&mut tenants, dst).chain();
        self.obs.counter("oplog.clones").incr();
        Ok(genesis)
    }

    /// Generational pack compaction for `tenant`: drop every artifact
    /// blob not referenced by the last `keep_last` committed epochs (the
    /// head generation is always kept). Emits `store.compaction.*`
    /// counters. Fails with a `config`-kind error while the tenant has an
    /// epoch in flight (queued or parked), since blobs of an uncommitted
    /// epoch are not yet in the chain's keep-set.
    pub fn compact_tenant(
        &self,
        tenant: &str,
        keep_last: usize,
    ) -> Result<CompactionOutcome, AuditError> {
        validate_tenant(tenant)?;
        let (_, pack, _) = self.held(tenant, None).map_err(store_error)?;
        let mut tenants = self.tenants.lock().expect("tenant map poisoned");
        let record = self.tenant(&mut tenants, tenant);
        if let Some(epoch) = record.inflight.first() {
            return Err(AuditError::config(format!(
                "tenant {tenant:?} has epoch {epoch} in flight; compaction \
                 would drop the blobs its audit wrote but no epoch pins yet"
            )));
        }
        let chain = record.chain().map_err(store_error)?;
        if chain.is_empty() {
            return Err(AuditError::config(format!(
                "tenant {tenant:?} has no committed epochs; nothing pins the \
                 pack, so compaction would drop live artifacts"
            )));
        }
        oplog::compact_generations(&pack, chain, keep_last, &self.obs).map_err(store_error)
    }
}

fn store_error(e: io::Error) -> AuditError {
    AuditError::Store(e.into())
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

    /// A root backend that counts reads per file, fails the first read of
    /// `fail_first`, and tears the next append to the file `tear` names:
    /// half its bytes land, then the append fails.
    #[derive(Default)]
    struct ProbeBackend {
        inner: MemBackend,
        reads: Mutex<BTreeMap<String, usize>>,
        fail_first: Option<&'static str>,
        tear: Mutex<Option<&'static str>>,
    }

    impl ProbeBackend {
        fn reads(&self, name: &str) -> usize {
            self.reads.lock().unwrap().get(name).copied().unwrap_or(0)
        }
    }

    impl Backend for ProbeBackend {
        fn read(&self, name: &str) -> io::Result<Option<Vec<u8>>> {
            *self.reads.lock().unwrap().entry(name.into()).or_default() += 1;
            if self.fail_first == Some(name) && self.reads(name) == 1 {
                return Err(io::Error::other("injected read failure"));
            }
            self.inner.read(name)
        }
        fn write_atomic(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
            self.inner.write_atomic(name, bytes)
        }
        fn append(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
            let mut tear = self.tear.lock().unwrap();
            if *tear == Some(name) {
                *tear = None;
                self.inner.append(name, &bytes[..bytes.len() / 2])?;
                return Err(io::Error::other("injected torn append"));
            }
            self.inner.append(name, bytes)
        }
        fn remove(&self, name: &str) -> io::Result<()> {
            self.inner.remove(name)
        }
    }

    const OPLOG: &str = "acme/oplog.wal";
    const PACK: &str = "acme/artifacts.pack";
    const VALIDATORS: &str = "acme/validators.wal";

    #[test]
    fn a_tenants_oplog_is_read_once_for_the_daemons_lifetime() {
        let root = Arc::new(ProbeBackend::default());
        let daemon = FleetDaemon::with_backend(FleetDaemonConfig::default(), root.clone());
        daemon.submit(JobSpec::new("acme"), job(7, 0)).unwrap();
        daemon.run_until(100);
        assert_eq!(root.reads(OPLOG), 1, "opened once, on first touch");
        daemon.trends("acme").unwrap(); // and through it `history`
        daemon.fleet_trends().unwrap();
        daemon.compact_tenant("acme", 1).unwrap();
        daemon.submit(JobSpec::new("acme"), job(7, 0)).unwrap_err();
        daemon.submit(JobSpec::new("acme"), job(7, 1)).unwrap();
        daemon.run_until(200);
        assert_eq!(daemon.history("acme").unwrap().len(), 2);
        assert_eq!(root.reads(OPLOG), 1, "later uses read the open chain");
    }

    #[test]
    fn a_tenants_pack_and_validators_are_read_once_for_the_daemons_lifetime() {
        let root = Arc::new(ProbeBackend::default());
        let daemon = FleetDaemon::with_backend(
            FleetDaemonConfig {
                batch_slice_frames: Some(4),
                ..FleetDaemonConfig::default()
            },
            root.clone(),
        );
        let reads = || (root.reads(PACK), root.reads(VALIDATORS));
        daemon.submit(JobSpec::new("acme"), job(2022, 0)).unwrap();
        daemon.run_until(100);
        assert_eq!(reads(), (1, 1), "opened once, by the first slice");
        let h = daemon
            .submit(JobSpec::new("acme").lane(Lane::Batch), job(2022, 1))
            .unwrap();
        daemon.run_until(700);
        assert!(daemon.resolve(h).unwrap().report.is_ok());
        assert!(daemon.obs().counter_value("sched.parked") >= 1, "it parked");
        daemon.trends("acme").unwrap(); // and through it `history`
        daemon.fleet_trends().unwrap();
        daemon
            .submit(JobSpec::new("acme"), job(2022, 1))
            .unwrap_err();
        assert_eq!(reads(), (1, 1), "resumed slices and settles hold them");
        // Compaction reads the live history blobs — this epoch's report
        // and delta — with one scan of the pack, and reopens nothing.
        daemon.compact_tenant("acme", 1).unwrap();
        assert_eq!(reads(), (2, 1));
        daemon.submit(JobSpec::new("acme"), job(2022, 2)).unwrap();
        daemon.run_until(800);
        assert_eq!(daemon.history("acme").unwrap().len(), 3);
        assert_eq!(reads(), (2, 1), "the compacted pack stays held");
    }

    #[test]
    fn a_held_validator_cache_counts_its_replay_once() {
        let root: Arc<dyn Backend> = Arc::new(MemBackend::new());
        let first = FleetDaemon::with_backend(FleetDaemonConfig::default(), Arc::clone(&root));
        first.submit(JobSpec::new("acme"), job(2022, 0)).unwrap();
        first.run_until(100);
        drop(first);

        // The restarted daemon's first run replays the cache from disk;
        // the next run reuses the held cache and replays nothing.
        let obs = Obs::disabled();
        let daemon = FleetDaemon::with_obs(
            FleetDaemonConfig::default(),
            root,
            VirtualClock::new(),
            obs.clone(),
        );
        let mut replayed = Vec::new();
        for epoch in 1..3 {
            let audit = Audit::builder()
                .scale(30)
                .seed(2022)
                .honeypot_sample(4)
                .site_defenses(false)
                .drift(synth::DriftConfig::default())
                .epoch(epoch)
                .obs(obs.clone())
                .into_job()
                .unwrap();
            daemon.submit(JobSpec::new("acme"), audit).unwrap();
            daemon.run_until(100 * u64::from(epoch + 1));
            replayed.push(obs.counter_value("store.validators.replayed"));
        }
        assert!(replayed[0] > 0, "the restart replayed the cache");
        assert_eq!(replayed[1], replayed[0], "the held cache counts it once");
    }

    #[test]
    fn a_torn_pack_append_is_repaired_before_the_next_one() {
        let root = Arc::new(ProbeBackend::default());
        let daemon = FleetDaemon::with_backend(FleetDaemonConfig::default(), root.clone());
        daemon.submit(JobSpec::new("acme"), job(2022, 0)).unwrap();
        daemon.run_until(100);
        *root.tear.lock().unwrap() = Some(PACK);
        let torn = daemon.submit(JobSpec::new("acme"), job(2022, 1)).unwrap();
        daemon.run_until(200);
        assert!(root.tear.lock().unwrap().is_none(), "a pack append tore");
        // The tear failed epoch 1's audit on an analysis put.
        assert!(daemon.resolve(torn).unwrap().report.is_err());
        daemon.submit(JobSpec::new("acme"), job(2022, 2)).unwrap();
        daemon.run_until(300);
        let later = daemon.history("acme").unwrap().pop().unwrap();
        assert_eq!(later.epoch, 2);
        drop(daemon);

        // A restart replays every blob epoch 2 appended behind the tear.
        let scoped: Arc<dyn Backend> = Arc::new(ScopedBackend::new(root.clone(), "acme"));
        let pack = ArtifactCache::open(scoped, PACK_FILE).unwrap();
        for key in later.live_keys() {
            assert!(pack.get(&key).is_some(), "blob {key} lost behind the tear");
        }
        let daemon = FleetDaemon::with_backend(FleetDaemonConfig::default(), root);
        let h = daemon.submit(JobSpec::new("acme"), job(2022, 3)).unwrap();
        daemon.run_until(100);
        let delta = daemon.resolve(h).unwrap().delta.expect("restored baseline");
        assert_eq!((delta.prev_epoch, delta.epoch), (2, 3));
    }

    #[test]
    fn a_failed_first_chain_open_is_retried_on_the_next_use() {
        let root = Arc::new(ProbeBackend {
            fail_first: Some(OPLOG),
            ..ProbeBackend::default()
        });
        let daemon = FleetDaemon::with_backend(FleetDaemonConfig::default(), root.clone());
        let h = daemon.submit(JobSpec::new("acme"), job(7, 0)).unwrap();
        daemon.run_until(100);
        assert!(daemon.resolve(h).unwrap().report.is_ok());
        let history = daemon.history("acme").unwrap();
        assert_eq!((history.len(), history[0].epoch), (1, 0));
        assert_eq!(root.reads(OPLOG), 2, "one failed open, one retry");
    }

    #[test]
    fn a_failed_validator_cache_open_is_named_and_retried() {
        let root = Arc::new(ProbeBackend {
            fail_first: Some(VALIDATORS),
            ..ProbeBackend::default()
        });
        let daemon = FleetDaemon::with_backend(FleetDaemonConfig::default(), root.clone());
        let h = daemon.submit(JobSpec::new("acme"), job(2022, 0)).unwrap();
        daemon.run_until(100);
        assert!(daemon.resolve(h).unwrap().report.is_ok(), "it crawled cold");
        let warnings: Vec<String> = daemon
            .obs()
            .events()
            .into_iter()
            .filter(|e| e.target == "store.validators")
            .map(|e| e.message)
            .collect();
        assert_eq!(warnings.len(), 1, "{warnings:?}");
        assert!(
            warnings[0].contains("injected read failure"),
            "{warnings:?}"
        );
        daemon.submit(JobSpec::new("acme"), job(2022, 1)).unwrap();
        daemon.run_until(200);
        assert_eq!(root.reads(VALIDATORS), 2, "one failed open, one retry");
    }

    #[test]
    fn compaction_refuses_a_tenant_with_an_epoch_in_flight() {
        let daemon = FleetDaemon::new(FleetDaemonConfig {
            batch_slice_frames: Some(4),
            ..FleetDaemonConfig::default()
        });
        daemon.submit(JobSpec::new("acme"), job(2022, 0)).unwrap();
        daemon.run_until(100);
        let h = daemon
            .submit(JobSpec::new("acme").lane(Lane::Batch), job(2022, 1))
            .unwrap();
        let refused = |daemon: &FleetDaemon| {
            let err = daemon.compact_tenant("acme", 1).unwrap_err();
            assert_eq!(err.kind(), ErrorKind::Config);
            assert!(err.to_string().contains("epoch 1 in flight"), "{err}");
        };
        refused(&daemon); // queued
        let mut parked = 0;
        for _ in 0..60 {
            daemon.tick();
            if daemon.queued() == 0 {
                break;
            }
            refused(&daemon); // parked at a slice boundary
            parked += 1;
            daemon.clock().advance(SimDuration::from_millis(10));
        }
        assert!(parked >= 1, "the batch audit must have parked");
        assert!(daemon.resolve(h).unwrap().report.is_ok());
        daemon.compact_tenant("acme", 1).unwrap();
    }

    #[test]
    fn only_an_epoch_makes_a_clone_destination_taken() {
        let daemon = FleetDaemon::new(FleetDaemonConfig::default());
        assert!(daemon.history("fork").unwrap().is_empty());
        daemon.submit(JobSpec::new("acme"), job(7, 0)).unwrap();
        daemon.run_until(100);
        let genesis = daemon.clone_tenant("acme", "fork").unwrap();
        assert_eq!(daemon.history("fork").unwrap(), vec![genesis]);
        daemon.submit(JobSpec::new("busy"), job(7, 0)).unwrap();
        let err = daemon.clone_tenant("acme", "busy").unwrap_err();
        assert!(err.to_string().contains("in-flight"), "{err}");
    }
}
