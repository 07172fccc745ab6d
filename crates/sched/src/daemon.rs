//! The always-on daemon loop: deficit-round-robin fairness, typed
//! deadline expiry, and cooperative preemption over the virtual clock.
//!
//! The driver calls [`Daemon::tick`] repeatedly as it advances the
//! virtual clock; every tick
//!
//! 1. **expires** queued (never-dispatched) jobs whose deadline is
//!    strictly behind the clock, surfacing each as a typed
//!    [`JobEvent::Expired`] and counting it under `sched.expired`;
//! 2. **selects** work by deficit round-robin: every backlogged tenant
//!    earns `quantum × weight` dispatch slots per round, so a tenant
//!    flooding `Batch` jobs cannot starve anyone else's lane — the
//!    service gap between equal-weight backlogged tenants stays bounded
//!    by `quantum × weight` ([`Daemon::fairness_gap`] tracks the
//!    watermark, `sched.drr.max_gap` mirrors it);
//! 3. **executes** the selected jobs over [`obs::claim_map`] in the
//!    dispatch order documented on [`JobSpec`], letting the executor
//!    **park** a job at a pipeline-stage boundary ([`StepResult::Parked`],
//!    counted under `sched.parked`): the job returns to the front of its
//!    tenant's queue, and a later tick dispatches it again to resume from
//!    whatever its payload holds.
//!
//! [`Daemon::drain_all`] is the one-shot batch variant (everything
//! queued, no expiry, no fairness bound, no slicing) that serves a
//! shutdown drain: overdue and batch jobs alike run unsliced to
//! completion.
//!
//! Everything observable — events, counters, the merged span tree — is a
//! pure function of the submission history and tick times, independent of
//! [`DaemonConfig::workers`].

use crate::job::{JobId, JobSpec, Lane};
use crate::ratelimit::{TenantRate, TokenBucket};
use obs::{Clock, Obs};
use std::collections::{BTreeMap, VecDeque};
use std::convert::Infallible;
use std::error::Error;
use std::fmt;
use std::sync::{Arc, Mutex};

/// Why a submission was refused or a queued job dropped. Refusals are
/// part of the deterministic surface: the same submission sequence at the
/// same virtual times is rejected identically on every run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rejection {
    /// The queue already holds `capacity` jobs.
    QueueFull {
        /// The configured [`DaemonConfig::queue_capacity`].
        capacity: usize,
    },
    /// The tenant exhausted its token bucket.
    RateLimited {
        /// Tenant that was throttled.
        tenant: String,
        /// Virtual milliseconds until a token will be available
        /// (`u64::MAX` when the refill rate is zero).
        retry_after_ms: u64,
    },
    /// The job sat queued past its deadline and the daemon dropped it
    /// un-run (counted under `sched.expired`). Only [`Daemon::tick`]
    /// expires jobs; [`Daemon::drain_all`] never does.
    DeadlineExpired {
        /// The deadline that passed, virtual milliseconds.
        deadline_ms: u64,
        /// How far past the deadline the clock was when the drop was
        /// observed.
        late_by_ms: u64,
    },
}

impl fmt::Display for Rejection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rejection::QueueFull { capacity } => {
                write!(f, "queue full (capacity {capacity})")
            }
            Rejection::RateLimited {
                tenant,
                retry_after_ms,
            } => write!(
                f,
                "tenant {tenant} rate limited (retry in {retry_after_ms} ms)"
            ),
            Rejection::DeadlineExpired {
                deadline_ms,
                late_by_ms,
            } => write!(
                f,
                "deadline {deadline_ms} ms expired ({late_by_ms} ms late)"
            ),
        }
    }
}

impl Error for Rejection {}

/// One finished job, in dispatch order.
#[derive(Debug, Clone, PartialEq)]
pub struct CompletedJob<T> {
    /// Submission id.
    pub id: JobId,
    /// Owning tenant.
    pub tenant: String,
    /// Lane the job dispatched from.
    pub lane: Lane,
    /// Virtual-clock submission time, milliseconds.
    pub submitted_ms: u64,
    /// Virtual milliseconds spent queued before the first dispatch
    /// (preemption slices never grow it).
    pub wait_ms: u64,
    /// Whatever the executor returned.
    pub output: T,
}

/// Knobs for one [`Daemon`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DaemonConfig {
    /// Maximum number of queued (not yet completed) jobs. Submissions
    /// past this bound are rejected with [`Rejection::QueueFull`].
    pub queue_capacity: usize,
    /// Worker threads per tick. Any value produces byte-identical
    /// outputs; this knob only trades wall-clock time.
    pub workers: usize,
    /// Optional per-tenant submission rate limit.
    pub tenant_rate: Option<TenantRate>,
    /// Deficit-round-robin quantum: dispatch slots granted per tick to a
    /// weight-1 backlogged tenant. `0` disables fairness bounding — every
    /// tick selects everything queued, which is exactly the
    /// [`Daemon::drain_all`] dispatch order.
    pub quantum: u32,
    /// When set, `Batch`-lane jobs run in cooperative slices of at most
    /// this many durable writes: the executor is handed the bound via
    /// [`ExecCtx::slice_frames`] and parks the job before the write past
    /// it. `None` runs every job to completion.
    pub batch_slice_frames: Option<u64>,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            queue_capacity: 64,
            workers: 1,
            tenant_rate: None,
            quantum: 1,
            batch_slice_frames: None,
        }
    }
}

/// Per-dispatch context handed to the executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecCtx {
    /// Cooperative-preemption budget for this dispatch, in durable writes
    /// (the executor's pack frames). `None` means run
    /// to completion; `Some(n)` asks the executor to park
    /// ([`StepResult::Parked`]) before a write past the `n`th.
    pub slice_frames: Option<u64>,
}

/// What the executor did with one dispatch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepResult<T> {
    /// The job ran to completion with this output.
    Done(T),
    /// The job parked at a pipeline-stage boundary; it keeps its place at
    /// the front of its tenant's queue and will be dispatched again, with
    /// the payload as the executor left it.
    Parked,
}

/// A queued job dropped because its deadline passed before it was ever
/// dispatched. Carries the payload back so the caller can surface a
/// typed outcome for it.
#[derive(Debug, Clone, PartialEq)]
pub struct ExpiredJob<P> {
    /// Submission id.
    pub id: JobId,
    /// Owning tenant.
    pub tenant: String,
    /// Lane the job was queued in.
    pub lane: Lane,
    /// Virtual-clock submission time, milliseconds.
    pub submitted_ms: u64,
    /// The deadline that passed, virtual milliseconds.
    pub deadline_ms: u64,
    /// Virtual time at which the expiry was observed (the tick start).
    pub expired_at_ms: u64,
    /// The submitted payload, returned un-run.
    pub payload: P,
}

impl<P> ExpiredJob<P> {
    /// The typed rejection this expiry corresponds to.
    pub fn rejection(&self) -> Rejection {
        Rejection::DeadlineExpired {
            deadline_ms: self.deadline_ms,
            late_by_ms: self.expired_at_ms.saturating_sub(self.deadline_ms),
        }
    }
}

/// One entry of a tick's outcome stream.
#[derive(Debug, Clone, PartialEq)]
pub enum JobEvent<T, P> {
    /// A job ran to completion.
    Completed(CompletedJob<T>),
    /// A queued job's deadline passed; it was dropped un-run.
    Expired(ExpiredJob<P>),
}

/// A job dropped un-run by [`Daemon::abandon`].
#[derive(Debug, Clone, PartialEq)]
pub struct AbandonedJob<P> {
    /// Submission id.
    pub id: JobId,
    /// The submitted spec.
    pub spec: JobSpec,
    /// The submitted payload, returned un-run.
    pub payload: P,
}

/// One tenant's slice of a tick: the owning contender index plus its
/// `(dispatch slot, job)` pairs, run in order on one worker.
type TenantChain<P> = (usize, Vec<(usize, Queued<P>)>);

struct Queued<P> {
    id: JobId,
    spec: JobSpec,
    submitted_ms: u64,
    /// Set on first dispatch; wait time is measured to this instant and
    /// never grows across preemption slices.
    first_dispatch_ms: Option<u64>,
    parked: bool,
    payload: P,
}

struct TenantQueue<P> {
    /// Queued jobs in ascending submission id — the execution order the
    /// [`JobSpec`] contract promises for one tenant.
    jobs: VecDeque<Queued<P>>,
    weight: u32,
    /// Unspent dispatch slots carried between rounds.
    deficit: u64,
    /// Dispatch slots actually serviced while backlogged — the quantity
    /// whose spread across equal-weight tenants the fairness bound caps.
    serves: u64,
}

struct Inner<P> {
    tenants: BTreeMap<String, TenantQueue<P>>,
    buckets: BTreeMap<String, TokenBucket>,
    next_id: u64,
    queued_total: usize,
    max_gap: u64,
}

#[derive(Clone, Copy, PartialEq)]
enum TickKind {
    /// A daemon tick: expiry on, DRR quantum honored, batch slicing on.
    Tick,
    /// [`Daemon::drain_all`]: no expiry, unbounded quantum, no slicing;
    /// emits a `sched.drain` span.
    Drain,
}

/// The always-on deterministic multi-tenant scheduler. See the module
/// docs for the tick anatomy and [`JobSpec`] for the dispatch-order
/// contract.
pub struct Daemon<P> {
    config: DaemonConfig,
    clock: Arc<dyn Clock>,
    obs: Obs,
    inner: Mutex<Inner<P>>,
}

impl<P: Send> Daemon<P> {
    /// A daemon reading time from `clock` and reporting through `obs`.
    pub fn new(config: DaemonConfig, clock: Arc<dyn Clock>, obs: Obs) -> Self {
        Daemon {
            config,
            clock,
            obs,
            inner: Mutex::new(Inner {
                tenants: BTreeMap::new(),
                buckets: BTreeMap::new(),
                next_id: 0,
                queued_total: 0,
                max_gap: 0,
            }),
        }
    }

    /// The configuration this daemon was built with.
    pub fn config(&self) -> &DaemonConfig {
        &self.config
    }

    /// The virtual clock driving admission timestamps and expiry.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// Jobs currently queued (parked jobs included).
    pub fn len(&self) -> usize {
        self.inner.lock().expect("daemon poisoned").queued_total
    }

    /// Whether nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Watermark of the service gap observed between equal-weight
    /// backlogged tenants — the deficit-round-robin fairness bound keeps
    /// this at most `quantum × weight`. Mirrored by the `sched.drr.max_gap`
    /// gauge.
    pub fn fairness_gap(&self) -> u64 {
        self.inner.lock().expect("daemon poisoned").max_gap
    }

    /// Submit a job. Returns its [`JobId`], or a [`Rejection`] when the
    /// queue is at capacity or the tenant is over its rate. A deadline
    /// already behind the clock is accepted here and expires on the next
    /// tick — callers that want fail-fast semantics check before
    /// submitting (the fleet layer does).
    pub fn submit(&self, spec: JobSpec, payload: P) -> Result<JobId, Rejection> {
        let now_ms = self.clock.now_millis();
        let mut inner = self.inner.lock().expect("daemon poisoned");

        if inner.queued_total >= self.config.queue_capacity {
            self.obs.counter("sched.rejected.queue_full").incr();
            return Err(Rejection::QueueFull {
                capacity: self.config.queue_capacity,
            });
        }
        if let Some(rate) = self.config.tenant_rate {
            let bucket = inner
                .buckets
                .entry(spec.tenant.clone())
                .or_insert_with(|| TokenBucket::new(rate, now_ms));
            if let Err(retry_after_ms) = bucket.try_acquire(now_ms) {
                self.obs.counter("sched.rejected.rate_limited").incr();
                return Err(Rejection::RateLimited {
                    tenant: spec.tenant.clone(),
                    retry_after_ms,
                });
            }
        }

        let id = JobId(inner.next_id);
        inner.next_id += 1;

        // A tenant joining the backlog starts its service count at the
        // maximum among already-backlogged tenants of its weight, so an
        // arrival can neither claim catch-up service for its idle time
        // nor distort the fairness watermark.
        let join_serves = inner
            .tenants
            .iter()
            .filter(|(t, tq)| {
                t.as_str() != spec.tenant && !tq.jobs.is_empty() && tq.weight == spec.weight
            })
            .map(|(_, tq)| tq.serves)
            .max()
            .unwrap_or(0);
        let tq = inner
            .tenants
            .entry(spec.tenant.clone())
            .or_insert_with(|| TenantQueue {
                jobs: VecDeque::new(),
                weight: spec.weight,
                deficit: 0,
                serves: 0,
            });
        tq.weight = spec.weight;
        if tq.jobs.is_empty() {
            tq.serves = tq.serves.max(join_serves);
        }
        tq.jobs.push_back(Queued {
            id,
            spec,
            submitted_ms: now_ms,
            first_dispatch_ms: None,
            parked: false,
            payload,
        });
        inner.queued_total += 1;
        self.obs.counter("sched.submitted").incr();
        self.obs
            .gauge("sched.queue_depth")
            .set(inner.queued_total as i64);
        Ok(id)
    }

    /// Drop everything queued (parked jobs included) and return the
    /// abandoned jobs in submission order. This is the `Abandon` half of
    /// a shutdown; the `Drain` half is ticking until [`Self::is_empty`].
    pub fn abandon(&self) -> Vec<AbandonedJob<P>> {
        let mut inner = self.inner.lock().expect("daemon poisoned");
        let mut dropped = Vec::with_capacity(inner.queued_total);
        for tq in inner.tenants.values_mut() {
            for job in tq.jobs.drain(..) {
                dropped.push(AbandonedJob {
                    id: job.id,
                    spec: job.spec,
                    payload: job.payload,
                });
            }
            tq.deficit = 0;
        }
        dropped.sort_by_key(|j| j.id);
        inner.queued_total = 0;
        self.obs.gauge("sched.queue_depth").set(0);
        dropped
    }

    /// Run one daemon tick at the current virtual time: expire overdue
    /// queued jobs, select by deficit round-robin, execute (with batch
    /// slicing when configured), and return the tick's events — expiries
    /// first (dispatch-sorted), then completions in dispatch order.
    pub fn tick<T, F>(&self, exec: F) -> Vec<JobEvent<T, P>>
    where
        T: Send,
        F: Fn(JobId, &JobSpec, &mut P, ExecCtx) -> StepResult<T> + Sync,
    {
        self.step(TickKind::Tick, exec)
    }

    /// Batch semantics: select everything queued regardless of quantum,
    /// with expiry and slicing off, under a `sched.drain` span. Jobs sort
    /// by `(lane, deadline, id)`, each tenant's jobs run in submission
    /// order on one worker, and the virtual clock is read once, at drain
    /// start, so wait times cannot depend on execution interleaving.
    pub fn drain_all<T, F>(&self, exec: F) -> Vec<CompletedJob<T>>
    where
        T: Send,
        F: Fn(JobId, &JobSpec, &mut P, ExecCtx) -> StepResult<T> + Sync,
    {
        self.step(TickKind::Drain, exec)
            .into_iter()
            .filter_map(|event| match event {
                JobEvent::Completed(done) => Some(done),
                JobEvent::Expired(_) => None,
            })
            .collect()
    }

    fn step<T, F>(&self, kind: TickKind, exec: F) -> Vec<JobEvent<T, P>>
    where
        T: Send,
        F: Fn(JobId, &JobSpec, &mut P, ExecCtx) -> StepResult<T> + Sync,
    {
        let now_ms = self.clock.now_millis();
        let unbounded = kind == TickKind::Drain || self.config.quantum == 0;

        struct Contender {
            tenant: String,
            /// Dispatch keys of the tenant's queued jobs, ascending.
            keys: Vec<(Lane, u64, u64)>,
            next_key: usize,
            /// Slots this tenant may still win this tick (`u64::MAX` when
            /// fairness bounding is off).
            budget: u64,
        }

        // Phase 1, under the lock: expire overdue jobs and select this
        // tick's work.
        let (expired, contenders, chains) = {
            let mut inner = self.inner.lock().expect("daemon poisoned");

            // Expiry. Only never-dispatched jobs expire: a parked job has
            // already consumed service and must complete so later jobs of
            // its tenant keep a valid chain to diff against. A job whose
            // deadline equals the clock may still dispatch this tick; it
            // expires once the clock is strictly past.
            let mut expired: Vec<ExpiredJob<P>> = Vec::new();
            if kind == TickKind::Tick {
                for (tenant, tq) in inner.tenants.iter_mut() {
                    let mut kept = VecDeque::with_capacity(tq.jobs.len());
                    while let Some(job) = tq.jobs.pop_front() {
                        match job.spec.deadline_ms {
                            Some(deadline) if deadline < now_ms && !job.parked => {
                                expired.push(ExpiredJob {
                                    id: job.id,
                                    tenant: tenant.clone(),
                                    lane: job.spec.lane,
                                    submitted_ms: job.submitted_ms,
                                    deadline_ms: deadline,
                                    expired_at_ms: now_ms,
                                    payload: job.payload,
                                });
                            }
                            _ => kept.push_back(job),
                        }
                    }
                    tq.jobs = kept;
                }
                inner.queued_total -= expired.len();
                expired.sort_by_key(|e| (e.lane, e.deadline_ms, e.id.0));
                self.obs.counter("sched.expired").add(expired.len() as u64);
            }

            // DRR refresh + contender setup.
            let quantum = self.config.quantum as u64;
            let mut contenders: Vec<Contender> = Vec::new();
            for (tenant, tq) in inner.tenants.iter_mut() {
                if tq.jobs.is_empty() {
                    continue;
                }
                let budget = if unbounded {
                    u64::MAX
                } else {
                    tq.deficit += quantum * tq.weight as u64;
                    tq.deficit
                };
                let mut keys: Vec<(Lane, u64, u64)> = tq
                    .jobs
                    .iter()
                    .map(|j| (j.spec.lane, j.spec.deadline_ms.unwrap_or(u64::MAX), j.id.0))
                    .collect();
                keys.sort_unstable();
                contenders.push(Contender {
                    tenant: tenant.clone(),
                    keys,
                    next_key: 0,
                    budget,
                });
            }

            // Selection loop: each slot goes to the tenant whose best
            // remaining dispatch key is globally minimal, while it has
            // budget. With unbounded budgets this is exactly the global
            // (lane, deadline, id) sort.
            let mut slot_owner: Vec<usize> = Vec::new();
            loop {
                let mut best: Option<usize> = None;
                for (i, c) in contenders.iter().enumerate() {
                    if c.budget == 0 || c.next_key >= c.keys.len() {
                        continue;
                    }
                    let better = match best {
                        None => true,
                        Some(b) => c.keys[c.next_key] < contenders[b].keys[contenders[b].next_key],
                    };
                    if better {
                        best = Some(i);
                    }
                }
                let Some(b) = best else { break };
                let winner = &mut contenders[b];
                if winner.budget != u64::MAX {
                    winner.budget -= 1;
                }
                winner.next_key += 1;
                slot_owner.push(b);
            }

            // Pop the selected jobs — per tenant, by ascending id: the
            // chain fills the dispatch slots its jobs earned as a group
            // (JobSpec's same-tenant contract).
            let mut counts = vec![0usize; contenders.len()];
            for &owner in &slot_owner {
                counts[owner] += 1;
            }
            let mut popped: Vec<VecDeque<Queued<P>>> = Vec::with_capacity(contenders.len());
            for (i, c) in contenders.iter().enumerate() {
                let tq = inner
                    .tenants
                    .get_mut(&c.tenant)
                    .expect("contender tenant vanished");
                let mut jobs = VecDeque::with_capacity(counts[i]);
                for _ in 0..counts[i] {
                    jobs.push_back(tq.jobs.pop_front().expect("selected more than queued"));
                }
                if !unbounded {
                    tq.deficit = c.budget;
                    tq.serves += counts[i] as u64;
                }
                inner.queued_total -= counts[i];
                popped.push(jobs);
            }

            // Group slots into per-tenant chains, chains ordered by first
            // appearance in slot order.
            let mut chain_index: Vec<Option<usize>> = vec![None; contenders.len()];
            let mut chains: Vec<TenantChain<P>> = Vec::new();
            for (slot, &owner) in slot_owner.iter().enumerate() {
                let ci = match chain_index[owner] {
                    Some(ci) => ci,
                    None => {
                        chains.push((owner, Vec::new()));
                        chain_index[owner] = Some(chains.len() - 1);
                        chains.len() - 1
                    }
                };
                let job = popped[owner].pop_front().expect("slot without a job");
                chains[ci].1.push((slot, job));
            }

            (expired, contenders, chains)
        };

        let selected: usize = chains.iter().map(|(_, c)| c.len()).sum();

        // Phase 2, lock released: execute. A drain always opens its
        // `sched.drain` root; daemon ticks emit `sched.tick` only when
        // something happened, so idle polling stays trace-free.
        let root = if kind == TickKind::Drain || selected > 0 || !expired.is_empty() {
            let root = self.obs.span(match kind {
                TickKind::Drain => "sched.drain",
                TickKind::Tick => "sched.tick",
            });
            root.record("jobs", selected as u64);
            root.record("chains", chains.len() as u64);
            if !expired.is_empty() {
                root.record("expired", expired.len() as u64);
            }
            Some(root)
        } else {
            None
        };

        let slice_frames = match kind {
            TickKind::Drain => None,
            TickKind::Tick => self.config.batch_slice_frames,
        };
        // Each tenant chain runs on one worker, which decides how far into
        // the chain to go: completion, or a cooperative park partway
        // through that hands the remainder back.
        let Ok(results) = obs::claim_map(
            chains,
            self.config.workers,
            |_| (),
            |(), _, (owner, chain)| {
                let root = root.as_ref().expect("root span exists while jobs run");
                let mut done: Vec<(usize, CompletedJob<T>)> = Vec::new();
                let mut leftover: Vec<Queued<P>> = Vec::new();
                let mut iter = chain.into_iter();
                for (slot, mut job) in iter.by_ref() {
                    let span = root.child_keyed("sched.job", job.id.0);
                    if job.first_dispatch_ms.is_none() {
                        job.first_dispatch_ms = Some(now_ms);
                        let wait_ms = now_ms.saturating_sub(job.submitted_ms);
                        span.record("lane", job.spec.lane.rank());
                        span.record("wait_ms", wait_ms);
                        self.obs.counter("sched.dispatched").incr();
                        self.obs.histogram("sched.wait_ms").record(wait_ms);
                    }
                    span.record("slices", 1);
                    let ctx = ExecCtx {
                        slice_frames: if job.spec.lane == Lane::Batch {
                            slice_frames
                        } else {
                            None
                        },
                    };
                    match exec(job.id, &job.spec, &mut job.payload, ctx) {
                        StepResult::Done(output) => {
                            self.obs.counter("sched.completed").incr();
                            let wait_ms = job
                                .first_dispatch_ms
                                .expect("dispatched job has a dispatch time")
                                .saturating_sub(job.submitted_ms);
                            done.push((
                                slot,
                                CompletedJob {
                                    id: job.id,
                                    tenant: job.spec.tenant,
                                    lane: job.spec.lane,
                                    submitted_ms: job.submitted_ms,
                                    wait_ms,
                                    output,
                                },
                            ));
                        }
                        StepResult::Parked => {
                            job.parked = true;
                            self.obs.counter("sched.parked").incr();
                            leftover.push(job);
                            break;
                        }
                    }
                }
                leftover.extend(iter.map(|(_, job)| job));
                Ok::<_, Infallible>((owner, done, leftover))
            },
        );

        // Phase 3, under the lock again: return parked/unrun jobs to the
        // front of their queues (ids there are lower than any submission
        // that raced in, so ascending-id order is preserved), refund
        // unserved slots, and update the fairness watermark.
        let mut completed: Vec<(usize, CompletedJob<T>)> = Vec::new();
        {
            let mut inner = self.inner.lock().expect("daemon poisoned");
            for (owner, done, leftover) in results {
                completed.extend(done);
                if leftover.is_empty() {
                    continue;
                }
                // The parked head did receive a slice of service; the
                // jobs behind it did not — hand their slots back.
                let unserved = (leftover.len() - 1) as u64;
                inner.queued_total += leftover.len();
                let tq = inner
                    .tenants
                    .get_mut(&contenders[owner].tenant)
                    .expect("tenant vanished mid-tick");
                if !unbounded {
                    tq.deficit += unserved;
                    tq.serves -= unserved;
                }
                for job in leftover.into_iter().rev() {
                    tq.jobs.push_front(job);
                }
            }
            for tq in inner.tenants.values_mut() {
                if tq.jobs.is_empty() {
                    tq.deficit = 0;
                }
            }
            if !unbounded {
                let mut by_weight: BTreeMap<u32, (u64, u64)> = BTreeMap::new();
                for tq in inner.tenants.values() {
                    if tq.jobs.is_empty() {
                        continue;
                    }
                    let entry = by_weight.entry(tq.weight).or_insert((u64::MAX, 0));
                    entry.0 = entry.0.min(tq.serves);
                    entry.1 = entry.1.max(tq.serves);
                }
                for (min, max) in by_weight.values() {
                    if max > min {
                        inner.max_gap = inner.max_gap.max(max - min);
                    }
                }
                self.obs
                    .gauge("sched.drr.max_gap")
                    .set(inner.max_gap as i64);
                if selected > 0 {
                    self.obs.counter("sched.drr.rounds").incr();
                    self.obs.counter("sched.drr.selected").add(selected as u64);
                }
            }
            self.obs
                .gauge("sched.queue_depth")
                .set(inner.queued_total as i64);
        }

        completed.sort_by_key(|(slot, _)| *slot);
        let mut events: Vec<JobEvent<T, P>> = expired.into_iter().map(JobEvent::Expired).collect();
        events.extend(
            completed
                .into_iter()
                .map(|(_, done)| JobEvent::Completed(done)),
        );
        events
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use obs::ManualClock;

    fn daemon(config: DaemonConfig) -> (Daemon<u64>, Arc<ManualClock>) {
        let clock = Arc::new(ManualClock::new());
        let d = Daemon::new(config, clock.clone(), Obs::disabled());
        (d, clock)
    }

    fn run_ids<P: Send>(daemon: &Daemon<P>) -> (Vec<u64>, Vec<u64>) {
        let mut completed = Vec::new();
        let mut expired = Vec::new();
        for event in daemon.tick(|id, _, _, _| StepResult::Done(id.0)) {
            match event {
                JobEvent::Completed(done) => completed.push(done.output),
                JobEvent::Expired(e) => expired.push(e.id.0),
            }
        }
        (completed, expired)
    }

    /// Drain everything queued, each job returning its payload.
    fn drain(daemon: &Daemon<u64>) -> Vec<CompletedJob<u64>> {
        daemon.drain_all(|_, _, payload, _| StepResult::Done(*payload))
    }

    #[test]
    fn queue_full_rejects_until_a_drain_frees_capacity() {
        let (d, _) = daemon(DaemonConfig {
            queue_capacity: 2,
            ..DaemonConfig::default()
        });
        d.submit(JobSpec::new("a"), 0).unwrap();
        d.submit(JobSpec::new("a"), 1).unwrap();
        let err = d.submit(JobSpec::new("b"), 2).unwrap_err();
        assert_eq!(err, Rejection::QueueFull { capacity: 2 });
        drain(&d);
        assert!(d.submit(JobSpec::new("b"), 2).is_ok());
    }

    #[test]
    fn rate_limit_throttles_per_tenant() {
        let (d, clock) = daemon(DaemonConfig {
            tenant_rate: Some(TenantRate::new(1, 1.0)),
            ..DaemonConfig::default()
        });
        d.submit(JobSpec::new("a"), 0).unwrap();
        let err = d.submit(JobSpec::new("a"), 1).unwrap_err();
        assert_eq!(
            err,
            Rejection::RateLimited {
                tenant: "a".into(),
                retry_after_ms: 1_000,
            }
        );
        // An unrelated tenant has its own bucket.
        d.submit(JobSpec::new("b"), 2).unwrap();
        // After the advertised wait, the tenant is admitted again.
        clock.advance(1_000);
        assert!(d.submit(JobSpec::new("a"), 3).is_ok());
    }

    #[test]
    fn same_tenant_runs_in_order_across_worker_counts() {
        for workers in [1, 2, 8] {
            let (d, _) = daemon(DaemonConfig {
                workers,
                queue_capacity: 256,
                ..DaemonConfig::default()
            });
            for i in 0..12u64 {
                d.submit(JobSpec::new(["x", "y", "z"][(i % 3) as usize]), i)
                    .unwrap();
            }
            let log: Mutex<Vec<(String, u64)>> = Mutex::new(Vec::new());
            let done = d.drain_all(|_, spec, payload, _| {
                log.lock().unwrap().push((spec.tenant.clone(), *payload));
                StepResult::Done(*payload)
            });
            // Dispatch order in the returned vec is worker-independent.
            let outs: Vec<u64> = done.iter().map(|j| j.output).collect();
            assert_eq!(outs, (0..12).collect::<Vec<_>>(), "workers={workers}");
            // And each tenant's own jobs executed in submission order.
            let log = log.into_inner().unwrap();
            for tenant in ["x", "y", "z"] {
                let seq: Vec<u64> = log
                    .iter()
                    .filter(|(t, _)| t == tenant)
                    .map(|(_, p)| *p)
                    .collect();
                assert!(seq.is_sorted(), "tenant {tenant} ran out of order");
            }
        }
    }

    #[test]
    fn lane_inversion_never_reorders_one_tenants_jobs() {
        for workers in [1, 4] {
            let (d, _) = daemon(DaemonConfig {
                workers,
                ..DaemonConfig::default()
            });
            // Tenant t submits Standard (id 0) then Interactive (id 1):
            // the interactive job earns the earlier dispatch slot, but
            // t's jobs must still execute 0 before 1.
            d.submit(JobSpec::new("t"), 0).unwrap();
            d.submit(JobSpec::new("t").lane(Lane::Interactive), 1)
                .unwrap();
            d.submit(JobSpec::new("u").lane(Lane::Batch), 2).unwrap();
            let log: Mutex<Vec<u64>> = Mutex::new(Vec::new());
            let done = d.drain_all(|_, spec, payload, _| {
                if spec.tenant == "t" {
                    log.lock().unwrap().push(*payload);
                }
                StepResult::Done(*payload)
            });
            // The chain fills its earned slots by submission id, so the
            // returned order is also 0, 1, 2.
            let outs: Vec<u64> = done.iter().map(|j| j.output).collect();
            assert_eq!(outs, vec![0, 1, 2], "workers={workers}");
            assert_eq!(log.into_inner().unwrap(), vec![0, 1], "workers={workers}");
        }
    }

    #[test]
    fn wait_times_come_from_the_virtual_clock() {
        let (d, clock) = daemon(DaemonConfig::default());
        d.submit(JobSpec::new("a"), 0).unwrap();
        clock.advance(250);
        d.submit(JobSpec::new("a"), 1).unwrap();
        clock.advance(50);
        let done = drain(&d);
        assert_eq!(done[0].wait_ms, 300);
        assert_eq!(done[1].wait_ms, 50);
        assert_eq!(done[0].submitted_ms, 0);
        assert_eq!(done[1].submitted_ms, 250);
    }

    #[test]
    fn drain_never_expires_overdue_jobs() {
        let (d, clock) = daemon(DaemonConfig::default());
        d.submit(JobSpec::new("a").deadline_ms(10), 0).unwrap();
        clock.advance(500);
        let done = drain(&d);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].wait_ms, 500);
    }

    #[test]
    fn metrics_account_for_every_submission() {
        let obs = Obs::disabled();
        let d = Daemon::new(
            DaemonConfig {
                queue_capacity: 3,
                ..DaemonConfig::default()
            },
            Arc::new(ManualClock::new()),
            obs.clone(),
        );
        for i in 0..5u64 {
            let _ = d.submit(JobSpec::new("a"), i);
        }
        assert_eq!(obs.counter_value("sched.submitted"), 3);
        assert_eq!(obs.counter_value("sched.rejected.queue_full"), 2);
        drain(&d);
        assert_eq!(obs.counter_value("sched.dispatched"), 3);
        assert_eq!(obs.counter_value("sched.completed"), 3);
        assert_eq!(obs.gauge_value("sched.queue_depth"), 0);
    }

    #[test]
    fn overdue_queued_jobs_expire_with_reason() {
        let (d, clock) = daemon(DaemonConfig::default());
        d.submit(JobSpec::new("a").deadline_ms(100), 0).unwrap();
        d.submit(JobSpec::new("a").deadline_ms(500), 1).unwrap();
        d.submit(JobSpec::new("b"), 2).unwrap();
        clock.advance(300);
        let events: Vec<JobEvent<u64, u64>> = d.tick(|id, _, _, _| StepResult::Done(id.0));
        let JobEvent::Expired(e) = &events[0] else {
            panic!("first event should be the expiry");
        };
        assert_eq!(e.id, JobId(0));
        assert_eq!(e.deadline_ms, 100);
        assert_eq!(e.expired_at_ms, 300);
        assert_eq!(e.payload, 0);
        assert_eq!(
            e.rejection(),
            Rejection::DeadlineExpired {
                deadline_ms: 100,
                late_by_ms: 200,
            }
        );
        // The live jobs completed this tick.
        assert_eq!(events.len(), 3);
        assert!(d.is_empty());
    }

    #[test]
    fn deadline_instant_still_dispatches() {
        let (d, clock) = daemon(DaemonConfig::default());
        d.submit(JobSpec::new("a").deadline_ms(100), 7).unwrap();
        clock.advance(100);
        let (completed, expired) = run_ids(&d);
        assert_eq!(completed, vec![0]);
        assert!(expired.is_empty());
    }

    #[test]
    fn drr_bounds_service_gap_under_flooding() {
        // Tenant "flood" floods 12 batch jobs; "steady" keeps 12 queued
        // too. With quantum 1, each round serves one job of each: the
        // service gap never exceeds quantum × weight = 1.
        let (d, _) = daemon(DaemonConfig {
            quantum: 1,
            queue_capacity: 64,
            ..DaemonConfig::default()
        });
        for i in 0..12u64 {
            d.submit(JobSpec::new("flood").lane(Lane::Batch), i)
                .unwrap();
        }
        for i in 12..24u64 {
            d.submit(JobSpec::new("steady").lane(Lane::Batch), i)
                .unwrap();
        }
        let mut flood = 0u64;
        let mut steady = 0u64;
        while !d.is_empty() {
            let (completed, _) = run_ids(&d);
            for id in completed {
                if id < 12 {
                    flood += 1;
                } else {
                    steady += 1;
                }
            }
            if flood < 12 && steady < 12 {
                assert!(flood.abs_diff(steady) <= 1, "gap {flood} vs {steady}");
            }
        }
        assert_eq!((flood, steady), (12, 12));
        assert!(d.fairness_gap() <= 1, "watermark {}", d.fairness_gap());
    }

    #[test]
    fn weights_scale_service_proportionally() {
        let (d, _) = daemon(DaemonConfig {
            quantum: 1,
            queue_capacity: 64,
            ..DaemonConfig::default()
        });
        for i in 0..8u64 {
            d.submit(JobSpec::builder("heavy").weight(2).build().unwrap(), i)
                .unwrap();
        }
        for i in 8..16u64 {
            d.submit(JobSpec::new("light"), i).unwrap();
        }
        // First round: heavy earns 2 slots, light 1.
        let (completed, _) = run_ids(&d);
        let heavy = completed.iter().filter(|id| **id < 8).count();
        let light = completed.iter().filter(|id| **id >= 8).count();
        assert_eq!((heavy, light), (2, 1));
    }

    #[test]
    fn interactive_arrival_parks_a_running_batch() {
        // Batch jobs take 3 slices each. After the batch job parks once,
        // an interactive job from another tenant must dispatch before the
        // batch job's next slice.
        let (d, _) = daemon(DaemonConfig {
            quantum: 1,
            batch_slice_frames: Some(4),
            ..DaemonConfig::default()
        });
        d.submit(JobSpec::new("bulk").lane(Lane::Batch), 0).unwrap();
        let order: Mutex<Vec<u64>> = Mutex::new(Vec::new());
        let exec = |id: JobId, spec: &JobSpec, slices: &mut u64, ctx: ExecCtx| {
            order.lock().unwrap().push(id.0);
            if spec.lane == Lane::Batch && ctx.slice_frames.is_some() {
                *slices += 1;
                if *slices < 3 {
                    return StepResult::Parked;
                }
            }
            StepResult::Done(id.0)
        };
        let first: Vec<JobEvent<u64, u64>> = d.tick(exec);
        assert!(first.is_empty(), "batch job parked, nothing completed");
        assert_eq!(d.len(), 1);

        d.submit(JobSpec::new("urgent").lane(Lane::Interactive), 0)
            .unwrap();
        while !d.is_empty() {
            d.tick::<u64, _>(exec);
        }
        let order = order.into_inner().unwrap();
        assert_eq!(
            order,
            vec![
                0, // batch slice 1 → parks
                1, // interactive preempts the parked batch
                0, // batch resumes
                0, // …and completes on its third slice
            ]
        );
    }

    #[test]
    fn parked_job_still_blocks_same_tenant_later_jobs() {
        // Tenant t's parked Batch job (id 0) must complete before t's
        // later Interactive submission (id 1) runs, even though the
        // interactive lane sorts first — the JobSpec contract.
        for workers in [1, 4] {
            let (d, _) = daemon(DaemonConfig {
                quantum: 4,
                workers,
                batch_slice_frames: Some(4),
                ..DaemonConfig::default()
            });
            d.submit(JobSpec::new("t").lane(Lane::Batch), 0).unwrap();
            let order: Mutex<Vec<u64>> = Mutex::new(Vec::new());
            let exec = |id: JobId, spec: &JobSpec, slices: &mut u64, ctx: ExecCtx| {
                if spec.lane == Lane::Batch && ctx.slice_frames.is_some() {
                    *slices += 1;
                    if *slices < 2 {
                        return StepResult::Parked;
                    }
                }
                order.lock().unwrap().push(id.0);
                StepResult::Done(id.0)
            };
            d.tick::<u64, _>(exec); // parks job 0
            d.submit(JobSpec::new("t").lane(Lane::Interactive), 0)
                .unwrap();
            while !d.is_empty() {
                d.tick::<u64, _>(exec);
            }
            assert_eq!(
                *order.lock().unwrap(),
                vec![0, 1],
                "workers={workers}: parked batch must finish before the \
                 same tenant's later interactive job"
            );
        }
    }

    #[test]
    fn drain_all_matches_legacy_dispatch_order() {
        let (d, _) = daemon(DaemonConfig::default());
        d.submit(JobSpec::new("a").lane(Lane::Batch), 0).unwrap();
        d.submit(JobSpec::new("b").lane(Lane::Interactive).deadline_ms(9), 1)
            .unwrap();
        d.submit(JobSpec::new("c").lane(Lane::Interactive).deadline_ms(3), 2)
            .unwrap();
        d.submit(JobSpec::new("d"), 3).unwrap();
        let done = d.drain_all(|_, _, payload, _| StepResult::Done(*payload));
        let order: Vec<u64> = done.iter().map(|j| j.output).collect();
        assert_eq!(order, vec![2, 1, 3, 0]);
    }

    #[test]
    fn events_are_worker_count_invariant() {
        let runs: Vec<Vec<String>> = [1usize, 4]
            .iter()
            .map(|&workers| {
                let (d, clock) = daemon(DaemonConfig {
                    workers,
                    quantum: 2,
                    queue_capacity: 256,
                    ..DaemonConfig::default()
                });
                let mut log = Vec::new();
                for round in 0..4u64 {
                    let submitted_at = round * 150;
                    for i in 0..6u64 {
                        let tenant = ["x", "y", "z"][(i % 3) as usize];
                        // Even submissions carry a just-missable deadline
                        // (they expire before the tick at +50 ms); odd
                        // ones have headroom and complete.
                        let deadline = if i % 2 == 0 {
                            submitted_at + 30
                        } else {
                            submitted_at + 500
                        };
                        let spec = JobSpec::new(tenant).deadline_ms(deadline);
                        let _ = d.submit(spec, round * 10 + i);
                    }
                    clock.advance(50);
                    for event in d.tick(|id, _, _, _| StepResult::Done(id.0)) {
                        match event {
                            JobEvent::Completed(done) => {
                                log.push(format!("done:{}:{}", done.id, done.wait_ms))
                            }
                            JobEvent::Expired(e) => {
                                log.push(format!("expired:{}:{}", e.id, e.deadline_ms))
                            }
                        }
                    }
                    clock.advance(100);
                }
                log
            })
            .collect();
        assert_eq!(runs[0], runs[1]);
        assert!(runs[0].iter().any(|l| l.starts_with("expired:")));
        assert!(runs[0].iter().any(|l| l.starts_with("done:")));
    }

    #[test]
    fn abandon_returns_everything_queued() {
        let (d, _) = daemon(DaemonConfig {
            quantum: 1,
            ..DaemonConfig::default()
        });
        d.submit(JobSpec::new("a"), 10).unwrap();
        d.submit(JobSpec::new("b"), 11).unwrap();
        d.submit(JobSpec::new("a"), 12).unwrap();
        let dropped = d.abandon();
        let ids: Vec<u64> = dropped.iter().map(|j| j.id.0).collect();
        let payloads: Vec<u64> = dropped.iter().map(|j| j.payload).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        assert_eq!(payloads, vec![10, 11, 12]);
        assert!(d.is_empty());
    }
}
