//! # sched — the deterministic multi-tenant job scheduler
//!
//! The measurement pipeline started life as a batch program: one world, one
//! audit, one report. A production audit *service* faces a different shape
//! of problem — many tenants submitting audit requests forever, each with
//! its own urgency and weight, against a bounded worker pool. This crate
//! supplies that layer while preserving the workspace's core contract:
//! **the whole service is deterministic and byte-identical at any worker
//! count**.
//!
//! * [`Daemon`] — the always-on loop: the driver advances the virtual
//!   clock and calls [`Daemon::tick`]; every tick expires overdue queued
//!   jobs with a typed reason ([`JobEvent::Expired`], `sched.expired`),
//!   selects work by **deficit round-robin** so no tenant can starve
//!   another (`sched.drr.*`, [`Daemon::fairness_gap`]), and supports
//!   **cooperative preemption** — an executor may park a `Batch` job once
//!   its slice budget runs out ([`StepResult::Parked`], `sched.parked`)
//!   and resume it on a later tick;
//! * [`JobSpec::builder`] — the validated construction path for jobs,
//!   with the dispatch-order contract documented on [`JobSpec`] itself;
//! * [`Lane`] — three priority lanes (interactive / standard / batch) with
//!   optional per-job deadlines for intra-lane ordering;
//! * [`TenantRate`] — per-tenant token-bucket rate limiting driven by the
//!   virtual [`Clock`] (the same clock trait the rest of the workspace
//!   uses — re-exported here and from `netsim::clock`, never a third
//!   abstraction);
//! * [`Daemon::drain_all`] — the one-shot batch variant of a tick
//!   (everything queued, no expiry, no fairness bound, no slicing), which
//!   serves shutdown drains.
//!
//! In-flight chains fan out over [`obs::claim_map`], the workspace's one
//! claim-counter pool, which keeps every observable output
//! scheduling-free.
//!
//! ## Determinism model
//!
//! Dispatch order is a pure function of the submitted jobs and tick
//! times: each tick's selected jobs sort by `(lane, deadline, submission
//! sequence)` and jobs of one tenant form a *chain* that executes
//! sequentially (tenants share mutable state — a warm artifact store — so
//! intra-tenant order must be program order, even across preemption).
//! Chains are distributed over workers with a claim counter, results land
//! in per-chain slots, and each tick's events are re-sorted into dispatch
//! order. Timestamps come from the virtual clock, which only the driver
//! advances — so wait times, expiry and rate-limit decisions, and the
//! `sched.*` metrics and span tree are identical whether the pool has 1
//! worker or 8.
//!
//! Like `obs` and `store`, this crate is dependency-free (its only
//! workspace dependency *is* `obs`): `std::sync` primitives and the `obs`
//! pool are all it needs.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod daemon;
mod job;
mod ratelimit;

pub use daemon::{
    AbandonedJob, CompletedJob, Daemon, DaemonConfig, ExecCtx, ExpiredJob, JobEvent, Rejection,
    StepResult,
};
pub use job::{JobId, JobSpec, JobSpecBuilder, Lane, SpecError};
pub use obs::Clock;
pub use ratelimit::TenantRate;
