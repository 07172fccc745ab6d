//! The fleet-scheduler regression tier.
//!
//! Three contracts, mirroring `trace_determinism.rs` one layer up:
//!
//! 1. A multi-tenant, multi-epoch fleet run produces byte-identical
//!    canonical reports, delta reports, and `sched.*` trace at any worker
//!    count (pinned at 1 vs 4 for seeds 2022 and 7).
//! 2. An epoch-N+1 re-audit against a tenant's warm artifact pack
//!    re-analyzes *only* the drifted bots — asserted against the drift
//!    model's own ledger via the store's hit/miss counters — yet yields a
//!    report byte-identical to a cold full audit of the same epoch.
//! 3. Admission control rejects deterministically, surfacing the typed
//!    `ErrorKind::Saturated` with its pinned kind string.

use chatbot_audit::{Audit, AuditJob, ErrorKind, FleetDaemon, FleetDaemonConfig, JobOutcome};
use obs::{Clock, JsonRecorder, Obs};
use sched::{JobSpec, Lane, TenantRate};
use std::sync::Arc;
use store::MemBackend;
use synth::{build_ecosystem_at, DriftConfig, EcosystemConfig};

const BOTS: usize = 60;
const TENANTS: [&str; 3] = ["acme", "beta", "cyber"];

fn job(seed: u64, epoch: u32) -> AuditJob {
    Audit::builder()
        .scale(BOTS)
        .seed(seed)
        .honeypot_sample(6)
        .site_defenses(false)
        .drift(DriftConfig::default())
        .epoch(epoch)
        .into_job()
        .expect("valid job")
}

/// Step the daemon loop a tick at a time until nothing is queued, then
/// take every settled outcome.
fn settle(daemon: &FleetDaemon) -> Vec<JobOutcome> {
    while daemon.queued() > 0 {
        daemon.run_until(daemon.clock().now_millis() + daemon.config().tick_ms);
    }
    daemon.poll_outcomes()
}

/// Run 3 tenants × 2 epochs through one fleet daemon and dump every
/// observable: reports, deltas, artifact hit counters, and the canonical
/// `sched.*` trace.
fn fleet_dump(seed: u64, workers: usize) -> (String, String) {
    let recorder = Arc::new(JsonRecorder::new());
    let clock = netsim::VirtualClock::new();
    let obs = Obs::with_recorder(recorder.clone(), Arc::new(clock.clone()));
    let daemon = FleetDaemon::with_obs(
        FleetDaemonConfig {
            workers,
            ..FleetDaemonConfig::default()
        },
        Arc::new(MemBackend::new()),
        clock,
        obs,
    );

    let lanes = [Lane::Interactive, Lane::Standard, Lane::Batch];
    let mut dump = String::new();
    for epoch in 0..2u32 {
        for (i, tenant) in TENANTS.iter().enumerate() {
            daemon
                .submit(JobSpec::new(*tenant).lane(lanes[i]), job(seed, epoch))
                .expect("queue has room");
            daemon.clock().advance(netsim::SimDuration::from_millis(25));
        }
        for outcome in settle(&daemon) {
            let report = outcome.report.expect("audit completes");
            dump.push_str(&format!(
                "tenant={} epoch={} wait={} hits={} misses={}\n",
                outcome.tenant,
                outcome.epoch,
                outcome.wait_ms,
                outcome.artifact_hits,
                outcome.artifact_misses,
            ));
            dump.push_str(&serde_json::to_string(&report).expect("report serializes"));
            dump.push('\n');
            if let Some(delta) = &outcome.delta {
                dump.push_str(&serde_json::to_string(delta).expect("delta serializes"));
                dump.push('\n');
            }
        }
    }
    (dump, recorder.canonical_trace())
}

#[test]
fn fleet_outputs_are_worker_count_independent_for_seed_2022() {
    let (serial_dump, serial_trace) = fleet_dump(2022, 1);
    assert!(
        serial_trace.contains("\"name\":\"sched.tick\""),
        "trace must contain the sched.tick span"
    );
    assert!(
        serial_trace.contains("\"name\":\"sched.job\""),
        "trace must contain keyed sched.job spans"
    );
    let (parallel_dump, parallel_trace) = fleet_dump(2022, 4);
    assert_eq!(parallel_dump, serial_dump, "workers=4 outputs diverged");
    assert_eq!(parallel_trace, serial_trace, "workers=4 trace diverged");
}

#[test]
fn fleet_outputs_are_worker_count_independent_for_seed_7() {
    let (serial_dump, serial_trace) = fleet_dump(7, 1);
    let (parallel_dump, parallel_trace) = fleet_dump(7, 4);
    assert_eq!(parallel_dump, serial_dump, "workers=4 outputs diverged");
    assert_eq!(parallel_trace, serial_trace, "workers=4 trace diverged");
}

#[test]
fn incremental_reaudit_reanalyzes_only_drifted_bots() {
    let seed = 2022;
    let drift = DriftConfig::default();

    // The drift model's own ledger: which bots changed in a crawl-visible
    // way at epoch 1.
    let eco_cfg = EcosystemConfig::test_scale(BOTS, seed);
    let (_, epochs) = build_ecosystem_at(&eco_cfg, &drift, 1);
    let drifted = epochs
        .iter()
        .find(|e| e.epoch == 1)
        .expect("epoch 1 ledger")
        .content_drifted();
    assert!(
        !drifted.is_empty() && drifted.len() < BOTS,
        "default drift must move some but not all of {BOTS} bots (moved {})",
        drifted.len()
    );

    let daemon = FleetDaemon::new(FleetDaemonConfig::default());
    daemon
        .submit(JobSpec::new("acme"), job(seed, 0))
        .expect("submit epoch 0");
    let cold = settle(&daemon);
    assert_eq!(cold[0].artifact_hits, 0, "first audit has no warm pack");
    let cold_misses = cold[0].artifact_misses;
    assert!(cold_misses as usize >= BOTS, "cold run analyzes every bot");

    daemon
        .submit(JobSpec::new("acme"), job(seed, 1))
        .expect("submit epoch 1");
    let warm = settle(&daemon);
    let outcome = &warm[0];
    assert_eq!(
        outcome.artifact_misses as usize,
        drifted.len(),
        "re-audit must recompute exactly the drifted bots"
    );
    assert_eq!(
        outcome.artifact_hits as usize,
        BOTS - drifted.len(),
        "every undrifted bot must come from the warm pack"
    );
    let delta = outcome.delta.as_ref().expect("epoch 1 diffs epoch 0");
    assert_eq!(delta.drifted.len(), drifted.len());
    assert_eq!(delta.unchanged, BOTS - drifted.len());

    // And the incremental report is byte-identical to a cold full audit of
    // the same epoch on a fresh daemon.
    let fresh = FleetDaemon::new(FleetDaemonConfig::default());
    fresh
        .submit(JobSpec::new("other"), job(seed, 1))
        .expect("submit cold epoch 1");
    let cold_epoch1 = settle(&fresh)
        .remove(0)
        .report
        .expect("cold audit completes");
    let warm_report = outcome.report.as_ref().expect("warm audit completes");
    assert_eq!(
        serde_json::to_string(warm_report).unwrap(),
        serde_json::to_string(&cold_epoch1).unwrap(),
        "incremental re-audit diverged from a cold audit of the same epoch"
    );
}

#[test]
fn saturation_rejects_deterministically_with_typed_kind() {
    let run_once = || {
        let daemon = FleetDaemon::new(FleetDaemonConfig {
            queue_capacity: 2,
            ..FleetDaemonConfig::default()
        });
        let mut kinds = Vec::new();
        for tenant in ["a", "b", "c", "d"] {
            match daemon.submit(JobSpec::new(tenant), job(7, 0)) {
                Ok(id) => kinds.push(format!("ok:{id}")),
                Err(e) => {
                    assert_eq!(e.kind(), ErrorKind::Saturated);
                    assert_eq!(e.kind().as_str(), "saturated");
                    kinds.push(format!("rejected:{e}"));
                }
            }
        }
        kinds
    };
    let first = run_once();
    assert_eq!(
        first,
        vec![
            "ok:job-0".to_string(),
            "ok:job-1".to_string(),
            "rejected:scheduler saturated: queue full (capacity 2)".to_string(),
            "rejected:scheduler saturated: queue full (capacity 2)".to_string(),
        ]
    );
    assert_eq!(run_once(), first, "rejections must replay identically");
}

#[test]
fn rate_limits_reject_deterministically_on_the_virtual_clock() {
    let daemon = FleetDaemon::new(FleetDaemonConfig {
        tenant_rate: Some(TenantRate::new(1, 2.0)),
        ..FleetDaemonConfig::default()
    });
    daemon
        .submit(JobSpec::new("acme"), job(7, 0))
        .expect("burst admits the first job");
    let err = daemon.submit(JobSpec::new("acme"), job(7, 1)).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::Saturated);
    assert_eq!(
        err.to_string(),
        "scheduler saturated: tenant acme rate limited (retry in 500 ms)"
    );
    // Another tenant is unaffected; after the advertised wait the first
    // tenant is admitted again.
    daemon
        .submit(JobSpec::new("beta"), job(7, 0))
        .expect("distinct tenant has its own bucket");
    daemon
        .clock()
        .advance(netsim::SimDuration::from_millis(500));
    daemon
        .submit(JobSpec::new("acme"), job(7, 1))
        .expect("token refilled on the virtual clock");
}
