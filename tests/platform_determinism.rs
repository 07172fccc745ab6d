//! The heterogeneous-fleet regression tier.
//!
//! One fleet daemon multiplexing Discord and Telegram tenants must keep
//! every determinism promise the single-platform tiers pin:
//!
//! 1. A mixed-platform, multi-epoch fleet run produces byte-identical
//!    canonical reports (each carrying its platform tag), deltas, and
//!    `sched.*` trace at any worker count (pinned at 1 vs 4 for seeds
//!    2022 and 7).
//! 2. A Telegram tenant's epoch-N+1 re-audit rides the same warm path as
//!    a Discord tenant's: conditional fetches against `tdirectory.sim`,
//!    artifact hits for every undrifted bot, and a report byte-identical
//!    to a cold audit of the same epoch.
//! 3. Crawl counters namespace per platform (`crawl.discord.*` /
//!    `crawl.telegram.*`) without perturbing the legacy aggregate names.
//! 4. A Telegram audit behind the listing site's default defenses crawls
//!    every listing, at any worker count: the directory's captcha wall
//!    is solved exactly as Discord's is.

use chatbot_audit::{
    platform_breakdown, Audit, AuditJob, FleetDaemon, FleetDaemonConfig, JobOutcome, PlatformKind,
};
use obs::{Clock, JsonRecorder, Obs};
use sched::JobSpec;
use std::sync::Arc;
use store::MemBackend;
use synth::DriftConfig;

const BOTS: usize = 50;

fn job(kind: PlatformKind, seed: u64, epoch: u32) -> AuditJob {
    Audit::builder()
        .platform(kind)
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

/// 2 Discord + 2 Telegram tenants × 2 epochs through one daemon; dump
/// every observable the fleet emits.
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

    let tenants = [
        ("disco-a", PlatformKind::Discord),
        ("tgram-a", PlatformKind::Telegram),
        ("disco-b", PlatformKind::Discord),
        ("tgram-b", PlatformKind::Telegram),
    ];
    let mut dump = String::new();
    for epoch in 0..2u32 {
        for (tenant, kind) in tenants {
            daemon
                .submit(JobSpec::new(tenant), job(kind, seed, epoch))
                .expect("queue has room");
            daemon.clock().advance(netsim::SimDuration::from_millis(25));
        }
        let outcomes = settle(&daemon);
        for outcome in &outcomes {
            let report = outcome.report.as_ref().expect("audit completes");
            assert_eq!(
                report.platform, outcome.platform,
                "report tag must match the job's platform"
            );
            dump.push_str(&format!(
                "tenant={} platform={} epoch={} wait={} hits={} misses={}\n",
                outcome.tenant,
                outcome.platform,
                outcome.epoch,
                outcome.wait_ms,
                outcome.artifact_hits,
                outcome.artifact_misses,
            ));
            dump.push_str(&serde_json::to_string(report).expect("report serializes"));
            dump.push('\n');
            if let Some(delta) = &outcome.delta {
                assert_eq!(delta.platform, outcome.platform);
                dump.push_str(&serde_json::to_string(delta).expect("delta serializes"));
                dump.push('\n');
            }
        }
        dump.push_str(
            &serde_json::to_string(&platform_breakdown(&outcomes)).expect("breakdown serializes"),
        );
        dump.push('\n');
    }
    (dump, recorder.canonical_trace())
}

#[test]
fn mixed_fleet_outputs_are_worker_count_independent_for_seed_2022() {
    let (serial_dump, serial_trace) = fleet_dump(2022, 1);
    assert!(
        serial_dump.contains("\"platform\":\"Discord\"")
            && serial_dump.contains("\"platform\":\"Telegram\""),
        "both platform tags must appear in the canonical reports"
    );
    let (parallel_dump, parallel_trace) = fleet_dump(2022, 4);
    assert_eq!(parallel_dump, serial_dump, "workers=4 outputs diverged");
    assert_eq!(parallel_trace, serial_trace, "workers=4 trace diverged");
}

#[test]
fn mixed_fleet_outputs_are_worker_count_independent_for_seed_7() {
    let (serial_dump, serial_trace) = fleet_dump(7, 1);
    let (parallel_dump, parallel_trace) = fleet_dump(7, 4);
    assert_eq!(parallel_dump, serial_dump, "workers=4 outputs diverged");
    assert_eq!(parallel_trace, serial_trace, "workers=4 trace diverged");
}

#[test]
fn telegram_reaudit_rides_the_warm_incremental_path() {
    let seed = 2022;
    let daemon = FleetDaemon::new(FleetDaemonConfig::default());
    daemon
        .submit(JobSpec::new("tgram"), job(PlatformKind::Telegram, seed, 0))
        .expect("submit epoch 0");
    let cold = settle(&daemon);
    assert_eq!(cold[0].platform, PlatformKind::Telegram);
    assert_eq!(cold[0].artifact_hits, 0, "first audit has no warm pack");
    assert!(cold[0].artifact_misses as usize >= BOTS);

    daemon
        .submit(JobSpec::new("tgram"), job(PlatformKind::Telegram, seed, 1))
        .expect("submit epoch 1");
    let warm = settle(&daemon);
    let outcome = &warm[0];
    assert!(
        outcome.artifact_hits > 0,
        "undrifted Telegram bots must come from the warm pack"
    );
    assert!(
        (outcome.artifact_misses as usize) < BOTS,
        "a re-audit must not recompute the whole population"
    );
    let delta = outcome.delta.as_ref().expect("epoch 1 diffs epoch 0");
    assert_eq!(delta.platform, PlatformKind::Telegram);
    assert!(!delta.is_empty(), "default drift moves something");

    // Byte-identical to a cold audit of the same epoch on a fresh daemon.
    let fresh = FleetDaemon::new(FleetDaemonConfig::default());
    fresh
        .submit(JobSpec::new("other"), job(PlatformKind::Telegram, seed, 1))
        .expect("submit cold epoch 1");
    let cold_epoch1 = settle(&fresh)
        .remove(0)
        .report
        .expect("cold audit completes");
    let warm_report = outcome.report.as_ref().expect("warm audit completes");
    assert_eq!(
        serde_json::to_string(warm_report).unwrap(),
        serde_json::to_string(&cold_epoch1).unwrap(),
        "incremental Telegram re-audit diverged from a cold audit"
    );
}

#[test]
fn crawl_counters_namespace_per_platform_across_one_fleet() {
    let clock = netsim::VirtualClock::new();
    let obs = Obs::disabled();
    let daemon = FleetDaemon::with_obs(
        FleetDaemonConfig::default(),
        Arc::new(MemBackend::new()),
        clock,
        obs,
    );
    daemon
        .submit(JobSpec::new("disco"), job(PlatformKind::Discord, 2022, 0))
        .unwrap();
    daemon
        .submit(JobSpec::new("tgram"), job(PlatformKind::Telegram, 2022, 0))
        .unwrap();
    for outcome in settle(&daemon) {
        let report = outcome.report.expect("audit completes");
        // Each job reports through its own Audit obs handle; the per-job
        // registry splits by platform while the aggregate keeps its name.
        assert_eq!(report.bots.len(), BOTS);
    }
    // Build two audits with private registries to read the counters back.
    for kind in PlatformKind::ALL {
        let obs = Obs::disabled();
        let audit = Audit::builder()
            .platform(kind)
            .scale(20)
            .seed(5)
            .honeypot_sample(2)
            .site_defenses(false)
            .obs(obs.clone())
            .build()
            .unwrap();
        audit.run().expect("audit completes");
        let scoped = obs.counter_value(&format!("crawl.{}.bots", kind.as_str()));
        assert_eq!(scoped, 20, "crawl.{}.bots", kind.as_str());
        assert_eq!(
            obs.counter_value("crawl.bots"),
            scoped,
            "aggregate crawl.bots must mirror the scoped counter"
        );
        for other in PlatformKind::ALL {
            if other != kind {
                assert_eq!(
                    obs.counter_value(&format!("crawl.{}.bots", other.as_str())),
                    0,
                    "foreign namespace crawl.{}.* must stay silent",
                    other.as_str()
                );
            }
        }
    }
}

#[test]
fn defended_telegram_audit_crawls_every_listing_at_any_worker_count() {
    let report = |workers: usize| {
        let report = Audit::builder()
            .platform(PlatformKind::Telegram)
            .scale(300)
            .seed(2022)
            .honeypot_sample(6)
            .workers(workers)
            .build()
            .expect("valid audit")
            .run()
            .expect("audit completes");
        assert_eq!(report.bots.len(), 300, "workers={workers}");
        serde_json::to_string(&report).expect("report serializes")
    };
    assert_eq!(report(2), report(1), "workers=2 report diverged");
}
