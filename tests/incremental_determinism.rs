//! The incremental-crawl regression tier.
//!
//! Three contracts over the conditional-fetch pipeline, one layer above
//! the crawler's own unit tests:
//!
//! 1. Differential: a warm re-audit — validator cache armed, `/changed`
//!    feed consumed, unchanged pages answered with 304s — produces a
//!    report byte-identical to a cold from-scratch audit of the same
//!    epoch, for seeds 2022 and 7, at 1 and 4 workers.
//! 2. Fault: a listing site whose validators lie (304 for pages that
//!    drifted underneath) cannot poison the report. The crawl detects the
//!    lie, falls back to full fetches, and still matches the cold audit.
//! 3. Ledger arithmetic: the warm crawl scores exactly one validator hit
//!    per reused logical page — every list page plus every bot the drift
//!    ledger did not name. No more (nothing reused twice), no less
//!    (nothing refetched that could have been 304'd).

use chatbot_audit::{Audit, AuditJob, FleetDaemon, FleetDaemonConfig, JobOutcome};
use obs::{Clock, Obs};
use sched::JobSpec;
use synth::{build_ecosystem_at, DriftConfig, EcosystemConfig};

const BOTS: usize = 60;

fn job(seed: u64, epoch: u32, stale: bool) -> AuditJob {
    Audit::builder()
        .scale(BOTS)
        .seed(seed)
        .honeypot_sample(6)
        .site_defenses(false)
        .drift(DriftConfig::default())
        .epoch(epoch)
        .stale_validators(stale)
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

/// Epoch 0 then epoch 1 on one tenant (the epoch-1 pass runs warm against
/// the tenant's validator cache), plus a cold epoch-1 audit on a fresh
/// tenant. Returns both epoch-1 reports serialized.
fn warm_vs_cold(seed: u64, workers: usize, stale: bool) -> (String, String) {
    let daemon = FleetDaemon::new(FleetDaemonConfig {
        workers,
        ..FleetDaemonConfig::default()
    });
    daemon
        .submit(JobSpec::new("acme"), job(seed, 0, stale))
        .expect("submit epoch 0");
    settle(&daemon);
    daemon
        .submit(JobSpec::new("acme"), job(seed, 1, stale))
        .expect("submit warm epoch 1");
    let warm = settle(&daemon).remove(0);

    let fresh = FleetDaemon::new(FleetDaemonConfig {
        workers,
        ..FleetDaemonConfig::default()
    });
    fresh
        .submit(JobSpec::new("other"), job(seed, 1, stale))
        .expect("submit cold epoch 1");
    let cold = settle(&fresh).remove(0);

    (
        serde_json::to_string(warm.report.as_ref().expect("warm audit completes")).unwrap(),
        serde_json::to_string(cold.report.as_ref().expect("cold audit completes")).unwrap(),
    )
}

#[test]
fn incremental_report_matches_cold_at_any_worker_count() {
    for seed in [2022u64, 7] {
        let mut per_worker = Vec::new();
        for workers in [1usize, 4] {
            let (warm, cold) = warm_vs_cold(seed, workers, false);
            assert_eq!(
                warm, cold,
                "seed {seed} workers {workers}: incremental re-audit diverged from cold"
            );
            per_worker.push(warm);
        }
        assert_eq!(
            per_worker[0], per_worker[1],
            "seed {seed}: worker count changed the bytes"
        );
    }
}

#[test]
fn lying_validators_cannot_poison_the_report() {
    let seed = 2022;

    // Instrumented warm pass against the faulty site: the drift ledger
    // names the changed bots, the site 304s their probes anyway.
    let obs = Obs::disabled();
    let daemon = FleetDaemon::new(FleetDaemonConfig::default());
    daemon
        .submit(JobSpec::new("acme"), job(seed, 0, true))
        .expect("submit epoch 0");
    settle(&daemon);
    let stale_job = Audit::builder()
        .scale(BOTS)
        .seed(seed)
        .honeypot_sample(6)
        .site_defenses(false)
        .drift(DriftConfig::default())
        .epoch(1)
        .stale_validators(true)
        .obs(obs.clone())
        .into_job()
        .expect("valid job");
    daemon
        .submit(JobSpec::new("acme"), stale_job)
        .expect("submit warm epoch 1");
    let warm = settle(&daemon).remove(0);
    assert!(
        obs.counter_value("crawl.validator_stale") > 0,
        "the faulty 304s must be detected, not silently trusted"
    );

    // The cold audit never sends `if-none-match`, so the fault cannot
    // touch it — it is the ground truth the warm report must match.
    let fresh = FleetDaemon::new(FleetDaemonConfig::default());
    fresh
        .submit(JobSpec::new("other"), job(seed, 1, true))
        .expect("submit cold epoch 1");
    let cold = settle(&fresh).remove(0);
    assert_eq!(
        serde_json::to_string(warm.report.as_ref().expect("warm audit completes")).unwrap(),
        serde_json::to_string(cold.report.as_ref().expect("cold audit completes")).unwrap(),
        "stale validators leaked stale bytes into the report"
    );
}

#[test]
fn validator_hits_equal_reused_pages_exactly() {
    let seed = 2022;

    // The drift model's own ledger: which bots changed crawl-visibly at
    // epoch 1. Everything else must be served by a 304.
    let eco_cfg = EcosystemConfig::test_scale(BOTS, seed);
    let (_, epochs) = build_ecosystem_at(&eco_cfg, &DriftConfig::default(), 1);
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

    let obs = Obs::disabled();
    let daemon = FleetDaemon::new(FleetDaemonConfig::default());
    daemon
        .submit(JobSpec::new("acme"), job(seed, 0, false))
        .expect("submit epoch 0");
    settle(&daemon);
    let warm_job = Audit::builder()
        .scale(BOTS)
        .seed(seed)
        .honeypot_sample(6)
        .site_defenses(false)
        .drift(DriftConfig::default())
        .epoch(1)
        .obs(obs.clone())
        .into_job()
        .expect("valid job");
    daemon
        .submit(JobSpec::new("acme"), warm_job)
        .expect("submit warm epoch 1");
    let warm = settle(&daemon).remove(0);
    let report = warm.report.as_ref().expect("warm audit completes");

    // One hit per reused logical page: every list page (the listing order
    // does not drift) plus every bot the ledger did not name.
    assert_eq!(
        obs.counter_value("crawl.validator_hits"),
        report.pages as u64 + (BOTS - drifted.len()) as u64,
        "validator hits must equal list pages + undrifted bots"
    );
    assert!(
        obs.counter_value("crawl.changed_pages") >= 1,
        "the warm pass must consume the paginated /changed feed"
    );
    assert!(
        obs.counter_value("crawl.fetched_full") >= drifted.len() as u64,
        "every drifted bot costs at least one full fetch"
    );
    // A bot whose drift lives off the detail page (its website's policy
    // moved) 304s the detail probe while the ledger names it changed —
    // counted stale, refetched in full. Never more than the ledger names.
    assert!(obs.counter_value("crawl.validator_stale") <= drifted.len() as u64);
}
