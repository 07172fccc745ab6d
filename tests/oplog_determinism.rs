//! The longitudinal oplog regression tier.
//!
//! A three-tenant heterogeneous fleet (two Discord worlds, one Telegram)
//! runs five drift epochs each through the always-on daemon; then the
//! chains answer every longitudinal question without replaying a single
//! audit. Four contracts, pinned for seeds 2022 and 7 at 1 vs 4 workers:
//!
//! 1. **Materialized, not recomputed** — `history()`, `trends()` and the
//!    fleet drift curves leave every `analysis.*` / `crawl.*` /
//!    `policy.*` counter exactly where the audits left them: the views
//!    are served from the persisted epoch chains alone.
//! 2. **Worker-count and replay invariance** — the canonical trend dump
//!    (flip chains, cumulative permission creep, drift curve) is
//!    byte-identical at any worker count, and byte-identical again when
//!    the same plan re-runs from scratch.
//! 3. **Compaction changes bytes, not answers** — generational pack
//!    compaction (keep the last 2 epochs) reclaims bytes from every
//!    tenant, yet the trend dump, history, and a post-compaction
//!    incremental epoch are all byte-identical to the uncompacted run.
//! 4. **Clones are state, not history** — a what-if clone of a tenant
//!    re-audits from the snapshot baseline and produces a delta against
//!    the fork point, while the original chain is untouched.
//! 5. **Held equals reopened** — a tenant's pack and validator cache,
//!    held open across epochs and a compaction, give the same reports,
//!    deltas and artifact hits and misses as a daemon restarted over the
//!    same root before every epoch.

use chatbot_audit::{Audit, AuditJob, FleetDaemon, FleetDaemonConfig, PlatformKind};
use netsim::VirtualClock;
use obs::{Clock as _, Obs};
use sched::JobSpec;
use std::sync::Arc;
use store::{Backend, MemBackend};
use synth::DriftConfig;

const BOTS: usize = 25;
const EPOCHS: u32 = 5;
const TENANTS: [(&str, PlatformKind); 3] = [
    ("acme", PlatformKind::Discord),
    ("globex", PlatformKind::Discord),
    ("initech", PlatformKind::Telegram),
];

/// Jobs report into the daemon's own [`Obs`] handle so the `analysis.*`
/// flatness assertion can see audit work and trend-view reads side by
/// side.
fn job(obs: &Obs, seed: u64, platform: PlatformKind, epoch: u32) -> AuditJob {
    Audit::builder()
        .scale(BOTS)
        .seed(seed)
        .platform(platform)
        .honeypot_sample(3)
        .site_defenses(false)
        .drift(DriftConfig::default())
        .epoch(epoch)
        .obs(obs.clone())
        .into_job()
        .expect("valid job")
}

fn fleet(workers: usize, root: Arc<dyn Backend>) -> FleetDaemon {
    FleetDaemon::with_obs(
        FleetDaemonConfig {
            workers,
            ..FleetDaemonConfig::default()
        },
        root,
        VirtualClock::new(),
        Obs::disabled(),
    )
}

/// Run the 3-tenant × 5-epoch plan and return the daemon plus its root.
fn run_fleet(seed: u64, workers: usize) -> (FleetDaemon, Arc<dyn Backend>) {
    let root: Arc<dyn Backend> = Arc::new(MemBackend::new());
    let daemon = fleet(workers, Arc::clone(&root));
    let mut deadline = 0;
    for epoch in 0..EPOCHS {
        for (i, (tenant, platform)) in TENANTS.iter().enumerate() {
            daemon
                .submit(
                    JobSpec::new(*tenant),
                    job(daemon.obs(), seed + i as u64, *platform, epoch),
                )
                .expect("admitted");
        }
        // Settle each wave before the next so every epoch diffs its
        // predecessor.
        deadline += 2_000;
        daemon.run_until(deadline);
    }
    for (tenant, _) in TENANTS {
        assert_eq!(
            daemon.history(tenant).expect("chain").len(),
            EPOCHS as usize,
            "tenant {tenant} must commit all epochs"
        );
    }
    (daemon, root)
}

/// Every longitudinal observable, canonically serialized: per-tenant
/// trend dumps + epoch lists, and the fleet-wide drift curves.
fn trend_dump(daemon: &FleetDaemon) -> String {
    let mut out = String::new();
    for (tenant, _) in TENANTS {
        let trends = daemon.trends(tenant).expect("trends");
        out.push_str(&format!("== {tenant} ==\n{}\n", trends.canonical_json()));
    }
    let fleet = daemon.fleet_trends().expect("fleet trends");
    out.push_str(&serde_json::to_string_pretty(&fleet).expect("serialize"));
    out
}

/// The analysis-side counters that would move if any audit were replayed.
fn work_counters(obs: &Obs) -> String {
    format!(
        "{}{}{}{}",
        obs.canonical_metrics("analysis."),
        obs.canonical_metrics("crawl."),
        obs.canonical_metrics("policy."),
        obs.canonical_metrics("code.")
    )
}

#[test]
fn trend_views_answer_without_replaying_audits() {
    let (daemon, _root) = run_fleet(2022, 1);
    let before = work_counters(daemon.obs());
    assert!(
        before.contains("analysis."),
        "audits must have recorded analysis work"
    );

    // History, per-tenant trends, and fleet curves — all served from the
    // materialized chains.
    let mut fleet_creep = 0;
    let mut fleet_flips = 0;
    for (tenant, _) in TENANTS {
        let history = daemon.history(tenant).unwrap();
        assert_eq!(history.first().unwrap().prev_epoch, None);
        for pair in history.windows(2) {
            assert_eq!(pair[1].prev_epoch, Some(pair[0].epoch), "chain must link");
        }
        let trends = daemon.trends(tenant).unwrap();
        assert_eq!(trends.drift_curve().len(), EPOCHS as usize);
        fleet_creep += trends.permission_creep().total_added;
        fleet_flips += trends.flipped_at_least(1).len();
    }
    assert!(fleet_creep > 0, "default drift must creep permissions");
    assert!(fleet_flips > 0, "default drift must flip traceability");
    let fleet = daemon.fleet_trends().unwrap();
    assert_eq!(fleet.len(), 2, "both platforms appear: {fleet:?}");
    assert_eq!(
        fleet.iter().map(|p| p.tenants).collect::<Vec<_>>(),
        vec![2, 1],
        "two Discord tenants, one Telegram"
    );

    assert_eq!(
        work_counters(daemon.obs()),
        before,
        "trend views must not replay any audit work"
    );
}

#[test]
fn trend_dumps_are_worker_count_and_rerun_invariant() {
    for seed in [2022, 7] {
        let (one, _) = run_fleet(seed, 1);
        let (four, _) = run_fleet(seed, 4);
        let (again, _) = run_fleet(seed, 1);
        let reference = trend_dump(&one);
        assert_eq!(
            reference,
            trend_dump(&four),
            "seed {seed}: 4 workers must not change the trend dump"
        );
        assert_eq!(
            reference,
            trend_dump(&again),
            "seed {seed}: a fresh identical run must reproduce the dump"
        );
    }
}

#[test]
fn compaction_reclaims_bytes_but_never_changes_answers() {
    for seed in [2022, 7] {
        let (daemon, root) = run_fleet(seed, 1);
        let (control, _) = run_fleet(seed, 1);
        let reference = trend_dump(&daemon);
        let histories: Vec<_> = TENANTS
            .iter()
            .map(|(t, _)| daemon.history(t).unwrap())
            .collect();

        for (tenant, _) in TENANTS {
            let outcome = daemon.compact_tenant(tenant, 2).expect("compaction");
            assert!(
                outcome.reclaimed_bytes() > 0,
                "seed {seed}: dropping 3 of 5 generations must reclaim bytes \
                 for {tenant}: {outcome:?}"
            );
            assert_eq!(outcome.kept_epochs, 2);
        }
        assert!(
            daemon
                .obs()
                .counter_value("store.compaction.reclaimed_bytes")
                > 0
        );

        // Same answers from smaller packs.
        assert_eq!(reference, trend_dump(&daemon), "seed {seed}");
        for ((tenant, _), before) in TENANTS.iter().zip(&histories) {
            assert_eq!(&daemon.history(tenant).unwrap(), before, "{tenant}");
        }

        // The next incremental epoch lands byte-identically on the
        // compacted fleet and on the never-compacted control.
        let mut fresh = Vec::new();
        for d in [&daemon, &control] {
            for (i, (tenant, platform)) in TENANTS.iter().enumerate() {
                d.submit(
                    JobSpec::new(*tenant),
                    job(d.obs(), seed + i as u64, *platform, EPOCHS),
                )
                .expect("admitted");
            }
            d.run_until(100_000);
            fresh.push(trend_dump(d));
        }
        assert_eq!(
            fresh[0], fresh[1],
            "seed {seed}: epoch {EPOCHS} must not see the compaction"
        );
        let _ = root;
    }
}

#[test]
fn clones_fork_state_without_history_and_without_touching_the_source() {
    let (daemon, _root) = run_fleet(2022, 1);
    let source_history = daemon.history("acme").unwrap();

    let genesis = daemon.clone_tenant("acme", "acme-whatif").unwrap();
    assert_eq!(genesis.epoch, EPOCHS - 1, "clone forks at the head epoch");
    let fork = daemon.history("acme-whatif").unwrap();
    assert_eq!(fork.len(), 1, "point-in-time snapshot carries no history");
    assert_eq!(
        fork[0].report_key,
        source_history.last().unwrap().report_key
    );

    // The what-if: re-audit the fork one epoch ahead. The warm pack
    // serves undrifted bots and the delta diffs against the fork point.
    let handle = daemon
        .submit(
            JobSpec::new("acme-whatif"),
            job(daemon.obs(), 2022, PlatformKind::Discord, EPOCHS),
        )
        .unwrap();
    daemon.run_until(100_000);
    let outcome = daemon.resolve(handle).expect("settled");
    assert!(
        outcome.artifact_hits > 0,
        "clone must inherit the warm pack"
    );
    let delta = outcome.delta.expect("fork point is the baseline");
    assert_eq!((delta.prev_epoch, delta.epoch), (EPOCHS - 1, EPOCHS));

    // The source chain never noticed.
    assert_eq!(daemon.history("acme").unwrap(), source_history);
}

/// One tenant through epochs 0–3, compacted to its last generation after
/// epoch 2, in one daemon or in a fresh daemon over the same root before
/// every epoch: each outcome's report, delta, and artifact hits and misses.
///
/// The tenant samples 3, 4, 4, then 3 honeypot bots, which moves the run
/// fingerprint and with it every artifact address. Epoch 3 thus returns to
/// epoch 0's addresses, which compaction dropped: a held index that kept
/// them would report hits where a restarted daemon misses. Epochs 1 and 2
/// share a validator cache; epochs 1 and 3 reopen it for a new
/// fingerprint.
fn held_or_restarted(restart_every_epoch: bool) -> Vec<String> {
    let root: Arc<dyn Backend> = Arc::new(MemBackend::new());
    let mut daemon = fleet(1, Arc::clone(&root));
    let mut outcomes = Vec::new();
    for (epoch, sample) in [3, 4, 4, 3].into_iter().enumerate() {
        let epoch = epoch as u32;
        if restart_every_epoch {
            daemon = fleet(1, Arc::clone(&root));
        }
        let audit = Audit::builder()
            .scale(BOTS)
            .seed(2022)
            .honeypot_sample(sample)
            .site_defenses(false)
            .drift(DriftConfig::default())
            .epoch(epoch)
            .obs(daemon.obs().clone())
            .into_job()
            .expect("valid job");
        let handle = daemon
            .submit(JobSpec::new("acme"), audit)
            .expect("admitted");
        daemon.run_until(daemon.clock().now_millis() + 2_000);
        let outcome = daemon.resolve(handle).expect("settled");
        outcomes.push(format!(
            "epoch {epoch}: {} hits, {} misses\n{}\n{}",
            outcome.artifact_hits,
            outcome.artifact_misses,
            serde_json::to_string(outcome.report.as_ref().expect("audit completes")).unwrap(),
            serde_json::to_string(&outcome.delta).unwrap(),
        ));
        if epoch == 2 {
            daemon.compact_tenant("acme", 1).expect("compaction");
        }
    }
    outcomes
}

#[test]
fn held_tenant_files_match_a_restart_before_every_epoch() {
    let held = held_or_restarted(false);
    assert!(held[3].contains("\"prev_epoch\":2"), "{}", held[3]);
    assert!(
        held[3].starts_with(&format!("epoch 3: 0 hits, {BOTS} misses")),
        "compaction dropped every address epoch 3 looks up: {}",
        &held[3][..40]
    );
    let restarted = held_or_restarted(true);
    for (held, restarted) in held.iter().zip(&restarted) {
        assert_eq!(held, restarted);
    }
}
