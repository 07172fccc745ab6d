//! Fleet scheduling: three tenants re-auditing a drifting ecosystem.
//!
//! ```sh
//! cargo run --example fleet_audit
//! ```
//!
//! Each tenant owns a world (different seed), submits an epoch-0 baseline
//! audit, then a month later re-audits epoch 1 of the same world. The
//! always-on fleet daemon runs every job over one shared worker pool,
//! journals each tenant into a private scoped store, and diffs every
//! re-audit against the tenant's previous report. The interesting outputs
//! are the [`DeltaReport`]s — who drifted, whose traceability flipped,
//! who gained permissions — and the artifact-pack hit counters showing
//! the re-audit only re-analyzed the drifted bots.
//!
//! This example drives the redesigned service API end to end: validated
//! submission via [`JobSpec::builder`] returning typed [`JobHandle`]s,
//! the [`FleetDaemon::run_until`] tick loop on the virtual clock,
//! outcome claiming via [`FleetDaemon::resolve`], and a clean
//! [`ShutdownMode::Drain`] at the end.
//!
//! [`JobHandle`]: chatbot_audit::JobHandle
//! [`FleetDaemon::run_until`]: chatbot_audit::FleetDaemon::run_until
//! [`FleetDaemon::resolve`]: chatbot_audit::FleetDaemon::resolve
//! [`ShutdownMode::Drain`]: chatbot_audit::ShutdownMode::Drain

use chatbot_audit::{Audit, AuditJob, DeltaReport, FleetDaemon, FleetDaemonConfig, ShutdownMode};
use netsim::Clock;
use sched::JobSpec;
use synth::DriftConfig;

const SCALE: usize = 150;

/// Elevated churn so a small world reliably shows a traceability flip.
fn drift() -> DriftConfig {
    DriftConfig {
        policy_churn: 0.25,
        github_churn: 0.15,
        ..DriftConfig::default()
    }
}

fn job(seed: u64, epoch: u32) -> AuditJob {
    Audit::builder()
        .scale(SCALE)
        .seed(seed)
        .honeypot_sample(15)
        .site_defenses(false)
        .drift(drift())
        .epoch(epoch)
        .into_job()
        .expect("valid audit config")
}

fn main() {
    let tenants: [(&str, u64, &str); 3] = [
        ("acme-trust", 2022, "interactive"),
        ("beta-labs", 7, "standard"),
        ("cyber-sec", 41, "batch"),
    ];

    let daemon = FleetDaemon::new(FleetDaemonConfig {
        workers: 4,
        ..FleetDaemonConfig::default()
    });

    println!("=== fleet audit: 3 tenants x 2 epochs ===\n");

    // Epoch 0: every tenant's baseline audit (cold stores, no deltas).
    println!("[epoch 0] baseline audits");
    let mut handles = Vec::new();
    for (tenant, seed, lane) in tenants {
        let spec = JobSpec::builder(tenant)
            .lane_named(lane)
            .build()
            .expect("valid spec");
        handles.push(daemon.submit(spec, job(seed, 0)).expect("queue has room"));
    }
    // Generous horizon: the batch tenant's audit is sliced into 8-write
    // chunks (cooperative preemption), so it needs a few dozen ticks.
    let horizon = daemon.clock().now_millis() + 400;
    daemon.run_until(horizon);
    for handle in handles.drain(..) {
        let outcome = daemon.resolve(handle).expect("baseline settled");
        let report = outcome.report.as_ref().expect("audit completes");
        println!(
            "  {:<10} {:>4} bots audited, {} analyses computed cold",
            outcome.tenant,
            report.bots.len(),
            outcome.artifact_misses,
        );
    }

    // Epoch 1: the ecosystem drifted; every tenant re-audits.
    println!("\n[epoch 1] incremental re-audits against each tenant's warm pack");
    for (tenant, seed, lane) in tenants {
        let spec = JobSpec::builder(tenant)
            .lane_named(lane)
            .build()
            .expect("valid spec");
        handles.push(daemon.submit(spec, job(seed, 1)).expect("queue has room"));
    }
    let horizon = daemon.clock().now_millis() + 400;
    daemon.run_until(horizon);

    let mut flips = 0usize;
    for handle in handles.drain(..) {
        let outcome = daemon.resolve(handle).expect("re-audit settled");
        outcome.report.as_ref().expect("re-audit completes");
        let delta: &DeltaReport = outcome.delta.as_ref().expect("epoch 1 diffs epoch 0");
        // A sliced batch audit counts every analysis once, through the
        // store its slices share.
        println!(
            "  {:<10} warm pack served {}/{} analyses; {} recomputed",
            outcome.tenant,
            outcome.artifact_hits,
            outcome.artifact_hits + outcome.artifact_misses,
            outcome.artifact_misses,
        );
        println!("             delta: {}", delta.summary());
        println!(
            "             drift split: {} crawl-visible (full page refetches), {} analysis-only (pages 304'd, honeypot re-run)",
            delta.crawl_visible().len(),
            delta.analysis_only().len(),
        );
        for t in &delta.traceability_transitions {
            println!(
                "             traceability flip: {} {:?} -> {:?}",
                t.name, t.from, t.to
            );
        }
        for p in delta.permission_changes.iter().take(2) {
            println!(
                "             permission creep: {} gained {:?}",
                p.name, p.added
            );
        }
        for d in &delta.new_detections {
            println!("             honeypot: {d} started leaking");
        }
        flips += delta.traceability_transitions.len();
    }

    // Epochs 2 and 3: keep the fleet drifting so the longitudinal views
    // below have a real time series to answer from.
    println!("\n[epochs 2-3] the fleet keeps re-auditing on its cadence");
    for epoch in 2..4u32 {
        for (tenant, seed, lane) in tenants {
            let spec = JobSpec::builder(tenant)
                .lane_named(lane)
                .build()
                .expect("valid spec");
            handles.push(daemon.submit(spec, job(seed, epoch)).expect("room"));
        }
        let horizon = daemon.clock().now_millis() + 400;
        daemon.run_until(horizon);
    }
    for handle in handles.drain(..) {
        let outcome = daemon.resolve(handle).expect("settled");
        outcome.report.as_ref().expect("re-audit completes");
    }

    // The longitudinal oplog: every question below is answered from each
    // tenant's persisted epoch chain — zero audits are replayed.
    println!("\n=== longitudinal oplog: 4 committed epochs per tenant ===");
    for (tenant, _, _) in tenants {
        let trends = daemon.trends(tenant).expect("chain");
        println!("  {tenant:<10} epochs {:?}", trends.epochs());
        for flipper in trends.flipped_at_least(2) {
            println!(
                "             {} flipped traceability {}x: {}",
                flipper.bot,
                flipper.flips,
                flipper.path.join(" -> ")
            );
        }
        let creep = trends.permission_creep();
        println!(
            "             cumulative permission creep since epoch 0: +{} / -{} across {} bots",
            creep.total_added,
            creep.total_removed,
            creep.by_bot.len()
        );
    }
    println!("  fleet-wide drift curves (per platform, per epoch):");
    for curve in daemon.fleet_trends().expect("fleet") {
        let drifted: Vec<u32> = curve.points.iter().map(|p| p.drifted).collect();
        println!(
            "             {:<10} {} tenant(s), drifted by epoch: {drifted:?}",
            curve.platform, curve.tenants
        );
    }

    // Generational compaction: artifacts referenced only by epochs older
    // than the last two generations are dropped; the views above keep
    // answering identically from the surviving chain.
    println!("\n=== generational pack compaction (keep last 2 epochs) ===");
    let reference = daemon.trends("acme-trust").expect("chain").canonical_json();
    for (tenant, _, _) in tenants {
        let outcome = daemon.compact_tenant(tenant, 2).expect("compaction");
        println!(
            "  {tenant:<10} reclaimed {} bytes ({} blobs dropped, {} live)",
            outcome.reclaimed_bytes(),
            outcome.dropped_blobs,
            outcome.live_blobs,
        );
    }
    assert_eq!(
        daemon.trends("acme-trust").expect("chain").canonical_json(),
        reference,
        "compaction must never change a trend answer"
    );

    // What-if clone: snapshot acme-trust at its head epoch (state, not
    // history) and re-audit the next epoch in the fork — the original
    // tenant's chain never notices.
    println!("\n=== what-if clone of acme-trust ===");
    let genesis = daemon
        .clone_tenant("acme-trust", "acme-whatif")
        .expect("fresh fork");
    println!("  forked at epoch {} (chain length 1)", genesis.epoch);
    let spec = JobSpec::builder("acme-whatif")
        .lane_named("interactive")
        .build()
        .expect("valid spec");
    let handle = daemon.submit(spec, job(2022, 4)).expect("room");
    let horizon = daemon.clock().now_millis() + 400;
    daemon.run_until(horizon);
    let outcome = daemon.resolve(handle).expect("what-if settled");
    let delta = outcome.delta.as_ref().expect("fork point is the baseline");
    println!(
        "  what-if epoch 4: {} warm hits, delta vs fork point: {}",
        outcome.artifact_hits,
        delta.summary()
    );
    assert_eq!(
        daemon.history("acme-trust").expect("chain").len(),
        4,
        "the source chain is untouched by the fork"
    );

    let report = daemon.shutdown(ShutdownMode::Drain);
    assert!(report.outcomes.is_empty(), "every outcome already claimed");
    assert!(report.abandoned.is_empty(), "nothing left queued");

    if flips == 0 {
        println!("\nVERDICT: no traceability flip surfaced — drift model regressed");
        std::process::exit(1);
    }
    println!(
        "\nVERDICT: {flips} traceability flips surfaced across the fleet; every \
         re-audit was incremental (warm pack hits above)"
    );
}
