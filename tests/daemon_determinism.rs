//! The always-on fleet daemon regression tier.
//!
//! Four contracts, one layer up from `sched_determinism.rs`:
//!
//! 1. Under a bursty adversarial arrival plan — a flooding batch tenant,
//!    equal-weight steady tenants, interactive preemption pokes, and
//!    just-missable deadlines — every observable output of the daemon
//!    loop (outcomes, deltas, expiry reasons, the canonical `sched.*`
//!    trace *and* metrics) is byte-identical at 1 vs 4 workers, pinned
//!    for seeds 2022 and 7. The run must expire at least one deadline
//!    (with the typed count matching `sched.expired`) and force at least
//!    one cooperative preemption.
//! 2. Deficit round-robin keeps the service gap between the equal-weight
//!    backlogged tenants within the configured bound.
//! 3. Lane-inversion regression: a parked-then-resumed batch chain still
//!    honors same-tenant submission order when a same-tenant interactive
//!    job arrives mid-park — the epoch-1 re-audit must find the warm
//!    pack its parked predecessor was still writing.
//! 4. A sliced, parked-and-resumed batch audit produces a report
//!    byte-identical to the unsliced shutdown drain.
//! 5. A parked batch audit resumes from the world, crawl and store its job
//!    holds: at every slice budget, and through a shutdown drain, a
//!    re-audit settles with the unsliced report, artifact counts, crawl
//!    requests, campaign and chain record, and the next epoch reuses every
//!    guild after compaction, on Discord and on Telegram.

use chatbot_audit::{Audit, AuditJob, ErrorKind, FleetDaemon, FleetDaemonConfig, ShutdownMode};
use netsim::{Clock, SimDuration, VirtualClock};
use obs::{JsonRecorder, Obs};
use platform::PlatformKind;
use sched::JobSpec;
use std::sync::Arc;
use store::MemBackend;
use synth::{adversarial_arrivals, ArrivalConfig, DriftConfig};

const BOTS: usize = 20;

fn job(seed: u64, epoch: u32) -> AuditJob {
    Audit::builder()
        .scale(BOTS)
        .seed(seed)
        .honeypot_sample(3)
        .site_defenses(false)
        .drift(DriftConfig::default())
        .epoch(epoch)
        .into_job()
        .expect("valid job")
}

fn daemon_config(workers: usize) -> FleetDaemonConfig {
    FleetDaemonConfig {
        workers,
        quantum: 1,
        batch_slice_frames: Some(4),
        tick_ms: 10,
        ..FleetDaemonConfig::default()
    }
}

/// Drive one daemon through the adversarial plan and dump every
/// observable: outcome stream (reports, typed expiries, deltas, hit
/// counters), the canonical `sched.*` span trace, and the canonical
/// `sched.*` metrics.
fn daemon_dump(seed: u64, workers: usize) -> (String, String, String) {
    let recorder = Arc::new(JsonRecorder::new());
    let clock = VirtualClock::new();
    let obs = Obs::with_recorder(recorder.clone(), Arc::new(clock.clone()));
    let daemon = FleetDaemon::with_obs(
        daemon_config(workers),
        Arc::new(MemBackend::new()),
        clock,
        obs,
    );

    let plan = adversarial_arrivals(&ArrivalConfig {
        seed,
        rounds: 3,
        ..ArrivalConfig::default()
    });
    for arrival in &plan {
        daemon.run_until(arrival.at_ms);
        let mut spec = JobSpec::builder(arrival.tenant.as_str())
            .lane_named(arrival.lane)
            .weight(arrival.weight);
        if let Some(deadline) = arrival.deadline_ms {
            spec = spec.deadline_ms(deadline);
        }
        let spec = spec.build().expect("plan produces valid specs");
        daemon
            .submit(spec, job(seed, arrival.epoch))
            .expect("plan fits the queue");
    }
    // Settle everything: the flooder's backlog needs many ticks (each
    // job is sliced and the tenant chain earns one slot per tick).
    let horizon = plan.last().expect("plan is non-empty").at_ms + 4_000;
    daemon.run_until(horizon);
    assert_eq!(daemon.queued(), 0, "horizon must drain the backlog");

    let outcomes = daemon.poll_outcomes();
    let mut expired = 0u64;
    let mut dump = String::new();
    for outcome in outcomes {
        dump.push_str(&format!(
            "id={} tenant={} epoch={} wait={} hits={} misses={} ",
            outcome.id,
            outcome.tenant,
            outcome.epoch,
            outcome.wait_ms,
            outcome.artifact_hits,
            outcome.artifact_misses,
        ));
        match &outcome.report {
            Ok(report) => {
                dump.push_str(&serde_json::to_string(report).expect("report serializes"));
            }
            Err(e) => {
                if e.kind() == ErrorKind::Expired {
                    expired += 1;
                }
                dump.push_str(&format!("error[{}]: {e}", e.kind()));
            }
        }
        dump.push('\n');
        if let Some(delta) = &outcome.delta {
            dump.push_str(&serde_json::to_string(delta).expect("delta serializes"));
            dump.push('\n');
        }
    }

    assert!(expired >= 1, "the plan must expire at least one deadline");
    assert_eq!(
        daemon.obs().counter_value("sched.expired"),
        expired,
        "typed expiry outcomes must match the sched.expired counter"
    );
    assert!(
        daemon.obs().counter_value("sched.parked") >= 1,
        "the flooder's sliced batch audits must park at least once"
    );
    // All plan tenants carry weight 1, so the DRR service-gap bound for
    // backlogged equal-weight tenants is quantum × weight = quantum.
    let bound = u64::from(daemon.config().quantum);
    assert!(
        daemon.fairness_gap() <= bound,
        "equal-weight service gap {} exceeded the DRR bound {bound}",
        daemon.fairness_gap()
    );

    let metrics = daemon.obs().canonical_metrics("sched.");
    (dump, recorder.canonical_trace(), metrics)
}

#[test]
fn daemon_outputs_are_worker_count_independent_for_seed_2022() {
    let (serial_dump, serial_trace, serial_metrics) = daemon_dump(2022, 1);
    assert!(
        serial_trace.contains("\"name\":\"sched.tick\""),
        "trace must contain sched.tick spans"
    );
    assert!(
        serial_trace.contains("\"name\":\"sched.job\""),
        "trace must contain keyed sched.job spans"
    );
    assert!(
        serial_metrics.contains("sched.expired=") && serial_metrics.contains("sched.parked="),
        "canonical metrics must cover expiry and preemption:\n{serial_metrics}"
    );
    let (parallel_dump, parallel_trace, parallel_metrics) = daemon_dump(2022, 4);
    assert_eq!(parallel_dump, serial_dump, "workers=4 outputs diverged");
    assert_eq!(parallel_trace, serial_trace, "workers=4 trace diverged");
    assert_eq!(
        parallel_metrics, serial_metrics,
        "workers=4 metrics diverged"
    );
}

#[test]
fn daemon_outputs_are_worker_count_independent_for_seed_7() {
    let (serial_dump, serial_trace, serial_metrics) = daemon_dump(7, 1);
    let (parallel_dump, parallel_trace, parallel_metrics) = daemon_dump(7, 4);
    assert_eq!(parallel_dump, serial_dump, "workers=4 outputs diverged");
    assert_eq!(parallel_trace, serial_trace, "workers=4 trace diverged");
    assert_eq!(
        parallel_metrics, serial_metrics,
        "workers=4 metrics diverged"
    );
}

#[test]
fn parked_batch_blocks_same_tenant_interactive_submitted_mid_park() {
    for workers in [1, 4] {
        let daemon = FleetDaemon::new(daemon_config(workers));
        let batch_spec = JobSpec::builder("acme")
            .lane_named("batch")
            .build()
            .expect("valid spec");
        let baseline = daemon.submit(batch_spec, job(2022, 0)).expect("admitted");

        // One tick: the batch audit runs its first slice and parks.
        assert!(daemon.tick().is_empty(), "first slice must not settle");
        assert!(daemon.resolve(baseline).is_none());
        assert_eq!(daemon.queued(), 1, "the parked job stays queued");

        // Mid-park, the same tenant submits an interactive re-audit of
        // the next epoch. Its lane would win any dispatch sort — but the
        // same-tenant contract must hold: the parked epoch-0 audit
        // finishes first, so the epoch-1 job finds a warm pack and a
        // previous report to diff.
        let followup = daemon
            .submit(
                JobSpec::builder("acme")
                    .lane_named("interactive")
                    .build()
                    .expect("valid spec"),
                job(2022, 1),
            )
            .expect("admitted");

        let horizon = daemon.clock().now_millis() + 2_000;
        let settled = daemon.run_until(horizon);
        assert_eq!(
            settled,
            vec![baseline, followup],
            "workers={workers}: parked batch must settle before the \
             interactive job submitted mid-park"
        );
        let first = daemon.resolve(baseline).expect("baseline settled");
        assert!(first.report.is_ok());
        assert!(first.delta.is_none());
        let second = daemon.resolve(followup).expect("follow-up settled");
        assert!(second.report.is_ok());
        assert!(
            second.delta.is_some(),
            "workers={workers}: the re-audit must diff the parked \
             predecessor's report"
        );
        assert!(
            second.artifact_hits > 0,
            "workers={workers}: the re-audit must hit the warm pack the \
             parked audit wrote"
        );
    }
}

#[test]
fn sliced_batch_audit_matches_legacy_unsliced_drain_byte_for_byte() {
    // Reference: a shutdown drain, which runs the audit unsliced.
    let unsliced = FleetDaemon::new(FleetDaemonConfig::default());
    unsliced
        .submit(JobSpec::new("acme"), job(2022, 0))
        .expect("admitted");
    let reference = unsliced
        .shutdown(ShutdownMode::Drain)
        .outcomes
        .remove(0)
        .report
        .expect("unsliced audit completes");

    // Daemon with an aggressive 4-write slice: the same audit parks and
    // resumes from the store its job holds many times.
    let daemon = FleetDaemon::new(FleetDaemonConfig {
        batch_slice_frames: Some(4),
        ..daemon_config(1)
    });
    let handle = daemon
        .submit(
            JobSpec::builder("acme")
                .lane_named("batch")
                .build()
                .expect("valid spec"),
            job(2022, 0),
        )
        .expect("admitted");
    daemon.run_until(2_000);
    let sliced = daemon
        .resolve(handle)
        .expect("sliced audit settles")
        .report
        .expect("sliced audit completes");
    assert!(
        daemon.obs().counter_value("sched.parked") >= 2,
        "a 4-frame slice must park the audit repeatedly"
    );
    assert_eq!(
        serde_json::to_string(&sliced).unwrap(),
        serde_json::to_string(&reference).unwrap(),
        "parked-and-resumed audit diverged from the unsliced drain"
    );
}

/// How [`reaudit`] runs its epoch-3 batch job.
#[derive(Debug, Clone, Copy)]
enum Slicing {
    /// No slice budget: the job runs in one dispatch.
    Unsliced,
    /// Sliced at this many durable writes and ticked until it settles.
    Budget(u64),
    /// Sliced at 2 durable writes, parked on this many ticks, then
    /// finished by a shutdown drain.
    DrainAfter(u32),
}

/// What a re-audit settled with: its report, the outcome's artifact hits
/// and misses, the registry's, the `crawl.validated` and
/// `crawl.fetched_full` requests it made, the honeypot guilds it reused
/// and messages it posted (a campaign run twice shows in both), and the
/// artifact keys its chain record pins — then how many guilds the next
/// epoch reuses once compaction keeps only those keys.
#[derive(Debug, PartialEq)]
struct Reaudit {
    report: String,
    outcome_counts: (u64, u64),
    registry_counts: (u64, u64),
    crawl: (u64, u64),
    honeypot: (u64, u64),
    artifact_keys: Vec<String>,
    next_epoch_guilds_reused: u64,
}

/// A tenant's epoch-0 audit, then its epoch-3 re-audit as a batch job run
/// as `slicing` says, every audit reporting through `obs`.
fn reaudit(platform: PlatformKind, obs: &Obs, slicing: Slicing) -> Reaudit {
    let job = |epoch| {
        Audit::builder()
            .scale(30)
            .seed(2022)
            .platform(platform)
            .honeypot_sample(4)
            .site_defenses(false)
            .drift(DriftConfig::default())
            .epoch(epoch)
            .obs(obs.clone())
            .into_job()
            .expect("valid job")
    };
    let config = FleetDaemonConfig {
        batch_slice_frames: match slicing {
            Slicing::Unsliced => None,
            Slicing::Budget(frames) => Some(frames),
            Slicing::DrainAfter(_) => Some(2),
        },
        ..daemon_config(1)
    };
    let root = Arc::new(MemBackend::new());
    let daemon = FleetDaemon::with_backend(config, root.clone());
    daemon
        .submit(JobSpec::new("acme"), job(0))
        .expect("admitted");
    daemon.run_until(100);
    assert_eq!(daemon.queued(), 0, "epoch 0 settled");
    let counters = || {
        [
            "store.artifacts.hits",
            "store.artifacts.misses",
            "crawl.validated",
            "crawl.fetched_full",
            "honeypot.guilds_reused",
            "honeypot.messages_posted",
        ]
        .map(|name| obs.counter_value(name))
    };
    let before = counters();
    let batch = JobSpec::builder("acme")
        .lane_named("batch")
        .build()
        .expect("valid spec");
    let handle = daemon.submit(batch, job(3)).expect("admitted");
    let parked = |daemon: &FleetDaemon| daemon.obs().counter_value("sched.parked");
    let (outcome, daemon) = match slicing {
        Slicing::DrainAfter(ticks) => {
            for _ in 0..ticks {
                assert!(daemon.tick().is_empty(), "{slicing:?}: the slice parks");
                daemon.clock().advance(SimDuration::from_millis(10));
            }
            assert_eq!(parked(&daemon), u64::from(ticks), "{slicing:?}");
            let outcome = daemon.shutdown(ShutdownMode::Drain).outcomes.pop();
            // A drain ends the daemon: restart one over the same files.
            (outcome, FleetDaemon::with_backend(config, root))
        }
        _ => {
            daemon.run_until(daemon.clock().now_millis() + 2_000);
            let sliced = matches!(slicing, Slicing::Budget(_));
            assert_eq!(parked(&daemon) > 0, sliced, "{slicing:?}");
            (daemon.resolve(handle), daemon)
        }
    };
    let outcome = outcome.expect("the re-audit settles");
    let after = counters();
    let delta = |i: usize| after[i] - before[i];
    let record = daemon
        .history("acme")
        .expect("history reads")
        .pop()
        .expect("the re-audit committed");
    assert_eq!(record.epoch, 3);

    // Compaction keeps only the re-audit's keys; the next epoch must find
    // every guild transcript among them.
    daemon.compact_tenant("acme", 1).expect("compacts");
    daemon
        .submit(JobSpec::new("acme"), job(4))
        .expect("admitted");
    daemon.run_until(daemon.clock().now_millis() + 2_000);
    assert_eq!(daemon.queued(), 0, "epoch 4 settled");
    Reaudit {
        report: serde_json::to_string(&outcome.report.expect("the re-audit completes"))
            .expect("report serializes"),
        outcome_counts: (outcome.artifact_hits, outcome.artifact_misses),
        registry_counts: (delta(0), delta(1)),
        crawl: (delta(2), delta(3)),
        honeypot: (delta(4), delta(5)),
        artifact_keys: record.artifact_keys,
        next_epoch_guilds_reused: obs.counter_value("honeypot.guilds_reused") - after[4],
    }
}

#[test]
fn parked_batch_reaudits_resume_from_their_held_world_and_crawl() {
    let obs = Obs::disabled();
    for platform in PlatformKind::ALL {
        let unsliced = reaudit(platform, &obs, Slicing::Unsliced);
        assert_eq!(
            unsliced.registry_counts, unsliced.outcome_counts,
            "{platform}: the registry counts what the outcome does"
        );
        assert!(
            unsliced.crawl.0 > 0,
            "{platform}: a warm re-audit validates"
        );
        assert_eq!(
            unsliced.next_epoch_guilds_reused, 4,
            "{platform}: the next epoch reuses every guild after compaction"
        );
        let sweep = (1..=8)
            .map(Slicing::Budget)
            .chain([Slicing::DrainAfter(1), Slicing::DrainAfter(3)]);
        for slicing in sweep {
            assert_eq!(
                reaudit(platform, &obs, slicing),
                unsliced,
                "{platform} {slicing:?}: a sliced re-audit must settle with the \
                 unsliced report, counts, crawl requests and campaign"
            );
        }
    }
}
