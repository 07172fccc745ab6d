//! The three workloads, end to end.
//!
//! Everything here goes through the stable surfaces only: audits are
//! built with `Audit::builder()` and fleets run on a `FleetDaemon`. The
//! traced run swaps in the [`Probe`] from `layers`, which times the same
//! calls from outside; nothing in this module reaches below the facade.

use crate::layers;
use crate::measure::{median, ms, tail, Outcome, PeakRss};
use chatbot_audit::{
    validate_against_truth, Audit, AuditBuilder, AuditError, AuditJob, AuditedBot, CanonicalReport,
    ErrorKind, FleetDaemon, FleetDaemonConfig, JobHandle, PlatformKind,
};
use sched::JobSpec;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;
use synth::{ArrivalConfig, DriftConfig};

/// Worker threads for every workload: the audit pools on `paper_cold`,
/// the daemon's pool on the fleet workloads.
pub const WORKERS: usize = 2;

/// The batch workload's scheduler settings (the adversarial-load plan's).
pub const BATCH_QUANTUM: u32 = 1;
pub const BATCH_SLICE_FRAMES: u64 = 6;
pub const BATCH_TICK_MS: u64 = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    PaperCold,
    FleetLongitudinal,
    BatchPreempt,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::PaperCold,
        Workload::FleetLongitudinal,
        Workload::BatchPreempt,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperCold => "paper_cold",
            Workload::FleetLongitudinal => "fleet_longitudinal",
            Workload::BatchPreempt => "batch_preempt",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// What each generic end-to-end metric means on this workload.
    pub fn aliases(self) -> &'static [(&'static str, &'static str)] {
        match self {
            Workload::PaperCold => &[
                ("wall_s", "cold_audit_s"),
                ("audits_per_s", "cold audits per second"),
                ("latency_p50_ms", "cold_audit_ms p50"),
                ("latency_tail_ms", "cold_audit_ms tail"),
            ],
            Workload::FleetLongitudinal => &[
                ("wall_s", "reaudit_s"),
                ("audits_per_s", "fleet_audits_per_s"),
                ("latency_p50_ms", "trend_p50_ms"),
                ("latency_tail_ms", "trend_tail_ms"),
            ],
            Workload::BatchPreempt => &[
                ("wall_s", "preempt_makespan_s"),
                ("audits_per_s", "settled jobs per makespan second"),
                ("latency_p50_ms", "fg_latency_p50_ms"),
                ("latency_tail_ms", "fg_latency_tail_ms"),
            ],
        }
    }
}

/// Input sizes. [`Sizes::full`] is the benchmark; [`Sizes::smoke`] is a
/// tiny world that exercises every code path in well under a second.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub paper_listings: usize,
    pub paper_honeypot: usize,
    pub fleet_listings: usize,
    pub fleet_honeypot: usize,
    pub fleet_epochs: u32,
    pub fleet_gap_ms: u64,
    pub fleet_queries: usize,
    pub batch_listings: usize,
    pub batch_honeypot: usize,
    pub warmup_listings: usize,
    pub setup_reps: usize,
    /// Overrides the bot count every report is checked against (the
    /// smoke test plants a wrong one to prove the check bites).
    pub expect_bots: Option<usize>,
}

impl Sizes {
    pub fn full() -> Sizes {
        Sizes {
            paper_listings: 20_915,
            paper_honeypot: 500,
            fleet_listings: 2_000,
            fleet_honeypot: 50,
            fleet_epochs: 6,
            fleet_gap_ms: 30_000,
            fleet_queries: 120,
            batch_listings: 70,
            batch_honeypot: 5,
            warmup_listings: 60,
            setup_reps: 5,
            expect_bots: None,
        }
    }

    pub fn smoke() -> Sizes {
        Sizes {
            paper_listings: 60,
            paper_honeypot: 5,
            fleet_listings: 40,
            fleet_honeypot: 4,
            fleet_epochs: 3,
            fleet_gap_ms: 1_000,
            fleet_queries: 12,
            batch_listings: 12,
            batch_honeypot: 2,
            warmup_listings: 20,
            setup_reps: 2,
            expect_bots: None,
        }
    }

    fn expected(&self, listings: usize) -> usize {
        self.expect_bots.unwrap_or(listings)
    }
}

/// One benchmark invocation.
#[derive(Debug, Clone, Copy)]
pub struct Run {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub sizes: Sizes,
}

impl Run {
    /// The seed of scenario `i` within this run: every fleet scenario
    /// draws fresh worlds, so a run's figures average over many inputs
    /// rather than resting on one seed's world.
    pub fn scenario_seed(&self, i: usize) -> u64 {
        netsim::splitmix(self.seed, i as u64)
    }
}

/// Call `round` back to back until `seconds` have passed (at least once).
pub fn for_seconds(seconds: f64, mut round: impl FnMut(usize)) {
    let t0 = Instant::now();
    for i in 0.. {
        round(i);
        if t0.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
}

/// Timed set-ups: `setup_reps` before the first round, then one more
/// between rounds, so the samples span the whole run; `setup_s` is their
/// median.
struct SetupTimes(Vec<f64>);

impl SetupTimes {
    fn time<T>(&mut self, prepare: &mut impl FnMut() -> T) -> T {
        let t0 = Instant::now();
        let prepared = prepare();
        self.0.push(t0.elapsed().as_secs_f64());
        prepared
    }

    fn initial<T>(run: &Run, prepare: &mut impl FnMut() -> T) -> (SetupTimes, T) {
        let mut times = SetupTimes(Vec::new());
        for _ in 1..run.sizes.setup_reps {
            std::hint::black_box(times.time(prepare));
        }
        let prepared = times.time(prepare);
        (times, prepared)
    }
}

/// Run the workload untraced and report its end-to-end metrics.
pub fn end_to_end(run: &Run) -> Outcome {
    let mut out = Outcome::default();
    let mut rss = PeakRss::default();
    let (headline, setup) = match run.workload {
        Workload::PaperCold => {
            let mut prepare = || {
                warm_up_audit(run);
                paper_audit(run)
            };
            let (mut setup, audit) = SetupTimes::initial(run, &mut prepare);
            let mut rounds = PaperRounds::default();
            for_seconds(run.seconds, |i| {
                if i > 0 {
                    std::hint::black_box(setup.time(&mut prepare));
                }
                PeakRss::reset();
                paper_round(run, &audit, &mut rounds, &mut out);
                rss.round_done();
            });
            check_paper_truth(&audit, &rounds, &mut out);
            let samples: Vec<f64> = rounds.round_s.iter().map(|s| s * 1e3).collect();
            out.set("wall_s", median(&rounds.round_s));
            out.set(
                "audits_per_s",
                rounds.round_s.len() as f64 / rounds.round_s.iter().sum::<f64>(),
            );
            latency_metrics(&mut out, &samples, "cold audit");
            (rounds.round_s, setup)
        }
        Workload::FleetLongitudinal => {
            let mut prepare = || fleet_warmup(run);
            let (mut setup, ()) = SetupTimes::initial(run, &mut prepare);
            let mut fleet = FleetTotals::default();
            for_seconds(run.seconds, |i| {
                if i > 0 {
                    setup.time(&mut prepare);
                }
                PeakRss::reset();
                fleet.absorb(fleet_scenario(
                    run,
                    run.scenario_seed(i),
                    &mut Untraced,
                    &mut out,
                ));
                rss.round_done();
            });
            out.set("wall_s", median(&fleet.reaudit_s));
            out.set("audits_per_s", fleet.settled as f64 / fleet.loop_s);
            latency_metrics(&mut out, &fleet.query_ms, "trend query");
            out.note(format!(
                "cold epoch 0 median {:.4} s over {} scenarios",
                median(&fleet.epoch0_s),
                fleet.epoch0_s.len()
            ));
            (fleet.reaudit_s, setup)
        }
        Workload::BatchPreempt => {
            let mut prepare = || batch_warmup(run);
            let (mut setup, ()) = SetupTimes::initial(run, &mut prepare);
            let mut makespans = Vec::new();
            let mut fg_ms = Vec::new();
            let mut settled = 0u64;
            for_seconds(run.seconds, |i| {
                if i > 0 {
                    setup.time(&mut prepare);
                }
                PeakRss::reset();
                let batch = batch_scenario(run, run.scenario_seed(i), &mut Untraced, &mut out);
                rss.round_done();
                makespans.push(batch.makespan_s);
                fg_ms.extend(batch.fg_ms);
                settled += batch.settled;
            });
            out.set("wall_s", median(&makespans));
            out.set(
                "audits_per_s",
                settled as f64 / makespans.iter().sum::<f64>(),
            );
            latency_metrics(&mut out, &fg_ms, "foreground job");
            (makespans, setup)
        }
    };
    out.set("setup_s", median(&setup.0));
    out.set("peak_rss_mb", median(&rss.rounds_mb));
    out.note(format!(
        "{} headline samples, median {:.4} s; {} set-ups",
        headline.len(),
        median(&headline),
        setup.0.len()
    ));
    out
}

fn latency_metrics(out: &mut Outcome, samples_ms: &[f64], what: &str) {
    let (tail_ms, at) = tail(samples_ms);
    out.set("latency_p50_ms", median(samples_ms));
    out.set("latency_tail_ms", tail_ms);
    let mut sorted = samples_ms.to_vec();
    sorted.sort_by(f64::total_cmp);
    let deciles: Vec<String> = (1..=10)
        .map(|d| format!("{:.1}", sorted[(d * sorted.len()).div_ceil(10) - 1]))
        .collect();
    out.note(format!(
        "latency_tail_ms is the {what} {at} over n={} samples; deciles {}",
        samples_ms.len(),
        deciles.join(" ")
    ));
}

/// A small audit through the same surface: pages the code in and builds
/// the lazily compiled kernels before anything is timed.
fn warm_up_audit(run: &Run) {
    let audit = Audit::builder()
        .scale(run.sizes.warmup_listings)
        .seed(run.seed)
        .honeypot_sample(2)
        .workers(WORKERS)
        .build()
        .expect("the warm-up audit is valid");
    std::hint::black_box(audit.run().expect("the warm-up audit completes"));
}

// ---- paper_cold --------------------------------------------------------

pub fn paper_audit(run: &Run) -> Audit {
    Audit::builder()
        .scale(run.sizes.paper_listings)
        .seed(run.seed)
        .platform(PlatformKind::Discord)
        .site_defenses(true)
        .honeypot_sample(run.sizes.paper_honeypot)
        .workers(WORKERS)
        .build()
        .expect("the paper-scale audit is valid")
}

#[derive(Default)]
pub struct PaperRounds {
    pub round_s: Vec<f64>,
    /// The first round's report and its digest; later rounds must match.
    pub report: Option<CanonicalReport>,
    pub digest: u64,
}

/// One cold audit, timed and checked.
pub fn paper_round(run: &Run, audit: &Audit, rounds: &mut PaperRounds, out: &mut Outcome) {
    let expected = run.sizes.expected(run.sizes.paper_listings);
    let t = Instant::now();
    let result = audit.run();
    rounds.round_s.push(t.elapsed().as_secs_f64());
    match result {
        Ok(report) => {
            let digest = report_digest(&report);
            out.check(report.bots.len() == expected, || {
                format!(
                    "cold audit found {} bots, expected {expected}",
                    report.bots.len()
                )
            });
            match rounds.report {
                None => {
                    rounds.digest = digest;
                    rounds.report = Some(report);
                }
                Some(_) => out.check(digest == rounds.digest, || {
                    "repeated cold audit changed the report digest".to_string()
                }),
            }
        }
        Err(e) => out.check(false, || format!("cold audit failed: {e}")),
    }
}

pub fn report_digest(report: &CanonicalReport) -> u64 {
    crate::measure::digest(&serde_json::to_vec(report).expect("reports serialize"))
}

/// Score the untraced report against the planted truth (untimed: the
/// world is rebuilt once, after the measured loop).
fn check_paper_truth(audit: &Audit, rounds: &PaperRounds, out: &mut Outcome) {
    let Some(report) = &rounds.report else {
        return;
    };
    let truth = layers::planted_truth(audit);
    let bots: Vec<AuditedBot> = report
        .bots
        .iter()
        .map(layers::audited_from_canonical)
        .collect();
    let detected: Vec<&str> = report
        .honeypot
        .iter()
        .flat_map(|c| c.detections.iter().map(|d| d.bot_name.as_str()))
        .collect();
    out.check(
        detected.iter().all(|name| {
            truth
                .by_name(name)
                .is_some_and(|t| t.behavior != synth::truth::BehaviorClass::Benign)
        }),
        || format!("honeypot accused a benign bot: {detected:?}"),
    );
    out.check(!detected.is_empty(), || {
        "honeypot caught none of the planted misbehavers".to_string()
    });
    check_scores(&validate_against_truth(&bots, &truth, None), out);
}

/// Floor on the analyzers' agreement with the planted truth. Every seed
/// measured, at paper and at smoke scale, scores 1.0 on each of these.
const SCORE_FLOOR: f64 = 0.99;

pub fn check_scores(v: &chatbot_audit::ValidationReport, out: &mut Outcome) {
    let scores = [
        ("invite_validity.recall", v.invite_validity.recall()),
        ("invite_validity.precision", v.invite_validity.precision()),
        ("policy_discovery.recall", v.policy_discovery.recall()),
        ("traceability_agreement", v.traceability_agreement),
        ("repo_resolution.recall", v.repo_resolution.recall()),
        ("check_detection.precision", v.check_detection.precision()),
    ];
    for (name, score) in scores {
        out.check(score >= SCORE_FLOOR, || {
            format!("{name} {score:.4} below the floor {SCORE_FLOOR}")
        });
    }
    let scores: Vec<String> = scores
        .iter()
        .map(|(name, score)| format!("{name} {score:.4}"))
        .collect();
    out.note(format!("truth scores: {}", scores.join(", ")));
}

// ---- the fleet probe ---------------------------------------------------

/// How a fleet workload reaches the daemon. The untraced run uses the
/// daemon as is; the traced run (`layers::Traced`) counts store traffic,
/// times every tick, and shares one metrics registry with every audit.
pub trait Probe {
    fn daemon(&mut self, config: FleetDaemonConfig) -> FleetDaemon;
    fn audit(&self, builder: AuditBuilder) -> AuditBuilder;
    fn run_until(&mut self, daemon: &FleetDaemon, clock_ms: u64) -> Vec<JobHandle>;
    /// Called once an epoch's audits have all settled, before the gap.
    fn epoch_settled(&mut self, _epoch: u32) {}
}

pub struct Untraced;

impl Probe for Untraced {
    fn daemon(&mut self, config: FleetDaemonConfig) -> FleetDaemon {
        FleetDaemon::new(config)
    }

    fn audit(&self, builder: AuditBuilder) -> AuditBuilder {
        builder
    }

    fn run_until(&mut self, daemon: &FleetDaemon, clock_ms: u64) -> Vec<JobHandle> {
        daemon.run_until(clock_ms)
    }
}

fn now_ms(daemon: &FleetDaemon) -> u64 {
    use obs::Clock as _;
    daemon.clock().now_millis()
}

// ---- fleet_longitudinal ------------------------------------------------

pub struct Tenant {
    pub name: String,
    pub platform: PlatformKind,
    pub seed: u64,
}

/// Four tenants, two per platform, each seeded from the workload seed.
pub fn fleet_tenants(seed: u64) -> Vec<Tenant> {
    [PlatformKind::Discord, PlatformKind::Telegram]
        .into_iter()
        .flat_map(|platform| (0..2).map(move |i| (platform, i)))
        .enumerate()
        .map(|(n, (platform, i))| Tenant {
            name: format!("{}-{i}", platform.as_str()),
            platform,
            seed: netsim::splitmix(seed, n as u64 + 1),
        })
        .collect()
}

pub fn fleet_builder(run: &Run, tenant: &Tenant, epoch: u32) -> AuditBuilder {
    Audit::builder()
        .scale(run.sizes.fleet_listings)
        .seed(tenant.seed)
        .platform(tenant.platform)
        .honeypot_sample(run.sizes.fleet_honeypot)
        .site_defenses(false)
        .drift(DriftConfig::default())
        .epoch(epoch)
}

fn fleet_config() -> FleetDaemonConfig {
    FleetDaemonConfig {
        workers: WORKERS,
        ..FleetDaemonConfig::default()
    }
}

/// One daemon, one tenant, one tiny epoch: the fleet warm-up.
fn fleet_warmup(run: &Run) {
    let daemon = FleetDaemon::new(fleet_config());
    let tenant = &fleet_tenants(run.seed)[0];
    let job = fleet_builder(run, tenant, 0)
        .scale(run.sizes.warmup_listings)
        .honeypot_sample(2)
        .into_job()
        .expect("the warm-up job is valid");
    let handle = daemon
        .submit(JobSpec::new(tenant.name.as_str()), job)
        .expect("an idle daemon admits the warm-up");
    daemon.run_until(100);
    std::hint::black_box(daemon.resolve(handle));
}

#[derive(Default)]
pub struct FleetTotals {
    pub reaudit_s: Vec<f64>,
    pub epoch0_s: Vec<f64>,
    pub loop_s: f64,
    pub settled: u64,
    pub query_ms: Vec<f64>,
}

impl FleetTotals {
    pub fn absorb(&mut self, other: FleetTotals) {
        self.reaudit_s.extend(other.reaudit_s);
        self.epoch0_s.extend(other.epoch0_s);
        self.loop_s += other.loop_s;
        self.settled += other.settled;
        self.query_ms.extend(other.query_ms);
    }
}

/// One longitudinal scenario on a fresh daemon: `fleet_epochs` closed-loop
/// epochs (submit every tenant, run until all settle, then an idle gap of
/// virtual time), followed by a closed-loop trend-query phase. Afterwards,
/// untimed, every warm epoch is checked against the drift ledger.
pub fn fleet_scenario(
    run: &Run,
    seed: u64,
    probe: &mut dyn Probe,
    out: &mut Outcome,
) -> FleetTotals {
    let tenants = fleet_tenants(seed);
    let mut misses = BTreeMap::new();
    let expected = run.sizes.expected(run.sizes.fleet_listings);
    let daemon = probe.daemon(fleet_config());
    let mut totals = FleetTotals::default();
    let t_loop = Instant::now();
    for epoch in 0..run.sizes.fleet_epochs {
        let jobs: Vec<AuditJob> = tenants
            .iter()
            .map(|t| {
                probe
                    .audit(fleet_builder(run, t, epoch))
                    .into_job()
                    .expect("fleet jobs are valid")
            })
            .collect();
        let t_epoch = Instant::now();
        let mut handles = Vec::new();
        for (tenant, job) in tenants.iter().zip(jobs) {
            match daemon.submit(JobSpec::new(tenant.name.as_str()), job) {
                Ok(handle) => handles.push(handle),
                Err(e) => out.check(false, || format!("{} epoch {epoch}: {e}", tenant.name)),
            }
        }
        // The first call ticks once at the submission time; later ones
        // step the loop a tick at a time until every tenant settled.
        let mut pending: BTreeSet<JobHandle> = handles.iter().copied().collect();
        let mut target = now_ms(&daemon);
        while !pending.is_empty() {
            for handle in probe.run_until(&daemon, target) {
                pending.remove(&handle);
            }
            target = now_ms(&daemon) + daemon.config().tick_ms;
        }
        let epoch_s = t_epoch.elapsed().as_secs_f64();
        if epoch == 0 {
            totals.epoch0_s.push(epoch_s);
        } else {
            totals.reaudit_s.push(epoch_s);
        }
        for (idx, handle) in handles.into_iter().enumerate() {
            let Some(outcome) = daemon.resolve(handle) else {
                out.check(false, || format!("{handle} settled without an outcome"));
                continue;
            };
            totals.settled += 1;
            match &outcome.report {
                Ok(report) => out.check(report.bots.len() == expected, || {
                    format!(
                        "{} epoch {epoch}: {} bots, expected {expected}",
                        outcome.tenant,
                        report.bots.len()
                    )
                }),
                Err(e) => out.check(false, || format!("{} epoch {epoch}: {e}", outcome.tenant)),
            }
            misses.insert((idx, epoch), outcome.artifact_misses);
        }
        probe.epoch_settled(epoch);
        let gap_end = now_ms(&daemon) + run.sizes.fleet_gap_ms;
        let stray = probe.run_until(&daemon, gap_end);
        out.check(stray.is_empty(), || {
            format!("{} jobs settled during the idle gap", stray.len())
        });
    }
    totals.loop_s = t_loop.elapsed().as_secs_f64();
    totals.query_ms = trend_queries(run, &daemon, &tenants, out);
    check_ledger(run, &tenants, &misses, out);
    totals
}

/// Every trend answer the fleet can give, serialized: the query phase
/// must leave it byte-identical.
fn trend_answers(daemon: &FleetDaemon, tenants: &[Tenant]) -> Result<String, AuditError> {
    let mut answers = String::new();
    for tenant in tenants {
        answers.push_str(&daemon.trends(&tenant.name)?.canonical_json());
        answers.push_str(
            &serde_json::to_string(&daemon.history(&tenant.name)?).expect("records serialize"),
        );
    }
    answers.push_str(&serde_json::to_string(&daemon.fleet_trends()?).expect("curves serialize"));
    Ok(answers)
}

enum Query<'a> {
    Trends(&'a Tenant),
    History(&'a Tenant),
    Fleet,
}

/// Closed loop, one client: `trends` then `history` for each tenant, with
/// `fleet_trends` after every second tenant (a fifth of the queries),
/// timing each query.
fn trend_queries(
    run: &Run,
    daemon: &FleetDaemon,
    tenants: &[Tenant],
    out: &mut Outcome,
) -> Vec<f64> {
    let before = trend_answers(daemon, tenants);
    let mut cycle = Vec::new();
    for (i, tenant) in tenants.iter().enumerate() {
        cycle.extend([Query::Trends(tenant), Query::History(tenant)]);
        if i % 2 == 1 {
            cycle.push(Query::Fleet);
        }
    }
    let mut samples = Vec::with_capacity(run.sizes.fleet_queries);
    for i in 0..run.sizes.fleet_queries {
        let t = Instant::now();
        let answered = match cycle[i % cycle.len()] {
            Query::Trends(tenant) => daemon
                .trends(&tenant.name)
                .map(|q| std::hint::black_box(q).epochs().len()),
            Query::History(tenant) => daemon
                .history(&tenant.name)
                .map(|h| std::hint::black_box(h).len()),
            Query::Fleet => daemon.fleet_trends().map(|c| std::hint::black_box(c).len()),
        };
        samples.push(ms(t.elapsed()));
        match answered {
            Ok(n) => out.check(n > 0, || format!("query {i} answered nothing")),
            Err(e) => out.check(false, || format!("query {i} failed: {e}")),
        }
    }
    let after = trend_answers(daemon, tenants);
    out.check(
        matches!((&before, &after), (Ok(b), Ok(a)) if a == b),
        || "trend answers changed across the query loop".to_string(),
    );
    samples
}

/// Each warm epoch's artifact misses against the drift ledger's count of
/// crawl-visible drifted bots. On a Discord tenant's first re-audit they
/// must be equal. Later epochs may miss fewer, never more: the pack keeps
/// every generation, so a bot that drifts back to content an earlier
/// epoch analyzed hits. A Telegram page can also absorb a drift (say,
/// permission creep its coarser admin rights cannot show), so Telegram
/// tenants are held to the upper bound only. Untimed: each tenant's world
/// is rebuilt once at the last epoch, which logs every step.
fn check_ledger(
    run: &Run,
    tenants: &[Tenant],
    misses: &BTreeMap<(usize, u32), u64>,
    out: &mut Outcome,
) {
    let last = run.sizes.fleet_epochs.saturating_sub(1);
    for (idx, tenant) in tenants.iter().enumerate() {
        let audit = fleet_builder(run, tenant, last)
            .build()
            .expect("fleet audits are valid");
        for step in &layers::drift_ledger(&audit, last) {
            let drifted = step.content_drifted().len() as u64;
            let Some(&misses) = misses.get(&(idx, step.epoch)) else {
                continue;
            };
            let exact = tenant.platform == PlatformKind::Discord && step.epoch == 1;
            let ok = misses == drifted || (!exact && misses < drifted);
            out.check(ok, || {
                format!(
                    "{} epoch {}: {misses} artifact misses, ledger drifted {drifted}",
                    tenant.name, step.epoch
                )
            });
        }
    }
}

// ---- batch_preempt -----------------------------------------------------

fn batch_config() -> FleetDaemonConfig {
    FleetDaemonConfig {
        workers: WORKERS,
        quantum: BATCH_QUANTUM,
        batch_slice_frames: Some(BATCH_SLICE_FRAMES),
        tick_ms: BATCH_TICK_MS,
        ..FleetDaemonConfig::default()
    }
}

pub fn batch_plan(seed: u64) -> Vec<synth::Arrival> {
    synth::adversarial_arrivals(&ArrivalConfig {
        seed: netsim::splitmix(seed, 0xBA7C),
        ..ArrivalConfig::default()
    })
}

pub fn batch_builder(run: &Run, seed: u64, epoch: u32) -> AuditBuilder {
    Audit::builder()
        .scale(run.sizes.batch_listings)
        .seed(seed)
        .honeypot_sample(run.sizes.batch_honeypot)
        .site_defenses(false)
        .drift(DriftConfig::default())
        .epoch(epoch)
}

/// The first few arrivals of the plan at warm-up scale.
fn batch_warmup(run: &Run) {
    let daemon = FleetDaemon::new(batch_config());
    for arrival in batch_plan(run.seed).iter().take(4) {
        daemon.run_until(arrival.at_ms);
        let spec = JobSpec::builder(arrival.tenant.as_str())
            .lane_named(arrival.lane)
            .build()
            .expect("plan specs validate");
        let job = batch_builder(run, run.seed, arrival.epoch)
            .scale(run.sizes.warmup_listings)
            .into_job()
            .expect("the warm-up job is valid");
        std::hint::black_box(daemon.submit(spec, job).ok());
    }
    std::hint::black_box(
        daemon
            .shutdown(chatbot_audit::ShutdownMode::Drain)
            .outcomes
            .len(),
    );
}

pub struct BatchRun {
    pub makespan_s: f64,
    pub fg_ms: Vec<f64>,
    pub settled: u64,
}

/// Foreground (interactive and standard) jobs in flight, keyed by handle
/// with their submission instant.
#[derive(Default)]
struct Foreground {
    in_flight: BTreeMap<JobHandle, Instant>,
    latency_ms: Vec<f64>,
}

impl Foreground {
    /// A `run_until` just returned these handles: every foreground job
    /// among them settled now.
    fn settled(&mut self, handles: Vec<JobHandle>) {
        let now = Instant::now();
        for handle in handles {
            if let Some(submitted) = self.in_flight.remove(&handle) {
                self.latency_ms.push(ms(now - submitted));
            }
        }
    }
}

/// Open loop on the virtual clock: submit the adversarial plan at its
/// virtual arrival times, then step the daemon a tick at a time until
/// the queue drains.
pub fn batch_scenario(run: &Run, seed: u64, probe: &mut dyn Probe, out: &mut Outcome) -> BatchRun {
    let plan = batch_plan(seed);
    let expected = run.sizes.expected(run.sizes.batch_listings);
    let jobs: Vec<AuditJob> = plan
        .iter()
        .map(|a| {
            probe
                .audit(batch_builder(run, seed, a.epoch))
                .into_job()
                .expect("batch jobs are valid")
        })
        .collect();
    let daemon = probe.daemon(batch_config());
    // The traced run shares one registry across scenarios: count from here.
    let expired_before = daemon.obs().counter_value("sched.expired");
    let mut fg = Foreground::default();
    let mut t0 = None;
    for (arrival, job) in plan.iter().zip(jobs) {
        fg.settled(probe.run_until(&daemon, arrival.at_ms));
        let mut spec = JobSpec::builder(arrival.tenant.as_str())
            .lane_named(arrival.lane)
            .weight(arrival.weight);
        if let Some(deadline) = arrival.deadline_ms {
            spec = spec.deadline_ms(deadline);
        }
        let spec = spec.build().expect("plan specs validate");
        t0.get_or_insert_with(Instant::now);
        match daemon.submit(spec, job) {
            Ok(handle) if arrival.lane != "batch" => {
                fg.in_flight.insert(handle, Instant::now());
            }
            Ok(_) => {}
            Err(e) => out.check(false, || format!("{} submit failed: {e}", arrival.tenant)),
        }
    }
    let t0 = t0.expect("the plan is non-empty");
    while daemon.queued() > 0 {
        let target = now_ms(&daemon) + BATCH_TICK_MS;
        fg.settled(probe.run_until(&daemon, target));
    }
    let makespan_s = t0.elapsed().as_secs_f64();

    let outcomes = daemon.poll_outcomes();
    out.check(outcomes.len() == plan.len(), || {
        format!("{} of {} planned jobs settled", outcomes.len(), plan.len())
    });
    out.check(fg.in_flight.is_empty(), || {
        format!("{} foreground jobs never settled", fg.in_flight.len())
    });
    let mut expired = 0u64;
    for outcome in &outcomes {
        match &outcome.report {
            Ok(report) => out.check(report.bots.len() == expected, || {
                format!(
                    "{} epoch {}: {} bots, expected {expected}",
                    outcome.tenant,
                    outcome.epoch,
                    report.bots.len()
                )
            }),
            Err(e) if e.kind() == ErrorKind::Expired => expired += 1,
            Err(e) => out.check(false, || {
                format!("{} epoch {}: {e}", outcome.tenant, outcome.epoch)
            }),
        }
    }
    let counted = daemon.obs().counter_value("sched.expired") - expired_before;
    out.check(expired == counted, || {
        format!("{expired} typed expiries but sched.expired = {counted}")
    });
    // Every plan tenant has weight 1, so the DRR bound is the quantum.
    let bound =
        u64::from(BATCH_QUANTUM) * plan.iter().map(|a| u64::from(a.weight)).max().unwrap_or(1);
    out.check(daemon.fairness_gap() <= bound, || {
        format!(
            "DRR service gap {} exceeds quantum x weight = {bound}",
            daemon.fairness_gap()
        )
    });
    BatchRun {
        makespan_s,
        fg_ms: fg.latency_ms,
        settled: outcomes.len() as u64,
    }
}
