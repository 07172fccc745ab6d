//! The traced run: every per-layer call site of the benchmark.
//!
//! Spans are taken from outside the program, around calls into each
//! crate's public functions, with `std::time::Instant`; nothing inside
//! the program is instrumented beyond the `obs` counters it already
//! publishes, which are read after the run.
//!
//! * `paper_cold` is recomposed from the crates' own entry points (world
//!   build, crawl, policy memo, GitHub link cache and scanner, honeypot
//!   campaign), each call timed, and the composition must reproduce the
//!   untraced `Audit::run` report byte for byte.
//! * The fleet workloads run through [`Traced`], a [`Probe`] that hands the
//!   daemon a store backend counting every call, drives `tick()` itself
//!   timing each one, and shares one metrics registry with every audit.
//! * The world rebuilds the end-to-end output checks need (planted truth,
//!   drift ledger) live here too.
//!
//! Keeping every such call here means an API change below the facade
//! touches one file of the benchmark.

use crate::measure::{mean, median, ms, Outcome};
use crate::workloads::{
    self, batch_builder, batch_plan, check_scores, fleet_builder, fleet_scenario, fleet_tenants,
    for_seconds, paper_audit, paper_round, report_digest, PaperRounds, Probe, Run, Untraced,
    Workload,
};
use chatbot_audit::{
    Audit, AuditBuilder, AuditReport, AuditedBot, CanonicalBot, CanonicalReport, CodeFinding,
    FleetDaemon, FleetDaemonConfig, JobHandle, LinkResolution, PlatformKind,
};
use codeanal::github::LinkOutcome;
use codeanal::{scan_repository, LinkCache};
use crawler::crawl::{crawl_listing, CrawledBot};
use crawler::{extract_bot_detail, extract_bot_links, ScrapeSession, ScrapedBot};
use honeypot::campaign::{BotUnderTest, Campaign};
use honeypot::DiscordSubstrate;
use netsim::client::{ClientConfig, HttpClient};
use netsim::{SimDuration, Url, VirtualClock};
use obs::{Clock as _, Obs};
use oplog::{EpochChain, TrendQuery};
use policy::AnalysisMemo;
use std::io;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use store::{Backend, MemBackend, ScopedBackend, PACK_FILE};
use synth::{DriftConfig, Ecosystem};

/// List pages whose detail pages the capture step fetches and parses.
const CAPTURE_PAGES: usize = 8;
/// Repetitions of each oplog read-path call.
const OPLOG_REPS: usize = 20;

/// The traced run: the workload untraced for half the time (the overhead
/// baseline), then traced for the other half.
pub fn traced(run: &Run) -> Outcome {
    let half = run.seconds / 2.0;
    match run.workload {
        Workload::PaperCold => traced_paper(run, half),
        Workload::FleetLongitudinal | Workload::BatchPreempt => traced_fleet(run, half),
    }
}

// ---- paper_cold: the recomposed audit ----------------------------------

/// Wall time of each layer call in one composed audit.
#[derive(Default)]
struct PaperLayers {
    world: Duration,
    crawl: Duration,
    analysis_wall: Duration,
    policy: Duration,
    resolve: Duration,
    scan: Duration,
    campaign: Duration,
    total: Duration,
}

fn traced_paper(run: &Run, half: f64) -> Outcome {
    let mut out = Outcome::default();
    let audit = paper_audit(run);
    let mut baseline = PaperRounds::default();
    for_seconds(half, |_| paper_round(run, &audit, &mut baseline, &mut out));
    let expected = run.sizes.expect_bots.unwrap_or(run.sizes.paper_listings);

    let mut layers = Vec::new();
    let mut eco = None;
    for_seconds(half, |_| {
        drop(eco.take());
        let (world, report, times, metrics) = compose_paper(&audit, &mut out);
        out.check(report_digest(&report) == baseline.digest, || {
            "the traced composition diverged from the untraced report".to_string()
        });
        out.check(report.bots.len() == expected, || {
            format!(
                "composed audit found {} bots, expected {expected}",
                report.bots.len()
            )
        });
        for (name, value) in metrics {
            out.set(name, value);
        }
        layers.push(times);
        eco = Some(world);
    });
    let eco = eco.expect("at least one composition");
    capture_details(&eco, run.seed, &mut out);

    let avg = |f: fn(&PaperLayers) -> Duration| {
        mean(&layers.iter().map(|l| ms(f(l))).collect::<Vec<_>>())
    };
    out.set("synth.world_build_ms", avg(|l| l.world));
    out.set("crawler.crawl_ms", avg(|l| l.crawl));
    out.set("policy.analyze_ms", avg(|l| l.policy));
    out.set("codeanal.resolve_ms", avg(|l| l.resolve));
    out.set("codeanal.scan_ms", avg(|l| l.scan));
    out.set("honeypot.campaign_ms", avg(|l| l.campaign));
    let total = median(&layers.iter().map(|l| ms(l.total)).collect::<Vec<_>>());
    let untraced = median(&baseline.round_s) * 1e3;
    out.set("trace.overhead_ratio", total / untraced - 1.0);
    let attributed = avg(|l| l.world + l.crawl + l.analysis_wall + l.campaign);
    out.set(
        "trace.unattributed_share",
        1.0 - attributed / avg(|l| l.total),
    );
    out.note(format!(
        "{} composed audits vs {} untraced; analysis pool wall {:.1} ms",
        layers.len(),
        baseline.round_s.len(),
        avg(|l| l.analysis_wall)
    ));
    out
}

/// One cold audit, recomposed from the crates' entry points in the order
/// `AuditPipeline::run_full` calls them, with every call timed.
fn compose_paper(
    audit: &Audit,
    out: &mut Outcome,
) -> (
    Ecosystem,
    CanonicalReport,
    PaperLayers,
    Vec<(&'static str, f64)>,
) {
    let config = audit.config();
    let mut times = PaperLayers::default();
    let start = Instant::now();

    let t = Instant::now();
    let eco = synth::build_ecosystem(audit.ecosystem_config());
    times.world = t.elapsed();
    assert_eq!(eco.kind, PlatformKind::Discord, "paper_cold audits Discord");

    let t = Instant::now();
    let (crawled, crawl_stats) = crawl_listing(&eco.net, &config.crawl);
    times.crawl = t.elapsed();

    let policy_before = config.ontology.kernel_stats();
    let code_before = codeanal::scanner_kernel_stats();
    let links = LinkCache::new();
    let memo = AnalysisMemo::new();
    let t = Instant::now();
    let (bots, pool) = analyze_pool(
        &eco,
        crawled,
        &links,
        &memo,
        &config.ontology,
        workloads::WORKERS,
    );
    times.analysis_wall = t.elapsed();
    times.policy = pool.policy;
    times.resolve = pool.resolve;
    times.scan = pool.scan;
    let policy_after = config.ontology.kernel_stats();
    let code_after = codeanal::scanner_kernel_stats();

    let t = Instant::now();
    let substrate = DiscordSubstrate::new(eco.platform.clone(), eco.net.clone());
    let mut campaign = Campaign::new(substrate, config.honeypot.clone());
    let sample = eco
        .most_voted_testable(config.honeypot_sample)
        .into_iter()
        .map(|(truth, invite, bot_user, behavior)| BotUnderTest {
            name: truth.name,
            client_id: truth.client_id,
            bot_user: bot_user.0.raw(),
            invite: invite.to_url().to_string(),
            behavior,
        })
        .collect();
    let campaign_report = campaign.run(sample);
    times.campaign = t.elapsed();

    let messages = campaign_report.messages_posted as f64;
    let pages = crawl_stats.pages as f64;
    let captchas = crawl_stats.captchas_solved as f64;
    let report = AuditReport {
        platform: eco.kind,
        bots,
        crawl_stats,
        honeypot: Some(campaign_report),
    };
    let canonical = report.canonical();
    times.total = start.elapsed();

    // Untimed: score the composition against the planted truth.
    let validation =
        chatbot_audit::validate_against_truth(&report.bots, &eco.truth, report.honeypot.as_ref());
    check_scores(&validation, out);
    out.check(validation.honeypot_detection.fp == 0, || {
        "honeypot accused a benign bot".to_string()
    });

    let metrics = vec![
        ("crawler.pages", pages),
        ("crawler.captchas", captchas),
        ("policy.memo_hit_ratio", ratio(memo.hits(), memo.misses())),
        (
            "policy.bytes_scanned",
            (policy_after.bytes_scanned - policy_before.bytes_scanned) as f64,
        ),
        (
            "codeanal.link_hit_ratio",
            ratio(links.hits(), links.misses()),
        ),
        (
            "code.bytes_scanned",
            (code_after.bytes_scanned - code_before.bytes_scanned) as f64,
        ),
        ("honeypot.messages_posted", messages),
    ];
    (eco, canonical, times, metrics)
}

fn ratio(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

/// Per-call time summed over the analysis pool's workers.
#[derive(Default)]
struct PoolTimes {
    policy: Duration,
    resolve: Duration,
    scan: Duration,
}

/// Stages 2 and 3 on a claim-counter pool, as the pipeline runs them:
/// each worker owns a GitHub client and claims the next bot; results land
/// in listing order.
fn analyze_pool(
    eco: &Ecosystem,
    crawled: Vec<CrawledBot>,
    links: &LinkCache,
    memo: &AnalysisMemo,
    ontology: &policy::KeywordOntology,
    workers: usize,
) -> (Vec<AuditedBot>, PoolTimes) {
    let jobs: Vec<Mutex<Option<CrawledBot>>> =
        crawled.into_iter().map(|b| Mutex::new(Some(b))).collect();
    let slots: Vec<Mutex<Option<AuditedBot>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let mut times = PoolTimes::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers.clamp(1, jobs.len().max(1)))
            .map(|_| {
                scope.spawn(|| {
                    let mut client = HttpClient::new(
                        eco.net.clone(),
                        ClientConfig {
                            politeness: None,
                            ..ClientConfig::crawler("code-analysis/1.0")
                        },
                    );
                    let mut times = PoolTimes::default();
                    loop {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        let Some(job) = jobs.get(idx) else { break };
                        let bot = job.lock().expect("job slot").take().expect("claimed once");
                        let audited =
                            audit_one(bot, &mut client, links, memo, ontology, &mut times);
                        *slots[idx].lock().expect("result slot") = Some(audited);
                    }
                    times
                })
            })
            .collect();
        for handle in handles {
            let worker = handle.join().expect("analysis worker panicked");
            times.policy += worker.policy;
            times.resolve += worker.resolve;
            times.scan += worker.scan;
        }
    });
    let bots = slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot")
                .expect("every bot analyzed")
        })
        .collect();
    (bots, times)
}

fn audit_one(
    bot: CrawledBot,
    client: &mut HttpClient,
    links: &LinkCache,
    memo: &AnalysisMemo,
    ontology: &policy::KeywordOntology,
    times: &mut PoolTimes,
) -> AuditedBot {
    let requested = bot.invite_status.permission_names();
    let t = Instant::now();
    let traceability = memo.analyze(bot.policy.as_ref(), &requested, ontology);
    times.policy += t.elapsed();

    let code = bot.scraped.github.as_deref().map(|link| {
        let t = Instant::now();
        let outcome = links.resolve(client, link);
        times.resolve += t.elapsed();
        let unresolved = |resolution| CodeFinding {
            resolution,
            language: None,
            has_source: false,
            performs_checks: None,
            scan: None,
        };
        match outcome {
            LinkOutcome::ValidRepo(repo) => {
                let t = Instant::now();
                let scan = scan_repository(&repo);
                times.scan += t.elapsed();
                CodeFinding {
                    resolution: LinkResolution::ValidRepo,
                    language: repo.main_language(),
                    has_source: repo.has_source_code(),
                    performs_checks: Some(scan.performs_checks()),
                    scan: Some(scan),
                }
            }
            LinkOutcome::UserProfile => unresolved(LinkResolution::UserProfile),
            LinkOutcome::NoPublicRepos => unresolved(LinkResolution::NoPublicRepos),
            LinkOutcome::Invalid => unresolved(LinkResolution::Invalid),
        }
    });
    AuditedBot {
        crawled: bot,
        traceability,
        code,
    }
}

/// The planted ground truth of an audit's world (rebuilt from its config).
pub fn planted_truth(audit: &Audit) -> synth::GroundTruth {
    synth::build_ecosystem(audit.ecosystem_config()).truth
}

/// The drift ledger of every epoch step up to `epoch` of an audit's world.
pub fn drift_ledger(audit: &Audit, epoch: u32) -> Vec<synth::EpochDrift> {
    synth::build_ecosystem_at(audit.ecosystem_config(), &DriftConfig::default(), epoch).1
}

/// The fields `validate_against_truth` scores, lifted back out of a
/// canonical report; the rest of the scraped record is left empty.
pub fn audited_from_canonical(bot: &CanonicalBot) -> AuditedBot {
    AuditedBot {
        crawled: CrawledBot {
            scraped: ScrapedBot {
                id: bot.id,
                name: bot.name.clone(),
                invite_link: String::new(),
                tags: Vec::new(),
                description: String::new(),
                guild_count: 0,
                vote_count: 0,
                website: None,
                github: None,
                developers: Vec::new(),
                commands: Vec::new(),
            },
            invite_status: bot.invite_status.clone(),
            website_reachable: bot.website_reachable,
            policy_link_present: bot.policy_link_present,
            policy: bot.policy.clone(),
        },
        traceability: bot.traceability.clone(),
        code: bot.code.clone(),
    }
}

/// Fetch the detail pages of the first list pages with a scraping
/// session, then time parse and extract on each captured page.
fn capture_details(eco: &Ecosystem, seed: u64, out: &mut Outcome) {
    let mut session = ScrapeSession::new(eco.net.clone(), seed);
    let mut hrefs = Vec::new();
    for page in 0..CAPTURE_PAGES {
        let url = Url::https(&eco.list_host, "/list").with_query("page", &page.to_string());
        match session
            .fetch_document(url)
            .map(|doc| extract_bot_links(&doc))
        {
            Ok(Ok(links)) => hrefs.extend(links),
            _ => out.check(false, || format!("list page {page} did not capture")),
        }
    }
    let (mut fetch, mut parse, mut extract, mut bytes) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    for href in &hrefs {
        let url = if href.starts_with('/') {
            Url::https(&eco.list_host, href)
        } else {
            match Url::parse(href) {
                Ok(url) => url,
                Err(_) => continue,
            }
        };
        let t = Instant::now();
        let resp = session.fetch(url);
        fetch.push(t.elapsed().as_secs_f64() * 1e6);
        let Ok(resp) = resp else {
            out.check(false, || format!("detail page {href} did not fetch"));
            continue;
        };
        let text = resp.text();
        bytes.push(text.len() as f64);
        let t = Instant::now();
        let doc = htmlsim::parse_document(&text);
        parse.push(t.elapsed().as_secs_f64() * 1e6);
        let Ok(doc) = doc else {
            out.check(false, || format!("detail page {href} did not parse"));
            continue;
        };
        let t = Instant::now();
        let scraped = extract_bot_detail(&doc);
        extract.push(t.elapsed().as_secs_f64() * 1e6);
        out.check(scraped.is_ok(), || {
            format!("detail page {href} did not extract")
        });
    }
    out.check(!hrefs.is_empty(), || "no detail pages captured".to_string());
    if hrefs.is_empty() {
        return;
    }
    out.set("crawler.fetch_us", median(&fetch));
    out.set("html.parse_us", median(&parse));
    out.set("crawler.extract_us", median(&extract));
    out.set("html.page_bytes", median(&bytes));
    out.note(format!("{} detail pages captured", hrefs.len()));
}

// ---- the fleet workloads: counting store, timed ticks ------------------

/// Calls, bytes and time of one backend operation.
#[derive(Default)]
struct OpStats {
    calls: AtomicU64,
    bytes: AtomicU64,
    nanos: AtomicU64,
}

impl OpStats {
    fn record(&self, started: Instant, bytes: usize) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        self.nanos
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

#[derive(Default)]
struct StoreCounts {
    read: OpStats,
    append: OpStats,
    write_atomic: OpStats,
}

/// An in-memory store backend that counts every call into it.
struct CountingBackend {
    inner: MemBackend,
    counts: Arc<StoreCounts>,
}

impl CountingBackend {
    /// Bytes currently held in artifact packs, across every tenant.
    fn pack_bytes(&self) -> u64 {
        self.inner
            .names()
            .iter()
            .filter(|name| name.ends_with(PACK_FILE))
            .filter_map(|name| self.inner.read(name).ok().flatten())
            .map(|bytes| bytes.len() as u64)
            .sum()
    }
}

impl Backend for CountingBackend {
    fn read(&self, name: &str) -> io::Result<Option<Vec<u8>>> {
        let t = Instant::now();
        let result = self.inner.read(name);
        let bytes = result
            .as_ref()
            .ok()
            .and_then(|b| b.as_ref())
            .map_or(0, Vec::len);
        self.counts.read.record(t, bytes);
        result
    }

    fn write_atomic(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        let t = Instant::now();
        let result = self.inner.write_atomic(name, bytes);
        self.counts.write_atomic.record(t, bytes.len());
        result
    }

    fn append(&self, name: &str, bytes: &[u8]) -> io::Result<()> {
        let t = Instant::now();
        let result = self.inner.append(name, bytes);
        self.counts.append.record(t, bytes.len());
        result
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        self.inner.remove(name)
    }
}

/// The traced [`Probe`]: one metrics registry shared by the daemon and
/// every audit, a counting backend per daemon, and a timer on every tick.
#[derive(Default)]
pub struct Traced {
    obs: Obs,
    counts: Arc<StoreCounts>,
    backend: Option<Arc<CountingBackend>>,
    ticks: u64,
    idle_ticks: u64,
    idle: Duration,
    busy: Duration,
    /// Counter values when the current epoch began.
    epoch_mark: (u64, u64),
    /// `(epoch, full fetches, artifact misses)` per settled epoch.
    epochs: Vec<(u32, u64, u64)>,
}

impl Traced {
    fn cold_path(&self) -> (u64, u64) {
        (
            self.obs.counter_value("crawl.fetched_full"),
            self.obs.counter_value("store.artifacts.misses"),
        )
    }

    /// Jobs the scheduler has handed out so far: first dispatches plus
    /// every selection (which also counts a parked job's resumption).
    fn handed_out(&self) -> (u64, u64) {
        (
            self.obs.counter_value("sched.dispatched"),
            self.obs.counter_value("sched.drr.selected"),
        )
    }

    /// One timed daemon tick. An idle tick settles nothing and hands out
    /// no job: `sched.dispatched` and `sched.drr.selected` stay put.
    fn tick(&mut self, daemon: &FleetDaemon) -> Vec<JobHandle> {
        let before = self.handed_out();
        let t = Instant::now();
        let handles = daemon.tick();
        let elapsed = t.elapsed();
        self.ticks += 1;
        if handles.is_empty() && self.handed_out() == before {
            self.idle_ticks += 1;
            self.idle += elapsed;
        } else {
            self.busy += elapsed;
        }
        handles
    }

    fn tick_time(&self) -> Duration {
        self.idle + self.busy
    }
}

impl Probe for Traced {
    fn daemon(&mut self, config: FleetDaemonConfig) -> FleetDaemon {
        let backend = Arc::new(CountingBackend {
            inner: MemBackend::new(),
            counts: Arc::clone(&self.counts),
        });
        self.backend = Some(Arc::clone(&backend));
        self.epoch_mark = self.cold_path();
        FleetDaemon::with_obs(config, backend, VirtualClock::new(), self.obs.clone())
    }

    fn audit(&self, builder: AuditBuilder) -> AuditBuilder {
        builder.obs(self.obs.clone())
    }

    /// `FleetDaemon::run_until`, restated over timed ticks: tick, advance
    /// by `tick_ms` (capped at the target), repeat, ending with a tick at
    /// the target itself.
    fn run_until(&mut self, daemon: &FleetDaemon, clock_ms: u64) -> Vec<JobHandle> {
        let step = daemon.config().tick_ms.max(1);
        let mut handles = self.tick(daemon);
        loop {
            let now = daemon.clock().now_millis();
            if now >= clock_ms {
                break;
            }
            daemon
                .clock()
                .advance(SimDuration::from_millis(step.min(clock_ms - now)));
            handles.extend(self.tick(daemon));
        }
        handles
    }

    fn epoch_settled(&mut self, epoch: u32) {
        let now = self.cold_path();
        self.epochs
            .push((epoch, now.0 - self.epoch_mark.0, now.1 - self.epoch_mark.1));
        self.epoch_mark = now;
    }
}

fn traced_fleet(run: &Run, half: f64) -> Outcome {
    let mut out = Outcome::default();
    let fleet = run.workload == Workload::FleetLongitudinal;

    // The untraced baseline: the same scenarios through the plain daemon.
    let mut untraced = Vec::new();
    for_seconds(half, |i| {
        untraced.push(scenario_wall(run, i, &mut Untraced, &mut out));
    });
    let mut probe = Traced::default();
    let mut traced = Vec::new();
    for_seconds(half, |i| {
        traced.push(scenario_wall(run, i, &mut probe, &mut out));
    });
    let last_seed = run.scenario_seed(traced.len() - 1);
    let scenarios = traced.len() as f64;
    let per = |v: u64| v as f64 / scenarios;

    // Store traffic, per scenario.
    let counts = &probe.counts;
    for (stats, calls, bytes, time) in [
        (
            &counts.read,
            "store.read_calls",
            "store.read_bytes",
            "store.read_ms",
        ),
        (
            &counts.append,
            "store.append_calls",
            "store.append_bytes",
            "store.append_ms",
        ),
        (
            &counts.write_atomic,
            "store.write_atomic_calls",
            "store.write_atomic_bytes",
            "store.write_atomic_ms",
        ),
    ] {
        out.set(calls, per(stats.calls.load(Ordering::Relaxed)));
        out.set(bytes, per(stats.bytes.load(Ordering::Relaxed)));
        out.set(time, per(stats.nanos.load(Ordering::Relaxed)) / 1e6);
    }
    let backend = probe.backend.clone().expect("a traced daemon ran");
    out.set("store.pack_bytes", backend.pack_bytes() as f64);

    // The program's own counters, read after the run, per scenario.
    let obs = &probe.obs;
    let c = |name: &str| obs.counter_value(name);
    for name in [
        "store.journal.frames_written",
        "store.journal.replayed",
        "crawl.validated",
        "crawl.fetched_full",
        "crawl.bytes_saved",
        "oplog.appended",
        "sched.parked",
        "sched.dispatched",
        "policy.bytes_scanned",
        "code.bytes_scanned",
        "honeypot.messages_posted",
        "honeypot.guilds_reused",
    ] {
        out.set(name, per(c(name)));
    }
    for (name, counter) in [
        ("crawler.pages", "crawl.pages_fetched"),
        ("crawler.captchas", "crawl.captchas_solved"),
    ] {
        out.set(name, per(c(counter)));
    }
    out.set(
        "store.artifact_hit_ratio",
        ratio(c("store.artifacts.hits"), c("store.artifacts.misses")),
    );
    out.set(
        "policy.memo_hit_ratio",
        ratio(
            c("analysis.policy_memo.hits"),
            c("analysis.policy_memo.misses"),
        ),
    );
    out.set(
        "codeanal.link_hit_ratio",
        ratio(
            c("analysis.link_cache.hits"),
            c("analysis.link_cache.misses"),
        ),
    );

    // Where the cold path ran: epoch 0 against the mean warm epoch.
    let split = |pick: fn(&(u32, u64, u64)) -> u64| {
        let cold: Vec<f64> = probe
            .epochs
            .iter()
            .filter(|e| e.0 == 0)
            .map(|e| pick(e) as f64)
            .collect();
        let warm: Vec<f64> = probe
            .epochs
            .iter()
            .filter(|e| e.0 > 0)
            .map(|e| pick(e) as f64)
            .collect();
        (mean(&cold), mean(&warm))
    };
    let (cold, warm) = split(|e| e.1);
    out.set("crawl.fetched_full.epoch0", cold);
    out.set("crawl.fetched_full.warm_epoch", warm);
    let (cold, warm) = split(|e| e.2);
    out.set("store.artifact_misses.epoch0", cold);
    out.set("store.artifact_misses.warm_epoch", warm);

    // The scheduler, from the timed ticks.
    out.set("sched.ticks", per(probe.ticks));
    out.set("sched.idle_ticks", per(probe.idle_ticks));
    let busy_ticks = probe.ticks - probe.idle_ticks;
    out.set(
        "sched.idle_tick_us",
        probe.idle.as_secs_f64() * 1e6 / probe.idle_ticks.max(1) as f64,
    );
    out.set(
        "sched.busy_tick_ms",
        ms(probe.busy) / busy_ticks.max(1) as f64,
    );

    // The oplog read path and the world builds, timed call by call.
    let tenants: Vec<String> = if fleet {
        fleet_tenants(last_seed)
            .into_iter()
            .map(|t| t.name)
            .collect()
    } else {
        let mut names: Vec<String> = batch_plan(last_seed)
            .into_iter()
            .map(|a| a.tenant)
            .collect();
        names.sort();
        names.dedup();
        names
    };
    oplog_reads(&backend, &tenants, &mut out);
    world_builds(run, &mut out);

    let untraced_s = median(&untraced);
    out.set("trace.overhead_ratio", median(&traced) / untraced_s - 1.0);
    let wall: f64 = traced.iter().sum();
    out.set(
        "trace.unattributed_share",
        (1.0 - probe.tick_time().as_secs_f64() / wall).max(0.0),
    );
    out.note(format!(
        "{} traced vs {} untraced scenarios; {} ticks, {} idle",
        traced.len(),
        untraced.len(),
        probe.ticks,
        probe.idle_ticks
    ));
    out
}

/// Scenario `i` of the workload under `probe`, returning its wall time:
/// the fleet's epoch loop, or the batch makespan.
fn scenario_wall(run: &Run, i: usize, probe: &mut dyn Probe, out: &mut Outcome) -> f64 {
    let seed = run.scenario_seed(i);
    match run.workload {
        Workload::FleetLongitudinal => fleet_scenario(run, seed, probe, out).loop_s,
        _ => workloads::batch_scenario(run, seed, probe, out).makespan_s,
    }
}

/// Time the oplog's read path on each tenant's scoped store: open the
/// chain, materialize its trend view, then the fleet-wide drift curves.
fn oplog_reads(root: &Arc<CountingBackend>, tenants: &[String], out: &mut Outcome) {
    let root: Arc<dyn Backend> = root.clone();
    let (mut open, mut view, mut fleet) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..OPLOG_REPS {
        let mut histories = Vec::new();
        for tenant in tenants {
            let scoped: Arc<dyn Backend> =
                Arc::new(ScopedBackend::new(Arc::clone(&root), tenant.as_str()));
            let t = Instant::now();
            let chain = EpochChain::open(scoped);
            open.push(ms(t.elapsed()));
            let chain = match chain {
                Ok(chain) => chain,
                Err(e) => {
                    out.check(false, || format!("{tenant}: chain did not open: {e}"));
                    continue;
                }
            };
            let t = Instant::now();
            let query = TrendQuery::from_records(chain.records());
            view.push(ms(t.elapsed()));
            std::hint::black_box(query);
            histories.push((tenant.clone(), chain.records().to_vec()));
        }
        let t = Instant::now();
        std::hint::black_box(oplog::fleet_drift_curves(&histories));
        fleet.push(ms(t.elapsed()));
    }
    if !open.is_empty() {
        out.set("oplog.chain_open_ms", median(&open));
    }
    if !view.is_empty() {
        out.set("oplog.view_ms", median(&view));
    }
    out.set("oplog.fleet_view_ms", median(&fleet));
}

/// Time the world build every audit of the first scenario pays, each with
/// the audit's own config; then capture detail pages on the first world.
fn world_builds(run: &Run, out: &mut Outcome) {
    let seed = run.scenario_seed(0);
    let configs: Vec<(synth::EcosystemConfig, u32)> = match run.workload {
        Workload::FleetLongitudinal => fleet_tenants(seed)
            .iter()
            .flat_map(|tenant| (0..run.sizes.fleet_epochs).map(move |epoch| (tenant, epoch)))
            .map(|(tenant, epoch)| {
                let audit = fleet_builder(run, tenant, epoch)
                    .build()
                    .expect("fleet audits are valid");
                (audit.ecosystem_config().clone(), epoch)
            })
            .collect(),
        _ => batch_plan(seed)
            .iter()
            .map(|arrival| {
                let audit = batch_builder(run, seed, arrival.epoch)
                    .build()
                    .expect("batch audits are valid");
                (audit.ecosystem_config().clone(), arrival.epoch)
            })
            .collect(),
    };
    let mut builds = Vec::with_capacity(configs.len());
    let mut first = None;
    for (config, epoch) in &configs {
        let t = Instant::now();
        let (eco, _) = synth::build_ecosystem_at(config, &DriftConfig::default(), *epoch);
        builds.push(ms(t.elapsed()));
        if first.is_none() && eco.kind == PlatformKind::Discord {
            first = Some(eco);
        }
    }
    out.set("synth.world_build_ms", median(&builds));
    if let Some(eco) = first {
        capture_details(&eco, seed, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crawler::InviteStatus;

    #[test]
    fn counting_backend_counts_calls_and_bytes() {
        let backend = CountingBackend {
            inner: MemBackend::new(),
            counts: Arc::default(),
        };
        backend.append("a/journal.wal", b"abc").unwrap();
        backend.append("a/journal.wal", b"de").unwrap();
        backend
            .write_atomic(&format!("a/{PACK_FILE}"), b"xyz")
            .unwrap();
        assert_eq!(backend.read("a/journal.wal").unwrap().unwrap(), b"abcde");
        assert_eq!(backend.read("missing").unwrap(), None);
        let counts = &backend.counts;
        assert_eq!(counts.append.calls.load(Ordering::Relaxed), 2);
        assert_eq!(counts.append.bytes.load(Ordering::Relaxed), 5);
        assert_eq!(counts.read.calls.load(Ordering::Relaxed), 2);
        assert_eq!(counts.read.bytes.load(Ordering::Relaxed), 5);
        assert_eq!(counts.write_atomic.bytes.load(Ordering::Relaxed), 3);
        assert_eq!(backend.pack_bytes(), 3);
    }

    #[test]
    fn canonical_round_trip_keeps_scored_fields() {
        let bot = CanonicalBot {
            id: 9,
            name: "Melonian".into(),
            invite_status: InviteStatus::MalformedLink,
            website_reachable: true,
            policy_link_present: false,
            policy: None,
            traceability: policy::analyze(None, &[], &policy::KeywordOntology::standard()),
            code: None,
        };
        let audited = audited_from_canonical(&bot);
        assert_eq!(audited.crawled.scraped.name, "Melonian");
        assert_eq!(audited.crawled.invite_status, InviteStatus::MalformedLink);
        assert!(audited.crawled.website_reachable);
    }
}
