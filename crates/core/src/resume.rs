//! The pipeline's one stage flow, with or without a crash-safe store.
//!
//! The paper's measurement ran for weeks and was restarted many times; every
//! restart re-paid crawl and analysis work. Every run of the pipeline —
//! [`AuditPipeline::run_full`] included — goes through the flow in this
//! module: the listing traversal, fixed-size chunks of detail pages, the
//! per-bot analyses, and the honeypot campaign. Routed through a
//! [`store::AuditStore`], the listing, each crawl chunk and the campaign
//! are durably journaled the moment they finish; each bot's analysis
//! lives only in a content-addressed artifact cache, at the address its
//! crawled bytes hash to, and each honeypot guild's transcript lives there
//! too, keyed by its bot's identity. Without a store the same flow skips
//! every journal lookup, frame write, artifact key, and serialization.
//!
//! Two properties follow, and the test suite pins both down:
//!
//! * **Crash-equivalence.** A run killed after any number of frames, then
//!   resumed, produces a canonical report byte-identical to an uninterrupted
//!   run. This leans on the fabric's guarantee (proved by the
//!   worker-count-invariance tests) that request *content* is independent of
//!   request scheduling, so skipping already-journaled requests does not
//!   perturb the remainder.
//! * **Incrementality.** Every journaled run, cold or warm, either replays
//!   its journaled campaign or reuses the guild transcripts the pack holds,
//!   and stores its own. A fresh (non-resumed) run against a warm artifact
//!   pack therefore re-crawls but performs **zero** policy or code
//!   re-analyses for unchanged bots and re-drives no honeypot guild of an
//!   unchanged bot — the artifact counters in [`store::StoreStats`] (also
//!   mirrored into the pipeline's obs registry under `store.*`) and
//!   `honeypot.guilds_reused` prove it.
//!
//! Journal layout is worker-count independent: detail pages are journaled in
//! fixed [`CRAWL_UNIT_SIZE`] chunks. A frame or analysis blob that passes
//! its CRC but does not decode is a miss, never a crash: it is counted
//! under `store.journal.undecodable` and recomputed.
//!
//! A fleet `Batch` audit runs in slices that park when their budget of
//! durable writes runs out. Its job holds the world it was built against
//! and a `Carry` between slices — the completed crawl, which a run with an
//! armed validator cache never journals, and the open store — so a
//! resumed slice builds no world, asks the site nothing, and reopens and
//! replays nothing.

use crate::error::AuditError;
use crate::pipeline::{
    trace_audited, AuditConfig, AuditPipeline, AuditReport, AuditedBot, CodeFinding,
};
use codeanal::LinkCache;
use crawler::crawl::{
    assemble, crawl_detail_unit, detail_session, discover_listing, resolve_workers, CrawlStats,
    CrawledBot, DetailUnit, EncodedBot, ListingIndex, DETAIL_UNIT_SIZE,
};
use crawler::incremental::{fetch_changed_hrefs, ValidatorStore};
use discord_sim::RuntimePolicy;
use honeypot::campaign::{BotUnderTest, Campaign, CampaignReport, GuildSnapshot};
use netsim::Network;
use obs::{claim_map, Severity, Span};
use platform::ChatSubstrate;
use policy::{AnalysisMemo, DataPractice, TraceabilityReport};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;
use store::{
    ArtifactCache, AuditStore, Backend, ContentHash, DiskBackend, MemBackend, StoreError,
    StoreStats, ValidatorCache, PACK_FILE,
};
use synth::truth::BehaviorClass;
use synth::Ecosystem;

/// Journal frame kind: the merged listing index (phase A). Key 0.
pub const K_LISTING: u16 = 0x0010;
/// Journal frame kind: one detail-page chunk. Key = chunk index.
pub const K_CRAWL_UNIT: u16 = 0x0011;
/// Journal frame kind: the honeypot campaign report. Key 0.
pub const K_HONEYPOT: u16 = 0x0013;
/// Journal frame kind: run-complete marker. Key 0.
pub const K_COMPLETE: u16 = 0x0014;

/// Detail hrefs per journaled crawl unit: the crawler's fixed unit size.
pub const CRAWL_UNIT_SIZE: usize = DETAIL_UNIT_SIZE;

/// Where and how a resumable run persists.
#[derive(Clone)]
pub struct StoreConfig {
    /// The storage backend (in-memory for tests, disk for real runs).
    pub backend: Arc<dyn Backend>,
    /// Replay a compatible existing journal instead of starting fresh. The
    /// artifact pack is warm either way — content addressing makes it safe.
    pub resume: bool,
    /// Arm the crash lever: allow this many durable writes — journal
    /// frames, plus the pack frame each analysis miss owes — then fail the
    /// run with [`AuditError::Interrupted`] exactly as if the process died.
    pub kill_after_frames: Option<u64>,
}

impl StoreConfig {
    /// A hermetic in-memory store (fresh run, no kill switch).
    pub fn in_memory() -> StoreConfig {
        StoreConfig {
            backend: Arc::new(MemBackend::new()),
            resume: false,
            kill_after_frames: None,
        }
    }

    /// A disk store rooted at `dir` (fresh run, no kill switch). Creates
    /// the directory if needed.
    pub fn on_disk(dir: impl Into<std::path::PathBuf>) -> std::io::Result<StoreConfig> {
        Ok(StoreConfig {
            backend: Arc::new(DiskBackend::open(dir)?),
            resume: false,
            kill_after_frames: None,
        })
    }

    /// The same store, opened in resume mode.
    pub fn resuming(mut self) -> StoreConfig {
        self.resume = true;
        self
    }

    /// The same store with the crash lever armed after `frames` durable
    /// writes.
    pub fn killing_after(mut self, frames: u64) -> StoreConfig {
        self.kill_after_frames = Some(frames);
        self
    }

    /// Open the audit store for the run identified by `fingerprint` over
    /// `pack`, with the crash lever armed when configured.
    fn open(&self, fingerprint: u64, pack: Arc<ArtifactCache>) -> Result<AuditStore, AuditError> {
        let store = AuditStore::open(self.backend.clone(), pack, fingerprint, self.resume)?;
        if let Some(frames) = self.kill_after_frames {
            store.set_kill_after(frames);
        }
        Ok(store)
    }
}

impl fmt::Debug for StoreConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StoreConfig")
            .field("resume", &self.resume)
            .field("kill_after_frames", &self.kill_after_frames)
            .finish_non_exhaustive()
    }
}

/// A completed crawl: every crawled bot with its raw encoding, and the
/// crawl's totals.
pub(crate) type Crawl = (Vec<EncodedBot>, CrawlStats);

/// What a sliced run carries in memory from one slice to the next: its
/// completed crawl and its open store, whose counts and referenced keys
/// then span every slice. A parked fleet job holds one; a restart loses it
/// and falls back on the journal, pack and validator cache, which stay
/// the crash-safe state.
#[derive(Default)]
pub(crate) struct Carry {
    crawl: Option<Crawl>,
    store: Option<AuditStore>,
}

/// A completed resumable run.
///
/// Memoization and kernel counters live on the pipeline's obs registry
/// (`analysis.*`, `policy.*`, `code.*`, `store.*`) — read them through
/// [`AuditPipeline::obs`].
#[derive(Debug)]
pub struct ResumableOutcome {
    /// The full report, canonical-identical to an uninterrupted run.
    pub report: AuditReport,
    /// Raw store counters for the run's store handle (journal frames
    /// written/replayed, artifact cache hits/misses) — one handle over
    /// every slice of a run that parked.
    pub store_stats: StoreStats,
    /// Every artifact-pack address the run's store handle referenced,
    /// sorted and deduplicated — what the fleet's epoch chain records so
    /// generational compaction keeps this run's blobs live.
    pub referenced_keys: Vec<store::ContentHash>,
}

/// The stored analysis output for one bot: everything [`AuditedBot`]
/// adds on top of the crawl. Stored as a content-addressed artifact so an
/// unchanged bot is never re-analyzed, even across unrelated runs.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct AnalysisArtifact {
    traceability: TraceabilityReport,
    code: Option<CodeFinding>,
}

/// Digest of everything in the audit configuration that shapes measurement
/// *content*. Parallelism knobs (`crawl.workers`, `workers`,
/// `honeypot.workers`) are deliberately excluded: output is byte-identical
/// across worker counts, so a journal written at `--workers 8` resumes
/// correctly at `--workers 1`. A journaled run scopes its journal and guild
/// transcripts further by the world's message-delivery rules.
pub fn run_fingerprint(config: &AuditConfig, world_seed: u64) -> u64 {
    let c = &config.crawl;
    let h = &config.honeypot;
    let ontology: Vec<String> = DataPractice::ALL
        .iter()
        .map(|p| format!("{p:?}={}", config.ontology.keywords(*p).join(",")))
        .collect();
    let text = format!(
        "platform={}|crawl(max_pages={:?},validate={},policies={},seed={},polite={},host={})|\
         honeypot(personas={},feed={},seed={},auto_verify={},webhooks={})|\
         sample={}|ontology[{}]",
        c.platform,
        c.max_pages,
        c.validate_invites,
        c.fetch_policies,
        c.seed,
        c.polite,
        c.list_host,
        h.personas_per_guild,
        h.feed_messages,
        h.seed,
        h.auto_verify_personas,
        h.plant_webhook_canaries,
        config.honeypot_sample,
        ontology.join(";"),
    );
    store::fingerprint(&[
        b"audit-store-v1",
        &world_seed.to_le_bytes(),
        text.as_bytes(),
    ])
}

/// The content address of a bot's analysis: the run-config digest plus the
/// bot's full crawled bytes. Any change to the bot (new policy text, new
/// invite outcome) or to the analyzers' configuration moves the address.
fn artifact_key(fingerprint: u64, bot: &CrawledBot) -> ContentHash {
    let bytes = serde_json::to_vec(bot).expect("crawled bot serializes");
    artifact_key_raw(fingerprint, &bytes)
}

/// [`artifact_key`] over an existing `serde_json::to_vec` encoding of the
/// bot. The warm crawl hands these bytes back (cached or freshly written),
/// so keying from them skips a per-bot re-serialization while producing
/// the identical hash a cold run computes from the struct.
fn artifact_key_raw(fingerprint: u64, bot_json: &[u8]) -> ContentHash {
    ContentHash::of_parts(&[b"analysis-v1", &fingerprint.to_le_bytes(), bot_json])
}

/// Everything the warm crawl path carries: the tenant's held validator
/// cache, the set of detail hrefs the site's change ledger names since the
/// cache's committed epoch, and the epoch to commit once the crawl
/// completes. Absent, the pipeline crawls cold — incrementality is a
/// performance overlay, never a correctness dependency.
pub(crate) struct IncrementalContext {
    cache: CacheStore,
    changed: BTreeSet<String>,
    epoch: u32,
}

/// [`ValidatorStore`] over the journaled [`ValidatorCache`]. Write failures
/// are swallowed: validators are performance state — a lost entry costs an
/// extra full fetch on the next run, never a wrong crawl.
struct CacheStore(Arc<ValidatorCache>);

impl ValidatorStore for CacheStore {
    fn get(&self, key: &str) -> Option<Vec<u8>> {
        self.0.get(key)
    }

    fn put(&self, key: &str, value: &[u8]) {
        let _ = self.0.put(key, value);
    }
}

/// One journaled run: the open store, the fingerprint its artifact keys
/// hash under, and the warm crawl overlay when armed. The stage flow takes
/// `Option<Journaled>` — `None` is the in-memory run.
#[derive(Clone, Copy)]
pub(crate) struct Journaled<'a> {
    store: &'a AuditStore,
    fingerprint: u64,
    inc: Option<&'a IncrementalContext>,
}

/// The identity a world's journal and guild transcripts are recorded
/// under: `fingerprint` itself under Discord's default delivery rules (no
/// per-message least privilege, no runtime enforcer), so journals and packs
/// written by default worlds keep it; digested with the rules otherwise, so
/// a world under one rule never resumes a journal or replays a transcript
/// recorded under another. Analyses of crawled bytes do not depend on
/// delivery and stay keyed by `fingerprint`.
fn delivery_scoped(fingerprint: u64, eco: &Ecosystem) -> u64 {
    let least_privilege = eco.platform.least_privilege_delivery();
    let policy = eco.platform.runtime_policy();
    if !least_privilege && policy == RuntimePolicy::default() {
        return fingerprint;
    }
    store::fingerprint(&[
        b"delivery-v1",
        &fingerprint.to_le_bytes(),
        format!("least_privilege={least_privilege}|policy={policy:?}").as_bytes(),
    ])
}

/// The identity a world's journal is recorded under: [`delivery_scoped`],
/// digested with how the world was built ([`Ecosystem::identity`]: its
/// config and, past epoch 0, its drift config and epoch). Journal units are
/// keyed by position (listing and crawl-unit indices), so a resume over
/// the journal of another world — another shape, another drift epoch —
/// starts over instead of replaying into the wrong bots. Analysis keys and
/// guild transcripts are content-addressed and stay shared.
fn journal_scoped(fingerprint: u64, eco: &Ecosystem) -> u64 {
    store::fingerprint(&[
        b"journal-v2",
        &delivery_scoped(fingerprint, eco).to_le_bytes(),
        eco.identity.as_bytes(),
    ])
}

/// The content address of one honeypot guild's cached transcript. Keyed on
/// everything that shapes the guild's phase-2 run: the run fingerprint
/// (campaign config, seeds) scoped by [`delivery_scoped`], the bot's
/// RNG-stream index in bot-name order, and the bot's identity — name,
/// rendered invite URL, behaviour class. A behaviour flip or
/// permission-creeped invite moves the address, so a drifted bot can never
/// replay a stale transcript.
fn guild_snapshot_key(
    fingerprint: u64,
    index: usize,
    name: &str,
    invite: &str,
    behavior_class: &str,
) -> ContentHash {
    ContentHash::of_parts(&[
        b"honeypot-guild-v1",
        &fingerprint.to_le_bytes(),
        &(index as u64).to_le_bytes(),
        name.as_bytes(),
        invite.as_bytes(),
        behavior_class.as_bytes(),
    ])
}

fn record(store: &AuditStore, kind: u16, key: u64, payload: Vec<u8>) -> Result<(), AuditError> {
    checked(store, store.record_unit(kind, key, payload))
}

/// A call on `store`, its kill switch's refusal as [`AuditError::Interrupted`].
fn checked<T>(store: &AuditStore, result: Result<T, StoreError>) -> Result<T, AuditError> {
    result.map_err(|e| match e {
        StoreError::Interrupted => interrupted(store),
        other => AuditError::Store(other),
    })
}

fn interrupted(store: &AuditStore) -> AuditError {
    AuditError::Interrupted {
        frames_written: store.writes(),
    }
}

impl AuditPipeline {
    /// Run the full pipeline through a crash-safe store.
    ///
    /// The listing, each crawl unit and the campaign are journaled before
    /// the next begins, and each analysis lands in the artifact pack; a run
    /// killed at any durable write resumes from the journal and pack and
    /// finishes with a canonical report byte-identical to an uninterrupted
    /// run. A fresh run against a warm artifact pack re-crawls but
    /// re-analyzes nothing and re-drives no honeypot guild whose transcript
    /// it holds. Opens the store's artifact pack and runs the one journaled
    /// flow over it with no validator cache.
    pub fn run_resumable(
        &self,
        eco: &Ecosystem,
        store_cfg: &StoreConfig,
        world_seed: u64,
    ) -> Result<ResumableOutcome, AuditError> {
        let pack =
            ArtifactCache::open(store_cfg.backend.clone(), PACK_FILE).map_err(StoreError::Io)?;
        self.run_carried(eco, store_cfg, world_seed, 0, Arc::new(pack), None, None)
    }

    /// Every journaled run: [`Self::run_resumable`], or one slice of a
    /// fleet tenant's run over its held files with the conditional-fetch
    /// warm path armed.
    ///
    /// The run appends to `pack`, an artifact pack already open. Given
    /// `validators`, the validator cache for this run's fingerprint
    /// ([`run_fingerprint`]), it asks the listing site which bots changed
    /// since the cache's committed epoch and hands the crawl the cache, so
    /// an unchanged page costs one bodyless 304 round-trip and a
    /// ledger-named page is always re-fetched in full; a crawl that
    /// completes commits the cache at `epoch`. Without a cache, or if the
    /// change feed is unreachable (a warning names that case), the crawl
    /// runs cold and is journaled unit by unit — the report is
    /// byte-identical either way.
    ///
    /// Given `carry`, this is one slice of a sliced run: the store an
    /// earlier slice opened is re-armed for this slice's budget instead of
    /// reopened, and a crawl an earlier slice carried is reused — no
    /// change-feed query, no crawl, no second validator commit. A slice
    /// that opens the store or completes the crawl leaves it in `carry`.
    /// Each slice publishes its own `store.*` counts; a completed run
    /// reports its store's totals.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_carried(
        &self,
        eco: &Ecosystem,
        store_cfg: &StoreConfig,
        world_seed: u64,
        epoch: u32,
        pack: Arc<ArtifactCache>,
        validators: Option<Arc<ValidatorCache>>,
        carry: Option<&mut Carry>,
    ) -> Result<ResumableOutcome, AuditError> {
        let fingerprint = run_fingerprint(&self.config, world_seed);
        let open = || store_cfg.open(journal_scoped(fingerprint, eco), pack);
        let mut own = None;
        // A held store is re-armed for this slice's budget, and publishes
        // only what this slice adds to its counts.
        let (store, held, start) = match carry {
            Some(Carry {
                crawl,
                store: Some(store),
            }) => {
                let limit = store_cfg
                    .kill_after_frames
                    .map(|n| store.writes().saturating_add(n));
                store.set_kill_after(limit.unwrap_or(u64::MAX));
                (&*store, Some(crawl), store.stats())
            }
            Some(Carry { crawl, store }) => {
                (&*store.insert(open()?), Some(crawl), StoreStats::default())
            }
            None => (&*own.insert(open()?), None, StoreStats::default()),
        };
        let crawled = held.as_ref().is_some_and(|crawl| crawl.is_some());
        let inc = validators.filter(|_| !crawled).and_then(|cache| {
            let Some(changed) = fetch_changed_hrefs(
                &eco.net,
                &self.config.crawl.list_host,
                cache.epoch(),
                &self.obs,
            ) else {
                self.obs.event(
                    Severity::Warn,
                    "crawl.incremental",
                    "change feed unavailable — crawling cold",
                );
                return None;
            };
            Some(IncrementalContext {
                cache: CacheStore(cache),
                changed,
                epoch,
            })
        });
        let run = Journaled {
            store,
            fingerprint,
            inc: inc.as_ref(),
        };
        let report = self.run_stages(eco, Some(run), held).and_then(|report| {
            if store.lookup_unit(K_COMPLETE, 0).is_none() {
                record(store, K_COMPLETE, 0, Vec::new())?;
            }
            Ok(report)
        });
        // Published however the slice ends, so a parked slice's work is
        // counted once, by the slice that did it.
        let end = store.stats();
        let publish = |name: &str, count: fn(&StoreStats) -> u64| {
            self.obs.counter(name).add(count(&end) - count(&start));
        };
        publish("store.journal.frames_written", |s| s.frames_written);
        publish("store.journal.replayed", |s| s.frames_replayed);
        publish("store.artifacts.hits", |s| s.artifact_hits);
        publish("store.artifacts.misses", |s| s.artifact_misses);
        Ok(ResumableOutcome {
            report: report?,
            store_stats: end,
            referenced_keys: store.referenced_keys(),
        })
    }

    /// Every stage, journaled through `run` when given; `held` is a sliced
    /// run's crawl slot (see [`Self::static_stages`]).
    pub(crate) fn run_stages(
        &self,
        eco: &Ecosystem,
        run: Option<Journaled<'_>>,
        held: Option<&mut Option<Crawl>>,
    ) -> Result<AuditReport, AuditError> {
        let (bots, crawl_stats) = self.static_stages(&eco.net, run, held)?;
        let honeypot = self.honeypot_stage(eco, run)?;
        Ok(AuditReport {
            platform: eco.kind,
            bots,
            crawl_stats,
            honeypot: Some(honeypot),
        })
    }

    /// Data collection, traceability, and code analysis under one `static`
    /// root span. Given `held`, a sliced run's crawl slot, a crawl an
    /// earlier slice left there is reused and the site is not asked again;
    /// an empty slot gets a copy of this slice's crawl once it completes.
    pub(crate) fn static_stages(
        &self,
        net: &Network,
        run: Option<Journaled<'_>>,
        held: Option<&mut Option<Crawl>>,
    ) -> Result<(Vec<AuditedBot>, CrawlStats), AuditError> {
        let root = self.obs.span("static");
        let (crawled, stats) = match held {
            Some(Some(crawl)) => crawl.clone(),
            held => {
                let crawl = self.crawl_stage(net, run, &root)?;
                if let Some(ctx) = run.and_then(|r| r.inc) {
                    self.commit_validators(ctx);
                }
                if let Some(slot) = held {
                    *slot = Some(crawl.clone());
                }
                crawl
            }
        };
        let bots = self.analysis_stage(net, crawled, run, &root)?;
        Ok((bots, stats))
    }

    /// Stage 1 under a `crawl` span: the listing, then its detail pages in
    /// fixed [`CRAWL_UNIT_SIZE`] units on a claim pool of
    /// `crawl.workers` sessions, each reused across the units its worker
    /// claims. A journaled run replays finished units and records each new
    /// one the moment it completes, so a crash preserves every completed
    /// unit regardless of order — except with the validator cache armed:
    /// the cache itself is then the crash-safe carrier for crawl state (a
    /// run after a restart 304s its way back in less time than the frames
    /// cost to serialize), so the crawl journals nothing. A parked fleet
    /// slice resumes from the crawl its job carries instead.
    fn crawl_stage(
        &self,
        net: &Network,
        run: Option<Journaled<'_>>,
        root: &Span,
    ) -> Result<(Vec<EncodedBot>, CrawlStats), AuditError> {
        let config = &self.config.crawl;
        let started = net.clock().now();
        let span = root.child("crawl");
        let store = run.map(|r| r.store);
        let journal = run.filter(|r| r.inc.is_none()).map(|r| r.store);
        let validators = run
            .and_then(|r| r.inc)
            .map(|ctx| (&ctx.cache as &dyn ValidatorStore, &ctx.changed));

        let listing = match store.and_then(|s| self.replay::<ListingIndex>(s, K_LISTING, 0)) {
            Some(listing) => {
                self.obs
                    .event(Severity::Info, "store.journal", "listing replayed");
                span.child("listing").record("replayed", 1);
                listing
            }
            None => {
                let listing =
                    discover_listing(net, config, validators.map(|v| v.0), &self.obs, &span);
                if let Some(store) = journal {
                    let bytes = serde_json::to_vec(&listing).expect("listing serializes");
                    record(store, K_LISTING, 0, bytes)?;
                }
                listing
            }
        };

        let units_span = span.child("units");
        let units = claim_map(
            listing.hrefs.chunks(CRAWL_UNIT_SIZE).collect(),
            resolve_workers(config.workers),
            |worker| detail_session(net, config, worker),
            |session, unit, hrefs: &[String]| {
                let key = unit as u64;
                if let Some(done) =
                    store.and_then(|s| self.replay::<DetailUnit>(s, K_CRAWL_UNIT, key))
                {
                    units_span.child_keyed("unit", key).record("replayed", 1);
                    return Ok::<_, AuditError>((done, Vec::new()));
                }
                let out = crawl_detail_unit(
                    session,
                    config,
                    hrefs,
                    key,
                    validators,
                    &self.obs,
                    &units_span,
                );
                if let Some(store) = journal {
                    let bytes = serde_json::to_vec(&out.0).expect("crawl unit serializes");
                    record(store, K_CRAWL_UNIT, key, bytes)?;
                }
                Ok(out)
            },
        )?;
        drop(units_span);

        let (crawled, mut stats) = assemble(&listing, units);
        stats.duration = net.clock().now().duration_since(started);
        // Deterministic totals go on the span; scheduling-dependent
        // overhead (captchas, spend, virtual duration) goes to metrics only.
        span.record("pages", stats.pages as u64);
        span.record("bots", stats.bots as u64);
        span.record("failures", stats.failures as u64);
        Ok((crawled, stats))
    }

    /// The crawl is complete: every validator entry now reflects this
    /// epoch's content, so advance the cache's committed epoch. A crash
    /// before this point leaves the older epoch on disk — the next run's
    /// changed set is then a superset of the truth, which costs extra
    /// fetches but can never reuse stale bytes.
    fn commit_validators(&self, ctx: &IncrementalContext) {
        let cache = &ctx.cache.0;
        if let Err(e) = cache.commit_epoch(ctx.epoch) {
            self.obs.event(
                Severity::Warn,
                "store.validators",
                format!("epoch commit failed: {e}"),
            );
        }
        self.obs
            .counter("store.validators.entries")
            .add(cache.stats().entries);
        // A held cache reports its open once, to the first run over it.
        let (replayed, reset) = cache.take_open_counts();
        self.obs.counter("store.validators.replayed").add(replayed);
        if reset {
            self.obs.counter("store.validators.reset").incr();
        }
    }

    /// Stages 2/3 under an `analysis` span with one `bot` child per
    /// listing index, on a claim pool of `workers` GitHub clients sharing
    /// one [`LinkCache`] and one [`AnalysisMemo`], so repeated links and
    /// boilerplate policies are resolved/scanned once across the whole
    /// population. A journaled run serves unchanged bots from the artifact
    /// pack instead.
    fn analysis_stage(
        &self,
        net: &Network,
        crawled: Vec<EncodedBot>,
        run: Option<Journaled<'_>>,
        root: &Span,
    ) -> Result<Vec<AuditedBot>, AuditError> {
        // Kernel counters are cumulative (per ontology instance / process-
        // wide for the scanner), so snapshot before and publish deltas.
        let policy_before = self.config.ontology.kernel_stats();
        let code_before = codeanal::scanner_kernel_stats();
        let links = LinkCache::new();
        let memo = AnalysisMemo::new();
        let span = root.child("analysis");
        let bots = claim_map(
            crawled,
            resolve_workers(self.config.workers),
            |_| self.analysis_client(net),
            |gh_client, idx, (bot, raw)| {
                let bot_span = span.child_keyed("bot", idx as u64);
                let mut analyze = |bot| self.audit_one(bot, gh_client, &links, &memo);
                let audited = match run {
                    None => analyze(bot),
                    Some(run) => self.analyze_stored(run, idx, bot, raw, &bot_span, analyze)?,
                };
                trace_audited(&bot_span, &audited);
                Ok::<_, AuditError>(audited)
            },
        )?;
        drop(span);
        self.publish_analysis_metrics(&links, &memo, policy_before, code_before);
        Ok(bots)
    }

    /// One bot's analysis through the artifact pack, at the address its
    /// crawled bytes hash to: a hit serves the stored artifact and a miss
    /// runs `analyze` and stores the result. The store counts each address
    /// once per handle and refuses a miss the kill switch has no budget
    /// for, so a refused bot stops the run before any work or count. A blob
    /// that does not decode is recomputed; puts are idempotent per address,
    /// so it stays in the pack and is recomputed on every run that meets it.
    fn analyze_stored(
        &self,
        run: Journaled<'_>,
        idx: usize,
        bot: CrawledBot,
        raw: Option<Vec<u8>>,
        bot_span: &Span,
        analyze: impl FnOnce(CrawledBot) -> AuditedBot,
    ) -> Result<AuditedBot, AuditError> {
        let store = run.store;
        let key = match &raw {
            Some(bytes) => artifact_key_raw(run.fingerprint, bytes),
            None => artifact_key(run.fingerprint, &bot),
        };
        let blob = checked(store, store.artifact_get(&key))?;
        let stored: Option<AnalysisArtifact> =
            blob.and_then(|blob| self.decode(&blob, format_args!("analysis {idx}")));
        Ok(match stored {
            Some(AnalysisArtifact { traceability, code }) => {
                bot_span.record("artifact_hit", 1);
                AuditedBot {
                    crawled: bot,
                    traceability,
                    code,
                }
            }
            None => {
                let AuditedBot {
                    crawled,
                    traceability,
                    code,
                } = analyze(bot);
                let artifact = AnalysisArtifact { traceability, code };
                let blob = serde_json::to_vec(&artifact).expect("artifact serializes");
                store.artifact_put(key, &blob)?;
                AuditedBot {
                    crawled,
                    traceability: artifact.traceability,
                    code: artifact.code,
                }
            }
        })
    }

    /// Stage 4. A journaled run replays its journaled campaign, or runs
    /// the campaign through the artifact pack's guild transcripts and
    /// journals the report as one unit. A run whose kill switch would
    /// refuse that unit stops before the campaign starts.
    fn honeypot_stage(
        &self,
        eco: &Ecosystem,
        run: Option<Journaled<'_>>,
    ) -> Result<CampaignReport, AuditError> {
        let Some(run) = run else {
            return Ok(self.run_honeypot(eco));
        };
        if let Some(report) = self.replay(run.store, K_HONEYPOT, 0) {
            self.obs
                .event(Severity::Info, "store.journal", "honeypot replayed");
            return Ok(report);
        }
        // A world never serves two campaigns: a sliced run keeps its world
        // across parks, so it parks before a campaign whose frame the kill
        // switch would refuse rather than after it.
        if run.store.budget_spent() {
            return Err(interrupted(run.store));
        }
        let fingerprint = delivery_scoped(run.fingerprint, eco);
        let report = self.dynamic_stage(eco, Some((run.store, fingerprint)));
        let bytes = serde_json::to_vec(&report).expect("campaign serializes");
        record(run.store, K_HONEYPOT, 0, bytes)?;
        Ok(report)
    }

    /// The journaled payload of unit `(kind, key)`, decoded, if any.
    fn replay<T: Deserialize>(&self, store: &AuditStore, kind: u16, key: u64) -> Option<T> {
        self.decode(
            &store.lookup_unit(kind, key)?,
            format_args!("unit {kind:#06x}/{key}"),
        )
    }

    /// Decode a journal payload or artifact blob, named `what` in the
    /// warning. One that passed its CRC but not the decoder — say, written
    /// by an older build under the same fingerprint — is a miss: the caller
    /// recomputes it, and a re-recorded unit's later frame wins on replay.
    fn decode<T: Deserialize>(&self, bytes: &[u8], what: fmt::Arguments<'_>) -> Option<T> {
        let decoded = serde_json::from_slice(bytes).ok();
        if decoded.is_none() {
            self.obs.counter("store.journal.undecodable").incr();
            self.obs.event(
                Severity::Warn,
                "store.journal",
                format!("{what} does not decode — recomputing"),
            );
        }
        decoded
    }

    /// The campaign over one substrate's sample, under a `dynamic` root
    /// span. With `store` — a journaled run's store and the fingerprint its
    /// transcripts hash under — guild transcripts live in the artifact pack
    /// under [`guild_snapshot_key`] addresses: the run re-drives only the
    /// guilds whose bot identity (name, invite, behaviour class) has no
    /// transcript there, and stores the transcript of every guild it set up
    /// for the next run. Snapshot lookups use [`AuditStore::artifact_peek`]
    /// and report on `honeypot.guilds_reused`, keeping the artifact
    /// hit/miss counters an exact census of per-bot analyses. Without a
    /// store the campaign drives every guild and touches no counter of
    /// reuse.
    pub(crate) fn run_campaign<S: ChatSubstrate>(
        &self,
        substrate: S,
        sample: Vec<(BehaviorClass, BotUnderTest<S>)>,
        store: Option<(&AuditStore, u64)>,
    ) -> CampaignReport {
        let root = self.obs.span("dynamic");
        let mut campaign = Campaign::new(substrate, self.config.honeypot.clone());
        let mut keys: BTreeMap<String, ContentHash> = BTreeMap::new();
        let mut reuse: BTreeMap<String, GuildSnapshot> = BTreeMap::new();
        if let Some((store, fingerprint)) = store {
            // The RNG-stream selector is the bot's position in bot-name
            // order — the same index the campaign assigns after sorting its
            // jobs.
            let mut names: Vec<&str> = sample.iter().map(|(_, bot)| bot.name.as_str()).collect();
            names.sort_unstable();
            for (class, bot) in &sample {
                let index = names
                    .binary_search(&bot.name.as_str())
                    .expect("sampled bot is in its own name list");
                let class = format!("{class:?}");
                let key = guild_snapshot_key(fingerprint, index, &bot.name, &bot.invite, &class);
                if let Some(snap) = store
                    .artifact_peek(&key)
                    .and_then(|blob| serde_json::from_slice::<GuildSnapshot>(&blob).ok())
                {
                    reuse.insert(bot.name.clone(), snap);
                }
                keys.insert(bot.name.clone(), key);
            }
            self.obs
                .counter("honeypot.guilds_reused")
                .add(reuse.len() as u64);
        }

        let bots = sample.into_iter().map(|(_, bot)| bot).collect();
        let (report, snapshots) = campaign.run_traced(bots, &self.obs, &root, &reuse);

        // Persist this run's transcripts for the next one. Failures are
        // swallowed — snapshots are performance state.
        if let Some((store, _)) = store {
            for snap in &snapshots {
                if let (Some(key), Ok(blob)) = (keys.get(&snap.bot_name), serde_json::to_vec(snap))
                {
                    let _ = store.artifact_put(*key, &blob);
                }
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use platform::PlatformKind;
    use synth::{build_ecosystem, EcosystemConfig};

    fn world() -> Ecosystem {
        build_ecosystem(&EcosystemConfig::test_scale(90, 13))
    }

    fn pipeline() -> AuditPipeline {
        AuditPipeline::new(AuditConfig {
            honeypot_sample: 10,
            ..AuditConfig::default()
        })
    }

    #[test]
    fn uninterrupted_resumable_matches_plain_run() {
        let eco = world();
        let plain = pipeline().run_full(&eco).canonical_json();

        let eco = world();
        let outcome = pipeline()
            .run_resumable(&eco, &StoreConfig::in_memory(), 13)
            .unwrap();
        assert_eq!(outcome.report.canonical_json(), plain);
        assert!(outcome.store_stats.frames_written > 0);
        assert_eq!(outcome.store_stats.frames_replayed, 0);
        assert_eq!(outcome.store_stats.artifact_hits, 0);
        assert_eq!(outcome.store_stats.artifact_misses, 90);
    }

    #[test]
    fn kill_switch_surfaces_interrupted() {
        let eco = world();
        let cfg = StoreConfig::in_memory().killing_after(3);
        let err = pipeline().run_resumable(&eco, &cfg, 13).unwrap_err();
        match err {
            AuditError::Interrupted { frames_written } => assert_eq!(frames_written, 3),
            other => panic!("expected interrupt, got {other}"),
        }
    }

    #[test]
    fn a_run_killed_at_its_campaign_frame_never_starts_the_campaign() {
        let clean = pipeline()
            .run_resumable(&world(), &StoreConfig::in_memory(), 13)
            .unwrap();
        // The campaign's frame is the last durable write but one, before
        // `K_COMPLETE`; every analysis miss before it wrote a pack frame.
        let stats = clean.store_stats;
        let budget = stats.frames_written + stats.artifact_misses - 2;
        let cfg = StoreConfig::in_memory().killing_after(budget);
        let killed = pipeline();
        match killed.run_resumable(&world(), &cfg, 13).unwrap_err() {
            AuditError::Interrupted { frames_written } => assert_eq!(frames_written, budget),
            other => panic!("expected interrupt, got {other}"),
        }
        assert_eq!(
            killed.obs().counter_value("honeypot.messages_posted"),
            0,
            "the campaign never started"
        );

        let resumed = pipeline()
            .run_resumable(
                &world(),
                &StoreConfig {
                    kill_after_frames: None,
                    ..cfg.resuming()
                },
                13,
            )
            .unwrap();
        assert_eq!(
            resumed.report.canonical_json(),
            clean.report.canonical_json()
        );
    }

    #[test]
    fn a_journal_of_another_world_shape_starts_over() {
        let world = |bots| build_ecosystem(&EcosystemConfig::test_scale(bots, 77));
        let shared = StoreConfig::in_memory();
        pipeline().run_resumable(&world(100), &shared, 77).unwrap();

        let fresh = pipeline()
            .run_resumable(&world(200), &StoreConfig::in_memory(), 77)
            .unwrap();
        let resumed = pipeline()
            .run_resumable(&world(200), &shared.resuming(), 77)
            .unwrap();
        assert_eq!(resumed.store_stats.frames_replayed, 0);
        assert_eq!(resumed.report.bots.len(), 200);
        assert_eq!(
            resumed.report.canonical_json(),
            fresh.report.canonical_json()
        );
    }

    #[test]
    fn crash_then_resume_replays_and_completes() {
        let eco = world();
        let uninterrupted = pipeline()
            .run_resumable(&eco, &StoreConfig::in_memory(), 13)
            .unwrap();

        let eco = world();
        let cfg = StoreConfig::in_memory().killing_after(20);
        pipeline().run_resumable(&eco, &cfg, 13).unwrap_err();

        let eco = world();
        let resumed = pipeline()
            .run_resumable(
                &eco,
                &StoreConfig {
                    kill_after_frames: None,
                    ..cfg.resuming()
                },
                13,
            )
            .unwrap();
        assert_eq!(
            resumed.report.canonical_json(),
            uninterrupted.report.canonical_json(),
            "resumed run must be byte-identical"
        );
        let stats = resumed.store_stats;
        assert!(stats.frames_replayed + stats.artifact_hits >= 20);
        assert!(
            resumed.store_stats.artifact_misses < 90,
            "resume must reuse analyses computed before the crash"
        );
    }

    #[test]
    fn warm_pack_fresh_run_reanalyzes_nothing() {
        let eco = world();
        let cfg = StoreConfig::in_memory();
        let cold = pipeline().run_resumable(&eco, &cfg, 13).unwrap();
        assert_eq!(cold.store_stats.artifact_misses, 90);

        // Fresh journal, warm pack: full re-crawl, zero re-analysis.
        let eco = world();
        let warm_pipeline = pipeline();
        let warm = warm_pipeline.run_resumable(&eco, &cfg, 13).unwrap();
        assert_eq!(warm.store_stats.artifact_hits, 90);
        assert_eq!(warm.store_stats.artifact_misses, 0);
        // The policy kernel counter is per-ontology-instance (mirrored into
        // this pipeline's obs registry), so it cleanly proves no analyzer
        // ran. (The code kernel counter is process-wide and other tests race
        // it; the artifact counters above cover it.)
        assert_eq!(
            warm_pipeline.obs().counter_value("policy.scan_passes"),
            0,
            "no keyword scans on a warm pack"
        );
        assert_eq!(warm.report.canonical_json(), cold.report.canonical_json());
    }

    #[test]
    fn an_analysis_blob_that_does_not_decode_is_recomputed() {
        let clean = pipeline()
            .run_resumable(&world(), &StoreConfig::in_memory(), 13)
            .unwrap();
        // Garbage at one bot's address, as an older build writing under the
        // same fingerprint might have left it.
        let cfg = StoreConfig::in_memory();
        let pack = ArtifactCache::open(cfg.backend.clone(), PACK_FILE).unwrap();
        let fingerprint = run_fingerprint(&pipeline().config, 13);
        let key = artifact_key(fingerprint, &clean.report.bots[0].crawled);
        pack.put(key, b"\xffnot an analysis").unwrap();
        drop(pack);

        let garbled = pipeline();
        let outcome = garbled.run_resumable(&world(), &cfg, 13).unwrap();
        assert_eq!(
            outcome.report.canonical_json(),
            clean.report.canonical_json()
        );
        assert_eq!(garbled.obs().counter_value("store.journal.undecodable"), 1);
        let stats = outcome.store_stats;
        assert_eq!((stats.artifact_hits, stats.artifact_misses), (1, 89));
    }

    #[test]
    fn warm_pack_fresh_run_redrives_no_guild() {
        for platform in PlatformKind::ALL {
            let world = || {
                build_ecosystem(&EcosystemConfig {
                    platform,
                    ..EcosystemConfig::test_scale(90, 13)
                })
            };
            let eco = world();
            let mut config = AuditConfig {
                honeypot_sample: 10,
                ..AuditConfig::default()
            };
            config.crawl.platform = platform;
            config.crawl.list_host = eco.list_host.clone();
            let cfg = StoreConfig::in_memory();
            let cold_pipeline = AuditPipeline::new(config.clone());
            let cold = cold_pipeline.run_resumable(&eco, &cfg, 13).unwrap();
            let campaign = cold.report.honeypot.as_ref().unwrap();
            assert_eq!(
                campaign.install_failures, 0,
                "{platform}: every guild set up"
            );
            assert_eq!(
                cold_pipeline.obs().counter_value("honeypot.guilds_reused"),
                0,
                "{platform}: an empty pack holds no transcript"
            );

            // Fresh journal, same pack: every guild the cold run populated
            // is served from its stored transcript.
            let warm_pipeline = AuditPipeline::new(config);
            let warm = warm_pipeline.run_resumable(&world(), &cfg, 13).unwrap();
            assert_eq!(
                warm_pipeline.obs().counter_value("honeypot.guilds_reused"),
                campaign.guilds_created as u64,
                "{platform}"
            );
            assert_eq!(
                warm.report.canonical_json(),
                cold.report.canonical_json(),
                "{platform}"
            );
        }
    }

    #[test]
    fn delivery_rules_scope_journals_and_guild_transcripts() {
        // The planted snooper is caught in the default world and starved
        // under either delivery rule, so a transcript replayed across
        // rules would show in the report.
        let default_world = || build_ecosystem(&EcosystemConfig::test_scale(120, 77));
        let least_privilege = || {
            build_ecosystem(&EcosystemConfig {
                least_privilege_delivery: true,
                ..EcosystemConfig::test_scale(120, 77)
            })
        };
        let enforced = || {
            let eco = default_world();
            eco.platform.set_runtime_policy(RuntimePolicy::Enforced);
            eco
        };
        let pipeline = || {
            AuditPipeline::new(AuditConfig {
                honeypot_sample: 25,
                ..AuditConfig::default()
            })
        };
        let campaign = |outcome: &ResumableOutcome| outcome.report.honeypot.clone().unwrap();

        let fingerprint = run_fingerprint(&pipeline().config, 77);
        assert_eq!(
            delivery_scoped(fingerprint, &default_world()),
            fingerprint,
            "default worlds keep their transcript addresses"
        );
        let shared = StoreConfig::in_memory();
        let baseline = pipeline()
            .run_resumable(&default_world(), &shared, 77)
            .unwrap();
        assert_eq!(campaign(&baseline).detections.len(), 1);

        let rules: [(&str, &dyn Fn() -> Ecosystem); 2] = [
            ("least privilege", &least_privilege),
            ("enforced", &enforced),
        ];
        for (rule, world) in rules {
            let fresh = pipeline()
                .run_resumable(&world(), &StoreConfig::in_memory(), 77)
                .unwrap();
            assert!(campaign(&fresh).detections.is_empty(), "{rule}: starved");

            // Resumed over another world's complete journal and its pack:
            // neither a unit nor a transcript is replayed.
            let first = pipeline();
            let shared_run = first
                .run_resumable(&world(), &shared.clone().resuming(), 77)
                .unwrap();
            assert_eq!(shared_run.store_stats.frames_replayed, 0, "{rule}");
            assert_eq!(
                first.obs().counter_value("honeypot.guilds_reused"),
                0,
                "{rule}"
            );
            assert_eq!(
                shared_run.report.canonical_json(),
                fresh.report.canonical_json(),
                "{rule}: a shared store must match a fresh one"
            );

            // The rule's own transcripts serve its next run.
            let second = pipeline();
            let warm = second.run_resumable(&world(), &shared, 77).unwrap();
            assert_eq!(
                second.obs().counter_value("honeypot.guilds_reused"),
                campaign(&fresh).guilds_created as u64,
                "{rule}"
            );
            assert_eq!(
                warm.report.canonical_json(),
                fresh.report.canonical_json(),
                "{rule}"
            );
        }
    }

    #[test]
    fn only_a_run_with_a_validator_cache_asks_the_change_feed() {
        // A listing mirror that is down: its change feed cannot answer.
        let mut config = AuditConfig {
            honeypot_sample: 2,
            ..AuditConfig::default()
        };
        config.crawl.list_host = "mirror.offline".into();
        let warned = |pipeline: &AuditPipeline| {
            pipeline
                .obs()
                .events()
                .iter()
                .any(|e| e.message.contains("change feed unavailable"))
        };

        let resumable = AuditPipeline::new(config.clone());
        resumable
            .run_resumable(&world(), &StoreConfig::in_memory(), 13)
            .unwrap();
        assert!(!warned(&resumable), "no cache, no feed to miss");

        let store = StoreConfig::in_memory();
        let pack = ArtifactCache::open(store.backend.clone(), PACK_FILE).unwrap();
        let cache =
            ValidatorCache::open(store.backend.clone(), run_fingerprint(&config, 13)).unwrap();
        let incremental = AuditPipeline::new(config);
        incremental
            .run_carried(
                &world(),
                &store,
                13,
                1,
                Arc::new(pack),
                Some(Arc::new(cache)),
                None,
            )
            .unwrap();
        assert!(warned(&incremental), "a cache whose feed is down is named");
    }

    #[test]
    fn fingerprint_tracks_content_not_workers() {
        let base = AuditConfig::default();
        let seed_a = run_fingerprint(&base, 1);
        assert_eq!(seed_a, run_fingerprint(&base, 1), "stable");
        assert_ne!(seed_a, run_fingerprint(&base, 2), "world seed matters");

        let mut workers = base.clone();
        workers.workers = 8;
        workers.crawl.workers = 8;
        workers.honeypot.workers = 8;
        assert_eq!(
            seed_a,
            run_fingerprint(&workers, 1),
            "workers knobs excluded"
        );

        let mut sample = base.clone();
        sample.honeypot_sample = 99;
        assert_ne!(seed_a, run_fingerprint(&sample, 1), "sample size matters");
    }
}
