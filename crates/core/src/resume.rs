//! The pipeline's one stage flow, with or without a crash-safe store.
//!
//! The paper's measurement ran for weeks and was restarted many times; every
//! restart re-paid crawl and analysis work. Every run of the pipeline —
//! [`AuditPipeline::run_full`] included — goes through the flow in this
//! module: the listing traversal, fixed-size chunks of detail pages, the
//! per-bot analyses, and the honeypot campaign. Routed through a store,
//! each stage's state lands the moment it is made in a file that addresses
//! it by URL or by content, never by the run's position: every page the
//! crawl fetches in the validator cache (`validators.wal`), keyed by URL;
//! each bot's analysis in the artifact pack (`artifacts.pack`), at the
//! address its crawled bytes hash to; and each honeypot guild's transcript
//! in the pack too, keyed by its bot's identity. Without a store the same
//! flow skips every validator, artifact key, and serialization.
//!
//! Two properties follow, and the test suite pins both down:
//!
//! * **Crash-equivalence.** A run killed after any number of durable
//!   writes, then rerun over the same store, produces a canonical report
//!   byte-identical to an uninterrupted run: the rerun answers every page
//!   the killed run crawled with a 304, serves the analyses it stored from
//!   the pack and reuses its guild transcripts. This leans on the fabric's
//!   guarantee (proved by the worker-count-invariance tests) that request
//!   *content* is independent of request scheduling, so asking again for
//!   what a killed run already fetched does not perturb the remainder.
//! * **Incrementality.** A rerun over a warm store fetches no unchanged
//!   page's body, performs **zero** policy or code re-analyses for
//!   unchanged bots and re-drives no honeypot guild of an unchanged bot —
//!   the `crawl.*` counters, the artifact counters in
//!   [`store::StoreStats`] (also mirrored into the pipeline's obs registry
//!   under `store.*`) and `honeypot.guilds_reused` prove it.
//!
//! Stored state that passes its CRC but does not decode is a miss, never a
//! crash: an analysis blob or guild transcript is counted under
//! `store.artifacts.undecodable` and recomputed, and a validator entry is
//! fetched again in full.
//!
//! A fleet `Batch` audit runs in slices that park when their budget of
//! durable writes runs out. Its job holds the world it was built against
//! and a `Carry` between slices — the completed crawl and the open store —
//! so a resumed slice builds no world, asks the site nothing, and reopens
//! nothing.

use crate::error::AuditError;
use crate::pipeline::{
    trace_audited, AuditConfig, AuditPipeline, AuditReport, AuditedBot, CodeFinding,
};
use codeanal::LinkCache;
use crawler::crawl::{
    assemble, crawl_detail_unit, detail_session, discover_listing, resolve_workers, CrawlStats,
    CrawledBot, EncodedBot, DETAIL_UNIT_SIZE,
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
use std::convert::Infallible;
use std::fmt;
use std::sync::Arc;
use store::{
    ArtifactCache, AuditStore, Backend, ContentHash, DiskBackend, MemBackend, StoreError,
    StoreStats, ValidatorCache, PACK_FILE,
};
use synth::truth::BehaviorClass;
use synth::Ecosystem;

/// Where and how a journaled run persists.
///
/// A run reads and extends the artifact pack and validator cache on
/// `backend`. There is no separate resume mode: a run over the files a
/// killed run left continues it, and one over a complete run's files
/// reuses everything that did not change.
#[derive(Clone)]
pub struct StoreConfig {
    /// The storage backend (in-memory for tests, disk for real runs).
    pub backend: Arc<dyn Backend>,
    /// Arm the crash lever: allow this many durable writes — the pack
    /// frame each analysis miss owes, plus one for the campaign's guild
    /// transcripts — then fail the run with [`AuditError::Interrupted`]
    /// exactly as if the process died.
    pub kill_after_frames: Option<u64>,
}

impl StoreConfig {
    /// A hermetic in-memory store (no kill switch).
    pub fn in_memory() -> StoreConfig {
        StoreConfig {
            backend: Arc::new(MemBackend::new()),
            kill_after_frames: None,
        }
    }

    /// A disk store rooted at `dir` (no kill switch). Creates the directory
    /// if needed.
    pub fn on_disk(dir: impl Into<std::path::PathBuf>) -> std::io::Result<StoreConfig> {
        Ok(StoreConfig {
            backend: Arc::new(DiskBackend::open(dir)?),
            kill_after_frames: None,
        })
    }

    /// The same store with the crash lever armed after `frames` durable
    /// writes.
    pub fn killing_after(mut self, frames: u64) -> StoreConfig {
        self.kill_after_frames = Some(frames);
        self
    }

    /// A store handle over `pack`, with the crash lever armed when
    /// configured.
    fn open(&self, pack: Arc<ArtifactCache>) -> AuditStore {
        let store = AuditStore::open(pack);
        if let Some(frames) = self.kill_after_frames {
            store.set_kill_after(frames);
        }
        store
    }
}

impl fmt::Debug for StoreConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("StoreConfig")
            .field("kill_after_frames", &self.kill_after_frames)
            .finish_non_exhaustive()
    }
}

/// A completed crawl: every crawled bot with its raw encoding, and the
/// crawl's totals.
pub(crate) type Crawl = (Vec<EncodedBot>, CrawlStats);

/// What a sliced run carries in memory from one slice to the next: its
/// completed crawl and its open store, whose counts and referenced keys
/// then span every slice. A parked fleet job holds one; a restart loses it,
/// and a resubmitted audit falls back on the pack and validator cache,
/// which stay the crash-safe state.
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
    /// The artifact hits and misses of the run's store handle — one handle
    /// over every slice of a run that parked.
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
/// across worker counts, so a store written at `--workers 8` serves a rerun
/// at `--workers 1`. It keys a run's analyses; a journaled run scopes its
/// validator cache further by the world's lineage ([`validator_identity`])
/// and its guild transcripts by the world's message-delivery rules.
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

/// The identity a run's validator cache carries: [`run_fingerprint`] scoped
/// by the world's lineage ([`synth::world_lineage`]), how the world was
/// built with its epoch left out. Every epoch of one drift lineage shares
/// it, so epoch N+1 warms from epoch N; a store written against a world
/// built another way starts its validator cache over, since the site's
/// change feed only names what moved along one lineage.
pub fn validator_identity(config: &AuditConfig, world_seed: u64, lineage: &str) -> u64 {
    store::fingerprint(&[
        b"validators-v2",
        &run_fingerprint(config, world_seed).to_le_bytes(),
        lineage.as_bytes(),
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

/// Everything the warm crawl path carries: the validator cache at the
/// epoch the site serves, and the set of detail hrefs the site's change
/// ledger names since the cache's committed epoch. Absent, the pipeline
/// crawls cold — incrementality is a performance overlay, never a
/// correctness dependency.
pub(crate) struct IncrementalContext {
    cache: CacheStore,
    changed: BTreeSet<String>,
}

/// [`ValidatorStore`] over the journaled [`ValidatorCache`] at `epoch`, the
/// epoch the site's change feed reports: every page is stored as fetched at
/// it, and no page fetched at a later one is read. Write failures are
/// swallowed: validators are performance state — a lost entry costs an
/// extra full fetch on the next run, never a wrong crawl.
struct CacheStore {
    cache: Arc<ValidatorCache>,
    epoch: u32,
}

impl ValidatorStore for CacheStore {
    fn get(&self, key: &str) -> Option<Vec<u8>> {
        self.cache.get(key, self.epoch)
    }

    fn put(&self, key: &str, value: &[u8]) {
        let _ = self.cache.put(key, value, self.epoch);
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

/// The identity a world's guild transcripts are recorded under:
/// `fingerprint` itself under Discord's default delivery rules (no
/// per-message least privilege, no runtime enforcer), so packs written by
/// default worlds keep it; digested with the rules otherwise, so a world
/// under one rule never replays a transcript recorded under another.
/// Analyses of crawled bytes do not depend on delivery and stay keyed by
/// `fingerprint`.
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
    /// Opens the store's artifact pack and its validator cache for this
    /// run and world ([`validator_identity`]) and runs the one journaled
    /// flow over them. A validator cache that cannot open is a warning
    /// under `store.validators`, and the run crawls cold, as a fleet
    /// tenant's does. Every page lands in the validator cache as it is
    /// fetched, each analysis in the pack, and the campaign's guild
    /// transcripts there too; a run killed at any durable write, rerun over
    /// the same store, finishes with a canonical report byte-identical to
    /// an uninterrupted run. A rerun over a complete store revalidates
    /// every unchanged page for a bodyless 304, re-analyzes nothing and
    /// re-drives no honeypot guild whose transcript it holds.
    pub fn run_resumable(
        &self,
        eco: &Ecosystem,
        store_cfg: &StoreConfig,
        world_seed: u64,
    ) -> Result<ResumableOutcome, AuditError> {
        let backend = &store_cfg.backend;
        let pack = ArtifactCache::open(backend.clone(), PACK_FILE).map_err(StoreError::Io)?;
        let identity = validator_identity(&self.config, world_seed, &eco.lineage);
        let validators = ValidatorCache::open(backend.clone(), identity)
            .inspect_err(|e| {
                self.obs.event(
                    Severity::Warn,
                    "store.validators",
                    format!("validator cache unavailable ({e}); crawling cold"),
                )
            })
            .ok()
            .map(Arc::new);
        self.run_carried(eco, store_cfg, world_seed, Arc::new(pack), validators, None)
    }

    /// Every journaled run: [`Self::run_resumable`], or one slice of a
    /// fleet tenant's run over its held files.
    ///
    /// The run appends to `pack`, an artifact pack already open. Given
    /// `validators`, the validator cache for this run and world
    /// ([`validator_identity`]), it asks the listing site which bots changed
    /// since the cache's committed epoch and hands the crawl the cache, so
    /// an unchanged page costs one bodyless 304 round-trip and a
    /// ledger-named page is always re-fetched in full; a crawl that
    /// completes commits the cache at the epoch the site's change feed
    /// reports. Without a cache, or if the change feed is unreachable (a
    /// warning names that case), the crawl runs cold and persists nothing —
    /// the report is byte-identical either way.
    ///
    /// Given `carry`, this is one slice of a sliced run: the store an
    /// earlier slice opened is re-armed for this slice's budget instead of
    /// reopened, and a crawl an earlier slice carried is reused — no
    /// change-feed query, no crawl, no second validator commit. A slice
    /// that opens the store or completes the crawl leaves it in `carry`.
    /// Each slice publishes its own `store.*` counts; a completed run
    /// reports its store's totals.
    pub(crate) fn run_carried(
        &self,
        eco: &Ecosystem,
        store_cfg: &StoreConfig,
        world_seed: u64,
        pack: Arc<ArtifactCache>,
        validators: Option<Arc<ValidatorCache>>,
        carry: Option<&mut Carry>,
    ) -> Result<ResumableOutcome, AuditError> {
        let fingerprint = run_fingerprint(&self.config, world_seed);
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
            Some(Carry { crawl, store }) => (
                &*store.insert(store_cfg.open(pack)),
                Some(crawl),
                StoreStats::default(),
            ),
            None => (
                &*own.insert(store_cfg.open(pack)),
                None,
                StoreStats::default(),
            ),
        };
        let crawled = held.as_ref().is_some_and(|crawl| crawl.is_some());
        let inc = validators.filter(|_| !crawled).and_then(|cache| {
            let Some((changed, epoch)) = fetch_changed_hrefs(
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
                cache: CacheStore { cache, epoch },
                changed,
            })
        });
        let run = Journaled {
            store,
            fingerprint,
            inc: inc.as_ref(),
        };
        let report = self.run_stages(eco, Some(run), held);
        // Published however the slice ends, so a parked slice's work is
        // counted once, by the slice that did it.
        let end = store.stats();
        self.obs
            .counter("store.artifacts.hits")
            .add(end.artifact_hits - start.artifact_hits);
        self.obs
            .counter("store.artifacts.misses")
            .add(end.artifact_misses - start.artifact_misses);
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
                let inc = run.and_then(|r| r.inc);
                let crawl = self.crawl_stage(net, inc, &root);
                if let Some(ctx) = inc {
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
    /// fixed [`DETAIL_UNIT_SIZE`] units on a claim pool of `crawl.workers`
    /// sessions, each reused across the units its worker claims. Given
    /// `inc`, the crawl takes the warm path and puts every page it fetches
    /// into the validator cache the moment it has it, so the cache is the
    /// crawl's crash-safe state: a rerun after a crash 304s its way back
    /// through every page the killed run crawled. A parked fleet slice
    /// resumes from the crawl its job carries instead.
    fn crawl_stage(&self, net: &Network, inc: Option<&IncrementalContext>, root: &Span) -> Crawl {
        let config = &self.config.crawl;
        let started = net.clock().now();
        let span = root.child("crawl");
        let validators = inc.map(|ctx| (&ctx.cache as &dyn ValidatorStore, &ctx.changed));
        let listing = discover_listing(net, config, validators.map(|v| v.0), &self.obs, &span);

        let units_span = span.child("units");
        let Ok(units) = claim_map(
            listing.hrefs.chunks(DETAIL_UNIT_SIZE).collect(),
            resolve_workers(config.workers),
            |worker| detail_session(net, config, worker),
            |session, unit, hrefs: &[String]| {
                let unit = unit as u64;
                let out = crawl_detail_unit(
                    session,
                    config,
                    hrefs,
                    unit,
                    validators,
                    &self.obs,
                    &units_span,
                );
                Ok::<_, Infallible>(out)
            },
        );
        drop(units_span);

        let (crawled, mut stats) = assemble(&listing, units);
        stats.duration = net.clock().now().duration_since(started);
        // Deterministic totals go on the span; scheduling-dependent
        // overhead (captchas, spend, virtual duration) goes to metrics only.
        span.record("pages", stats.pages as u64);
        span.record("bots", stats.bots as u64);
        span.record("failures", stats.failures as u64);
        (crawled, stats)
    }

    /// The crawl is complete: every validator entry now reflects this
    /// epoch's content, so advance the cache's committed epoch. A crash
    /// before this point leaves the older epoch on disk — the next run's
    /// changed set is then a superset of the truth, which costs extra
    /// fetches but can never reuse stale bytes.
    fn commit_validators(&self, ctx: &IncrementalContext) {
        let CacheStore { cache, epoch } = &ctx.cache;
        if let Err(e) = cache.commit_epoch(*epoch) {
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
        // The policy kernel counts per ontology instance, so snapshot it and
        // publish the delta; code scans count on the pipeline as they end.
        let policy_before = self.config.ontology.kernel_stats();
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
        self.publish_analysis_metrics(&links, &memo, policy_before);
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

    /// Stage 4. A journaled run drives the campaign through the artifact
    /// pack's guild transcripts, and its store counts the campaign as one
    /// durable write once it ends. A run whose kill switch would refuse
    /// that write stops before the campaign starts.
    fn honeypot_stage(
        &self,
        eco: &Ecosystem,
        run: Option<Journaled<'_>>,
    ) -> Result<CampaignReport, AuditError> {
        let Some(run) = run else {
            return Ok(self.run_honeypot(eco));
        };
        // A world never serves two campaigns: a sliced run keeps its world
        // across parks, so it parks before a campaign the kill switch would
        // refuse to count rather than after it.
        if run.store.budget_spent() {
            return Err(interrupted(run.store));
        }
        let fingerprint = delivery_scoped(run.fingerprint, eco);
        let report = self.dynamic_stage(eco, Some((run.store, fingerprint)));
        run.store.record_campaign();
        Ok(report)
    }

    /// Decode an analysis blob or guild transcript, named `what` in the
    /// warning. One that passed its CRC but not the decoder — say, written
    /// by an older build under the same fingerprint — is a miss: the caller
    /// recomputes it.
    fn decode<T: Deserialize>(&self, bytes: &[u8], what: fmt::Arguments<'_>) -> Option<T> {
        let decoded = serde_json::from_slice(bytes).ok();
        if decoded.is_none() {
            self.obs.counter("store.artifacts.undecodable").incr();
            self.obs.event(
                Severity::Warn,
                "store.artifacts",
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
    /// transcript there that decodes, and stores the transcript of every
    /// guild it set up for the next run. Snapshot lookups use
    /// [`AuditStore::artifact_peek`] and report on `honeypot.guilds_reused`,
    /// keeping the artifact hit/miss counters an exact census of per-bot
    /// analyses. Without a store the campaign drives every guild and
    /// touches no counter of reuse.
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
                if let Some(snap) = store.artifact_peek(&key).and_then(|blob| {
                    self.decode::<GuildSnapshot>(&blob, format_args!("guild of {}", bot.name))
                }) {
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
        let run = pipeline();
        let outcome = run
            .run_resumable(&eco, &StoreConfig::in_memory(), 13)
            .unwrap();
        assert_eq!(outcome.report.canonical_json(), plain);
        // A cold store: every page fetched in full and cached, every
        // analysis computed, every guild driven.
        let obs = run.obs();
        assert_eq!(obs.counter_value("crawl.validated"), 0);
        assert!(obs.counter_value("store.validators.entries") > 0);
        assert_eq!(obs.counter_value("honeypot.guilds_reused"), 0);
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
        // The campaign is the last durable write; every analysis miss
        // before it wrote a pack frame.
        let budget = clean.store_stats.artifact_misses;
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

        let rerun = pipeline();
        let resumed = rerun
            .run_resumable(
                &world(),
                &StoreConfig {
                    kill_after_frames: None,
                    ..cfg
                },
                13,
            )
            .unwrap();
        assert_eq!(
            resumed.report.canonical_json(),
            clean.report.canonical_json()
        );
        assert_eq!(resumed.store_stats.artifact_hits, budget);
        assert_eq!(rerun.obs().counter_value("honeypot.guilds_reused"), 0);
    }

    #[test]
    fn a_store_of_another_world_shape_reports_like_a_fresh_one() {
        let world = |bots| build_ecosystem(&EcosystemConfig::test_scale(bots, 77));
        let shared = StoreConfig::in_memory();
        pipeline().run_resumable(&world(100), &shared, 77).unwrap();

        let fresh = pipeline()
            .run_resumable(&world(200), &StoreConfig::in_memory(), 77)
            .unwrap();
        let rerun = pipeline().run_resumable(&world(200), &shared, 77).unwrap();
        assert_eq!(rerun.report.bots.len(), 200);
        assert_eq!(rerun.report.canonical_json(), fresh.report.canonical_json());
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
        let rerun = pipeline();
        let resumed = rerun
            .run_resumable(
                &eco,
                &StoreConfig {
                    kill_after_frames: None,
                    ..cfg
                },
                13,
            )
            .unwrap();
        assert_eq!(
            resumed.report.canonical_json(),
            uninterrupted.report.canonical_json(),
            "resumed run must be byte-identical"
        );
        // The killed run finished its crawl: the rerun answers every page
        // with a 304 and serves the analyses stored before the crash.
        assert!(rerun.obs().counter_value("crawl.validated") > 0);
        assert_eq!(rerun.obs().counter_value("crawl.fetched_full"), 0);
        let stats = resumed.store_stats;
        assert!(stats.artifact_hits >= 20);
        assert!(
            stats.artifact_misses < 90,
            "resume must reuse analyses computed before the crash"
        );
    }

    #[test]
    fn warm_pack_fresh_run_reanalyzes_nothing() {
        let eco = world();
        let cfg = StoreConfig::in_memory();
        let cold = pipeline().run_resumable(&eco, &cfg, 13).unwrap();
        assert_eq!(cold.store_stats.artifact_misses, 90);

        // A rerun over the same store: no page body, zero re-analysis.
        let eco = world();
        let warm_pipeline = pipeline();
        let warm = warm_pipeline.run_resumable(&eco, &cfg, 13).unwrap();
        assert_eq!(warm.store_stats.artifact_hits, 90);
        assert_eq!(warm.store_stats.artifact_misses, 0);
        assert_eq!(warm_pipeline.obs().counter_value("crawl.fetched_full"), 0);
        // Both kernel counters are this pipeline's own, so they cleanly
        // prove no analyzer ran.
        for kernel in ["policy.scan_passes", "code.scan_passes"] {
            assert_eq!(
                warm_pipeline.obs().counter_value(kernel),
                0,
                "no {kernel} on a warm pack"
            );
        }
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
        assert_eq!(
            garbled.obs().counter_value("store.artifacts.undecodable"),
            1
        );
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

            // A rerun over the same store: every guild the cold run
            // populated is served from its stored transcript.
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
    fn delivery_rules_scope_guild_transcripts() {
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

            // Over the store another rule's complete run left: no
            // transcript is replayed.
            let first = pipeline();
            let shared_run = first.run_resumable(&world(), &shared, 77).unwrap();
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
    fn a_journaled_run_whose_change_feed_is_down_names_it_and_crawls_cold() {
        // A listing mirror that is down: its change feed cannot answer.
        let mut config = AuditConfig {
            honeypot_sample: 2,
            ..AuditConfig::default()
        };
        config.crawl.list_host = "mirror.offline".into();
        let plain = AuditPipeline::new(config.clone())
            .run_full(&world())
            .canonical_json();
        let store = StoreConfig::in_memory();
        for run in 0..2 {
            let journaled = AuditPipeline::new(config.clone());
            let outcome = journaled.run_resumable(&world(), &store, 13).unwrap();
            assert_eq!(outcome.report.canonical_json(), plain, "run {run}");
            let obs = journaled.obs();
            assert!(
                obs.events()
                    .iter()
                    .any(|e| e.message.contains("change feed unavailable")),
                "run {run}: a cache whose feed is down is named"
            );
            // Cold: nothing revalidated, and the cache never committed.
            assert_eq!(obs.counter_value("crawl.validated"), 0, "run {run}");
            assert_eq!(obs.counter_value("store.validators.entries"), 0);
        }
    }

    /// A backend whose validator cache cannot be read.
    struct NoValidators(MemBackend);

    impl Backend for NoValidators {
        fn read(&self, name: &str) -> std::io::Result<Option<Vec<u8>>> {
            if name == store::VALIDATOR_FILE {
                return Err(std::io::Error::other("unreadable"));
            }
            self.0.read(name)
        }
        fn write_atomic(&self, name: &str, bytes: &[u8]) -> std::io::Result<()> {
            self.0.write_atomic(name, bytes)
        }
        fn append(&self, name: &str, bytes: &[u8]) -> std::io::Result<()> {
            self.0.append(name, bytes)
        }
        fn remove(&self, name: &str) -> std::io::Result<()> {
            self.0.remove(name)
        }
    }

    #[test]
    fn a_journaled_run_whose_validator_cache_cannot_open_names_it_and_crawls_cold() {
        let plain = pipeline().run_full(&world()).canonical_json();
        let store = StoreConfig {
            backend: Arc::new(NoValidators(MemBackend::new())),
            kill_after_frames: None,
        };
        let journaled = pipeline();
        let outcome = journaled.run_resumable(&world(), &store, 13).unwrap();
        assert_eq!(outcome.report.canonical_json(), plain);
        let obs = journaled.obs();
        assert!(obs
            .events()
            .iter()
            .any(|e| e.target == "store.validators" && e.message.contains("crawling cold")));
        assert_eq!(obs.counter_value("crawl.validated"), 0);
        // The pack still carries the run: every analysis is stored.
        assert_eq!(
            outcome.store_stats.artifact_misses as usize,
            outcome.report.bots.len()
        );
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
