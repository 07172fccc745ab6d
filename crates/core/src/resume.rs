//! The pipeline's one stage flow, with or without a crash-safe store.
//!
//! The paper's measurement ran for weeks and was restarted many times; every
//! restart re-paid crawl and analysis work. Every run of the pipeline —
//! [`AuditPipeline::run_full`] included — goes through the flow in this
//! module: the listing traversal, fixed-size chunks of detail pages, the
//! per-bot analyses, and the honeypot campaign. Routed through a
//! [`store::AuditStore`], each completed unit is durably journaled the
//! moment it finishes, and analysis outputs live in a content-addressed
//! artifact cache keyed by the bot's crawled bytes. Without a store the
//! same flow skips every journal lookup, frame write, artifact key, and
//! serialization.
//!
//! Two properties follow, and the test suite pins both down:
//!
//! * **Crash-equivalence.** A run killed after any number of frames, then
//!   resumed, produces a canonical report byte-identical to an uninterrupted
//!   run. This leans on the fabric's guarantee (proved by the
//!   worker-count-invariance tests) that request *content* is independent of
//!   request scheduling, so skipping already-journaled requests does not
//!   perturb the remainder.
//! * **Incrementality.** A fresh (non-resumed) run against a warm artifact
//!   pack re-crawls but performs **zero** policy or code re-analyses for
//!   unchanged bots — the artifact counters in [`store::StoreStats`] (also
//!   mirrored into the pipeline's obs registry under `store.*`) prove it.
//!
//! Journal layout is worker-count independent: detail pages are journaled in
//! fixed [`CRAWL_UNIT_SIZE`] chunks and analyses per listing index. A frame
//! that passes its CRC but does not decode is a miss, never a crash: it is
//! counted under `store.journal.undecodable`, recomputed, and re-recorded.

use crate::pipeline::{
    trace_audited, AuditConfig, AuditPipeline, AuditReport, AuditedBot, CodeFinding,
};
use codeanal::LinkCache;
use crawler::crawl::{
    assemble, crawl_detail_unit, detail_session, discover_listing, resolve_workers, CrawlStats,
    CrawledBot, DetailUnit, EncodedBot, ListingIndex, DETAIL_UNIT_SIZE,
};
use crawler::incremental::{fetch_changed_hrefs, ValidatorStore};
use honeypot::campaign::{CampaignReport, GuildSnapshot};
use netsim::Network;
use obs::{claim_map, Severity, Span};
use policy::{AnalysisMemo, DataPractice, TraceabilityReport};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;
use store::{
    AuditStore, Backend, ContentHash, DiskBackend, MemBackend, StoreError, StoreStats,
    ValidatorCache,
};
use synth::Ecosystem;

/// Journal frame kind: the merged listing index (phase A). Key 0.
pub const K_LISTING: u16 = 0x0010;
/// Journal frame kind: one detail-page chunk. Key = chunk index.
pub const K_CRAWL_UNIT: u16 = 0x0011;
/// Journal frame kind: one bot's analysis; payload is the 16-byte content
/// address of the artifact. Key = listing index.
pub const K_ANALYSIS: u16 = 0x0012;
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
    /// Arm the crash lever: allow this many journal appends, then fail the
    /// run with [`ResumeError::Interrupted`] exactly as if the process died.
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

    /// The same store with the crash lever armed after `frames` appends.
    pub fn killing_after(mut self, frames: u64) -> StoreConfig {
        self.kill_after_frames = Some(frames);
        self
    }

    /// Open the audit store for the run identified by `fingerprint`, with
    /// the crash lever armed when configured.
    fn open(&self, fingerprint: u64) -> Result<AuditStore, ResumeError> {
        let store = AuditStore::open(self.backend.clone(), fingerprint, self.resume)
            .map_err(ResumeError::Store)?;
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

/// Why a resumable run did not complete.
#[derive(Debug)]
pub enum ResumeError {
    /// The armed kill switch fired mid-run (the simulated crash). Every
    /// frame written before the crash is durable and will replay.
    Interrupted {
        /// Journal frames durably written before the simulated crash.
        frames_written: u64,
    },
    /// The storage backend failed.
    Store(StoreError),
}

impl fmt::Display for ResumeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ResumeError::Interrupted { frames_written } => {
                write!(f, "run interrupted after {frames_written} durable frames")
            }
            ResumeError::Store(e) => write!(f, "store failure: {e}"),
        }
    }
}

impl std::error::Error for ResumeError {}

/// A completed resumable run.
///
/// Memoization and kernel counters live on the pipeline's obs registry
/// (`analysis.*`, `policy.*`, `code.*`, `store.*`) — read them through
/// [`AuditPipeline::obs`].
#[derive(Debug)]
pub struct ResumableOutcome {
    /// The full report, canonical-identical to an uninterrupted run.
    pub report: AuditReport,
    /// Raw store counters for this handle (journal frames written/replayed,
    /// artifact cache hits/misses).
    pub store_stats: StoreStats,
    /// Every artifact-pack address the completing handle referenced,
    /// sorted and deduplicated — what the fleet's epoch chain records so
    /// generational compaction keeps this run's blobs live.
    pub referenced_keys: Vec<store::ContentHash>,
}

/// The journaled analysis output for one bot: everything [`AuditedBot`]
/// adds on top of the crawl. Stored as a content-addressed artifact so an
/// unchanged bot is never re-analyzed, even across unrelated runs.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct AnalysisArtifact {
    traceability: TraceabilityReport,
    code: Option<CodeFinding>,
}

/// Digest of everything that shapes measurement *content*. Parallelism
/// knobs (`crawl.workers`, `workers`, `honeypot.workers`) are deliberately
/// excluded: output is byte-identical across worker counts, so a journal
/// written at `--workers 8` resumes correctly at `--workers 1`.
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

/// Everything the warm crawl path carries: the tenant's journaled
/// validator cache, the set of detail hrefs the site's change ledger names
/// since the cache's committed epoch, and the epoch to commit once the
/// crawl completes. Absent, the pipeline crawls cold — incrementality is a
/// performance overlay, never a correctness dependency.
pub(crate) struct IncrementalContext {
    cache: CacheStore,
    changed: BTreeSet<String>,
    epoch: u32,
}

/// [`ValidatorStore`] over the journaled [`ValidatorCache`]. Write failures
/// are swallowed: validators are performance state — a lost entry costs an
/// extra full fetch on the next run, never a wrong crawl.
struct CacheStore(ValidatorCache);

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

/// The content address of one honeypot guild's cached transcript. Keyed on
/// everything that shapes the guild's phase-2 run: the run fingerprint
/// (campaign config, seeds), the bot's RNG-stream index in bot-name order,
/// and the bot's identity — name, rendered invite URL, behaviour class. A
/// behaviour flip or permission-creeped invite moves the address, so a
/// drifted bot can never replay a stale transcript.
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

fn record(store: &AuditStore, kind: u16, key: u64, payload: Vec<u8>) -> Result<(), ResumeError> {
    store.record_unit(kind, key, payload).map_err(|e| match e {
        StoreError::Interrupted => ResumeError::Interrupted {
            frames_written: store.stats().frames_written,
        },
        other => ResumeError::Store(other),
    })
}

impl AuditPipeline {
    /// Run the full pipeline through a crash-safe store.
    ///
    /// Every completed unit is journaled before the next begins; a run
    /// killed at any frame boundary resumes from the journal and finishes
    /// with a canonical report byte-identical to an uninterrupted run. A
    /// fresh run against a warm artifact pack re-crawls but re-analyzes
    /// nothing.
    pub fn run_resumable(
        &self,
        eco: &Ecosystem,
        store_cfg: &StoreConfig,
        world_seed: u64,
    ) -> Result<ResumableOutcome, ResumeError> {
        let fingerprint = run_fingerprint(&self.config, world_seed);
        self.run_journaled(
            eco,
            Journaled {
                store: &store_cfg.open(fingerprint)?,
                fingerprint,
                inc: None,
            },
        )
    }

    /// [`Self::run_resumable`] with the conditional-fetch warm path armed.
    ///
    /// Opens the tenant's validator cache next to the artifact pack, asks
    /// the listing site which bots changed since the cache's committed
    /// epoch, and hands the crawl the cache: an unchanged page costs one
    /// bodyless 304 round-trip, a ledger-named page is always re-fetched
    /// in full. If the change feed is unreachable or the cache cannot
    /// open, the run silently degrades to the cold path — the report is
    /// byte-identical either way.
    pub fn run_incremental(
        &self,
        eco: &Ecosystem,
        store_cfg: &StoreConfig,
        world_seed: u64,
        epoch: u32,
    ) -> Result<ResumableOutcome, ResumeError> {
        let fingerprint = run_fingerprint(&self.config, world_seed);
        let store = store_cfg.open(fingerprint)?;
        let inc = ValidatorCache::open(store_cfg.backend.clone(), fingerprint)
            .ok()
            .and_then(|cache| {
                let changed = fetch_changed_hrefs(
                    &eco.net,
                    &self.config.crawl.list_host,
                    cache.epoch(),
                    &self.obs,
                )?;
                Some(IncrementalContext {
                    cache: CacheStore(cache),
                    changed,
                    epoch,
                })
            });
        if inc.is_none() {
            self.obs.event(
                Severity::Warn,
                "crawl.incremental",
                "change feed unavailable — crawling cold",
            );
        }
        self.run_journaled(
            eco,
            Journaled {
                store: &store,
                fingerprint,
                inc: inc.as_ref(),
            },
        )
    }

    fn run_journaled(
        &self,
        eco: &Ecosystem,
        run: Journaled<'_>,
    ) -> Result<ResumableOutcome, ResumeError> {
        let report = self.run_stages(eco, Some(run))?;
        let store = run.store;
        if store.lookup_unit(K_COMPLETE, 0).is_none() {
            record(store, K_COMPLETE, 0, Vec::new())?;
        }
        let store_stats = store.stats();
        for (name, value) in [
            ("store.journal.frames_written", store_stats.frames_written),
            ("store.journal.replayed", store_stats.frames_replayed),
            ("store.artifacts.hits", store_stats.artifact_hits),
            ("store.artifacts.misses", store_stats.artifact_misses),
        ] {
            self.obs.counter(name).add(value);
        }
        Ok(ResumableOutcome {
            report,
            store_stats,
            referenced_keys: store.referenced_keys(),
        })
    }

    /// Every stage, journaled through `run` when given.
    pub(crate) fn run_stages(
        &self,
        eco: &Ecosystem,
        run: Option<Journaled<'_>>,
    ) -> Result<AuditReport, ResumeError> {
        let (bots, crawl_stats) = self.static_stages(&eco.net, run)?;
        let honeypot = self.honeypot_stage(eco, run)?;
        Ok(AuditReport {
            platform: eco.kind,
            bots,
            crawl_stats,
            honeypot: Some(honeypot),
        })
    }

    /// Data collection, traceability, and code analysis under one `static`
    /// root span.
    pub(crate) fn static_stages(
        &self,
        net: &Network,
        run: Option<Journaled<'_>>,
    ) -> Result<(Vec<AuditedBot>, CrawlStats), ResumeError> {
        let root = self.obs.span("static");
        let (crawled, stats) = self.crawl_stage(net, run, &root)?;
        if let Some(ctx) = run.and_then(|r| r.inc) {
            self.commit_validators(ctx);
        }
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
    /// resumed run 304s its way back in less time than the frames cost to
    /// serialize), so the crawl journals nothing.
    fn crawl_stage(
        &self,
        net: &Network,
        run: Option<Journaled<'_>>,
        root: &Span,
    ) -> Result<(Vec<EncodedBot>, CrawlStats), ResumeError> {
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
                    return Ok((done, Vec::new()));
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
        let vstats = cache.stats();
        self.obs
            .counter("store.validators.entries")
            .add(vstats.entries);
        self.obs
            .counter("store.validators.replayed")
            .add(vstats.replayed);
        if vstats.reset {
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
    ) -> Result<Vec<AuditedBot>, ResumeError> {
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
                    Some(run) => {
                        self.analyze_journaled(run, idx as u64, bot, raw, &bot_span, analyze)?
                    }
                };
                trace_audited(&bot_span, &audited);
                Ok(audited)
            },
        )?;
        drop(span);
        self.publish_analysis_metrics(&links, &memo, policy_before, code_before);
        Ok(bots)
    }

    /// One bot's analysis through the artifact pack: at the journaled
    /// address (or the one its crawled bytes hash to), a hit serves the
    /// stored artifact and a miss runs `analyze` and stores the result.
    /// The address is journaled once per listing index. A blob that does
    /// not decode counts as a miss; puts are idempotent per address, so it
    /// stays in the pack and is recomputed on every run that meets it.
    fn analyze_journaled(
        &self,
        run: Journaled<'_>,
        idx: u64,
        bot: CrawledBot,
        raw: Option<Vec<u8>>,
        bot_span: &Span,
        analyze: impl FnOnce(CrawledBot) -> AuditedBot,
    ) -> Result<AuditedBot, ResumeError> {
        let store = run.store;
        let journaled = store.lookup_unit(K_ANALYSIS, idx).and_then(|payload| {
            let key = ContentHash::from_bytes(&payload);
            if key.is_none() {
                self.undecodable(K_ANALYSIS, idx);
            }
            key
        });
        let key = journaled.unwrap_or_else(|| match &raw {
            Some(bytes) => artifact_key_raw(run.fingerprint, bytes),
            None => artifact_key(run.fingerprint, &bot),
        });
        let stored: Option<AnalysisArtifact> = store
            .artifact_get(&key)
            .and_then(|blob| self.decode(&blob, K_ANALYSIS, idx));
        let audited = match stored {
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
                store.artifact_put(key, &blob).map_err(ResumeError::Store)?;
                AuditedBot {
                    crawled,
                    traceability: artifact.traceability,
                    code: artifact.code,
                }
            }
        };
        if journaled.is_none() {
            record(store, K_ANALYSIS, idx, key.0.to_vec())?;
        }
        Ok(audited)
    }

    /// Stage 4, journaled as one unit when `run` is given.
    fn honeypot_stage(
        &self,
        eco: &Ecosystem,
        run: Option<Journaled<'_>>,
    ) -> Result<CampaignReport, ResumeError> {
        let Some(run) = run else {
            return Ok(self.run_honeypot(eco));
        };
        if let Some(report) = self.replay(run.store, K_HONEYPOT, 0) {
            self.obs
                .event(Severity::Info, "store.journal", "honeypot replayed");
            return Ok(report);
        }
        let report = match run.inc {
            Some(_) => self.run_honeypot_reusing(eco, run.store, run.fingerprint),
            None => self.run_honeypot(eco),
        };
        let bytes = serde_json::to_vec(&report).expect("campaign serializes");
        record(run.store, K_HONEYPOT, 0, bytes)?;
        Ok(report)
    }

    /// The journaled payload of unit `(kind, key)`, decoded, if any.
    fn replay<T: Deserialize>(&self, store: &AuditStore, kind: u16, key: u64) -> Option<T> {
        self.decode(&store.lookup_unit(kind, key)?, kind, key)
    }

    /// Decode a journal payload or artifact blob. One that passed its CRC
    /// but not the decoder — say, written by an older build under the same
    /// fingerprint — is a miss: the caller recomputes and re-records the
    /// unit, and the later frame wins on replay.
    fn decode<T: Deserialize>(&self, bytes: &[u8], kind: u16, key: u64) -> Option<T> {
        let decoded = serde_json::from_slice(bytes).ok();
        if decoded.is_none() {
            self.undecodable(kind, key);
        }
        decoded
    }

    fn undecodable(&self, kind: u16, key: u64) {
        self.obs.counter("store.journal.undecodable").incr();
        self.obs.event(
            Severity::Warn,
            "store.journal",
            format!("unit {kind:#06x}/{key} does not decode — recomputing"),
        );
    }

    /// Drift-aware honeypot stage: guild transcripts live in the artifact
    /// pack under [`guild_snapshot_key`] addresses, so a re-audit re-drives
    /// only the guilds whose bot identity (name, invite, behaviour class)
    /// moved — every other guild's transcript is replayed from the pack.
    /// Snapshot lookups use [`AuditStore::artifact_peek`] and report on
    /// `honeypot.guilds_reused`, keeping the artifact hit/miss counters an
    /// exact census of per-bot analyses.
    fn run_honeypot_reusing(
        &self,
        eco: &Ecosystem,
        store: &AuditStore,
        fingerprint: u64,
    ) -> CampaignReport {
        let sample = self.honeypot_identities(eco);
        // The RNG-stream selector is the bot's position in bot-name order —
        // the same index the campaign assigns after sorting its jobs.
        let mut names: Vec<&str> = sample.iter().map(|(name, _, _)| name.as_str()).collect();
        names.sort_unstable();
        let keyed: Vec<(String, ContentHash)> = sample
            .iter()
            .map(|(name, invite, class)| {
                let index = names
                    .binary_search(&name.as_str())
                    .expect("sampled bot is in its own name list");
                (
                    name.clone(),
                    guild_snapshot_key(fingerprint, index, name, invite, class),
                )
            })
            .collect();
        let mut reuse: BTreeMap<String, GuildSnapshot> = BTreeMap::new();
        for (name, key) in &keyed {
            if let Some(snap) = store
                .artifact_peek(key)
                .and_then(|blob| serde_json::from_slice::<GuildSnapshot>(&blob).ok())
            {
                reuse.insert(name.clone(), snap);
            }
        }
        self.obs
            .counter("honeypot.guilds_reused")
            .add(reuse.len() as u64);

        let (report, snapshots) = self.run_honeypot_with_reuse(eco, &reuse);

        // Persist this epoch's transcripts for the next re-audit. Failures
        // are swallowed — snapshots are performance state.
        let key_of: BTreeMap<&String, &ContentHash> =
            keyed.iter().map(|(name, key)| (name, key)).collect();
        for snap in &snapshots {
            if let Some(key) = key_of.get(&snap.bot_name) {
                if let Ok(blob) = serde_json::to_vec(snap) {
                    let _ = store.artifact_put(**key, &blob);
                }
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
            ResumeError::Interrupted { frames_written } => assert_eq!(frames_written, 3),
            other => panic!("expected interrupt, got {other}"),
        }
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
        assert!(resumed.store_stats.frames_replayed >= 20);
        assert!(
            resumed.store_stats.artifact_misses < 90,
            "resume must reuse analyses journaled before the crash"
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
