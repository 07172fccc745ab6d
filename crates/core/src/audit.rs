//! The one-stop audit facade.
//!
//! Driving a full measurement used to mean assembling seven config structs
//! from five crates ([`AuditConfig`], [`CrawlConfig`](crawler::crawl::CrawlConfig),
//! `CampaignConfig`, `SiteConfig`, [`StoreConfig`], `ClientConfig`,
//! [`EcosystemConfig`]) and
//! wiring them together by hand. [`Audit::builder`] collapses that into one
//! typed builder: every commonly-tuned knob has a setter, [`AuditBuilder::build`]
//! validates the combination up front, and [`Audit::run`] /
//! [`Audit::run_resumable`] return the canonical report behind the single
//! [`AuditError`] surface.

use crate::error::AuditError;
use crate::pipeline::{AuditConfig, AuditPipeline};
use crate::report::CanonicalReport;
use crate::resume::{validator_identity, Carry, StoreConfig};
use crate::service::AuditJob;
use obs::Obs;
use platform::{PlatformKind, TELEGRAM_LIST_HOST};
use policy::KeywordOntology;
use std::sync::Arc;
use store::{ArtifactCache, StoreStats, ValidatorCache};
use synth::{
    build_ecosystem, build_ecosystem_at, world_lineage, DriftConfig, Ecosystem, EcosystemConfig,
};

/// The listing host a platform's directory canonically mounts on.
fn canonical_list_host(kind: PlatformKind) -> &'static str {
    match kind {
        PlatformKind::Discord => botlist::LIST_HOST,
        PlatformKind::Telegram => TELEGRAM_LIST_HOST,
    }
}

/// A parked fleet job's run, held in memory between its slices: the world
/// the audit was built against and what its slices carry (the completed
/// crawl and the open store). Only a sliced job holds one; it is dropped
/// with the job.
pub(crate) struct HeldRun {
    world: Ecosystem,
    carry: Carry,
}

/// A fully-configured audit, ready to run against its synthetic world.
///
/// Construct with [`Audit::builder`]. Each [`run`](Audit::run) builds the
/// world from scratch, so repeated runs of one `Audit` are independent and
/// deterministic: the same seed yields the same canonical report.
///
/// ```
/// use chatbot_audit::Audit;
///
/// let audit = Audit::builder()
///     .scale(40)
///     .seed(2022)
///     .workers(2)
///     .honeypot_sample(5)
///     .build()
///     .expect("valid configuration");
/// let report = audit.run().expect("audit completes");
/// assert_eq!(report.bots.len(), 40);
/// ```
pub struct Audit {
    config: AuditConfig,
    eco: EcosystemConfig,
    store: Option<StoreConfig>,
    obs: Obs,
    drift: Option<DriftConfig>,
    epoch: u32,
}

impl std::fmt::Debug for Audit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Audit")
            .field("config", &self.config)
            .field("eco", &self.eco)
            .field("store", &self.store)
            .finish_non_exhaustive()
    }
}

impl Audit {
    /// Start building an audit. All knobs default to the paper-shaped
    /// 500-bot world with listing-site defenses on and one worker.
    pub fn builder() -> AuditBuilder {
        AuditBuilder::default()
    }

    /// The observability handle every run reports through — read metrics
    /// (`crawl.*`, `analysis.*`, `honeypot.*`, `store.*`) after a run, or
    /// install a recorder at build time with [`AuditBuilder::obs`].
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// The resolved pipeline configuration (read-only).
    pub fn config(&self) -> &AuditConfig {
        &self.config
    }

    /// The resolved world configuration (read-only).
    pub fn ecosystem_config(&self) -> &EcosystemConfig {
        &self.eco
    }

    /// Which drift epoch this audit observes (0 = the frozen snapshot).
    pub fn epoch(&self) -> u32 {
        self.epoch
    }

    /// The drift this audit's world is built under: none for the frozen
    /// snapshot of an audit given no drift, the default drift for a later
    /// epoch of one.
    fn world_drift(&self) -> Option<DriftConfig> {
        (self.epoch != 0 || self.drift.is_some()).then(|| self.drift.clone().unwrap_or_default())
    }

    fn world(&self) -> Ecosystem {
        match self.world_drift() {
            None => build_ecosystem(&self.eco),
            Some(drift) => build_ecosystem_at(&self.eco, &drift, self.epoch).0,
        }
    }

    fn pipeline(&self) -> AuditPipeline {
        AuditPipeline::with_obs(self.config.clone(), self.obs.clone())
    }

    /// Build the world and run every stage (crawl → traceability → code →
    /// honeypot), returning the canonical, worker-count-independent report.
    pub fn run(&self) -> Result<CanonicalReport, AuditError> {
        let eco = self.world();
        Ok(self.pipeline().run_full(&eco).canonical())
    }

    /// Like [`Self::run`], but through the crash-safe store set with
    /// [`AuditBuilder::store`] (an in-memory store when unset): a run
    /// interrupted at any durable write surfaces
    /// [`AuditError::Interrupted`], and a rerun against the same backend
    /// finishes with a byte-identical report. A rerun over a warm store
    /// fetches no unchanged page's body, re-analyzes no unchanged bot and
    /// re-drives no honeypot guild whose transcript the pack holds.
    pub fn run_resumable(&self) -> Result<CanonicalReport, AuditError> {
        let eco = self.world();
        let store = match &self.store {
            Some(cfg) => cfg.clone(),
            None => StoreConfig::in_memory(),
        };
        let outcome = self.pipeline().run_resumable(&eco, &store, self.eco.seed)?;
        Ok(outcome.report.canonical())
    }

    /// The identity a validator cache of this audit carries
    /// ([`validator_identity`]): seed, content-shaping configuration and
    /// how the world is built, epoch excluded. Computed without building
    /// the world; equal to the identity of the world [`Self::run`] builds.
    pub(crate) fn validator_identity(&self) -> u64 {
        let lineage = world_lineage(&self.eco, self.world_drift().as_ref());
        validator_identity(&self.config, self.eco.seed, &lineage)
    }

    /// Run against an explicit store, returning the store statistics
    /// alongside the report. The fleet service uses this to run each
    /// tenant's audits over that tenant's scoped slice of a shared backend
    /// and to observe artifact-cache hit rates for incremental re-audits.
    ///
    /// This is the conditional-fetch path over the tenant's held files:
    /// `pack`, and `validators` for [`Self::validator_identity`] (journaled next
    /// to the pack), plus the site's change ledger turn an epoch-N+1
    /// re-audit into 304 probes for everything the ledger left alone and
    /// full fetches only for the drifted bots. As on every journaled run,
    /// guild transcripts from `pack` replay for every undrifted honeypot
    /// sample.
    ///
    /// `held` is the run an earlier slice of this job parked with: its
    /// world, crawl and open store. A run handed one resumes from it, and a
    /// slice (`store` with a kill switch armed) keeps one; an interrupted
    /// slice puts it back, and a completed run reports the counts of the
    /// store its slices shared. Any other run builds its world and holds
    /// nothing.
    pub(crate) fn run_scoped(
        &self,
        store: &StoreConfig,
        pack: Arc<ArtifactCache>,
        validators: Option<Arc<ValidatorCache>>,
        held: &mut Option<HeldRun>,
    ) -> Result<(CanonicalReport, StoreStats, Vec<store::ContentHash>), AuditError> {
        let sliced = store.kill_after_frames.is_some();
        let carried = sliced || held.is_some();
        let mut run = held.take().unwrap_or_else(|| HeldRun {
            world: self.world(),
            carry: Carry::default(),
        });
        let result = self.pipeline().run_carried(
            &run.world,
            store,
            self.eco.seed,
            pack,
            validators,
            carried.then_some(&mut run.carry),
        );
        if sliced && matches!(result, Err(AuditError::Interrupted { .. })) {
            *held = Some(run);
        }
        let outcome = result?;
        Ok((
            outcome.report.canonical(),
            outcome.store_stats,
            outcome.referenced_keys,
        ))
    }
}

/// Typed, validated builder for [`Audit`]. See the crate-level and
/// [`Audit`] docs for a runnable example.
///
/// Setters are grouped by the config struct they replace: world shape
/// (`EcosystemConfig`), crawl (`CrawlConfig`), analysis (`AuditConfig`),
/// honeypot (`CampaignConfig`), persistence (`StoreConfig`), and
/// observability ([`Obs`]).
#[derive(Default)]
pub struct AuditBuilder {
    config: AuditConfig,
    eco: EcosystemConfig,
    store: Option<StoreConfig>,
    obs: Option<Obs>,
    drift: Option<DriftConfig>,
    epoch: u32,
    bad_platform: Option<String>,
}

impl AuditBuilder {
    // ---- world shape ---------------------------------------------------

    /// Number of bot listings in the synthetic world (paper: 20,915).
    pub fn scale(mut self, num_bots: usize) -> Self {
        self.eco.num_bots = num_bots;
        self
    }

    /// Which messaging substrate the world mounts on (defaults to
    /// Discord). Retargets the crawl — counters namespace under
    /// `crawl.<platform>.*` and the listing host moves to the platform's
    /// canonical directory — and the honeypot, which installs via deep
    /// links instead of OAuth on Telegram.
    pub fn platform(mut self, kind: PlatformKind) -> Self {
        self.eco.platform = kind;
        self.config.crawl.platform = kind;
        self.config.crawl.list_host = canonical_list_host(kind).to_string();
        self
    }

    /// [`Self::platform`] from a string tag (`"discord"` / `"telegram"`),
    /// as a fleet manifest or CLI flag would supply it. An unknown tag is
    /// remembered and surfaces as [`AuditError::Config`] from
    /// [`Self::build`] — before any world is built or crawled.
    pub fn platform_named(self, name: &str) -> Self {
        match PlatformKind::parse(name) {
            Some(kind) => self.platform(kind),
            None => {
                let mut this = self;
                this.bad_platform = Some(name.to_string());
                this
            }
        }
    }

    /// Discord only: enable the per-message least-privilege delivery
    /// mitigation — bot backends receive only messages that mention them
    /// or match a registered command, so a snooper has nothing to skim.
    pub fn least_privilege(mut self, enabled: bool) -> Self {
        self.eco.least_privilege_delivery = enabled;
        self
    }

    /// Crawl a non-canonical listing host (a mirror). The host must not be
    /// the *other* platform's directory — [`Self::build`] rejects that
    /// cross-platform mismatch.
    pub fn list_host(mut self, host: &str) -> Self {
        self.config.crawl.list_host = host.to_string();
        self
    }

    /// Master world seed. Also seeds the crawl and honeypot RNG streams
    /// unless [`Self::crawl_seed`] / [`Self::honeypot_seed`] override them.
    pub fn seed(mut self, seed: u64) -> Self {
        self.eco.seed = seed;
        self.config.crawl.seed = seed;
        self.config.honeypot.seed = seed;
        self
    }

    /// Bots per listing page (paper: 25/page).
    pub fn page_size(mut self, bots_per_page: usize) -> Self {
        self.eco.page_size = bots_per_page;
        self
    }

    /// Toggle all three listing-site defenses (captcha interstitials, rate
    /// limiting, the email wall) at once. They default on, matching the
    /// obstacles §4.2 reports.
    pub fn site_defenses(mut self, enabled: bool) -> Self {
        if enabled {
            let d = EcosystemConfig::default();
            self.eco.captcha_every = d.captcha_every;
            self.eco.rate_limit = d.rate_limit;
            self.eco.email_wall_after_page = d.email_wall_after_page;
        } else {
            self.eco.captcha_every = None;
            self.eco.rate_limit = None;
            self.eco.email_wall_after_page = None;
        }
        self
    }

    /// Fault injection: the listing site's validators lie — conditional
    /// fetches answer 304 even for pages whose content drifted. The
    /// incremental crawl must never trust a validator for a page the
    /// change ledger names, so audits stay byte-identical regardless.
    pub fn stale_validators(mut self, stale: bool) -> Self {
        self.eco.stale_validators = stale;
        self
    }

    // ---- longitudinal drift --------------------------------------------

    /// Ecosystem drift model applied between epochs (defaults to
    /// [`DriftConfig::default`]'s paper-shaped churn rates when only
    /// [`Self::epoch`] is set).
    pub fn drift(mut self, drift: DriftConfig) -> Self {
        self.drift = Some(drift);
        self
    }

    /// Observe the world after this many drift epochs (0 = the frozen
    /// snapshot the rest of the workspace audits).
    pub fn epoch(mut self, epoch: u32) -> Self {
        self.epoch = epoch;
        self
    }

    // ---- crawl ---------------------------------------------------------

    /// Stop the listing traversal after this many pages.
    pub fn max_pages(mut self, pages: usize) -> Self {
        self.config.crawl.max_pages = Some(pages);
        self
    }

    /// Use the polite (rate-limited, jittered) crawl session. Defaults on;
    /// the ablation turns it off.
    pub fn polite(mut self, polite: bool) -> Self {
        self.config.crawl.polite = polite;
        self
    }

    /// Whether to validate invite links (network-heavy). Defaults on.
    pub fn validate_invites(mut self, validate: bool) -> Self {
        self.config.crawl.validate_invites = validate;
        self
    }

    /// Whether to visit websites and fetch privacy policies. Defaults on.
    pub fn fetch_policies(mut self, fetch: bool) -> Self {
        self.config.crawl.fetch_policies = fetch;
        self
    }

    /// Crawl-session RNG seed, independent of the world seed.
    pub fn crawl_seed(mut self, seed: u64) -> Self {
        self.config.crawl.seed = seed;
        self
    }

    // ---- analysis ------------------------------------------------------

    /// Worker count for every parallel stage (crawl sessions, the analysis
    /// pool, honeypot campaigns): 1 = serial, N = a pool of N, 0 = one per
    /// core. Output is byte-identical regardless.
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.workers = workers;
        self.config.crawl.workers = workers;
        self.config.honeypot.workers = workers;
        self
    }

    /// Keyword ontology for the traceability stage (defaults to the
    /// paper's standard ontology).
    pub fn ontology(mut self, ontology: KeywordOntology) -> Self {
        self.config.ontology = ontology;
        self
    }

    // ---- honeypot ------------------------------------------------------

    /// How many most-voted bots the honeypot tests (paper: 500).
    pub fn honeypot_sample(mut self, bots: usize) -> Self {
        self.config.honeypot_sample = bots;
        self
    }

    /// Personas per honeypot guild (paper: 5).
    pub fn personas_per_guild(mut self, personas: usize) -> Self {
        self.config.honeypot.personas_per_guild = personas;
        self
    }

    /// Decoy conversation messages per guild (paper: 25).
    pub fn feed_messages(mut self, messages: usize) -> Self {
        self.config.honeypot.feed_messages = messages;
        self
    }

    /// Campaign RNG seed, independent of the world seed.
    pub fn honeypot_seed(mut self, seed: u64) -> Self {
        self.config.honeypot.seed = seed;
        self
    }

    /// Provision personas with automated verification (the paper's stated
    /// future work; defaults off to match the paper's manual step).
    pub fn auto_verify_personas(mut self, auto: bool) -> Self {
        self.config.honeypot.auto_verify_personas = auto;
        self
    }

    /// Plant a webhook-credential canary per guild (extension; defaults
    /// on).
    pub fn webhook_canaries(mut self, plant: bool) -> Self {
        self.config.honeypot.plant_webhook_canaries = plant;
        self
    }

    // ---- persistence & observability -----------------------------------

    /// Persist through this crash-safe store; [`Audit::run_resumable`]
    /// uses a throwaway in-memory store when unset.
    pub fn store(mut self, store: StoreConfig) -> Self {
        self.store = Some(store);
        self
    }

    /// Report through this observability handle (attach a
    /// [`obs::JsonRecorder`] to capture the deterministic trace). Defaults
    /// to [`Obs::disabled`]: metrics stay live, spans cost a null check.
    pub fn obs(mut self, obs: Obs) -> Self {
        self.obs = Some(obs);
        self
    }

    /// Validate the combination and produce the runnable [`Audit`].
    ///
    /// # Errors
    ///
    /// [`AuditError::Config`] when the knobs are inconsistent: an empty
    /// world, a zero page size, a crawl capped at zero pages, a honeypot
    /// sample larger than the world, a guild with no personas, an unknown
    /// platform tag, a crawl pointed at the wrong platform's directory, or
    /// a Discord-only mitigation requested on Telegram.
    pub fn build(self) -> Result<Audit, AuditError> {
        if let Some(name) = &self.bad_platform {
            return Err(AuditError::config(format!(
                "unknown platform {name:?}; expected one of: discord, telegram"
            )));
        }
        if self.config.crawl.platform != self.eco.platform {
            return Err(AuditError::config(format!(
                "crawl targets {} but the world mounts on {}",
                self.config.crawl.platform, self.eco.platform
            )));
        }
        for kind in PlatformKind::ALL {
            if kind != self.eco.platform && self.config.crawl.list_host == canonical_list_host(kind)
            {
                return Err(AuditError::config(format!(
                    "list_host {:?} is the {} directory, but the world mounts on {}",
                    self.config.crawl.list_host, kind, self.eco.platform
                )));
            }
        }
        if self.eco.least_privilege_delivery && self.eco.platform != PlatformKind::Discord {
            return Err(AuditError::config(
                "least_privilege delivery is a Discord mitigation; \
                 Telegram's privacy mode already plays that role",
            ));
        }
        if self.eco.num_bots == 0 {
            return Err(AuditError::config("scale must be at least 1 bot"));
        }
        if self.eco.page_size == 0 {
            return Err(AuditError::config("page_size must be at least 1"));
        }
        if self.config.crawl.max_pages == Some(0) {
            return Err(AuditError::config(
                "max_pages(0) would crawl nothing; omit it to crawl all pages",
            ));
        }
        if self.config.honeypot_sample > self.eco.num_bots {
            return Err(AuditError::config(format!(
                "honeypot_sample ({}) exceeds the world population ({})",
                self.config.honeypot_sample, self.eco.num_bots
            )));
        }
        if self.config.honeypot.personas_per_guild == 0 {
            return Err(AuditError::config("personas_per_guild must be at least 1"));
        }
        Ok(Audit {
            config: self.config,
            eco: self.eco,
            store: self.store,
            obs: self.obs.unwrap_or_else(Obs::disabled),
            drift: self.drift,
            epoch: self.epoch,
        })
    }

    /// Validate and wrap the audit as a fleet job, ready for
    /// [`FleetDaemon::submit`](crate::FleetDaemon::submit).
    ///
    /// # Errors
    ///
    /// The same [`AuditError::Config`] cases as [`Self::build`].
    pub fn into_job(self) -> Result<AuditJob, AuditError> {
        Ok(AuditJob::new(self.build()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::ErrorKind;
    use std::sync::Arc;
    use store::{Backend, MemBackend, VALIDATOR_FILE};

    fn small() -> AuditBuilder {
        Audit::builder()
            .scale(40)
            .seed(77)
            .honeypot_sample(5)
            .site_defenses(false)
    }

    #[test]
    fn builder_rejects_inconsistent_knobs() {
        let empty = Audit::builder().scale(0).build().unwrap_err();
        assert_eq!(empty.kind(), ErrorKind::Config);

        let oversampled = Audit::builder()
            .scale(10)
            .honeypot_sample(11)
            .build()
            .unwrap_err();
        assert_eq!(oversampled.kind(), ErrorKind::Config);

        assert_eq!(
            small().max_pages(0).build().unwrap_err().kind(),
            ErrorKind::Config
        );
        assert_eq!(
            small().page_size(0).build().unwrap_err().kind(),
            ErrorKind::Config
        );
        assert_eq!(
            small().personas_per_guild(0).build().unwrap_err().kind(),
            ErrorKind::Config
        );
    }

    #[test]
    fn facade_run_matches_hand_wired_pipeline() {
        let facade = small().build().unwrap().run().unwrap();

        let eco = build_ecosystem(&EcosystemConfig::test_scale(40, 77));
        let mut config = AuditConfig {
            honeypot_sample: 5,
            ..AuditConfig::default()
        };
        config.crawl.seed = 77;
        config.honeypot.seed = 77;
        let by_hand = AuditPipeline::new(config).run_full(&eco).canonical();
        assert_eq!(facade, by_hand);
    }

    #[test]
    fn facade_resumable_crashes_and_resumes() {
        let backend = Arc::new(MemBackend::new());
        let crash = small()
            .store(StoreConfig {
                backend: backend.clone(),
                kill_after_frames: Some(5),
            })
            .build()
            .unwrap();
        let err = crash.run_resumable().unwrap_err();
        assert_eq!(err.kind(), ErrorKind::Interrupted);

        let rerun = small()
            .store(StoreConfig {
                backend,
                kill_after_frames: None,
            })
            .build()
            .unwrap();
        let resumed = rerun.run_resumable().unwrap();
        let uninterrupted = small().build().unwrap().run_resumable().unwrap();
        assert_eq!(resumed, uninterrupted);
        // The five analyses stored before the crash are served from the
        // pack, and every page the killed run crawled answers a 304.
        let obs = rerun.obs();
        assert!(obs.counter_value("store.artifacts.hits") >= 5);
        assert_eq!(obs.counter_value("crawl.fetched_full"), 0);
    }

    #[test]
    fn a_store_of_another_drift_epoch_reports_like_a_fresh_one() {
        let at = |epoch| small().scale(60).drift(DriftConfig::default()).epoch(epoch);
        let store = StoreConfig::in_memory();
        let epoch0 = at(0).store(store.clone()).build().unwrap();
        let report0 = epoch0.run_resumable().unwrap();

        let fresh = at(3).build().unwrap().run_resumable().unwrap();
        assert_ne!(fresh, report0, "drift changes the world by epoch 3");
        let rerun = at(3).store(store.clone()).build().unwrap();
        assert_eq!(rerun.run_resumable().unwrap(), fresh);

        // Epoch 3 of a world built under other drift: its change feed names
        // nothing since the epoch the store committed, but the store's
        // validators describe the other world, so its cache starts over.
        let frozen = || small().scale(60).drift(DriftConfig::frozen()).epoch(3);
        let fresh_frozen = frozen().build().unwrap().run_resumable().unwrap();
        assert_ne!(fresh_frozen, fresh, "another drift, another epoch-3 world");
        let rerun = frozen().store(store).build().unwrap();
        assert_eq!(rerun.run_resumable().unwrap(), fresh_frozen);
        assert_eq!(rerun.obs().counter_value("store.validators.reset"), 1);

        // A crawl of epoch 3 killed after its last page but before its
        // epoch commit, then rerun against a site serving epoch 2: no page
        // the killed crawl fetched at epoch 3 is reused.
        let backend = Arc::new(MemBackend::new());
        let killed = StoreConfig {
            backend: backend.clone(),
            kill_after_frames: None,
        };
        at(3)
            .store(killed)
            .build()
            .unwrap()
            .run_resumable()
            .unwrap();
        let wal = backend.read(VALIDATOR_FILE).unwrap().expect("a cache");
        let commit = store::decode_all(&wal).frames.last().unwrap().encode();
        let cut = Arc::new(MemBackend::new());
        cut.poke(VALIDATOR_FILE, wal[..wal.len() - commit.len()].to_vec());
        let cut = StoreConfig {
            backend: cut,
            kill_after_frames: None,
        };
        let fresh2 = at(2).build().unwrap().run_resumable().unwrap();
        assert_ne!(fresh2, fresh, "drift moves the world from epoch 2 to 3");
        let rerun = at(2).store(cut).build().unwrap();
        assert_eq!(rerun.run_resumable().unwrap(), fresh2);
    }

    #[test]
    fn validator_identity_is_the_identity_of_the_world_the_audit_builds() {
        let frozen = small().build().unwrap();
        let drifting = small()
            .drift(DriftConfig::default())
            .epoch(2)
            .build()
            .unwrap();
        let later = small().epoch(3).build().unwrap();
        for audit in [&frozen, &drifting, &later] {
            let world = audit.world();
            assert_eq!(
                audit.validator_identity(),
                validator_identity(&audit.config, audit.eco.seed, &world.lineage)
            );
        }
        assert_ne!(frozen.validator_identity(), drifting.validator_identity());
        // Epochs of one drift lineage share the cache.
        assert_eq!(drifting.validator_identity(), later.validator_identity());
    }

    #[test]
    fn workers_knob_fans_out_to_every_stage() {
        let audit = small().workers(4).build().unwrap();
        assert_eq!(audit.config().workers, 4);
        assert_eq!(audit.config().crawl.workers, 4);
        assert_eq!(audit.config().honeypot.workers, 4);
    }
}
