//! The pipeline's configuration, its per-bot analysis, and its entry
//! points.
//!
//! [`AuditPipeline::run_full`] and [`AuditPipeline::run_static_stages`]
//! run the stage flow of [`crate::resume`] with no store: the crawl fans
//! its detail units out to per-worker scrape sessions, and stages 2 and 3
//! (traceability + code analysis) run on a claim pool of per-worker HTTP
//! clients sharing a [`LinkCache`] and an [`AnalysisMemo`], so repeated
//! GitHub links and boilerplate policies are resolved/scanned once across
//! the whole population. Results land in their bot's slot, so the
//! serialized report is independent of scheduling.
//!
//! The dynamic stage dispatches on the world's substrate in one place: it
//! builds the substrate and the honeypot sample once and hands both to one
//! campaign generic over `ChatSubstrate`. [`AuditPipeline::run_honeypot`]
//! runs it with no store; journaled runs pass theirs, so guild transcripts
//! are reused from the artifact pack.

use codeanal::github::LinkOutcome;
use codeanal::scanner::{scan_repository, ScanReport};
use codeanal::{Language, LinkCache, ScannerKernelStats};
use crawler::crawl::{CrawlConfig, CrawlStats, CrawledBot};
use honeypot::campaign::{BotUnderTest, CampaignConfig, CampaignReport};
use honeypot::DiscordSubstrate;
use netsim::client::{ClientConfig, HttpClient};
use netsim::Network;
use obs::{Obs, Span};
use platform::PlatformKind;
use policy::{AnalysisMemo, KeywordOntology, OntologyKernelStats, TraceabilityReport};
use serde::{Deserialize, Serialize};
use store::AuditStore;
use synth::Ecosystem;
use telegram_sim::TelegramSubstrate;

/// How a scraped GitHub link resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LinkResolution {
    /// A repository whose contents were downloaded.
    ValidRepo,
    /// A profile page with repositories.
    UserProfile,
    /// A profile with no public repos.
    NoPublicRepos,
    /// Dead or malformed.
    Invalid,
}

/// Code-analysis output for one bot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CodeFinding {
    /// Link resolution class.
    pub resolution: LinkResolution,
    /// The repository's main language (valid repos only).
    pub language: Option<Language>,
    /// Whether the repo contains any recognizable source code.
    pub has_source: bool,
    /// The scanner's verdict (valid repos only).
    pub performs_checks: Option<bool>,
    /// Raw scan report.
    pub scan: Option<ScanReport>,
}

/// One bot after the static stages.
#[derive(Debug, Clone)]
pub struct AuditedBot {
    /// Crawl output (attributes + invite status + policy document).
    pub crawled: CrawledBot,
    /// Traceability analyzer output.
    pub traceability: TraceabilityReport,
    /// Code analysis output (None when no GitHub link was listed).
    pub code: Option<CodeFinding>,
}

impl AuditedBot {
    /// The permission names the install page requests (valid invites only).
    pub fn requested_permission_names(&self) -> Vec<&'static str> {
        self.crawled.invite_status.permission_names()
    }
}

/// Record one bot's deterministic analysis outcome on its trace span. Only
/// content-derived facts (pinned equal across worker counts by the
/// parallel-vs-serial tests) may appear here.
pub(crate) fn trace_audited(span: &Span, audited: &AuditedBot) {
    if audited.crawled.policy.is_some() {
        span.record("policy", 1);
    }
    if let Some(code) = &audited.code {
        span.record("code", 1);
        if code.resolution == LinkResolution::ValidRepo {
            span.record("valid_repo", 1);
        }
    }
}

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct AuditConfig {
    /// Data-collection parameters.
    pub crawl: CrawlConfig,
    /// Keyword ontology for the traceability stage.
    pub ontology: KeywordOntology,
    /// Honeypot parameters.
    pub honeypot: CampaignConfig,
    /// How many most-voted bots the honeypot samples (paper: 500).
    pub honeypot_sample: usize,
    /// Analysis workers for stages 2/3: 1 = serial, N = a claim-counter
    /// pool of N, 0 = one per available core. Output is identical to the
    /// serial pipeline regardless of the setting.
    pub workers: usize,
}

impl Default for AuditConfig {
    fn default() -> Self {
        AuditConfig {
            crawl: CrawlConfig::default(),
            ontology: KeywordOntology::standard(),
            honeypot: CampaignConfig::default(),
            honeypot_sample: 50,
            workers: 1,
        }
    }
}

/// Full pipeline output.
#[derive(Debug)]
pub struct AuditReport {
    /// The substrate the audited world was mounted on.
    pub platform: PlatformKind,
    /// Every bot that made it through data collection.
    pub bots: Vec<AuditedBot>,
    /// Crawl statistics.
    pub crawl_stats: CrawlStats,
    /// Honeypot campaign report (when the stage ran).
    pub honeypot: Option<CampaignReport>,
}

/// The pipeline.
pub struct AuditPipeline {
    pub(crate) config: AuditConfig,
    pub(crate) obs: Obs,
}

impl AuditPipeline {
    /// A pipeline with the given configuration and observability disabled
    /// (metrics stay live on the default registry; spans cost a null check).
    pub fn new(config: AuditConfig) -> AuditPipeline {
        AuditPipeline::with_obs(config, Obs::disabled())
    }

    /// A pipeline whose stages report into `obs`: every run opens a
    /// `static` / `dynamic` root span and publishes `crawl.*`,
    /// `analysis.*`, `policy.*`, `code.*`, `store.*`, and `honeypot.*`
    /// metrics into its registry.
    pub fn with_obs(config: AuditConfig, obs: Obs) -> AuditPipeline {
        AuditPipeline { config, obs }
    }

    /// This pipeline's observability handle (for reading metrics after a
    /// run, or logging alongside it).
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Stage 2 + 3 for one bot: traceability against the requested
    /// permissions, then code analysis through the shared caches.
    pub(crate) fn audit_one(
        &self,
        bot: CrawledBot,
        gh_client: &mut HttpClient,
        links: &LinkCache,
        memo: &AnalysisMemo,
    ) -> AuditedBot {
        // Stage 2: traceability — compare the policy (if any) against
        // the permissions the install page requests.
        let requested = bot.invite_status.permission_names();
        let traceability = memo.analyze(bot.policy.as_ref(), &requested, &self.config.ontology);

        // Stage 3: code analysis.
        let code = bot
            .scraped
            .github
            .as_deref()
            .map(|link| match links.resolve(gh_client, link) {
                LinkOutcome::ValidRepo(repo) => {
                    let scan = scan_repository(&repo);
                    CodeFinding {
                        resolution: LinkResolution::ValidRepo,
                        language: repo.main_language(),
                        has_source: repo.has_source_code(),
                        performs_checks: Some(scan.performs_checks()),
                        scan: Some(scan),
                    }
                }
                LinkOutcome::UserProfile => CodeFinding {
                    resolution: LinkResolution::UserProfile,
                    language: None,
                    has_source: false,
                    performs_checks: None,
                    scan: None,
                },
                LinkOutcome::NoPublicRepos => CodeFinding {
                    resolution: LinkResolution::NoPublicRepos,
                    language: None,
                    has_source: false,
                    performs_checks: None,
                    scan: None,
                },
                LinkOutcome::Invalid => CodeFinding {
                    resolution: LinkResolution::Invalid,
                    language: None,
                    has_source: false,
                    performs_checks: None,
                    scan: None,
                },
            });

        AuditedBot {
            crawled: bot,
            traceability,
            code,
        }
    }

    pub(crate) fn analysis_client(&self, net: &Network) -> HttpClient {
        // Stages 2 & 3 use a plain client (no listing-site defenses on
        // GitHub in this world; politeness still applies).
        HttpClient::new(
            net.clone(),
            ClientConfig {
                politeness: None,
                ..ClientConfig::crawler("code-analysis/1.0")
            },
        )
    }

    /// Run data collection + traceability + code analysis against a
    /// mounted world.
    ///
    /// Opens a `static` root span on the pipeline's [`Obs`]: the crawl
    /// traces under a `crawl` child (a `listing` span with per-page
    /// children, a `units` span with one `unit` child per detail unit), and
    /// the analysis stage under an `analysis` child with per-bot `bot`
    /// children keyed by listing index — keys depend only on the crawled
    /// world, so the dump is byte-identical at any worker count.
    /// Memoization and kernel counters land in the registry under
    /// `analysis.*`, `policy.*`, and `code.*`.
    pub fn run_static_stages(&self, net: &Network) -> (Vec<AuditedBot>, CrawlStats) {
        self.static_stages(net, None, None)
            .expect("a run without a store has no journal to fail")
    }

    /// Mirror the shared-cache and kernel counters from one analysis run
    /// into the registry. Hit/miss *splits* race under a pool (two workers
    /// may both miss a cold key) but sums are invariant — which is why
    /// these live in metrics and never on canonical spans.
    pub(crate) fn publish_analysis_metrics(
        &self,
        links: &LinkCache,
        memo: &AnalysisMemo,
        policy_before: OntologyKernelStats,
        code_before: ScannerKernelStats,
    ) {
        let policy_after = self.config.ontology.kernel_stats();
        let code_after = codeanal::scanner_kernel_stats();
        let obs = &self.obs;
        obs.counter("analysis.link_cache.hits").add(links.hits());
        obs.counter("analysis.link_cache.misses")
            .add(links.misses());
        obs.counter("analysis.policy_memo.hits").add(memo.hits());
        obs.counter("analysis.policy_memo.misses")
            .add(memo.misses());
        obs.gauge("policy.automaton_states")
            .set(policy_after.automaton_states as i64);
        obs.counter("policy.scan_passes")
            .add(policy_after.scans - policy_before.scans);
        obs.counter("policy.bytes_scanned")
            .add(policy_after.bytes_scanned - policy_before.bytes_scanned);
        obs.gauge("code.automaton_states")
            .set(code_after.automaton_states as i64);
        obs.counter("code.scan_passes")
            .add(code_after.scans - code_before.scans);
        obs.counter("code.bytes_scanned")
            .add(code_after.bytes_scanned - code_before.bytes_scanned);
    }

    /// Run the dynamic stage against the ecosystem's most-voted testable
    /// bots (§4.2 sampled the most-voted population because the rest were
    /// "mainly offline or not being used").
    ///
    /// Opens a `dynamic` root span on the pipeline's [`Obs`]; the campaign
    /// traces under it with per-guild children and `honeypot.*` metrics.
    pub fn run_honeypot(&self, eco: &Ecosystem) -> CampaignReport {
        self.dynamic_stage(eco, None)
    }

    /// The dynamic stage's one dispatch on the substrate: build the
    /// substrate and the sample — each bot with its planted behaviour
    /// class — once, and hand both to [`Self::run_campaign`], which reuses
    /// and stores guild transcripts through `store` when given.
    pub(crate) fn dynamic_stage(
        &self,
        eco: &Ecosystem,
        store: Option<(&AuditStore, u64)>,
    ) -> CampaignReport {
        let count = self.config.honeypot_sample;
        match eco.kind {
            PlatformKind::Discord => {
                let substrate = DiscordSubstrate::new(eco.platform.clone(), eco.net.clone());
                let sample = eco
                    .most_voted_testable(count)
                    .into_iter()
                    .map(|(truth, invite, bot_user, behavior)| {
                        let bot = BotUnderTest {
                            name: truth.name,
                            client_id: truth.client_id,
                            bot_user: bot_user.0.raw(),
                            invite: invite.to_url().to_string(),
                            behavior,
                        };
                        (truth.behavior, bot)
                    })
                    .collect();
                self.run_campaign(substrate, sample, store)
            }
            PlatformKind::Telegram => {
                let tg = eco
                    .telegram
                    .as_ref()
                    .expect("a Telegram world carries its substrate")
                    .clone();
                let substrate = TelegramSubstrate::new(tg, eco.net.clone());
                let sample = eco
                    .most_voted_testable_telegram(count)
                    .into_iter()
                    .map(|(truth, invite, bot_user, behavior)| {
                        let bot = BotUnderTest {
                            name: truth.name,
                            client_id: truth.client_id,
                            bot_user,
                            invite,
                            behavior,
                        };
                        (truth.behavior, bot)
                    })
                    .collect();
                self.run_campaign(substrate, sample, store)
            }
        }
    }

    /// Run everything.
    pub fn run_full(&self, eco: &Ecosystem) -> AuditReport {
        self.run_stages(eco, None, None)
            .expect("a run without a store has no journal to fail")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use synth::{build_ecosystem, EcosystemConfig};

    fn small_world() -> Ecosystem {
        build_ecosystem(&EcosystemConfig::test_scale(120, 77))
    }

    #[test]
    fn static_stages_cover_every_listing() {
        let eco = small_world();
        let pipeline = AuditPipeline::new(AuditConfig::default());
        let (bots, stats) = pipeline.run_static_stages(&eco.net);
        assert_eq!(bots.len(), 120);
        assert_eq!(stats.bots, 120);
        // Some bots have code findings, some don't — matching the planted
        // github fraction.
        let with_links = bots.iter().filter(|b| b.code.is_some()).count();
        let planted = eco
            .truth
            .bots
            .iter()
            .filter(|b| b.github_class != synth::GithubClass::None)
            .count();
        assert_eq!(with_links, planted);
    }

    #[test]
    fn valid_fraction_recovered_through_the_noise() {
        let eco = small_world();
        let pipeline = AuditPipeline::new(AuditConfig::default());
        let (bots, _) = pipeline.run_static_stages(&eco.net);
        let measured_valid = bots
            .iter()
            .filter(|b| b.crawled.invite_status.is_valid())
            .count();
        let planted_valid = eco.truth.valid_bots().count();
        assert_eq!(measured_valid, planted_valid);
    }

    #[test]
    fn honeypot_stage_detects_planted_snooper() {
        let eco = small_world();
        let pipeline = AuditPipeline::new(AuditConfig {
            honeypot_sample: 25,
            ..AuditConfig::default()
        });
        let report = pipeline.run_honeypot(&eco);
        assert_eq!(report.bots_tested, 25);
        // Melonian ranks in the top 25 by construction (planted among the
        // most-voted).
        assert_eq!(report.detections.len(), 1);
        assert_eq!(report.detections[0].bot_name, "Melonian");
    }

    #[test]
    fn least_privilege_delivery_starves_the_snooper() {
        // Baseline: the planted snooper sees the decoy feed, triggers, and
        // is attributed (the paper's Melonian case).
        let eco = small_world();
        let pipeline = AuditPipeline::new(AuditConfig {
            honeypot_sample: 25,
            ..AuditConfig::default()
        });
        let baseline = pipeline.run_honeypot(&eco);
        assert_eq!(baseline.detections.len(), 1);

        // Mitigated world: same seed, but bot backends only receive
        // messages that mention them or match a registered command. The
        // decoy feed never reaches the snooper, its trigger count never
        // fills, and the threat surface disappears.
        let eco = build_ecosystem(&EcosystemConfig {
            least_privilege_delivery: true,
            ..EcosystemConfig::test_scale(120, 77)
        });
        assert!(eco.platform.least_privilege_delivery());
        let pipeline = AuditPipeline::new(AuditConfig {
            honeypot_sample: 25,
            ..AuditConfig::default()
        });
        let mitigated = pipeline.run_honeypot(&eco);
        assert_eq!(mitigated.bots_tested, 25, "campaign still runs end to end");
        assert!(
            mitigated.detections.is_empty(),
            "per-message least privilege must starve the history snooper"
        );
        assert!(
            mitigated.triggers.is_empty(),
            "no canary should fire when bots cannot see the feed"
        );
    }

    #[test]
    fn full_run_produces_complete_report() {
        let eco = small_world();
        let pipeline = AuditPipeline::new(AuditConfig {
            honeypot_sample: 10,
            ..AuditConfig::default()
        });
        let report = pipeline.run_full(&eco);
        assert_eq!(report.bots.len(), 120);
        assert!(report.honeypot.is_some());
        assert!(report.crawl_stats.pages > 0);
        // Guild-transcript reuse is a store's business: a run without one
        // never registers its counter.
        assert!(pipeline
            .obs()
            .metrics_snapshot()
            .iter()
            .all(|(name, _)| name != "honeypot.guilds_reused"));
    }

    /// The registry counters one static-stage run publishes, read back as a
    /// comparable tuple. Each pipeline owns a fresh [`Obs`], so values are
    /// per-run without delta bookkeeping.
    fn cache_counters(p: &AuditPipeline) -> (u64, u64, u64, u64) {
        let obs = p.obs();
        (
            obs.counter_value("analysis.link_cache.hits"),
            obs.counter_value("analysis.link_cache.misses"),
            obs.counter_value("analysis.policy_memo.hits"),
            obs.counter_value("analysis.policy_memo.misses"),
        )
    }

    #[test]
    fn parallel_static_stages_match_serial() {
        let shape = |workers: usize| {
            let eco = small_world();
            let pipeline = AuditPipeline::new(AuditConfig {
                workers,
                ..AuditConfig::default()
            });
            let (bots, _) = pipeline.run_static_stages(&eco.net);
            let rows: Vec<_> = bots
                .iter()
                .map(|b| {
                    (
                        b.crawled.scraped.id,
                        b.crawled.invite_status.clone(),
                        b.traceability.clone(),
                        b.code
                            .as_ref()
                            .map(|c| (c.resolution, c.language.clone(), c.performs_checks)),
                    )
                })
                .collect();
            (rows, pipeline)
        };
        let (serial_rows, serial) = shape(1);
        let (lh, lm, ph, pm) = cache_counters(&serial);
        for workers in [2, 4] {
            let (rows, pipeline) = shape(workers);
            assert_eq!(rows, serial_rows, "workers={workers}");
            // Racing workers may both miss the same cold key, so parallel
            // runs can trade a few hits for misses — never lose lookups.
            let (wlh, wlm, wph, wpm) = cache_counters(&pipeline);
            assert_eq!(wlh + wlm, lh + lm, "workers={workers}");
            assert_eq!(wph + wpm, ph + pm, "workers={workers}");
        }
        assert!(lm > 0);
        assert!(pm > 0);
        // Kernel counters: the keyword automaton ran, the fused scanner fed
        // stripped bytes through the needle automaton, and both automata
        // were actually compiled.
        let obs = serial.obs();
        assert!(obs.gauge_value("policy.automaton_states") > 0);
        assert!(obs.counter_value("policy.scan_passes") > 0);
        assert!(obs.counter_value("policy.bytes_scanned") > 0);
        assert!(obs.gauge_value("code.automaton_states") > 0);
        assert!(obs.counter_value("code.scan_passes") > 0);
        assert!(obs.counter_value("code.bytes_scanned") > 0);
    }

    #[test]
    fn requested_permission_names_only_for_valid() {
        let eco = small_world();
        let pipeline = AuditPipeline::new(AuditConfig::default());
        let (bots, _) = pipeline.run_static_stages(&eco.net);
        for bot in &bots {
            let names = bot.requested_permission_names();
            if bot.crawled.invite_status.is_valid() {
                assert!(!names.is_empty());
            } else {
                assert!(names.is_empty());
            }
        }
    }
}
