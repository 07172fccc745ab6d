//! The end-to-end data-collection run.
//!
//! Traverses the "top chatbot" list page by page (the paper walked over 800
//! pages), fetches every bot's detail page, validates its invite link,
//! visits its website looking for a privacy policy, and returns the full
//! measurement input set, through the three entry points the crate docs
//! list. The two building blocks always trace: `Obs::disabled()` costs a
//! null check.

use crate::extract::{
    extract_bot_detail, extract_bot_links, extract_privacy_policy, extract_total_pages, ScrapedBot,
};
use crate::incremental::{
    cache_listing, crawl_detail_cached, revalidate_listing, DetailCounters, ValidatorStore,
};
use crate::invite::{validate_invite, InviteStatus};
use crate::session::{parse_body, ScrapeSession};
use botlist::LIST_HOST;
use htmlsim::Locator;
use netsim::clock::SimDuration;
use netsim::http::{Status, Url};
use netsim::Network;
use obs::{claim_map, Obs, Span};
use policy::PrivacyPolicy;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::convert::Infallible;

/// Detail hrefs per [`crawl_detail_unit`] call. Fixed — never derived
/// from the worker count — so a journal of units has the same layout
/// whatever parallelism produced it.
pub const DETAIL_UNIT_SIZE: usize = 32;

/// Crawl parameters.
#[derive(Debug, Clone)]
pub struct CrawlConfig {
    /// Stop after this many list pages (None = all advertised pages).
    pub max_pages: Option<usize>,
    /// Whether to validate invite links (network-heavy).
    pub validate_invites: bool,
    /// Whether to visit websites and fetch privacy policies.
    pub fetch_policies: bool,
    /// Seed for the session's human-behaviour jitter.
    pub seed: u64,
    /// Use the polite session (rate-limited, jittered). The ablation sets
    /// this false.
    pub polite: bool,
    /// Detail-crawl workers: 1 = serial, N = a claim pool of N sessions
    /// over the fixed [`DETAIL_UNIT_SIZE`] units, 0 = one per available
    /// core. Output is byte-identical to the serial crawl regardless of
    /// the setting.
    pub workers: usize,
    /// The listing site's host. Each platform's directory lives on its own
    /// domain (`top.gg.sim` for Discord, `tdirectory.sim` for Telegram);
    /// relative detail hrefs resolve against this host.
    pub list_host: String,
    /// Which substrate this crawl measures. Every aggregate `crawl.*`
    /// counter publish is mirrored into `crawl.<platform>.*`
    /// (`crawl.discord.bots`, `crawl.telegram.validator_hits`, …) so a
    /// mixed-platform fleet sharing one registry can split crawl totals by
    /// substrate.
    pub platform: platform::PlatformKind,
}

impl Default for CrawlConfig {
    fn default() -> Self {
        CrawlConfig {
            max_pages: None,
            validate_invites: true,
            fetch_policies: true,
            seed: 7,
            polite: true,
            workers: 1,
            list_host: LIST_HOST.to_string(),
            platform: platform::PlatformKind::Discord,
        }
    }
}

/// A legacy `crawl.<name>` counter paired with its per-platform mirror
/// (`crawl.<platform>.<name>`); every bump lands on both, keeping the
/// unprefixed totals stable for existing readers while giving
/// mixed-platform fleets a per-substrate split.
pub(crate) struct ScopedCounter(obs::Counter, obs::Counter);

impl ScopedCounter {
    pub(crate) fn new(obs: &Obs, config: &CrawlConfig, name: &str) -> ScopedCounter {
        ScopedCounter(
            obs.counter(&format!("crawl.{name}")),
            obs.counter(&format!("crawl.{}.{name}", config.platform.as_str())),
        )
    }

    pub(crate) fn add(&self, n: u64) {
        self.0.add(n);
        self.1.add(n);
    }

    pub(crate) fn incr(&self) {
        self.add(1);
    }
}

/// Resolve a `workers` knob: 0 means one worker per available core.
pub fn resolve_workers(workers: usize) -> usize {
    if workers == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        workers
    }
}

/// One fully-crawled bot.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CrawledBot {
    /// Attributes scraped from the detail page.
    pub scraped: ScrapedBot,
    /// Invite-link validation outcome.
    pub invite_status: InviteStatus,
    /// Whether the listed website answered at all.
    pub website_reachable: bool,
    /// Whether the website shows a privacy-policy link.
    pub policy_link_present: bool,
    /// The fetched policy document, when the link worked.
    pub policy: Option<PrivacyPolicy>,
}

/// Aggregate statistics for a crawl.
#[derive(Debug, Clone, Default)]
pub struct CrawlStats {
    /// List pages traversed.
    pub pages: usize,
    /// Bot detail pages successfully extracted.
    pub bots: usize,
    /// Detail pages that failed (dead listing entries).
    pub failures: usize,
    /// Captchas solved.
    pub captchas_solved: u64,
    /// 2Captcha spend in dollars.
    pub captcha_spend_dollars: f64,
    /// Email verifications performed.
    pub email_verifications: u64,
    /// Virtual wall-clock the crawl took.
    pub duration: SimDuration,
}

/// The per-page outcome of the listing traversal, merged in page order.
enum PageOutcome {
    /// The page never fetched (network failure after retries).
    FetchErr,
    /// The page fetched but its structure defeated extraction.
    ExtractErr,
    /// Bot detail links, in on-page order.
    Links(Vec<String>),
}

/// Fetch and parse one list page, also surfacing the content validator
/// and body size the server attached — the raw material of the validator
/// cache. `None` when the page did not fetch or parse.
fn fetch_page(
    session: &mut ScrapeSession,
    host: &str,
    page: usize,
) -> Option<(htmlsim::Document, Option<String>, u64)> {
    let url = Url::https(host, "/list").with_query("page", &page.to_string());
    let resp = session.fetch(url).ok().filter(|r| r.status.is_success())?;
    let doc = parse_body(&resp).ok()?;
    let etag = resp.header("etag").map(str::to_string);
    Some((doc, etag, resp.body.len() as u64))
}

fn classify_page(doc: &htmlsim::Document) -> PageOutcome {
    match extract_bot_links(doc) {
        Err(_) => PageOutcome::ExtractErr,
        Ok(links) => PageOutcome::Links(links),
    }
}

/// Record a page traversal outcome on its trace span. Page outcomes are
/// session-independent, so the fields are safe for the canonical trace.
fn trace_page_outcome(span: &Span, outcome: &PageOutcome) {
    match outcome {
        PageOutcome::FetchErr => span.record("fetch_err", 1),
        PageOutcome::ExtractErr => span.record("extract_err", 1),
        PageOutcome::Links(links) => span.record("links", links.len() as u64),
    }
}

/// Everything one full detail-page crawl produced, including the detail
/// page's content validator — what the incremental crawl caches.
pub(crate) struct DetailFetch {
    /// The crawled bot itself.
    pub bot: CrawledBot,
    /// The detail page's validator, when the site sent one.
    pub etag_detail: Option<String>,
    /// Body bytes transferred across all full fetches for this bot.
    pub bytes: u64,
    /// Full-body page fetches performed (detail + homepage + policy).
    pub fetches: u64,
}

/// Outcome of a (possibly conditional) detail-page crawl.
pub(crate) enum DetailOutcome {
    /// Full crawl succeeded.
    Fetched(Box<DetailFetch>),
    /// The conditional fetch came back 304: the page matches the validator.
    NotModified,
    /// The detail page failed to fetch or extract (a dead listing entry).
    Failed,
}

/// Resolve a listing href to a fetchable URL against the listing host.
pub(crate) fn detail_url(host: &str, href: &str) -> Option<Url> {
    if href.starts_with('/') {
        Some(Url::https(host, href))
    } else {
        Url::parse(href).ok()
    }
}

/// Crawl one bot detail page: scrape, validate the invite, hunt the policy.
/// With `etag` attached the fetch is conditional and a 304 short-circuits
/// the whole chain (no parse, no invite validation, no website visit).
pub(crate) fn crawl_detail(
    session: &mut ScrapeSession,
    href: &str,
    config: &CrawlConfig,
    etag: Option<&str>,
) -> DetailOutcome {
    let Some(url) = detail_url(&config.list_host, href) else {
        return DetailOutcome::Failed;
    };
    let resp = match etag {
        Some(tag) => session.fetch_conditional(url, tag),
        None => session.fetch(url),
    };
    let Ok(resp) = resp else {
        return DetailOutcome::Failed;
    };
    if resp.status == Status::NotModified {
        return DetailOutcome::NotModified;
    }
    if !resp.status.is_success() {
        return DetailOutcome::Failed;
    }
    let etag_detail = resp.header("etag").map(str::to_string);
    let mut bytes = resp.body.len() as u64;
    let mut fetches = 1u64;
    let Ok(doc) = parse_body(&resp) else {
        return DetailOutcome::Failed;
    };
    let Ok(scraped) = extract_bot_detail(&doc) else {
        return DetailOutcome::Failed;
    };

    let invite_status = if config.validate_invites {
        validate_invite(session.http(), &scraped.invite_link)
    } else {
        InviteStatus::MalformedLink
    };

    let (website_reachable, policy_link_present, policy) = if config.fetch_policies {
        let pf = fetch_policy_meta(session, scraped.website.as_deref());
        bytes += pf.bytes;
        fetches += pf.fetches;
        (pf.reachable, pf.link_present, pf.policy)
    } else {
        (false, false, None)
    };

    DetailOutcome::Fetched(Box::new(DetailFetch {
        bot: CrawledBot {
            scraped,
            invite_status,
            website_reachable,
            policy_link_present,
            policy,
        },
        etag_detail,
        bytes,
        fetches,
    }))
}

/// Run the whole data-collection stage against the mounted listing site:
/// [`discover_listing`], then every [`DETAIL_UNIT_SIZE`] slice of the
/// index through [`crawl_detail_unit`] on a claim pool of
/// `config.workers` [`detail_session`]s, merged by [`assemble`].
///
/// The returned bots are byte-identical at any worker count. Session
/// overhead (captchas, email verifications, virtual duration) legitimately
/// varies with the worker count and is reported as the sum over sessions.
pub fn crawl_listing(net: &Network, config: &CrawlConfig) -> (Vec<CrawledBot>, CrawlStats) {
    let (obs, span) = (Obs::disabled(), Span::disabled());
    let started = net.clock().now();
    let listing = discover_listing(net, config, None, &obs, &span);
    let Ok(units) = claim_map(
        listing.hrefs.chunks(DETAIL_UNIT_SIZE).collect(),
        resolve_workers(config.workers),
        |worker| detail_session(net, config, worker),
        |session, unit, hrefs: &[String]| {
            let unit = crawl_detail_unit(session, config, hrefs, unit as u64, None, &obs, &span);
            Ok::<_, Infallible>(unit)
        },
    );
    let (bots, mut stats) = assemble(&listing, units);
    stats.duration = net.clock().now().duration_since(started);
    (bots.into_iter().map(|(bot, _)| bot).collect(), stats)
}

/// The session detail-pool worker `worker` crawls its units on. Worker
/// sessions identify as distinct crawl machines (see
/// [`ScrapeSession::for_worker`]), so per-requester defenses apply per
/// worker exactly as they would to a distributed crawl fleet.
pub fn detail_session(net: &Network, config: &CrawlConfig, worker: usize) -> ScrapeSession {
    ScrapeSession::for_worker(
        net.clone(),
        netsim::splitmix(config.seed, 0x100 + worker as u64),
        1 + worker,
        config.polite,
    )
}

/// A crawled bot plus its exact `serde_json::to_vec` encoding, when its
/// detail unit handed one back.
pub type EncodedBot = (CrawledBot, Option<Vec<u8>>);

/// Fold a listing and its detail units — in unit order, each with the raw
/// encodings [`crawl_detail_unit`] handed back — into the crawled bots and
/// the crawl totals. A bot's raw encoding is `None` wherever its unit
/// returned none. `duration` is left at zero for the caller, who knows
/// when the crawl began.
pub fn assemble(
    listing: &ListingIndex,
    units: Vec<(DetailUnit, Vec<Option<Vec<u8>>>)>,
) -> (Vec<EncodedBot>, CrawlStats) {
    let mut stats = CrawlStats {
        pages: listing.pages,
        ..CrawlStats::default()
    };
    let mut overhead = listing.overhead;
    let mut bots = Vec::with_capacity(listing.hrefs.len());
    for (unit, raws) in units {
        overhead.absorb(&unit.overhead);
        let mut raws = raws.into_iter();
        for result in unit.results {
            let raw = raws.next().flatten();
            match result {
                Some(bot) => bots.push((bot, raw)),
                None => stats.failures += 1,
            }
        }
    }
    stats.bots = bots.len();
    stats.captchas_solved = overhead.captchas_solved;
    stats.captcha_spend_dollars = overhead.captcha_spend_dollars;
    stats.email_verifications = overhead.email_verifications;
    (bots, stats)
}

/// Session overhead counters carried inside journaled crawl units, so a
/// resumed run reports the spend of the work it actually performed (replayed
/// units contribute the spend recorded when they first ran).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct SessionOverhead {
    /// Captchas solved during the unit.
    pub captchas_solved: u64,
    /// 2Captcha spend in dollars during the unit.
    pub captcha_spend_dollars: f64,
    /// Email verifications performed during the unit.
    pub email_verifications: u64,
}

impl SessionOverhead {
    pub(crate) fn of(session: &ScrapeSession) -> SessionOverhead {
        SessionOverhead {
            captchas_solved: session.captchas_solved,
            captcha_spend_dollars: session.captcha_spend_dollars(),
            email_verifications: session.email_verifications,
        }
    }

    /// What `session` spent since `earlier` was taken from it.
    fn since(session: &ScrapeSession, earlier: &SessionOverhead) -> SessionOverhead {
        let now = SessionOverhead::of(session);
        SessionOverhead {
            captchas_solved: now.captchas_solved - earlier.captchas_solved,
            captcha_spend_dollars: now.captcha_spend_dollars - earlier.captcha_spend_dollars,
            email_verifications: now.email_verifications - earlier.email_verifications,
        }
    }

    /// Fold another unit's overhead into this one.
    pub fn absorb(&mut self, other: &SessionOverhead) {
        self.captchas_solved += other.captchas_solved;
        self.captcha_spend_dollars += other.captcha_spend_dollars;
        self.email_verifications += other.email_verifications;
    }
}

/// Phase A of the crawl as a journalable unit: the merged listing-page
/// traversal. Serializable so the resumable pipeline can record it once and
/// replay it across process restarts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ListingIndex {
    /// Bot detail hrefs, in listing order.
    pub hrefs: Vec<String>,
    /// List pages traversed (the serial traversal's page-count semantics).
    pub pages: usize,
    /// Session spend for the traversal.
    pub overhead: SessionOverhead,
}

/// One journalable chunk of phase B: the detail-page outcomes for a
/// contiguous slice of the listing, in listing order. `None` marks a dead
/// listing entry (a crawl failure), preserved so replay reproduces the
/// failure count exactly.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DetailUnit {
    /// Per-href outcome, aligned with the input slice.
    pub results: Vec<Option<CrawledBot>>,
    /// Session spend for the unit.
    pub overhead: SessionOverhead,
}

/// Phase A: walk the listing on one session and return the merged
/// detail-href index, traced as a `listing` span (per-page children keyed
/// by page index) under `parent` with `crawl.*` counters on `obs`.
///
/// With `validators`, a cached traversal whose every page still answers
/// 304 is reused outright; otherwise the walk runs cold and, when it was
/// clean, records its page validators for the next run.
pub fn discover_listing(
    net: &Network,
    config: &CrawlConfig,
    validators: Option<&dyn ValidatorStore>,
    obs: &Obs,
    parent: &Span,
) -> ListingIndex {
    if let Some(index) =
        validators.and_then(|store| revalidate_listing(net, config, store, obs, parent))
    {
        return index;
    }
    let (index, etags) = traverse_listing(net, config, obs, parent);
    if let (Some(store), Some((etags, bytes))) = (validators, etags) {
        cache_listing(store, &index, etags, bytes);
    }
    index
}

/// The cold listing walk. Besides the index it returns the per-page
/// validators and body bytes — `Some` only for a *clean* traversal (every
/// page fetched, extracted, non-empty, and validator-tagged), since
/// anything less would make a cached index diverge from a re-crawl.
fn traverse_listing(
    net: &Network,
    config: &CrawlConfig,
    obs: &Obs,
    parent: &Span,
) -> (ListingIndex, Option<(Vec<String>, u64)>) {
    let span = parent.child("listing");
    let page_ms = obs.histogram("crawl.page_ms");
    let clock = net.clock();
    let mut session = ScrapeSession::for_worker(net.clone(), config.seed, 0, config.polite);
    let mut index = ListingIndex {
        hrefs: Vec::new(),
        pages: 0,
        overhead: SessionOverhead::default(),
    };

    let Some((first, first_etag, first_bytes)) = fetch_page(&mut session, &config.list_host, 0)
    else {
        span.record("listing_unreachable", 1);
        index.overhead = SessionOverhead::of(&session);
        return (index, None);
    };
    let total_pages = extract_total_pages(&first).unwrap_or(1);
    let limit = config.max_pages.map_or(total_pages, |m| m.min(total_pages));

    let mut outcomes: Vec<(PageOutcome, Option<String>, u64)> = Vec::with_capacity(limit);
    if limit > 0 {
        let first_outcome = classify_page(&first);
        trace_page_outcome(&span.child_keyed("page", 0), &first_outcome);
        outcomes.push((first_outcome, first_etag, first_bytes));
    }
    for page in 1..limit {
        let page_span = span.child_keyed("page", page as u64);
        let t0 = clock.now();
        let (outcome, etag, bytes) = match fetch_page(&mut session, &config.list_host, page) {
            Some((doc, etag, bytes)) => (classify_page(&doc), etag, bytes),
            None => (PageOutcome::FetchErr, None, 0),
        };
        page_ms.record(clock.now().duration_since(t0).as_millis());
        trace_page_outcome(&page_span, &outcome);
        outcomes.push((outcome, etag, bytes));
    }

    // Merge in page order: fetch failures skip the page, an empty page
    // ends the listing.
    let mut etags: Vec<String> = Vec::new();
    let mut body_bytes = 0u64;
    let mut clean = true;
    for (outcome, etag, bytes) in outcomes {
        match outcome {
            PageOutcome::FetchErr => {
                clean = false;
                continue;
            }
            PageOutcome::ExtractErr => {
                clean = false;
                index.pages += 1;
            }
            PageOutcome::Links(links) => {
                index.pages += 1;
                if links.is_empty() {
                    clean = false;
                    break; // past the end
                }
                index.hrefs.extend(links);
                match etag {
                    Some(tag) => {
                        etags.push(tag);
                        body_bytes += bytes;
                    }
                    None => clean = false,
                }
            }
        }
    }

    index.overhead = SessionOverhead::of(&session);
    span.record("pages", index.pages as u64);
    span.record("hrefs", index.hrefs.len() as u64);
    ScopedCounter::new(obs, config, "pages_fetched").add(index.pages as u64);
    ScopedCounter::new(obs, config, "fetched_full").add(index.pages as u64);
    ScopedCounter::new(obs, config, "captchas_solved").add(index.overhead.captchas_solved);
    ScopedCounter::new(obs, config, "email_verifications").add(index.overhead.email_verifications);
    let validators = (clean && !etags.is_empty()).then_some((etags, body_bytes));
    (index, validators)
}

/// Phase B: crawl one contiguous slice of detail hrefs on `session`,
/// traced as a `unit` span keyed by `unit` under `parent` with `crawl.*`
/// counters on `obs` — `crawl.fetched_full` counts every full-body fetch
/// (detail page, homepage, policy page).
///
/// The session is the caller's: a pool worker reuses one across every
/// unit it claims, the way one polite crawler pays its captchas and email
/// walls. The unit's [`DetailUnit::overhead`] is the spend accrued during
/// this call. Content is session-independent, so the results — and
/// replaying a journaled unit instead of crawling it — are identical
/// whichever session ran it.
///
/// With `validators` (the validator store plus the change ledger's
/// changed hrefs) each href takes the conditional-fetch warm path of
/// [`crate::incremental`], and the second return carries each successful
/// bot's exact `serde_json::to_vec` encoding so callers can
/// content-address downstream work without re-serializing. Without, it is
/// empty.
pub fn crawl_detail_unit(
    session: &mut ScrapeSession,
    config: &CrawlConfig,
    hrefs: &[String],
    unit: u64,
    validators: Option<(&dyn ValidatorStore, &BTreeSet<String>)>,
    obs: &Obs,
    parent: &Span,
) -> (DetailUnit, Vec<Option<Vec<u8>>>) {
    let span = parent.child_keyed("unit", unit);
    let before = SessionOverhead::of(session);
    let counters = DetailCounters::new(obs, config);
    let mut results: Vec<Option<CrawledBot>> = Vec::with_capacity(hrefs.len());
    let mut raws: Vec<Option<Vec<u8>>> = Vec::new();
    for href in hrefs {
        match validators {
            Some((store, changed)) => {
                let (bot, raw) =
                    crawl_detail_cached(session, config, href, store, changed, &counters);
                results.push(bot);
                raws.push(raw);
            }
            None => results.push(match crawl_detail(session, href, config, None) {
                DetailOutcome::Fetched(fetch) => {
                    counters.fetched_full.add(fetch.fetches);
                    Some(fetch.bot)
                }
                _ => None,
            }),
        }
    }

    let ok = results.iter().filter(|r| r.is_some()).count() as u64;
    span.record("ok", ok);
    span.record("failed", results.len() as u64 - ok);
    ScopedCounter::new(obs, config, "bots").add(ok);
    ScopedCounter::new(obs, config, "detail_failures").add(results.len() as u64 - ok);
    let overhead = SessionOverhead::since(session, &before);
    ScopedCounter::new(obs, config, "captchas_solved").add(overhead.captchas_solved);
    ScopedCounter::new(obs, config, "email_verifications").add(overhead.email_verifications);
    (DetailUnit { results, overhead }, raws)
}

/// What one website visit produced, transfer cost included.
pub(crate) struct PolicyFetch {
    /// The homepage answered.
    pub reachable: bool,
    /// The homepage shows a privacy-policy link.
    pub link_present: bool,
    /// The policy document, when the link worked.
    pub policy: Option<PrivacyPolicy>,
    /// Body bytes transferred.
    pub bytes: u64,
    /// Full-body fetches performed.
    pub fetches: u64,
}

/// Visit a bot's website and hunt for its privacy policy.
pub(crate) fn fetch_policy_meta(session: &mut ScrapeSession, website: Option<&str>) -> PolicyFetch {
    let mut out = PolicyFetch {
        reachable: false,
        link_present: false,
        policy: None,
        bytes: 0,
        fetches: 0,
    };
    let Some(site) = website else {
        return out;
    };
    let Ok(home_url) = Url::parse(site) else {
        return out;
    };
    let Ok(resp) = session.http().get(home_url.clone()) else {
        return out;
    };
    if !resp.status.is_success() {
        return out;
    }
    out.reachable = true;
    out.bytes += resp.body.len() as u64;
    out.fetches += 1;
    let Ok(doc) = parse_body(&resp) else {
        return out;
    };
    let Ok(link) = Locator::id("privacy-link").find(&doc) else {
        return out;
    };
    let Some(href) = link.attr("href") else {
        return out;
    };
    out.link_present = true;
    let Ok(policy_url) = home_url.join(href) else {
        return out;
    };
    let Ok(presp) = session.http().get(policy_url) else {
        return out;
    };
    if !presp.status.is_success() {
        return out;
    }
    out.bytes += presp.body.len() as u64;
    out.fetches += 1;
    let Ok(pdoc) = parse_body(&presp) else {
        return out;
    };
    out.policy = extract_privacy_policy(&pdoc);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::CaptchaSolverService;
    use botlist::website::{BotWebsite, PolicyHosting};
    use botlist::{BotListSite, BotListing, SiteConfig};
    use discord_sim::oauth::InviteUrl;
    use discord_sim::platform::Platform;
    use discord_sim::webgate::OAuthWebGate;
    use discord_sim::{GuildVisibility, Permissions};
    use netsim::clock::VirtualClock;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A small end-to-end world: platform + webgate + listing site +
    /// websites + solver.
    fn build_world(n_bots: u64) -> Network {
        let clock = VirtualClock::new();
        let net = Network::with_clock(77, clock.clone());
        let platform = Platform::new(clock);
        CaptchaSolverService::mount(&net);
        OAuthWebGate::new(platform.clone()).mount(&net);

        let owner = platform.register_user("dev", "d@x.y");
        platform
            .create_guild(owner, "seed", GuildVisibility::Public)
            .unwrap();

        let mut rng = StdRng::seed_from_u64(4);
        let mut listings = Vec::new();
        for i in 0..n_bots {
            let app = platform
                .register_bot_application(owner, &format!("Bot{i}"))
                .unwrap();
            // Mix of valid / removed / malformed invite links.
            let invite_link = match i % 4 {
                0 | 1 => InviteUrl::bot(app.client_id, Permissions::ADMINISTRATOR)
                    .to_url()
                    .to_string(),
                2 => InviteUrl::bot(999_000 + i, Permissions::NONE)
                    .to_url()
                    .to_string(), // removed
                _ => "totally-broken".to_string(),
            };
            // Half the bots have websites; half of those have policies.
            let website = if i % 2 == 0 {
                let host = format!("bot{i}.site.sim");
                let hosting = if i % 4 == 0 {
                    PolicyHosting::Linked(policy::corpus::complete_policy(
                        &mut rng,
                        &format!("Bot{i}"),
                        true,
                    ))
                } else {
                    PolicyHosting::None
                };
                BotWebsite::new(&format!("Bot{i}"), hosting).mount(&net, &host);
                Some(format!("https://{host}/"))
            } else {
                None
            };
            listings.push(BotListing {
                id: app.client_id,
                name: format!("Bot{i}"),
                tags: vec!["fun".into()],
                description: format!("Bot number {i}"),
                invite_link,
                guild_count: 100 * i,
                vote_count: 1000 - i,
                website,
                github: None,
                developers: vec![format!("dev{}", i % 3)],
                commands: vec![format!("!cmd{i}")],
            });
        }
        BotListSite::new(
            listings,
            SiteConfig {
                page_size: 4,
                captcha_every: Some(10),
                rate_limit: None,
                email_wall_after_page: None,
                ..SiteConfig::open()
            },
        )
        .mount(&net);
        net
    }

    #[test]
    fn full_crawl_collects_everything() {
        let net = build_world(12);
        let (bots, stats) = crawl_listing(&net, &CrawlConfig::default());
        assert_eq!(bots.len(), 12);
        assert_eq!(stats.bots, 12);
        assert_eq!(stats.pages, 3);
        assert!(stats.duration > SimDuration::ZERO);

        let valid = bots.iter().filter(|b| b.invite_status.is_valid()).count();
        let removed = bots
            .iter()
            .filter(|b| b.invite_status == InviteStatus::Removed)
            .count();
        let malformed = bots
            .iter()
            .filter(|b| b.invite_status == InviteStatus::MalformedLink)
            .count();
        assert_eq!(valid, 6);
        assert_eq!(removed, 3);
        assert_eq!(malformed, 3);

        let with_site = bots.iter().filter(|b| b.website_reachable).count();
        assert_eq!(with_site, 6);
        // Sample commands survive both detail-page layouts.
        assert!(bots.iter().all(|b| b.scraped.commands.len() == 1));
        assert!(bots
            .iter()
            .any(|b| b.scraped.commands[0].starts_with("!cmd")));
        let with_policy = bots.iter().filter(|b| b.policy.is_some()).count();
        assert_eq!(with_policy, 3);
        // Permissions decoded for valid links.
        for b in bots.iter().filter(|b| b.invite_status.is_valid()) {
            let InviteStatus::Valid { permissions, .. } = &b.invite_status else {
                unreachable!()
            };
            assert!(permissions.contains(Permissions::ADMINISTRATOR));
        }
    }

    #[test]
    fn crawl_solves_captchas_on_the_way() {
        let net = build_world(12);
        let (_bots, stats) = crawl_listing(&net, &CrawlConfig::default());
        assert!(stats.captchas_solved >= 1, "captcha wall hit during crawl");
        assert!(stats.captcha_spend_dollars > 0.0);
    }

    #[test]
    fn max_pages_bounds_the_crawl() {
        let net = build_world(12);
        let (bots, stats) = crawl_listing(
            &net,
            &CrawlConfig {
                max_pages: Some(1),
                ..CrawlConfig::default()
            },
        );
        assert_eq!(stats.pages, 1);
        assert_eq!(bots.len(), 4);
    }

    #[test]
    fn crawl_without_policy_fetch_skips_websites() {
        let net = build_world(8);
        let (bots, _stats) = crawl_listing(
            &net,
            &CrawlConfig {
                fetch_policies: false,
                ..CrawlConfig::default()
            },
        );
        assert!(bots
            .iter()
            .all(|b| !b.website_reachable && b.policy.is_none()));
    }

    /// [`crawl_listing`]'s composition with observability attached.
    fn crawl_traced(net: &Network, config: &CrawlConfig, obs: &Obs, parent: &Span) {
        let listing = discover_listing(net, config, None, obs, parent);
        let _ = claim_map(
            listing.hrefs.chunks(DETAIL_UNIT_SIZE).collect(),
            config.workers,
            |worker| detail_session(net, config, worker),
            |session, unit, hrefs: &[String]| {
                crawl_detail_unit(session, config, hrefs, unit as u64, None, obs, parent);
                Ok::<_, Infallible>(())
            },
        );
    }

    #[test]
    fn sharded_crawl_matches_serial() {
        let collect = |workers: usize| {
            // 80 bots = three detail units, so the pool really fans out.
            let net = build_world(80);
            let (bots, stats) = crawl_listing(
                &net,
                &CrawlConfig {
                    workers,
                    ..CrawlConfig::default()
                },
            );
            let shape: Vec<_> = bots
                .iter()
                .map(|b| {
                    (
                        b.scraped.id,
                        b.scraped.name.clone(),
                        b.invite_status.clone(),
                        b.website_reachable,
                        b.policy_link_present,
                        b.policy.clone(),
                    )
                })
                .collect();
            (shape, stats.pages, stats.bots, stats.failures)
        };
        let serial = collect(1);
        for workers in [2, 4, 7] {
            assert_eq!(collect(workers), serial, "workers={workers}");
        }
    }

    #[test]
    fn traced_crawl_canonical_trace_is_sharding_invariant() {
        let trace = |workers: usize| {
            let net = build_world(80);
            let recorder = std::sync::Arc::new(obs::JsonRecorder::new());
            let obs_handle =
                Obs::with_recorder(recorder.clone(), std::sync::Arc::new(net.clock().clone()));
            {
                let root = obs_handle.span("audit");
                let config = CrawlConfig {
                    workers,
                    ..CrawlConfig::default()
                };
                crawl_traced(&net, &config, &obs_handle, &root);
            }
            recorder.canonical_trace()
        };
        let serial = trace(1);
        assert!(serial.contains("\"name\":\"listing\""));
        assert!(serial.contains("\"name\":\"page\""));
        assert!(serial.contains("\"name\":\"unit\""));
        for workers in [2, 4] {
            assert_eq!(trace(workers), serial, "workers={workers}");
        }
    }

    #[test]
    fn deterministic_crawl() {
        let run = || {
            let net = build_world(8);
            let (bots, stats) = crawl_listing(&net, &CrawlConfig::default());
            (
                bots.iter()
                    .map(|b| (b.scraped.id, b.invite_status.clone(), b.policy.is_some()))
                    .collect::<Vec<_>>(),
                stats.pages,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn counters_mirror_into_the_platform_namespace() {
        for kind in platform::PlatformKind::ALL {
            let net = build_world(8);
            let obs_handle = Obs::disabled();
            let config = CrawlConfig {
                platform: kind,
                ..CrawlConfig::default()
            };
            crawl_traced(&net, &config, &obs_handle, &Span::disabled());
            let scoped =
                |name: &str| obs_handle.counter_value(&format!("crawl.{}.{name}", kind.as_str()));
            for name in ["pages_fetched", "bots", "detail_failures"] {
                assert_eq!(
                    obs_handle.counter_value(&format!("crawl.{name}")),
                    scoped(name),
                    "crawl.{name} vs crawl.{}.{name}",
                    kind.as_str()
                );
            }
            assert_eq!(scoped("bots"), 8);
            // The other platform's namespace stays untouched.
            let other = platform::PlatformKind::ALL
                .iter()
                .find(|k| **k != kind)
                .unwrap();
            assert_eq!(
                obs_handle.counter_value(&format!("crawl.{}.bots", other.as_str())),
                0
            );
        }
    }
}
