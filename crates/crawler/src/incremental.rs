//! Conditional-fetch incremental crawling.
//!
//! A re-audit of a mostly-unchanged ecosystem should not pay for a full
//! re-crawl. This module teaches the crawl to remember, per page, the
//! content validator (ETag) the server attached and the parsed result the
//! body produced, and to *revalidate* instead of re-fetch on the next run:
//! an unchanged page costs one bodyless 304 round-trip — no transfer, no
//! parse, no invite validation, no website visit.
//!
//! Correctness never rests on validators alone. The listing site publishes
//! a `changed-since` ledger (`/changed?since=EPOCH`), and any bot the
//! ledger names is **always re-fetched in full** — its cached validators
//! are only probed to *detect* servers that hand out stale 304s (the
//! `stale_validators` fault), never trusted. A bot the ledger says is
//! unchanged is reused after its detail-page validator answers 304: the
//! ledger names every bot whose crawl bytes moved anywhere (detail page,
//! website policy, GitHub view), so one round-trip per unchanged bot is
//! exactly the price floor. Either way the merged crawl output is
//! byte-identical to a cold crawl of the same world; the cache can only
//! change what the crawl *costs*.
//!
//! The warm path is not a separate crawl: [`crate::crawl::discover_listing`]
//! and [`crate::crawl::crawl_detail_unit`] take it whenever they are handed
//! a validator store. Persistence is the caller's business: the crawl sees
//! a [`ValidatorStore`] — a string-keyed byte map — and `crates/store`
//! provides the journaled, crash-safe implementation (`ValidatorCache`)
//! that lives next to the artifact pack. Every page lands there the moment
//! it is fetched, so the store is also the crawl's crash-safe state: a
//! rerun after a crash answers every page the killed run crawled with a
//! 304.
//!
//! Cost accounting lands on `crawl.*` counters:
//!
//! * `crawl.validated` — 304 round-trips served from validators;
//! * `crawl.fetched_full` — full-body page fetches;
//! * `crawl.validator_hits` — logical pages reused from the cache (one per
//!   list page, one per unchanged bot);
//! * `crawl.validator_stale` — ledger-contradicting 304s (a server lied);
//! * `crawl.bytes_saved` — body bytes the 304s avoided transferring.

use crate::crawl::{
    crawl_detail, detail_url, CrawlConfig, CrawledBot, DetailFetch, DetailOutcome, ListingIndex,
    ScopedCounter, SessionOverhead,
};
use crate::session::ScrapeSession;
use netsim::client::{ClientConfig, HttpClient};
use netsim::http::{Status, Url};
use netsim::Network;
use obs::{Obs, Span};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Mutex;

/// Where the crawl keeps validators between runs. Implementations must be
/// shareable across crawl workers; `crates/store`'s `ValidatorCache` is the
/// durable one. The store is *performance state*: losing or corrupting an
/// entry costs an extra full fetch, never a wrong crawl.
pub trait ValidatorStore: Send + Sync {
    /// The cached bytes for `key`, if any.
    fn get(&self, key: &str) -> Option<Vec<u8>>;
    /// Record (or replace) an entry. Failures may be swallowed.
    fn put(&self, key: &str, value: &[u8]);
}

/// An in-memory [`ValidatorStore`] for tests and single-process warm runs.
#[derive(Default)]
pub struct MemValidatorStore {
    map: Mutex<BTreeMap<String, Vec<u8>>>,
}

impl MemValidatorStore {
    /// An empty store.
    pub fn new() -> MemValidatorStore {
        MemValidatorStore::default()
    }

    /// Number of entries held.
    pub fn len(&self) -> usize {
        self.map.lock().expect("store lock").len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl ValidatorStore for MemValidatorStore {
    fn get(&self, key: &str) -> Option<Vec<u8>> {
        self.map.lock().expect("store lock").get(key).cloned()
    }

    fn put(&self, key: &str, value: &[u8]) {
        self.map
            .lock()
            .expect("store lock")
            .insert(key.to_string(), value.to_vec());
    }
}

/// Store key of the listing-traversal entry.
pub const LISTING_KEY: &str = "listing";

/// Store key of one bot's detail entry.
pub fn detail_key(href: &str) -> String {
    format!("detail:{href}")
}

/// Store key of one bot's cached crawl result (raw `CrawledBot` JSON).
/// Kept separate from [`detail_key`]'s validator record so the warm path
/// parses a tiny metadata object per bot and touches the body only after
/// the validator answers 304 — and so callers can hash the exact bytes
/// instead of re-serializing the parsed struct.
pub fn detail_body_key(href: &str) -> String {
    format!("detailbody:{href}")
}

/// The cached listing traversal: per-page validators plus the merged index
/// they covered. Reused only when *every* page revalidates.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CachedListing {
    /// Per-page ETags, in page order (page 0 first).
    pub etags: Vec<String>,
    /// Bot detail hrefs, in listing order.
    pub hrefs: Vec<String>,
    /// List pages the traversal counted.
    pub pages: usize,
    /// Body bytes the traversal transferred (what a revalidation saves).
    pub bytes: u64,
}

/// The validator one bot's cached crawl result is revalidated against.
/// The result itself lives under [`detail_body_key`] as raw JSON; this
/// record stays small so the warm path's per-bot bookkeeping costs
/// microseconds.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CachedDetail {
    /// The detail page's validator.
    pub etag_detail: String,
    /// Body bytes the full crawl transferred (what a revalidation saves).
    pub bytes: u64,
}

/// Ask the listing site which bots' crawl bytes changed after `since`,
/// walking the paginated `/changed` feed. Returns the changed hrefs and the
/// epoch the site serves (its `x-changed-epoch` header; `since` if a page
/// lacks it), which is what a completed crawl's validators then describe.
///
/// Returns `None` when the feed is unreachable or malformed, or serves an
/// epoch before `since` (a world older than the one the validators were
/// taken from, whose ledger cannot name what changed) — the caller must
/// then treat *everything* as changed (i.e. crawl cold), because reuse
/// without the ledger's blessing could trust a validator the site no
/// longer honours.
pub fn fetch_changed_hrefs(
    net: &Network,
    host: &str,
    since: u32,
    obs: &Obs,
) -> Option<(BTreeSet<String>, u32)> {
    let mut client = HttpClient::new(
        net.clone(),
        ClientConfig::crawler("measurement-crawler/1.0 (change-probe)"),
    );
    let mut out = BTreeSet::new();
    let mut page = 0usize;
    loop {
        let url = Url::https(host, "/changed")
            .with_query("since", &since.to_string())
            .with_query("page", &page.to_string());
        let resp = client.get(url).ok()?;
        if !resp.status.is_success() {
            return None;
        }
        obs.counter("crawl.changed_pages").incr();
        for line in resp.text().lines() {
            if !line.is_empty() {
                out.insert(line.to_string());
            }
        }
        let total: usize = resp
            .header("x-total-pages")
            .and_then(|t| t.parse().ok())
            .unwrap_or(1);
        let epoch: u32 = resp
            .header("x-changed-epoch")
            .and_then(|e| e.parse().ok())
            .unwrap_or(since);
        if epoch < since {
            return None;
        }
        page += 1;
        if page >= total {
            return Some((out, epoch));
        }
    }
}

/// The listing warm path: when `store` holds a cached traversal and every
/// page answers 304 against its validator, the cached index is reused
/// outright. `None` sends the caller down the cold traversal.
pub(crate) fn revalidate_listing(
    net: &Network,
    config: &CrawlConfig,
    store: &dyn ValidatorStore,
    obs: &Obs,
    parent: &Span,
) -> Option<ListingIndex> {
    let cached: CachedListing = serde_json::from_slice(&store.get(LISTING_KEY)?).ok()?;
    // A traversal cached under a wider page budget cannot be reused
    // wholesale (the cache is fingerprint-scoped, so this is belt and
    // braces).
    if config.max_pages.is_some_and(|m| cached.etags.len() > m) {
        return None;
    }
    let span = parent.child("listing_revalidate");
    let mut session = ScrapeSession::for_worker(net.clone(), config.seed, 0, config.polite);
    for (page, etag) in cached.etags.iter().enumerate() {
        let url = Url::https(&config.list_host, "/list").with_query("page", &page.to_string());
        match session.fetch_conditional(url, etag) {
            Ok(resp) if resp.status == Status::NotModified => {}
            _ => {
                span.record("miss_at_page", page as u64);
                return None;
            }
        }
    }
    span.record("pages", cached.pages as u64);
    ScopedCounter::new(obs, config, "validated").add(cached.etags.len() as u64);
    ScopedCounter::new(obs, config, "validator_hits").add(cached.pages as u64);
    ScopedCounter::new(obs, config, "bytes_saved").add(cached.bytes);
    ScopedCounter::new(obs, config, "captchas_solved").add(session.captchas_solved);
    ScopedCounter::new(obs, config, "rate_limited").add(session.rate_limited());
    ScopedCounter::new(obs, config, "email_verifications").add(session.email_verifications);
    Some(ListingIndex {
        hrefs: cached.hrefs,
        pages: cached.pages,
        overhead: SessionOverhead::of(&session),
    })
}

/// Record a clean cold traversal's page validators for the next run.
pub(crate) fn cache_listing(
    store: &dyn ValidatorStore,
    index: &ListingIndex,
    etags: Vec<String>,
    bytes: u64,
) {
    let cached = CachedListing {
        etags,
        hrefs: index.hrefs.clone(),
        pages: index.pages,
        bytes,
    };
    if let Ok(bytes) = serde_json::to_vec(&cached) {
        store.put(LISTING_KEY, &bytes);
    }
}

/// The `crawl.*` counters one detail unit bumps, resolved once per unit.
pub(crate) struct DetailCounters {
    pub(crate) fetched_full: ScopedCounter,
    validated: ScopedCounter,
    hits: ScopedCounter,
    stale: ScopedCounter,
    bytes_saved: ScopedCounter,
}

impl DetailCounters {
    pub(crate) fn new(obs: &Obs, config: &CrawlConfig) -> DetailCounters {
        DetailCounters {
            fetched_full: ScopedCounter::new(obs, config, "fetched_full"),
            validated: ScopedCounter::new(obs, config, "validated"),
            hits: ScopedCounter::new(obs, config, "validator_hits"),
            stale: ScopedCounter::new(obs, config, "validator_stale"),
            bytes_saved: ScopedCounter::new(obs, config, "bytes_saved"),
        }
    }
}

/// One href of a detail unit on the warm path:
///
/// * **cached, not in `changed`** — one conditional round-trip against the
///   detail validator; a 304 reuses the cached bot, anything else falls
///   back to a full fetch;
/// * **cached, in `changed`** — the ledger overrules the validators: probe
///   conditionally (a 304 here means the server's validators are stale and
///   is counted, never trusted), then fetch in full;
/// * **uncached** — full fetch, populating the store.
///
/// The bot is identical to a cold crawl's; the bytes are its exact
/// `serde_json::to_vec` encoding (cached bytes for reused entries, the
/// freshly written cache body for fetched ones).
pub(crate) fn crawl_detail_cached(
    session: &mut ScrapeSession,
    config: &CrawlConfig,
    href: &str,
    store: &dyn ValidatorStore,
    changed: &BTreeSet<String>,
    counters: &DetailCounters,
) -> (Option<CrawledBot>, Option<Vec<u8>>) {
    let cached: Option<CachedDetail> = store
        .get(&detail_key(href))
        .and_then(|bytes| serde_json::from_slice(&bytes).ok());
    match cached {
        Some(entry) if !changed.contains(href) => {
            let reused = revalidate_detail(session, config, href, &entry, &counters.validated)
                .then(|| store.get(&detail_body_key(href)))
                .flatten()
                .and_then(|body| {
                    let bot: CrawledBot = serde_json::from_slice(&body).ok()?;
                    Some((bot, body))
                });
            match reused {
                Some((bot, body)) => {
                    counters.hits.incr();
                    counters.bytes_saved.add(entry.bytes);
                    (Some(bot), Some(body))
                }
                None => fetch_and_cache(session, href, config, store, counters),
            }
        }
        Some(entry) => {
            // The ledger says this bot's bytes changed: a validator match
            // would be a lie, so the conditional fetch is a stale-validator
            // detector and the real bytes always come from a full fetch.
            match crawl_detail(session, href, config, Some(&entry.etag_detail)) {
                DetailOutcome::NotModified => {
                    counters.validated.incr();
                    counters.stale.incr();
                    fetch_and_cache(session, href, config, store, counters)
                }
                DetailOutcome::Fetched(fetch) => {
                    counters.fetched_full.add(fetch.fetches);
                    let body = cache_detail(store, href, &fetch);
                    (Some(fetch.bot), body)
                }
                DetailOutcome::Failed => (None, None),
            }
        }
        None => fetch_and_cache(session, href, config, store, counters),
    }
}

/// Revalidate a cached bot the change ledger left alone: one conditional
/// round-trip against the detail page's validator. The ledger names every
/// bot whose crawl bytes moved — detail page, website policy, or GitHub
/// view — so an unlisted bot's website and policy pages need no probe of
/// their own; probing them would turn the one cheap 304 the warm path is
/// built around into three. A detail
/// mismatch (cache older than the ledger's horizon, or a server that
/// stopped honouring validators) still falls back to the full fetch.
fn revalidate_detail(
    session: &mut ScrapeSession,
    config: &CrawlConfig,
    href: &str,
    entry: &CachedDetail,
    validated: &ScopedCounter,
) -> bool {
    let Some(url) = detail_url(&config.list_host, href) else {
        return false;
    };
    match session.fetch_conditional(url, &entry.etag_detail) {
        Ok(resp) if resp.status == Status::NotModified => {
            validated.incr();
            true
        }
        _ => false,
    }
}

fn fetch_and_cache(
    session: &mut ScrapeSession,
    href: &str,
    config: &CrawlConfig,
    store: &dyn ValidatorStore,
    counters: &DetailCounters,
) -> (Option<CrawledBot>, Option<Vec<u8>>) {
    match crawl_detail(session, href, config, None) {
        DetailOutcome::Fetched(fetch) => {
            counters.fetched_full.add(fetch.fetches);
            let body = cache_detail(store, href, &fetch);
            (Some(fetch.bot), body)
        }
        _ => (None, None),
    }
}

/// Record a freshly fetched bot: validator metadata under [`detail_key`],
/// the serialized crawl result under [`detail_body_key`]. Returns the body
/// bytes either way — they are exactly `serde_json::to_vec(&fetch.bot)`,
/// which callers hash for content addressing without re-serializing.
fn cache_detail(store: &dyn ValidatorStore, href: &str, fetch: &DetailFetch) -> Option<Vec<u8>> {
    let body = serde_json::to_vec(&fetch.bot).ok()?;
    // No validator on the detail page → nothing to revalidate against
    // later; leave the entry out so the bot always crawls cold.
    if let Some(etag_detail) = fetch.etag_detail.clone() {
        let entry = CachedDetail {
            etag_detail,
            bytes: fetch.bytes,
        };
        if let Ok(bytes) = serde_json::to_vec(&entry) {
            store.put(&detail_key(href), &bytes);
            store.put(&detail_body_key(href), &body);
        }
    }
    Some(body)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crawl::{crawl_detail_unit, detail_session, discover_listing, DetailUnit};
    use crate::solver::CaptchaSolverService;
    use botlist::website::{BotWebsite, PolicyHosting};
    use botlist::{BotListSite, BotListing, SiteConfig, LIST_HOST};
    use netsim::clock::VirtualClock;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn listings(n: u64, policy_seed: u64, net: &Network) -> Vec<BotListing> {
        let mut rng = StdRng::seed_from_u64(policy_seed);
        (0..n)
            .map(|i| {
                let website = if i % 2 == 0 {
                    let host = format!("ibot{i}.site.sim");
                    let hosting = if i % 4 == 0 {
                        PolicyHosting::Linked(policy::corpus::complete_policy(
                            &mut rng,
                            &format!("IBot{i}"),
                            true,
                        ))
                    } else {
                        PolicyHosting::None
                    };
                    BotWebsite::new(&format!("IBot{i}"), hosting).mount(net, &host);
                    Some(format!("https://{host}/"))
                } else {
                    None
                };
                BotListing {
                    id: i + 1,
                    name: format!("IBot{i}"),
                    tags: vec!["fun".into()],
                    description: format!("Incremental bot {i}"),
                    invite_link: "totally-broken".to_string(),
                    guild_count: 10 * i,
                    vote_count: 500 - i,
                    website,
                    github: None,
                    developers: vec![format!("dev{}", i % 3)],
                    commands: vec![format!("!cmd{i}")],
                }
            })
            .collect()
    }

    fn world(n: u64, policy_seed: u64) -> Network {
        let clock = VirtualClock::new();
        let net = Network::with_clock(99, clock);
        CaptchaSolverService::mount(&net);
        let listings = listings(n, policy_seed, &net);
        BotListSite::new(
            listings,
            SiteConfig {
                page_size: 4,
                captcha_every: None,
                rate_limit: None,
                email_wall_after_page: None,
                ..SiteConfig::open()
            },
        )
        .mount(&net);
        net
    }

    fn config() -> CrawlConfig {
        CrawlConfig {
            validate_invites: false,
            ..CrawlConfig::default()
        }
    }

    fn shape(unit: &DetailUnit) -> Vec<Option<(u64, String, bool, bool)>> {
        unit.results
            .iter()
            .map(|r| {
                r.as_ref().map(|b| {
                    (
                        b.scraped.id,
                        b.scraped.name.clone(),
                        b.website_reachable,
                        b.policy.is_some(),
                    )
                })
            })
            .collect()
    }

    /// The listing index, warm path first when a store is given.
    fn index(net: &Network, store: Option<&MemValidatorStore>, obs: &Obs) -> ListingIndex {
        let store = store.map(|s| s as &dyn ValidatorStore);
        discover_listing(net, &config(), store, obs, &Span::disabled())
    }

    /// One detail unit over `hrefs` on a fresh worker-0 session.
    fn unit(
        net: &Network,
        hrefs: &[String],
        validators: Option<(&MemValidatorStore, &BTreeSet<String>)>,
        obs: &Obs,
    ) -> DetailUnit {
        let cfg = config();
        let validators = validators.map(|(s, c)| (s as &dyn ValidatorStore, c));
        let mut session = detail_session(net, &cfg, 0);
        crawl_detail_unit(
            &mut session,
            &cfg,
            hrefs,
            0,
            validators,
            obs,
            &Span::disabled(),
        )
        .0
    }

    #[test]
    fn warm_crawl_reuses_everything_when_nothing_changed() {
        let net = world(8, 3);
        let store = MemValidatorStore::new();
        let none = BTreeSet::new();
        let obs = Obs::disabled();

        let cold_index = index(&net, Some(&store), &obs);
        let cold_unit = unit(&net, &cold_index.hrefs, Some((&store, &none)), &obs);
        assert_eq!(
            obs.counter_value("crawl.validator_hits"),
            0,
            "cold run reuses nothing"
        );
        assert!(store.len() > 1, "listing + details cached");

        let warm_obs = Obs::disabled();
        let warm_index = index(&net, Some(&store), &warm_obs);
        assert_eq!(warm_index.hrefs, cold_index.hrefs);
        assert_eq!(warm_index.pages, cold_index.pages);
        let warm_unit = unit(&net, &warm_index.hrefs, Some((&store, &none)), &warm_obs);
        assert_eq!(shape(&warm_unit), shape(&cold_unit));
        // 2 list pages + 8 bots, all reused.
        assert_eq!(warm_obs.counter_value("crawl.validator_hits"), 2 + 8);
        assert_eq!(warm_obs.counter_value("crawl.fetched_full"), 0);
        assert!(warm_obs.counter_value("crawl.bytes_saved") > 0);
        assert_eq!(warm_obs.counter_value("crawl.validator_stale"), 0);
    }

    #[test]
    fn entries_with_subresource_validators_stay_warm() {
        // Detail entries used to carry the website's and policy page's
        // validators too. The reader skips fields it does not know, so a
        // validator store written in that format still serves 304s.
        #[derive(Serialize)]
        struct WithSubresources {
            etag_detail: String,
            home_validator: Option<(String, String)>,
            policy_validator: Option<(String, String)>,
            bytes: u64,
        }
        let net = world(8, 3);
        let store = MemValidatorStore::new();
        let none = BTreeSet::new();
        let obs = Obs::disabled();
        let hrefs = index(&net, Some(&store), &obs).hrefs;
        let cold = unit(&net, &hrefs, Some((&store, &none)), &obs);
        for href in &hrefs {
            let key = detail_key(href);
            let entry: CachedDetail = serde_json::from_slice(&store.get(&key).unwrap()).unwrap();
            let old = WithSubresources {
                etag_detail: entry.etag_detail,
                home_validator: Some(("https://ibot0.site.sim/".into(), "\"home\"".into())),
                policy_validator: Some(("https://ibot0.site.sim/privacy".into(), "\"p\"".into())),
                bytes: entry.bytes,
            };
            store.put(&key, &serde_json::to_vec(&old).unwrap());
        }

        let warm_obs = Obs::disabled();
        let warm_index = index(&net, Some(&store), &warm_obs);
        let warm = unit(&net, &warm_index.hrefs, Some((&store, &none)), &warm_obs);
        assert_eq!(shape(&warm), shape(&cold));
        // 2 list pages + 8 bots: one 304 each, every bot reused.
        assert_eq!(warm_obs.counter_value("crawl.validated"), 2 + 8);
        assert_eq!(warm_obs.counter_value("crawl.validator_hits"), 2 + 8);
        assert_eq!(warm_obs.counter_value("crawl.fetched_full"), 0);
    }

    #[test]
    fn changed_bots_are_refetched_in_full() {
        let net = world(8, 3);
        let store = MemValidatorStore::new();
        let obs = Obs::disabled();
        let hrefs = index(&net, Some(&store), &obs).hrefs;
        unit(&net, &hrefs, Some((&store, &BTreeSet::new())), &obs);

        let changed: BTreeSet<String> = ["/bot/3".to_string(), "/bot/5".to_string()].into();
        let warm_obs = Obs::disabled();
        let warm = unit(&net, &hrefs, Some((&store, &changed)), &warm_obs);
        assert_eq!(warm.results.iter().filter(|r| r.is_some()).count(), 8);
        assert_eq!(warm_obs.counter_value("crawl.validator_hits"), 8 - 2);
        assert!(warm_obs.counter_value("crawl.fetched_full") >= 2);
        // Honest validators + unchanged content → the probes 304 and are
        // counted stale (the ledger said changed, the validator disagreed).
        assert_eq!(warm_obs.counter_value("crawl.validator_stale"), 2);
    }

    #[test]
    fn validated_paths_match_plain_paths_bot_for_bot() {
        let obs = Obs::disabled();
        let none = BTreeSet::new();

        let net_a = world(10, 5);
        let plain_index = index(&net_a, None, &obs);
        let plain_unit = unit(&net_a, &plain_index.hrefs, None, &obs);

        let net_b = world(10, 5);
        let store = MemValidatorStore::new();
        let cold_index = index(&net_b, Some(&store), &obs);
        let cold_unit = unit(&net_b, &cold_index.hrefs, Some((&store, &none)), &obs);
        assert_eq!(plain_index.hrefs, cold_index.hrefs);
        assert_eq!(plain_index.pages, cold_index.pages);
        assert_eq!(shape(&plain_unit), shape(&cold_unit));

        // And the warm pass over the same world still matches.
        let warm_unit = unit(&net_b, &cold_index.hrefs, Some((&store, &none)), &obs);
        assert_eq!(shape(&plain_unit), shape(&warm_unit));
    }

    #[test]
    fn changed_feed_pagination_round_trips() {
        // Install a ledger: epoch 1 changed bots 2 and 4, epoch 2 changed 1.
        let site_log: BTreeMap<u32, Vec<u64>> =
            [(1u32, vec![2, 4]), (2u32, vec![1])].into_iter().collect();
        let clock = VirtualClock::new();
        let net2 = Network::with_clock(7, clock);
        let listings = listings(4, 1, &net2);
        let site = BotListSite::new(
            listings,
            SiteConfig {
                page_size: 2,
                captcha_every: None,
                rate_limit: None,
                email_wall_after_page: None,
                ..SiteConfig::open()
            },
        );
        site.set_change_log(2, site_log);
        site.mount(&net2);

        let obs = Obs::disabled();
        let all = fetch_changed_hrefs(&net2, LIST_HOST, 0, &obs).unwrap();
        assert_eq!(
            all,
            (
                ["/bot/1", "/bot/2", "/bot/4"]
                    .into_iter()
                    .map(String::from)
                    .collect(),
                2
            )
        );
        let since_1 = fetch_changed_hrefs(&net2, LIST_HOST, 1, &obs).unwrap();
        assert_eq!(since_1, (["/bot/1".to_string()].into(), 2));
        let since_2 = fetch_changed_hrefs(&net2, LIST_HOST, 2, &obs).unwrap();
        assert_eq!(since_2, (BTreeSet::new(), 2));
        // Validators taken from a later world than the site serves: the
        // ledger cannot name what changed, so the feed is unusable.
        assert_eq!(fetch_changed_hrefs(&net2, LIST_HOST, 3, &obs), None);
    }

    #[test]
    fn stale_validator_fault_is_detected_not_trusted() {
        let build = |stale: bool| {
            let clock = VirtualClock::new();
            let net = Network::with_clock(99, clock);
            CaptchaSolverService::mount(&net);
            let listings = listings(6, 9, &net);
            BotListSite::new(
                listings,
                SiteConfig {
                    page_size: 4,
                    captcha_every: None,
                    rate_limit: None,
                    email_wall_after_page: None,
                    stale_validators: stale,
                },
            )
            .mount(&net);
            net
        };
        let obs = Obs::disabled();

        let net = build(true);
        let store = MemValidatorStore::new();
        let hrefs = index(&net, Some(&store), &obs).hrefs;
        unit(&net, &hrefs, Some((&store, &BTreeSet::new())), &obs);

        // Every bot is declared changed; the faulty site 304s the probes
        // anyway. The crawl must refuse the lie: full refetches, stale
        // count, and output identical to a cold crawl.
        let changed: BTreeSet<String> = hrefs.iter().cloned().collect();
        let warm_obs = Obs::disabled();
        let warm = unit(&net, &hrefs, Some((&store, &changed)), &warm_obs);
        assert_eq!(warm_obs.counter_value("crawl.validator_stale"), 6);
        assert_eq!(warm_obs.counter_value("crawl.validator_hits"), 0);

        let net_cold = build(false);
        let cold_index = index(&net_cold, None, &obs);
        let cold = unit(&net_cold, &cold_index.hrefs, None, &obs);
        assert_eq!(shape(&warm), shape(&cold));
    }
}
