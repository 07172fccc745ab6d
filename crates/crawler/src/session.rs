//! The scraping session: a client that survives the anti-scraping gauntlet.
//!
//! Implements the paper's four countermeasures (§3): rate limiting (the
//! underlying [`HttpClient`] is politeness-limited), captcha solving via
//! 2Captcha, human-behaviour mimicry (jittered think-time between fetches),
//! and exception handling (`NoSuchElement` → structure-variant fallbacks in
//! [`crate::extract`]; timeouts → bounded retries in the client).

use crate::solver::CaptchaSolverClient;
use htmlsim::{parse_document, Document, Locator, ParseError};
use netsim::client::{ClientConfig, HttpClient};
use netsim::clock::SimDuration;
use netsim::http::{Request, Response, Status, Url};
use netsim::{NetError, Network};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A scraping session against one site.
pub struct ScrapeSession {
    http: HttpClient,
    solver: CaptchaSolverClient,
    net: Network,
    rng: StdRng,
    /// Jitter range for human-behaviour mimicry (min..=max ms of think time
    /// before each fetch). Zeroed for the impolite ablation.
    pub think_time_ms: (u64, u64),
    /// Captchas encountered and solved.
    pub captchas_solved: u64,
    /// Email verifications performed.
    pub email_verifications: u64,
    /// Pages fetched successfully.
    pub pages_fetched: u64,
}

impl ScrapeSession {
    /// A polite session with the paper's etiquette.
    pub fn new(net: Network, seed: u64) -> ScrapeSession {
        Self::with_agent(
            net,
            seed,
            "measurement-crawler/1.0".to_string(),
            (400, 2500),
            false,
        )
    }

    /// An impolite session: no think time, no client rate limiting, single
    /// attempts. The crawler-politeness ablation uses this.
    pub fn impolite(net: Network, seed: u64) -> ScrapeSession {
        Self::with_agent(net, seed, "impolite-crawler/1.0".to_string(), (0, 0), true)
    }

    /// The session for shard `worker` of a parallel crawl. Worker 0 keeps
    /// the canonical user-agent; the rest identify themselves as distinct
    /// crawl machines so server-side per-requester defenses (rate buckets,
    /// captcha counters, email verification) apply per shard, exactly as
    /// they would to a distributed crawl fleet.
    pub fn for_worker(net: Network, seed: u64, worker: usize, polite: bool) -> ScrapeSession {
        let (base, think) = if polite {
            ("measurement-crawler/1.0", (400, 2500))
        } else {
            ("impolite-crawler/1.0", (0, 0))
        };
        let agent = if worker == 0 {
            base.to_string()
        } else {
            format!("{base} (shard {worker})")
        };
        Self::with_agent(net, seed, agent, think, !polite)
    }

    fn with_agent(
        net: Network,
        seed: u64,
        agent: String,
        think_time_ms: (u64, u64),
        impolite: bool,
    ) -> ScrapeSession {
        let config = if impolite {
            ClientConfig::impolite(&agent)
        } else {
            ClientConfig::crawler(&agent)
        };
        let http = HttpClient::new(net.clone(), config);
        ScrapeSession {
            solver: CaptchaSolverClient::new(net.clone()),
            http,
            net,
            rng: StdRng::seed_from_u64(seed),
            think_time_ms,
            captchas_solved: 0,
            email_verifications: 0,
            pages_fetched: 0,
        }
    }

    /// Total 2Captcha spend so far, in dollars.
    pub fn captcha_spend_dollars(&self) -> f64 {
        self.solver.spend_dollars()
    }

    fn think(&mut self) {
        let (lo, hi) = self.think_time_ms;
        if hi == 0 {
            return;
        }
        let ms = if lo >= hi {
            lo
        } else {
            self.rng.gen_range(lo..=hi)
        };
        self.net.clock().sleep(SimDuration::from_millis(ms));
    }

    /// Fetch a URL, solving captchas and the email wall as they appear.
    /// Returns the final successful response, or the last error.
    pub fn fetch(&mut self, url: Url) -> Result<Response, NetError> {
        self.fetch_inner(url, None)
    }

    /// Conditional fetch: attach an `if-none-match` validator so an
    /// unchanged page costs one cheap 304 round-trip instead of a body.
    /// The anti-scraping gauntlet still applies — a cached copy does not
    /// excuse the crawler from captchas or the email wall. A
    /// [`Status::NotModified`] answer comes back through the normal
    /// return path for the caller to act on.
    pub fn fetch_conditional(&mut self, url: Url, etag: &str) -> Result<Response, NetError> {
        self.fetch_inner(url, Some(etag))
    }

    fn fetch_inner(&mut self, url: Url, etag: Option<&str>) -> Result<Response, NetError> {
        self.think();
        let mut current = url.clone();
        for _round in 0..4 {
            let mut req = Request::get(current.clone());
            if let Some(tag) = etag {
                req = req.with_header("if-none-match", tag);
            }
            let resp = self.http.fetch(req)?;
            match resp.status {
                Status::Forbidden => {
                    // Captcha interstitial: extract, solve, redeem, retry.
                    let Some(challenge) = Self::parse_captcha(&resp) else {
                        return Ok(resp);
                    };
                    let (id, question) = challenge;
                    let answer = self.solver.solve(&question)?;
                    let redeem = self.http.post(
                        Url::https(&current.host, "/captcha/redeem"),
                        format!("id={id}&answer={answer}"),
                    )?;
                    if redeem.status != Status::Ok {
                        return Err(NetError::Malformed {
                            reason: "captcha redeem rejected".into(),
                        });
                    }
                    self.captchas_solved += 1;
                    current = url.clone().with_query("captcha_pass", &redeem.text());
                }
                Status::Unauthorized => {
                    // Email wall: verify once, then retry.
                    self.http.post(
                        Url::https(&current.host, "/verify-email"),
                        "email=crawler@lab.example",
                    )?;
                    self.email_verifications += 1;
                }
                _ => {
                    self.pages_fetched += 1;
                    return Ok(resp);
                }
            }
        }
        Err(NetError::Malformed {
            reason: format!("defense loop did not converge for {url}"),
        })
    }

    /// Fetch and parse a page.
    pub fn fetch_document(&mut self, url: Url) -> Result<Document, NetError> {
        let resp = self.fetch(url)?;
        if !resp.status.is_success() {
            return Err(NetError::Malformed {
                reason: format!("status {}", resp.status),
            });
        }
        parse_body(&resp).map_err(|e| NetError::Malformed {
            reason: e.to_string(),
        })
    }

    fn parse_captcha(resp: &Response) -> Option<(String, String)> {
        let doc = parse_body(resp).ok()?;
        let captcha = Locator::id("captcha").find(&doc).ok()?;
        let id = captcha.attr("data-challenge-id")?.to_string();
        let question = Locator::class("question").find(&doc).ok()?.text_content();
        Some((id, question))
    }

    /// Raw access to the underlying HTTP client (for link validation that
    /// must not trigger defense handling).
    pub fn http(&mut self) -> &mut HttpClient {
        &mut self.http
    }

    /// 429 responses the session's client has received.
    pub fn rate_limited(&self) -> u64 {
        self.http.stats().rate_limited
    }
}

/// Parse a response body as HTML straight from its bytes: valid UTF-8 (every
/// page the simulated sites serve) is borrowed, not copied, and invalid
/// sequences are replaced.
pub(crate) fn parse_body(resp: &Response) -> Result<Document, ParseError> {
    parse_document(&String::from_utf8_lossy(&resp.body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::CaptchaSolverService;
    use botlist::{BotListSite, BotListing, SiteConfig, LIST_HOST};

    fn listings(n: u64) -> Vec<BotListing> {
        (0..n)
            .map(|i| BotListing::minimal(i + 1, &format!("B{i}"), "https://x.sim/", 100 - i))
            .collect()
    }

    #[test]
    fn session_survives_captcha_wall() {
        let net = Network::new(17);
        CaptchaSolverService::mount(&net);
        let site = BotListSite::new(
            listings(10),
            SiteConfig {
                captcha_every: Some(2),
                rate_limit: None,
                email_wall_after_page: None,
                page_size: 5,
                ..SiteConfig::open()
            },
        );
        site.mount(&net);
        let mut session = ScrapeSession::new(net, 1);
        for _ in 0..6 {
            let resp = session.fetch(Url::https(LIST_HOST, "/list")).unwrap();
            assert!(resp.status.is_success());
        }
        assert!(
            session.captchas_solved >= 2,
            "solved {}",
            session.captchas_solved
        );
        assert!(session.captcha_spend_dollars() > 0.0);
    }

    #[test]
    fn session_passes_email_wall_once() {
        let net = Network::new(17);
        CaptchaSolverService::mount(&net);
        let site = BotListSite::new(
            listings(100),
            SiteConfig {
                captcha_every: None,
                rate_limit: None,
                email_wall_after_page: Some(0),
                page_size: 10,
                ..SiteConfig::open()
            },
        );
        site.mount(&net);
        let mut session = ScrapeSession::new(net, 1);
        for page in 1..4 {
            let resp = session
                .fetch(Url::https(LIST_HOST, "/list").with_query("page", &page.to_string()))
                .unwrap();
            assert!(resp.status.is_success(), "page {page}");
        }
        assert_eq!(session.email_verifications, 1, "verification persists");
    }

    #[test]
    fn polite_session_spends_think_time() {
        let net = Network::new(17);
        let site = BotListSite::new(listings(5), SiteConfig::open());
        site.mount(&net);
        let clock = net.clock();
        let mut session = ScrapeSession::new(net, 1);
        for _ in 0..3 {
            session.fetch(Url::https(LIST_HOST, "/list")).unwrap();
        }
        assert!(clock.now().as_millis() >= 3 * 400, "think time elapsed");
    }

    #[test]
    fn impolite_session_gets_rate_limited() {
        let net = Network::new(17);
        let site = BotListSite::new(
            listings(5),
            SiteConfig {
                rate_limit: Some((2, 0.5)),
                captcha_every: None,
                email_wall_after_page: None,
                page_size: 5,
                ..SiteConfig::open()
            },
        );
        site.mount(&net);
        let mut session = ScrapeSession::impolite(net, 1);
        let mut limited = 0;
        for _ in 0..6 {
            if session.fetch(Url::https(LIST_HOST, "/list")).is_err() {
                limited += 1;
            }
        }
        assert!(limited > 0, "impolite crawling hit the wall");
        assert!(
            session.rate_limited() >= limited,
            "every refused fetch met a 429 the session counts"
        );
    }

    #[test]
    fn fetch_document_parses() {
        let net = Network::new(17);
        let site = BotListSite::new(listings(5), SiteConfig::open());
        site.mount(&net);
        let mut session = ScrapeSession::new(net, 1);
        let doc = session
            .fetch_document(Url::https(LIST_HOST, "/list"))
            .unwrap();
        assert!(doc.title().unwrap().contains("Top chatbots"));
    }
}
