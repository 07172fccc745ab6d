//! GitHub-site simulation and the link-resolution scraper.
//!
//! §4.2: "We built a Web scraper that visits the GitHub links extracted
//! from the top.gg website to check for the presence of the GitHub code
//! section. … The rest [of the] links take us to user profiles, a GitHub
//! with no repositories, a GitHub with no public repositories, or an
//! invalid link."

use crate::repo::{Repository, SourceFile};
use htmlsim::build::el;
use htmlsim::render::render_document;
use htmlsim::{parse_document, Document, Locator};
use netsim::http::{Request, Response, Status, Url};
use netsim::{HttpClient, NetError, Network, Service, ServiceCtx};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Canonical host for the simulated GitHub.
pub const GITHUB_HOST: &str = "github.sim";

/// What a scraped GitHub link turned out to be.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinkOutcome {
    /// A valid repository; contents were downloaded.
    ValidRepo(Repository),
    /// A user profile (with repositories, but the link names none).
    UserProfile,
    /// A profile with no public repositories.
    NoPublicRepos,
    /// Dead or malformed link.
    Invalid,
}

#[derive(Default)]
struct SiteInner {
    repos: BTreeMap<String, Repository>,
    profiles: BTreeMap<String, Vec<String>>,
}

/// The repository-hosting site. Clone freely; mount once.
#[derive(Clone, Default)]
pub struct GitHubSite {
    inner: Arc<Mutex<SiteInner>>,
}

impl GitHubSite {
    /// An empty site.
    pub fn new() -> GitHubSite {
        GitHubSite::default()
    }

    /// Publish a repository under its `owner/name` slug.
    pub fn publish(&self, repo: Repository) {
        let mut inner = self.inner.lock();
        let owner = repo.slug.split('/').next().unwrap_or("").to_string();
        inner
            .profiles
            .entry(owner)
            .or_default()
            .push(repo.slug.clone());
        inner.repos.insert(repo.slug.clone(), repo);
    }

    /// Register a profile with no public repositories.
    pub fn publish_empty_profile(&self, owner: &str) {
        self.inner
            .lock()
            .profiles
            .entry(owner.to_string())
            .or_default();
    }

    /// Mount the site on the network at [`GITHUB_HOST`].
    pub fn mount(&self, net: &Network) {
        net.mount(GITHUB_HOST, self.clone());
    }

    /// FNV-1a content validator over the inputs that feed a view's render,
    /// computed before rendering so a 304 skips the render entirely.
    fn view_etag(parts: &[&[u8]]) -> String {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for part in parts {
            for &b in *part {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            h ^= 0xff;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        format!("v1-{h:016x}")
    }

    fn repo_etag(repo: &Repository) -> String {
        let mut parts: Vec<&[u8]> = vec![repo.slug.as_bytes(), repo.description.as_bytes()];
        for f in &repo.files {
            parts.push(f.path.as_bytes());
            parts.push(f.content.as_bytes());
        }
        Self::view_etag(&parts)
    }

    /// Conditional-GET aware wrapper: 304 on a validator match, otherwise
    /// the rendered body stamped with its validator.
    fn serve(req: &Request, etag: String, render: impl FnOnce() -> Response) -> Response {
        if req.header("if-none-match") == Some(etag.as_str()) {
            return Response::not_modified(&etag);
        }
        render().with_header("etag", &etag)
    }

    fn render_repo(repo: &Repository) -> String {
        let lang_badge = repo
            .main_language()
            .map(|l| l.to_string())
            .unwrap_or_else(|| "None".to_string());
        let files = el("ul").id("files").children(repo.files.iter().map(|f| {
            el("li").child(
                el("a")
                    .class("file-link")
                    .attr("href", &format!("/{}/raw/{}", repo.slug, f.path))
                    .text(f.path.clone()),
            )
        }));
        let doc = Document::new(
            el("html")
                .child(el("head").child(el("title").text(repo.slug.clone())))
                .child(
                    el("body").child(
                        el("div")
                            .id("repo")
                            .attr("data-slug", &repo.slug)
                            .child(el("p").class("description").text(repo.description.clone()))
                            .child(el("span").class("main-language").text(lang_badge))
                            .child(files),
                    ),
                )
                .build(),
        );
        render_document(&doc)
    }

    fn render_profile(owner: &str, slugs: &[String]) -> String {
        let repo_list = el("ul").id("repo-list").children(slugs.iter().map(|s| {
            el("li").child(
                el("a")
                    .class("repo-link")
                    .attr("href", &format!("/{s}"))
                    .text(s.clone()),
            )
        }));
        let doc = Document::new(
            el("html")
                .child(el("head").child(el("title").text(format!("{owner} — profile"))))
                .child(
                    el("body").child(
                        el("div")
                            .id("profile")
                            .attr("data-owner", owner)
                            .child(repo_list),
                    ),
                )
                .build(),
        );
        render_document(&doc)
    }
}

impl Service for GitHubSite {
    fn handle(&mut self, req: &Request, _ctx: &mut ServiceCtx<'_>) -> Response {
        let inner = self.inner.lock();
        let segments = req.url.segments();
        match segments.as_slice() {
            [owner] => match inner.profiles.get(*owner) {
                Some(slugs) => {
                    let mut parts: Vec<&[u8]> = vec![owner.as_bytes()];
                    parts.extend(slugs.iter().map(|s| s.as_bytes()));
                    Self::serve(req, Self::view_etag(&parts), || {
                        Response::ok(Self::render_profile(owner, slugs))
                            .with_header("content-type", "text/html")
                    })
                }
                None => Response::status(Status::NotFound),
            },
            [owner, name] => {
                let slug = format!("{owner}/{name}");
                match inner.repos.get(&slug) {
                    Some(repo) => Self::serve(req, Self::repo_etag(repo), || {
                        Response::ok(Self::render_repo(repo))
                            .with_header("content-type", "text/html")
                    }),
                    None => Response::status(Status::NotFound),
                }
            }
            [owner, name, "raw", rest @ ..] => {
                let slug = format!("{owner}/{name}");
                let path = rest.join("/");
                match inner
                    .repos
                    .get(&slug)
                    .and_then(|r| r.files.iter().find(|f| f.path == path))
                {
                    Some(file) => {
                        Self::serve(req, Self::view_etag(&[file.content.as_bytes()]), || {
                            Response::ok(file.content.clone())
                        })
                    }
                    None => Response::status(Status::NotFound),
                }
            }
            _ => Response::status(Status::NotFound),
        }
    }
}

/// Resolve one scraped GitHub link, downloading repository contents when
/// the link leads to a real repo.
pub fn resolve_github_link(client: &mut HttpClient, raw_link: &str) -> LinkOutcome {
    let Ok(url) = Url::parse(raw_link) else {
        return LinkOutcome::Invalid;
    };
    if url.host != GITHUB_HOST {
        return LinkOutcome::Invalid;
    }
    let page = match client.get(url.clone()) {
        Ok(resp) if resp.status.is_success() => resp.text(),
        _ => return LinkOutcome::Invalid,
    };
    let Ok(doc) = parse_document(&page) else {
        return LinkOutcome::Invalid;
    };

    if let Ok(repo_div) = Locator::id("repo").find(&doc) {
        let slug = repo_div.attr("data-slug").unwrap_or_default().to_string();
        let description = Locator::css("p.description")
            .find(&doc)
            .map(|n| n.text_content())
            .unwrap_or_default();
        let mut files = Vec::new();
        if let Ok(links) = Locator::class("file-link").find_all(&doc) {
            for link in links {
                let Some(href) = link.attr("href") else {
                    continue;
                };
                let Ok(raw_url) = url.join(href) else {
                    continue;
                };
                if let Ok(resp) = client.get(raw_url) {
                    if resp.status.is_success() {
                        let path = link.text_content();
                        files.push(SourceFile::new(&path, &resp.text()));
                    }
                }
            }
        }
        return LinkOutcome::ValidRepo(Repository::new(&slug, &description, files));
    }

    if Locator::id("profile").find(&doc).is_ok() {
        let count = Locator::class("repo-link")
            .find_all(&doc)
            .map(|v| v.len())
            .unwrap_or(0);
        return if count == 0 {
            LinkOutcome::NoPublicRepos
        } else {
            LinkOutcome::UserProfile
        };
    }

    LinkOutcome::Invalid
}

/// Convenience: resolve and, if valid, return the repository.
pub fn fetch_repository(client: &mut HttpClient, raw_link: &str) -> Result<Repository, NetError> {
    match resolve_github_link(client, raw_link) {
        LinkOutcome::ValidRepo(repo) => Ok(repo),
        other => Err(NetError::Malformed {
            reason: format!("not a repo link: {other:?}"),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::genrepo;
    use netsim::client::ClientConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (Network, GitHubSite, HttpClient) {
        let net = Network::new(3);
        let site = GitHubSite::new();
        site.mount(&net);
        let client = HttpClient::new(net.clone(), ClientConfig::impolite("test-scraper"));
        (net, site, client)
    }

    #[test]
    fn valid_repo_roundtrips_through_scrape() {
        let (_net, site, mut client) = setup();
        let mut rng = StdRng::seed_from_u64(21);
        let original = genrepo::js_bot_repo(&mut rng, "alice/modbot", true);
        site.publish(original.clone());

        let outcome = resolve_github_link(&mut client, "https://github.sim/alice/modbot");
        let LinkOutcome::ValidRepo(fetched) = outcome else {
            panic!("expected repo, got {outcome:?}")
        };
        assert_eq!(fetched.slug, original.slug);
        assert_eq!(fetched.files.len(), original.files.len());
        // Content integrity: the scanner sees the same verdict.
        assert_eq!(
            crate::scanner::scan_repository(&fetched).performs_checks(),
            crate::scanner::scan_repository(&original).performs_checks()
        );
        assert_eq!(fetched.main_language(), original.main_language());
    }

    #[test]
    fn profile_link_classified() {
        let (_net, site, mut client) = setup();
        let mut rng = StdRng::seed_from_u64(22);
        site.publish(genrepo::py_bot_repo(&mut rng, "bob/funbot", false));
        assert_eq!(
            resolve_github_link(&mut client, "https://github.sim/bob"),
            LinkOutcome::UserProfile
        );
    }

    #[test]
    fn empty_profile_classified() {
        let (_net, site, mut client) = setup();
        site.publish_empty_profile("ghost");
        assert_eq!(
            resolve_github_link(&mut client, "https://github.sim/ghost"),
            LinkOutcome::NoPublicRepos
        );
    }

    #[test]
    fn dead_and_malformed_links_invalid() {
        let (_net, _site, mut client) = setup();
        assert_eq!(
            resolve_github_link(&mut client, "https://github.sim/missing/repo"),
            LinkOutcome::Invalid
        );
        assert_eq!(
            resolve_github_link(&mut client, "not a url"),
            LinkOutcome::Invalid
        );
        assert_eq!(
            resolve_github_link(&mut client, "https://elsewhere.example/x"),
            LinkOutcome::Invalid
        );
    }

    #[test]
    fn fetch_repository_helper() {
        let (_net, site, mut client) = setup();
        site.publish(genrepo::readme_only_repo("carol/docs"));
        let repo = fetch_repository(&mut client, "https://github.sim/carol/docs").unwrap();
        assert!(!repo.has_source_code());
        assert!(fetch_repository(&mut client, "https://github.sim/carol").is_err());
    }

    #[test]
    fn raw_file_endpoint_serves_content() {
        let (net, site, _client) = setup();
        let mut rng = StdRng::seed_from_u64(23);
        site.publish(genrepo::js_bot_repo(&mut rng, "dev/bot", true));
        let mut client = HttpClient::new(net, ClientConfig::impolite("raw"));
        let resp = client
            .get(Url::https(GITHUB_HOST, "/dev/bot/raw/index.js"))
            .unwrap();
        assert!(resp.text().contains("discord.js"));
        let missing = client
            .get(Url::https(GITHUB_HOST, "/dev/bot/raw/nope.js"))
            .unwrap();
        assert_eq!(missing.status, Status::NotFound);
    }
}
