//! # crawler — the data-collection stage (§3)
//!
//! "Our data collection process traverses listings of chatbots and extracts
//! attributes such as the permissions they request, sample commands, their
//! privacy policy, and the link to their source code repository."
//!
//! The crawler drives the `botlist` site through `htmlsim` locators — the
//! same arms-length, selector-based scraping Selenium gave the paper — and
//! copes with the full anti-scraping gauntlet:
//!
//! * politeness rate limiting and backoff (client-side);
//! * captcha interstitials, solved through a paid 2Captcha-style service
//!   ([`solver`]);
//! * email-verification walls;
//! * varying page structures (three layout variants, handled by trying
//!   multiple locators and reacting to `NoSuchElement`);
//! * invite links that are malformed, dead, removed, or redirect so slowly
//!   they time out ([`invite`]).
//!
//! The stage has three entry points:
//!
//! * [`crawl::discover_listing`] walks the list pages into a
//!   [`crawl::ListingIndex`] of detail hrefs;
//! * [`crawl::crawl_detail_unit`] crawls one fixed 32-href slice of that
//!   index on the caller's [`ScrapeSession`] into a [`crawl::DetailUnit`];
//! * [`crawl::crawl_listing`] composes the two over a claim pool of
//!   per-worker sessions and yields one [`crawl::CrawledBot`] per listing,
//!   the input to the traceability and code-analysis stages.
//!
//! The first two always trace and take an optional
//! [`incremental::ValidatorStore`]: with one, cached validators plus the
//! site's `changed-since` ledger turn an unchanged page into one cheap 304
//! round-trip on re-audit ([`incremental`]). The audit pipeline composes
//! them itself so it can trace the crawl under its own root span and hand
//! the units its validator cache.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod crawl;
pub mod extract;
pub mod incremental;
pub mod invite;
pub mod session;
pub mod solver;

pub use crawl::{
    assemble, crawl_detail_unit, crawl_listing, detail_session, discover_listing, CrawlConfig,
    CrawlStats, CrawledBot, DetailUnit, EncodedBot, ListingIndex, SessionOverhead,
    DETAIL_UNIT_SIZE,
};
pub use extract::{extract_bot_detail, extract_bot_links, ScrapedBot};
pub use incremental::{
    detail_key, fetch_changed_hrefs, CachedDetail, CachedListing, MemValidatorStore,
    ValidatorStore, LISTING_KEY,
};
pub use invite::{validate_invite, InviteStatus};
pub use session::ScrapeSession;
pub use solver::{CaptchaSolverClient, CaptchaSolverService, SOLVER_HOST};
