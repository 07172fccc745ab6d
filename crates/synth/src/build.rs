//! Ecosystem assembly (the mount phase).
//!
//! [`build_ecosystem`] wires everything the measurement pipeline needs into
//! one deterministic world: the platform with registered bot applications,
//! the listing site, per-bot websites, the GitHub site, redirector hosts
//! for the broken-invite population, the captcha solver, and the OAuth
//! install endpoint — all against one virtual clock.
//!
//! Assembly is two-phase: `plan::plan_world` makes every random
//! draw and captures the outcome as data, then `mount_world` (below)
//! materialises the plan without consuming any randomness. The split
//! exists for the longitudinal drift model — [`crate::drift`] rewrites the
//! plan between epochs and re-mounts, keeping undrifted bots byte-identical
//! so the incremental re-audit path can reuse their cached analyses.

use crate::config::EcosystemConfig;
use crate::plan::{BotPlan, GithubPublish, WorldPlan};
use crate::truth::{BehaviorClass, BotTruth, GroundTruth, InviteClass, PolicyClass};
use botlist::site::LIST_HOST;
use botlist::website::{BotWebsite, PolicyHosting};
use botlist::{BotListSite, BotListing, SiteConfig};
use botsdk::{Behavior, BenignBehavior, ExfiltratorBehavior, SnooperBehavior};
use codeanal::github::GitHubSite;
use crawler::solver::CaptchaSolverService;
use discord_sim::oauth::InviteUrl;
use discord_sim::webgate::OAuthWebGate;
use discord_sim::{GuildVisibility, Permissions, Platform, UserId};
use netsim::clock::VirtualClock;
use netsim::fault::FaultPlan;
use netsim::http::{Request, Response};
use netsim::latency::LatencyModel;
use netsim::{Network, ServiceCtx};
use platform::{ActorId, PlatformKind, TgRights, TELEGRAM_DEEPLINK_HOST, TELEGRAM_LIST_HOST};
use telegram_sim::{deep_link, DeepLinkGate, TgBehavior, TgPlatform};

/// The assembled world.
pub struct Ecosystem {
    /// Which substrate this world runs on.
    pub kind: PlatformKind,
    /// The Discord-style messaging platform. Present in every world so
    /// Discord-specific tooling keeps working; populated with registered
    /// applications only when [`Ecosystem::kind`] is Discord.
    pub platform: Platform,
    /// The Telegram-style platform, populated when `kind` is Telegram.
    pub telegram: Option<TgPlatform>,
    /// The shared network fabric.
    pub net: Network,
    /// The mounted listing site.
    pub site: BotListSite,
    /// Host the listing site answers on (`top.gg.sim` or `tdirectory.sim`).
    pub list_host: String,
    /// The mounted GitHub site.
    pub github: GitHubSite,
    /// Planted ground truth.
    pub truth: GroundTruth,
    /// The umbrella account that owns every registered application.
    pub app_owner: UserId,
    /// How this world was built, as text: its [`EcosystemConfig`] and the
    /// drift config and epoch, if any. Equal identities mount equal worlds.
    pub identity: String,
}

/// Map a planned Discord-style permission intent onto the Telegram model:
/// `(admin rights, privacy mode)`. Deterministic — the Telegram mount makes
/// no draws of its own, so drift at the plan level (permission creep, a
/// behaviour flip) lands on both substrates identically.
///
/// Privacy mode turns **off** exactly when the plan wants to read the room
/// (`READ_MESSAGE_HISTORY` or blanket `ADMINISTRATOR`) — the coarse switch
/// Telegram offers where Discord has a read permission bit.
pub fn telegram_profile(perms: Permissions) -> (TgRights, bool) {
    let mut rights = TgRights::NONE;
    if perms.contains(Permissions::ADMINISTRATOR) {
        rights = TgRights::ALL_KNOWN;
    } else {
        if perms.intersects(Permissions::MANAGE_MESSAGES) {
            rights |= TgRights::DELETE_MESSAGES | TgRights::PIN_MESSAGES;
        }
        if perms.intersects(
            Permissions::BAN_MEMBERS | Permissions::KICK_MEMBERS | Permissions::MODERATE_MEMBERS,
        ) {
            rights |= TgRights::BAN_USERS;
        }
        if perms.intersects(Permissions::CREATE_INSTANT_INVITE) {
            rights |= TgRights::INVITE_USERS;
        }
        if perms.intersects(Permissions::MANAGE_GUILD | Permissions::MANAGE_CHANNELS) {
            rights |= TgRights::CHANGE_INFO;
        }
        if perms.intersects(Permissions::CONNECT | Permissions::SPEAK | Permissions::MUTE_MEMBERS) {
            rights |= TgRights::MANAGE_VIDEO_CHATS;
        }
        if perms.intersects(Permissions::MANAGE_ROLES) {
            rights |= TgRights::PROMOTE_MEMBERS;
        }
        if perms.intersects(Permissions::SEND_MESSAGES) {
            rights |= TgRights::POST_MESSAGES;
        }
    }
    let privacy_off =
        perms.intersects(Permissions::READ_MESSAGE_HISTORY | Permissions::ADMINISTRATOR);
    (rights, !privacy_off)
}

/// The `@username` a bot registers under on the Telegram substrate —
/// lowercase alphanumeric slug of its listing name (unique because every
/// generated name embeds its plan index).
pub fn telegram_username(name: &str) -> String {
    name.chars()
        .filter(|c| c.is_ascii_alphanumeric())
        .map(|c| c.to_ascii_lowercase())
        .collect()
}

/// Build the world.
pub fn build_ecosystem(config: &EcosystemConfig) -> Ecosystem {
    let id = format!("{config:?}");
    mount_world(&crate::plan::plan_world(config), config, id)
}

/// Materialise a (possibly drifted) plan into a mounted world whose
/// [`Ecosystem::identity`] is `id`. Consumes no randomness: two mounts of
/// the same plan are byte-identical, and bots the drift layer left alone
/// serve exactly the same crawl bytes in every epoch.
pub(crate) fn mount_world(plan: &WorldPlan, config: &EcosystemConfig, id: String) -> Ecosystem {
    let clock = VirtualClock::new();
    let net = Network::with_clock(config.seed ^ 0x6e65_7473_696d, clock.clone());
    let platform = Platform::new(clock.clone());
    let github = GitHubSite::new();
    github.mount(&net);
    // Every platform's directory runs the same captcha-walled listing
    // site, so every world needs the solver the crawler pays.
    CaptchaSolverService::mount(&net);

    let telegram = match config.platform {
        PlatformKind::Discord => {
            // Discord-style install flow: a captcha-walled OAuth gate.
            OAuthWebGate::new(platform.clone()).mount(&net);
            platform.set_least_privilege_delivery(config.least_privilege_delivery);
            None
        }
        PlatformKind::Telegram => {
            // Telegram-style install flow: deep links, no captcha wall.
            let tg = TgPlatform::new(clock);
            DeepLinkGate::new(tg.clone()).mount(&net);
            Some(tg)
        }
    };

    let app_owner = platform.register_user("umbrella-dev#0000", "apps@devs.example");
    if config.platform == PlatformKind::Discord {
        // Apps need an existing owner; also seed one public guild so the
        // world is never empty.
        platform
            .create_guild(app_owner, "seed-guild", GuildVisibility::Public)
            .expect("owner exists");
    }

    let mut listings = Vec::with_capacity(plan.bots.len());
    let mut truth = GroundTruth::default();

    for bot in &plan.bots {
        let idx = bot.idx;
        let (client_id, invite_link) = match &telegram {
            None => mount_discord_invite(bot, &platform, app_owner, &net, config),
            Some(tg) => mount_telegram_invite(bot, tg, &net),
        };

        let website = match bot.policy_class {
            PolicyClass::NoWebsite => None,
            _ => {
                let host = format!("bot-{idx}.site.sim");
                let hosting = match bot.policy_class {
                    PolicyClass::NoPolicy => PolicyHosting::None,
                    PolicyClass::DeadPolicyLink => PolicyHosting::DeadLink,
                    PolicyClass::GenericPolicy
                    | PolicyClass::PartialPolicy
                    | PolicyClass::CompletePolicy => PolicyHosting::Linked(
                        bot.policy.clone().expect("linked classes carry a policy"),
                    ),
                    PolicyClass::NoWebsite => unreachable!(),
                };
                BotWebsite::new(&bot.name, hosting).mount(&net, &host);
                Some(format!("https://{host}/"))
            }
        };

        for publish in &bot.publishes {
            match publish {
                GithubPublish::Repo(repo) => github.publish(repo.clone()),
                GithubPublish::EmptyProfile(owner) => github.publish_empty_profile(owner),
            }
        }

        listings.push(BotListing {
            id: if client_id != 0 {
                client_id
            } else {
                8_000_000_000 + idx as u64
            },
            name: bot.name.clone(),
            tags: bot.tags.clone(),
            description: format!("{} — {}.", bot.name, bot.tags.join(" / ")),
            invite_link: invite_link.clone(),
            guild_count: bot.guild_count,
            vote_count: bot.vote_count,
            website: website.clone(),
            github: bot.github_link.clone(),
            developers: bot.developers.clone(),
            commands: bot.commands.clone(),
        });

        truth.bots.push(BotTruth {
            client_id,
            name: bot.name.clone(),
            developers: bot.developers.clone(),
            invite_class: bot.invite_class,
            permissions: bot.permissions,
            policy_class: bot.policy_class,
            github_class: bot.github_class,
            behavior: bot.behavior,
            guild_count: bot.guild_count,
            vote_count: bot.vote_count,
        });
    }

    let site_config = SiteConfig {
        page_size: config.page_size,
        captcha_every: config.captcha_every,
        rate_limit: config.rate_limit,
        email_wall_after_page: config.email_wall_after_page,
        stale_validators: config.stale_validators,
    };
    let site = BotListSite::new(listings, site_config);
    let list_host = match config.platform {
        PlatformKind::Discord => LIST_HOST.to_string(),
        PlatformKind::Telegram => TELEGRAM_LIST_HOST.to_string(),
    };
    site.mount_at(&net, &list_host);

    Ecosystem {
        kind: config.platform,
        platform,
        telegram,
        net,
        site,
        list_host,
        github,
        truth,
        app_owner,
        identity: id,
    }
}

/// Register (where valid) and render one bot's invite on the Discord
/// substrate. Registration order is plan order, so client ids are stable
/// across epochs — drift never changes *which* bots register, only what
/// they serve.
fn mount_discord_invite(
    bot: &BotPlan,
    platform: &Platform,
    app_owner: UserId,
    net: &Network,
    config: &EcosystemConfig,
) -> (u64, String) {
    let idx = bot.idx;
    match bot.invite_class {
        InviteClass::Valid | InviteClass::SlowRedirect => {
            let app = platform
                .register_bot_application(app_owner, &bot.name)
                .expect("owner exists");
            if config.least_privilege_delivery {
                platform.register_bot_commands(app.bot_user, bot.commands.clone());
            }
            let perms = bot.permissions.expect("valid bots carry permissions");
            let oauth = InviteUrl::bot(app.client_id, perms).to_url().to_string();
            let link = if bot.invite_class == InviteClass::SlowRedirect {
                let host = format!("slow-redir-{idx}.sim");
                let target = oauth.clone();
                net.mount_with(
                    &host,
                    move |_req: &Request, _ctx: &mut ServiceCtx<'_>| Response::redirect(&target),
                    LatencyModel::Fixed { ms: 120_000 },
                    FaultPlan::none(),
                );
                format!("https://{host}/invite")
            } else {
                oauth
            };
            (app.client_id, link)
        }
        InviteClass::Removed => {
            let ghost_id = 9_000_000_000 + idx as u64;
            let perms = bot
                .ghost_permissions
                .expect("removed bots carry ghost perms");
            (0, InviteUrl::bot(ghost_id, perms).to_url().to_string())
        }
        InviteClass::Malformed => {
            let link = match idx % 3 {
                0 => "https://discord.sim/oauth2/authorize?scope=bot".to_string(),
                1 => {
                    format!("https://discord.sim/oauth2/authorize?client_id={idx}&scope=identify")
                }
                _ => "join my server!!".to_string(),
            };
            (0, link)
        }
        InviteClass::DeadRedirect => (0, format!("https://redir-{idx}.dead.sim/inv")),
    }
}

/// Register (where valid) and render one bot's invite on the Telegram
/// substrate — deep links in place of OAuth URLs, the same invite-health
/// mix (valid / removed / malformed / dead- and slow-redirectors) as the
/// Discord mount so the crawler's §4.2 link-validity measurement carries
/// over. Makes no randomness draws: rights and privacy mode derive from
/// the planned permission intent via [`telegram_profile`].
fn mount_telegram_invite(bot: &BotPlan, tg: &TgPlatform, net: &Network) -> (u64, String) {
    let idx = bot.idx;
    match bot.invite_class {
        InviteClass::Valid | InviteClass::SlowRedirect => {
            let perms = bot.permissions.expect("valid bots carry permissions");
            let (rights, privacy_mode) = telegram_profile(perms);
            let username = telegram_username(&bot.name);
            let id = tg
                .register_bot(&username, rights, privacy_mode)
                .expect("plan names are unique");
            let link = deep_link(&username, rights);
            let link = if bot.invite_class == InviteClass::SlowRedirect {
                let host = format!("slow-redir-{idx}.sim");
                let target = link.clone();
                net.mount_with(
                    &host,
                    move |_req: &Request, _ctx: &mut ServiceCtx<'_>| Response::redirect(&target),
                    LatencyModel::Fixed { ms: 120_000 },
                    FaultPlan::none(),
                );
                format!("https://{host}/invite")
            } else {
                link
            };
            (id, link)
        }
        InviteClass::Removed => {
            // A deep link whose username was never registered: the gate
            // answers 410 Gone, the Telegram shape of a deleted bot.
            let perms = bot
                .ghost_permissions
                .expect("removed bots carry ghost perms");
            let (rights, _) = telegram_profile(perms);
            (0, deep_link(&format!("ghost{idx}bot"), rights))
        }
        InviteClass::Malformed => {
            let link = match idx % 3 {
                0 => format!("https://{TELEGRAM_DEEPLINK_HOST}/"),
                1 => format!("https://{TELEGRAM_DEEPLINK_HOST}/?start=x"),
                _ => "join my group!!".to_string(),
            };
            (0, link)
        }
        InviteClass::DeadRedirect => (0, format!("https://redir-{idx}.dead.sim/inv")),
    }
}

impl Ecosystem {
    /// The listing-site id of the bot at plan index `idx` (client id for
    /// registered bots, the synthetic `8e9 + idx` id otherwise) — the same
    /// rule the mount phase uses, so drift ledgers can name listing pages.
    pub fn listing_id(&self, idx: usize) -> u64 {
        let t = &self.truth.bots[idx];
        if t.client_id != 0 {
            t.client_id
        } else {
            8_000_000_000 + idx as u64
        }
    }

    /// Build the behaviour box for a planted behaviour class.
    pub fn behavior_for(class: BehaviorClass) -> Box<dyn Behavior> {
        match class {
            BehaviorClass::Benign => Box::new(BenignBehavior::new("fun")),
            // Trigger threshold below the 25-message feed so a campaign
            // observes the snoop, mirroring Melonian's behaviour window.
            BehaviorClass::Snooper => Box::new(SnooperBehavior::new(12)),
            BehaviorClass::Exfiltrator => Box::new(ExfiltratorBehavior::new(None).spamming()),
            BehaviorClass::WebhookThief => {
                Box::new(botsdk::WebhookThiefBehavior::new("drop.zone.sim"))
            }
        }
    }

    /// Build the Telegram-side behaviour box for a planted behaviour
    /// class. Webhook theft has no Telegram shape (no webhooks exist), so
    /// a planted thief degrades to a benign backend there — the honeypot's
    /// cross-platform comparison sees the threat class disappear.
    pub fn behavior_for_telegram(class: BehaviorClass) -> Box<dyn TgBehavior> {
        match class {
            BehaviorClass::Benign | BehaviorClass::WebhookThief => {
                Box::new(telegram_sim::TgBenignBehavior::new("fun"))
            }
            BehaviorClass::Snooper => Box::new(telegram_sim::TgSnooperBehavior::new(12)),
            BehaviorClass::Exfiltrator => {
                Box::new(telegram_sim::TgExfiltratorBehavior::new(None).spamming())
            }
        }
    }

    /// The first `count` valid bots by votes (descending), then client id:
    /// the honeypot sample on every substrate.
    fn most_voted_valid(&self, count: usize) -> Vec<&BotTruth> {
        let mut sorted: Vec<&BotTruth> = self.truth.valid_bots().collect();
        sorted.sort_by(|a, b| {
            b.vote_count
                .cmp(&a.vote_count)
                .then(a.client_id.cmp(&b.client_id))
        });
        sorted.truncate(count);
        sorted
    }

    /// The most-voted valid bots, ready for a honeypot campaign: name,
    /// client id, bot account, invite, and the planted behaviour.
    pub fn most_voted_testable(
        &self,
        count: usize,
    ) -> Vec<(BotTruth, InviteUrl, discord_sim::UserId, Box<dyn Behavior>)> {
        self.most_voted_valid(count)
            .into_iter()
            .filter_map(|bot| {
                let app = self.platform.application(bot.client_id).ok()?;
                let perms = bot.permissions?;
                Some((
                    bot.clone(),
                    InviteUrl::bot(bot.client_id, perms),
                    app.bot_user,
                    Self::behavior_for(bot.behavior),
                ))
            })
            .collect()
    }

    /// The Telegram twin of [`Ecosystem::most_voted_testable`]: the
    /// most-voted valid bots with their deep links and planted backends.
    /// Panics if the world was not mounted on the Telegram substrate.
    pub fn most_voted_testable_telegram(
        &self,
        count: usize,
    ) -> Vec<(BotTruth, String, ActorId, Box<dyn TgBehavior>)> {
        let tg = self.telegram.as_ref().expect("a Telegram-substrate world");
        self.most_voted_valid(count)
            .into_iter()
            .filter_map(|bot| {
                let username = telegram_username(&bot.name);
                let actor = tg.bot_by_username(&username)?;
                let (rights, _) = telegram_profile(bot.permissions?);
                Some((
                    bot.clone(),
                    deep_link(&username, rights),
                    actor,
                    Self::behavior_for_telegram(bot.behavior),
                ))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::truth::GithubClass;
    use discord_sim::Permissions;

    #[test]
    fn ecosystem_shape_matches_calibration() {
        let config = EcosystemConfig::test_scale(2000, 11);
        let eco = build_ecosystem(&config);
        assert_eq!(eco.truth.bots.len(), 2000);
        assert_eq!(eco.site.listing_count(), 2000);

        let valid = eco.truth.valid_bots().count() as f64 / 2000.0;
        assert!((valid - 0.74).abs() < 0.05, "valid fraction {valid}");

        let admin_rate = eco.truth.permission_rate(Permissions::ADMINISTRATOR);
        assert!(
            (admin_rate - 0.5486).abs() < 0.05,
            "admin rate {admin_rate}"
        );
        let send_rate = eco.truth.permission_rate(Permissions::SEND_MESSAGES);
        assert!((send_rate - 0.5918).abs() < 0.05, "send rate {send_rate}");
    }

    #[test]
    fn valid_bots_are_registered_on_the_platform() {
        let eco = build_ecosystem(&EcosystemConfig::test_scale(200, 12));
        for bot in eco.truth.valid_bots() {
            assert!(
                eco.platform.application(bot.client_id).is_ok(),
                "{}",
                bot.name
            );
        }
    }

    #[test]
    fn snooper_is_planted_with_valid_invite_and_name() {
        let eco = build_ecosystem(&EcosystemConfig::test_scale(300, 13));
        let snoopers: Vec<_> = eco
            .truth
            .bots
            .iter()
            .filter(|b| b.behavior == BehaviorClass::Snooper)
            .collect();
        assert_eq!(snoopers.len(), 1);
        assert_eq!(snoopers[0].name, "Melonian");
        assert_eq!(snoopers[0].invite_class, InviteClass::Valid);
    }

    #[test]
    fn most_voted_testable_returns_installable_bots() {
        let eco = build_ecosystem(&EcosystemConfig::test_scale(300, 14));
        let testable = eco.most_voted_testable(20);
        assert_eq!(testable.len(), 20);
        // Sorted by votes, descending.
        for pair in testable.windows(2) {
            assert!(pair[0].0.vote_count >= pair[1].0.vote_count);
        }
        // Every invite installs for real.
        let owner = eco.platform.register_user("tester", "t@x.y");
        let guild = eco
            .platform
            .create_guild(owner, "probe", GuildVisibility::Private)
            .unwrap();
        for (truth, invite, bot_user, _behavior) in &testable {
            let installed = eco
                .platform
                .install_bot(owner, guild, invite, true)
                .unwrap();
            assert_eq!(installed, *bot_user, "{}", truth.name);
        }
    }

    #[test]
    fn website_and_github_fractions_roughly_hold() {
        let eco = build_ecosystem(&EcosystemConfig::test_scale(3000, 15));
        let valid: Vec<_> = eco.truth.valid_bots().collect();
        let n = valid.len() as f64;
        let with_site = valid
            .iter()
            .filter(|b| b.policy_class != PolicyClass::NoWebsite)
            .count() as f64;
        assert!(
            (with_site / n - 0.3727).abs() < 0.04,
            "website fraction {}",
            with_site / n
        );
        let with_gh = valid
            .iter()
            .filter(|b| b.github_class != GithubClass::None)
            .count() as f64;
        assert!(
            (with_gh / n - 0.2386).abs() < 0.04,
            "github fraction {}",
            with_gh / n
        );
    }

    #[test]
    fn least_voted_bots_are_offline() {
        // §4.2: "We considered doing a sample from the middle and least
        // voted but they were mainly offline or not being used (i.e., in 0
        // guilds)." The popularity curve plants exactly that.
        let eco = build_ecosystem(&EcosystemConfig::test_scale(300, 17));
        let mut by_votes: Vec<&crate::truth::BotTruth> = eco.truth.bots.iter().collect();
        by_votes.sort_by_key(|b| std::cmp::Reverse(b.vote_count));
        let bottom: Vec<_> = by_votes.iter().rev().take(30).collect();
        assert!(
            bottom.iter().all(|b| b.guild_count == 0),
            "least-voted bots sit in 0 guilds"
        );
        let top: Vec<_> = by_votes.iter().take(30).collect();
        assert!(
            top.iter().all(|b| b.guild_count >= 25),
            "most-voted are in real use"
        );
        // Vote range spans orders of magnitude (paper: 876K → 6; the floor
        // of 6 binds only at paper scale, so assert the spread shape here).
        assert!(by_votes[0].vote_count > 100_000);
        assert!(by_votes.last().unwrap().vote_count < by_votes[0].vote_count / 500);
    }

    #[test]
    fn deterministic_world() {
        let a = build_ecosystem(&EcosystemConfig::test_scale(150, 16));
        let b = build_ecosystem(&EcosystemConfig::test_scale(150, 16));
        let names_a: Vec<&String> = a.truth.bots.iter().map(|x| &x.name).collect();
        let names_b: Vec<&String> = b.truth.bots.iter().map(|x| &x.name).collect();
        assert_eq!(names_a, names_b);
        let perms_a: Vec<_> = a.truth.bots.iter().map(|x| x.permissions).collect();
        let perms_b: Vec<_> = b.truth.bots.iter().map(|x| x.permissions).collect();
        assert_eq!(perms_a, perms_b);
    }

    fn telegram_config(num_bots: usize, seed: u64) -> EcosystemConfig {
        EcosystemConfig {
            platform: PlatformKind::Telegram,
            ..EcosystemConfig::test_scale(num_bots, seed)
        }
    }

    #[test]
    fn telegram_world_shares_the_plan_but_swaps_the_substrate() {
        let discord = build_ecosystem(&EcosystemConfig::test_scale(200, 18));
        let tg = build_ecosystem(&telegram_config(200, 18));
        assert_eq!(tg.kind, PlatformKind::Telegram);
        assert_eq!(tg.list_host, TELEGRAM_LIST_HOST);
        assert_eq!(discord.list_host, LIST_HOST);
        assert!(tg.telegram.is_some());
        assert!(discord.telegram.is_none());
        // Same plan: identical names, behaviours, and invite-health mix.
        let names = |e: &Ecosystem| {
            e.truth
                .bots
                .iter()
                .map(|b| b.name.clone())
                .collect::<Vec<_>>()
        };
        assert_eq!(names(&discord), names(&tg));
        let classes = |e: &Ecosystem| {
            e.truth
                .bots
                .iter()
                .map(|b| b.invite_class)
                .collect::<Vec<_>>()
        };
        assert_eq!(classes(&discord), classes(&tg));
        // Every valid bot registered under its slug with the mapped rights.
        let platform = tg.telegram.as_ref().unwrap();
        for bot in tg.truth.valid_bots() {
            let username = telegram_username(&bot.name);
            let actor = platform.bot_by_username(&username).expect("registered");
            let (_, rights, _) = platform.bot_info(actor).unwrap();
            let (expected, _) = telegram_profile(bot.permissions.unwrap());
            assert_eq!(rights, expected, "{}", bot.name);
        }
    }

    #[test]
    fn telegram_listing_links_are_deep_links() {
        use netsim::client::{ClientConfig, HttpClient};
        let eco = build_ecosystem(&telegram_config(150, 19));
        let mut client = HttpClient::new(eco.net.clone(), ClientConfig::impolite("test"));
        for bot in eco.truth.valid_bots() {
            // Valid listings point at t.sim, either directly (with the
            // requested rights echoed in the deep link) or via the slow
            // redirector; never at a Discord OAuth gate.
            let page = client
                .get(netsim::Url::https(
                    TELEGRAM_LIST_HOST,
                    &format!("/bot/{}", bot.client_id),
                ))
                .unwrap()
                .text();
            let username = telegram_username(&bot.name);
            assert!(
                page.contains(&format!("t.sim/{username}?startgroup=true"))
                    || page.contains("slow-redir"),
                "{}: {}",
                bot.name,
                page
            );
            assert!(
                !page.contains("discord.sim"),
                "no OAuth URLs on the Telegram substrate"
            );
        }
    }

    #[test]
    fn telegram_testable_sample_is_installable() {
        let eco = build_ecosystem(&telegram_config(200, 20));
        let testable = eco.most_voted_testable_telegram(15);
        assert_eq!(testable.len(), 15);
        for pair in testable.windows(2) {
            assert!(pair[0].0.vote_count >= pair[1].0.vote_count);
        }
        let tg = eco.telegram.as_ref().unwrap();
        let owner = tg.register_user("tester", "t@x.y");
        let group = tg.create_group(owner, "probe").unwrap();
        for (truth, link, actor, _behavior) in &testable {
            let username = telegram_username(&truth.name);
            assert!(link.contains(&username), "{link}");
            let installed = tg.add_bot_to_group(owner, group, *actor).unwrap();
            assert_eq!(installed, *actor);
        }
    }

    #[test]
    fn telegram_profile_mapping_is_coarse_and_deterministic() {
        // Blanket admin → every right, privacy off.
        let (rights, privacy) = telegram_profile(Permissions::ADMINISTRATOR);
        assert_eq!(rights, TgRights::ALL_KNOWN);
        assert!(!privacy, "admins read everything");
        // A read-history bot flips privacy off even with no admin rights.
        let (rights, privacy) =
            telegram_profile(Permissions::READ_MESSAGE_HISTORY | Permissions::SEND_MESSAGES);
        assert_eq!(rights, TgRights::POST_MESSAGES);
        assert!(!privacy);
        // An ordinary command bot keeps privacy mode on.
        let (rights, privacy) =
            telegram_profile(Permissions::SEND_MESSAGES | Permissions::VIEW_CHANNEL);
        assert_eq!(rights, TgRights::POST_MESSAGES);
        assert!(privacy);
        // Moderation intent maps onto the coarse moderation rights.
        let (rights, _) = telegram_profile(
            Permissions::MANAGE_MESSAGES | Permissions::BAN_MEMBERS | Permissions::SEND_MESSAGES,
        );
        assert!(rights.contains(TgRights::DELETE_MESSAGES));
        assert!(rights.contains(TgRights::PIN_MESSAGES));
        assert!(rights.contains(TgRights::BAN_USERS));
        assert!(!rights.contains(TgRights::PROMOTE_MEMBERS));
    }

    #[test]
    fn least_privilege_mount_registers_commands() {
        let config = EcosystemConfig {
            least_privilege_delivery: true,
            ..EcosystemConfig::test_scale(120, 21)
        };
        let eco = build_ecosystem(&config);
        assert!(eco.platform.least_privilege_delivery());
        let with_commands = eco
            .truth
            .valid_bots()
            .filter(|b| {
                let Ok(app) = eco.platform.application(b.client_id) else {
                    return false;
                };
                !eco.platform.registered_commands(app.bot_user).is_empty()
            })
            .count();
        assert!(with_commands > 0, "valid bots registered their commands");
        // The default mount leaves the mitigation off.
        let plain = build_ecosystem(&EcosystemConfig::test_scale(120, 21));
        assert!(!plain.platform.least_privilege_delivery());
    }
}
