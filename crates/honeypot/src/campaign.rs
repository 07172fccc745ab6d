//! Campaign orchestration.
//!
//! §4.2, "Discord Chatbots Honeypots": for every bot under test, create an
//! isolated private room named after the bot, populate it with personas
//! and a realistic feed, plant the four canary tokens, install the bot
//! (solving the install captcha where the platform demands one), let the
//! fleet run, and attribute any sink signals back to bots via the room tag
//! in the token ID.
//!
//! The orchestration is generic over [`ChatSubstrate`]: the same campaign
//! runs against the Discord-style world (via
//! [`crate::substrate::DiscordSubstrate`]) and the Telegram-style one
//! (`telegram_sim::TelegramSubstrate`). Platform differences — captcha
//! walls, webhook existence, persona-verification friction — surface as
//! report fields, not code forks.

use crate::feed::generate_feed;
use crate::sink::{CanarySink, Trigger, MAIL_HOST, SINK_HOST};
use crate::token::{CanaryToken, TokenKind, TokenMint};
use crawler::crawl::resolve_workers;
use crawler::solver::CaptchaSolverClient;
use netsim::clock::SimDuration;
use obs::{Obs, Severity, Span};
use platform::{ActorId, ChatSubstrate, PersonaRoster, RoomId, SubstrateResult};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::convert::Infallible;

/// Campaign parameters (defaults follow §4.2: 5 personas, 25 messages,
/// 4 tokens per guild).
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Personas per guild.
    pub personas_per_guild: usize,
    /// Conversational messages per guild.
    pub feed_messages: usize,
    /// RNG seed.
    pub seed: u64,
    /// Provision personas with automated verification instead of the
    /// paper's manual mobile step (its stated future work).
    pub auto_verify_personas: bool,
    /// Also plant a webhook-credential canary per guild (extension; see
    /// [`crate::token::TokenKind::WebhookToken`]). Ignored on substrates
    /// without webhooks — the threat class does not exist there.
    pub plant_webhook_canaries: bool,
    /// Guild-population workers: 1 = serial, N = a bounded pool of N
    /// concurrent campaigns, 0 = one per available core. Detections merge
    /// in deterministic bot order either way.
    pub workers: usize,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            personas_per_guild: 5,
            feed_messages: 25,
            seed: 1,
            auto_verify_personas: false,
            plant_webhook_canaries: true,
            workers: 1,
        }
    }
}

/// One bot to test: its platform identity plus its (unknown to the
/// researcher) backend behaviour.
pub struct BotUnderTest<S: ChatSubstrate> {
    /// Listing name.
    pub name: String,
    /// Listing / application client ID.
    pub client_id: u64,
    /// Bot account.
    pub bot_user: ActorId,
    /// The scraped invite string to install with (an OAuth URL on Discord,
    /// a deep link on Telegram).
    pub invite: String,
    /// The developer-controlled backend.
    pub behavior: Box<S::Behavior>,
}

/// One attributed detection.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Detection {
    /// The bot whose guild's tokens fired.
    pub bot_name: String,
    /// Which token kinds fired.
    pub token_kinds: Vec<TokenKind>,
    /// Requester labels observed at the sink.
    pub requesters: Vec<String>,
    /// Bot-authored messages posted after the first trigger (the
    /// "wtf is this bro" tell).
    pub followup_messages: Vec<String>,
}

/// Campaign outcome.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct CampaignReport {
    /// Guilds created (one per bot).
    pub guilds_created: usize,
    /// Bots installed and tested.
    pub bots_tested: usize,
    /// Bots whose installation failed (dead invites etc.).
    pub install_failures: usize,
    /// Canary tokens planted.
    pub tokens_planted: usize,
    /// Conversational messages posted.
    pub messages_posted: usize,
    /// Install captchas solved (zero on captcha-free platforms).
    pub captchas_solved: u64,
    /// 2Captcha spend in dollars.
    pub captcha_spend_dollars: f64,
    /// Manual mobile verifications required for personas.
    pub manual_verifications: u64,
    /// Raw sink triggers.
    pub triggers: Vec<Trigger>,
    /// Attributed detections.
    pub detections: Vec<Detection>,
    /// Total bytes bot backends sent over the network during the campaign
    /// (the tap's exfiltration-volume measure).
    pub backend_bytes_sent: usize,
    /// Virtual time the campaign took.
    pub duration: SimDuration,
}

fn registry_insert_webhook(map: &mut BTreeMap<String, String>, token: &str, token_id: &str) {
    map.insert(token.to_string(), token_id.to_string());
}

/// One guild's complete phase-2 transcript, distilled to what the campaign
/// report needs. Per-guild transcripts are schedule-independent (each guild
/// owns its RNG stream, token mint, and backend), so a snapshot captured in
/// one run stands in for re-running the guild in a later run of the *same*
/// bot — same name, invite, and backend behaviour — and the merged report
/// is byte-identical either way.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GuildSnapshot {
    /// The bot this guild tested.
    pub bot_name: String,
    /// Feed messages the guild posted.
    pub messages_posted: usize,
    /// Canary tokens the guild planted.
    pub tokens_planted: usize,
    /// Canonical trigger tuples `(token_id, requester, via_mail)` this
    /// guild's tokens produced.
    pub triggers: Vec<(String, String, bool)>,
    /// The attributed detection, when the bot was caught.
    pub detection: Option<Detection>,
}

/// One guild through set-up and ready for population.
struct GuildJob<S: ChatSubstrate> {
    bot_name: String,
    guild: RoomId,
    /// The connected backend; `None` when the gateway connect failed (the
    /// guild is still populated, matching a real campaign where the
    /// researcher can't see that a backend is down).
    bot: Option<S::Backend>,
}

/// What one guild's population produced; merged into the report and token
/// registry in deterministic bot order.
struct GuildOutcome {
    registry_entries: Vec<(CanaryToken, String)>,
    messages_posted: usize,
    tokens_planted: usize,
}

/// The orchestrator, generic over the messaging substrate under audit.
pub struct Campaign<S: ChatSubstrate> {
    substrate: S,
    config: CampaignConfig,
    sink: CanarySink,
    mint: TokenMint,
    solver: CaptchaSolverClient,
    researcher: ActorId,
    /// webhook token string → canary token id (for the network-tap scan).
    webhook_canaries: BTreeMap<String, String>,
}

impl<S: ChatSubstrate> Campaign<S> {
    /// Set up a campaign: mounts the sink, registers the researcher
    /// account. On captcha-walled substrates the 2Captcha service must
    /// already be mounted.
    pub fn new(substrate: S, config: CampaignConfig) -> Campaign<S> {
        let net = substrate.network().clone();
        let sink = CanarySink::new();
        sink.mount(&net);
        let researcher = substrate.register_operator("researcher#0001", "research@lab.example");
        Campaign {
            substrate,
            config,
            sink,
            mint: TokenMint::new(SINK_HOST, MAIL_HOST),
            solver: CaptchaSolverClient::new(net),
            researcher,
            webhook_canaries: BTreeMap::new(),
        }
    }

    /// The sink (for external inspection).
    pub fn sink(&self) -> &CanarySink {
        &self.sink
    }

    /// The substrate under audit.
    pub fn substrate(&self) -> &S {
        &self.substrate
    }

    /// Sanitized guild tag for a bot name.
    pub fn guild_tag(bot_name: &str) -> String {
        let slug: String = bot_name
            .chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() {
                    c.to_ascii_lowercase()
                } else {
                    '-'
                }
            })
            .collect();
        format!("guild-{slug}")
    }

    /// Run the whole campaign over a fleet of bots.
    pub fn run(&mut self, bots: Vec<BotUnderTest<S>>) -> CampaignReport {
        self.run_traced(bots, &Obs::disabled(), &Span::disabled(), &BTreeMap::new())
            .0
    }

    /// [`Campaign::run`] with observability and prior-run guild
    /// transcripts attached.
    ///
    /// Opens a `honeypot` span under `parent` with a `setup` child for the
    /// serial phase and one `guild` child per populated guild, keyed by the
    /// guild's position in bot-name order — the same index that selects its
    /// RNG stream, so the canonical trace is identical at any worker count.
    /// Metrics go to `obs` under `honeypot.*`.
    ///
    /// Phase 1 (guild creation, persona joins, installs, backend connects)
    /// always runs for every bot, so platform state — guild IDs, user IDs,
    /// webhook token order — is identical whether or not anything is
    /// reused. Phase 2 is skipped for every bot whose name appears in
    /// `reuse`: its backend is never driven, and the snapshot's transcript
    /// is merged into the report instead. Live guilds keep the RNG-stream
    /// index they'd have in a full run, so the merged report is
    /// byte-identical (canonically) to running every guild.
    ///
    /// Returns the report plus one [`GuildSnapshot`] per tested bot
    /// (reused ones pass through), sorted by bot name — the caller's cache
    /// fodder for the next re-audit.
    pub fn run_traced(
        &mut self,
        bots: Vec<BotUnderTest<S>>,
        obs: &Obs,
        parent: &Span,
        reuse: &BTreeMap<String, GuildSnapshot>,
    ) -> (CampaignReport, Vec<GuildSnapshot>) {
        let span = parent.child("honeypot");
        let net = self.substrate.network().clone();
        let clock = net.clock();
        let started = clock.now();
        let mut report = CampaignReport::default();
        let mut pool = self.substrate.provision_personas(
            self.config.personas_per_guild,
            self.config.auto_verify_personas,
        );
        // token id → (token, bot name)
        let mut registry: BTreeMap<String, (CanaryToken, String)> = BTreeMap::new();
        let mut guild_of_bot: BTreeMap<String, RoomId> = BTreeMap::new();

        // Phase 1 (serial): guilds, persona joins, installs, backend
        // connects. Platform mutation stays in caller order here so guild
        // and user IDs don't depend on the worker count.
        let setup_span = span.child("setup");
        let mut jobs: Vec<GuildJob<S>> = Vec::new();
        for but in bots {
            match self.set_up_guild(&but, pool.as_mut(), &mut registry, &mut report) {
                Ok(guild) => {
                    guild_of_bot.insert(but.name.clone(), guild);
                    // Connect the backend (gateway first, then install has
                    // already happened inside set_up_guild — the bot missed
                    // the room-create event but sees every later message,
                    // which is what matters for the honeypot).
                    let bot = match self.substrate.connect_backend(
                        but.bot_user,
                        &format!("backend-{}", Self::guild_tag(&but.name)),
                        but.behavior,
                    ) {
                        Ok(bot) => {
                            report.bots_tested += 1;
                            Some(bot)
                        }
                        Err(_) => {
                            report.install_failures += 1;
                            None
                        }
                    };
                    jobs.push(GuildJob {
                        bot_name: but.name,
                        guild,
                        bot,
                    });
                }
                Err(_) => {
                    obs.event(
                        Severity::Warn,
                        "honeypot.setup",
                        format!("guild set-up failed for {}", but.name),
                    );
                    report.install_failures += 1;
                }
            }
        }
        setup_span.record("guilds_created", report.guilds_created as u64);
        setup_span.record("install_failures", report.install_failures as u64);
        drop(setup_span);
        // Per-guild RNG streams index off bot-name order (the order the
        // serial campaign populated in), not caller order.
        jobs.sort_by(|a, b| a.bot_name.cmp(&b.bot_name));

        // Split into live work and snapshot reuse. A reused guild went
        // through phase 1 like every other (platform state is identical to
        // a full run), but its backend is never driven again — the prior
        // transcript stands in for phase 2. Live guilds keep the index
        // they'd have in the full sorted list, so their RNG streams and
        // trace keys match a run with nothing reused.
        let mut live: Vec<(usize, GuildJob<S>)> = Vec::new();
        let mut reused: Vec<GuildSnapshot> = Vec::new();
        for (idx, job) in jobs.into_iter().enumerate() {
            match reuse.get(&job.bot_name) {
                Some(snap) => reused.push(snap.clone()),
                None => live.push((idx, job)),
            }
        }

        // Phase 2: populate every live guild with feed + tokens and drive
        // its backend. Each guild owns its RNG stream, token mint, and
        // backend, so any schedule produces the same per-guild transcript;
        // outcomes merge in the (sorted) job order.
        let guilds_span = span.child("guilds");
        let Ok(outcomes) = obs::claim_map(
            live,
            resolve_workers(self.config.workers),
            |_| (),
            |(), _, (idx, job): (usize, GuildJob<S>)| {
                let name = job.bot_name.clone();
                Ok::<_, Infallible>((name, self.run_guild(idx, job, pool.as_ref(), &guilds_span)))
            },
        );
        drop(guilds_span);
        let mut live_stats: Vec<(String, usize, usize)> = Vec::new();
        for (name, outcome) in outcomes {
            report.messages_posted += outcome.messages_posted;
            report.tokens_planted += outcome.tokens_planted;
            live_stats.push((name, outcome.messages_posted, outcome.tokens_planted));
            for (token, bot_name) in outcome.registry_entries {
                registry.insert(token.id.clone(), (token, bot_name));
            }
        }

        report.captchas_solved = self.solver.solves;
        report.captcha_spend_dollars = self.solver.spend_dollars();
        report.manual_verifications = pool.manual_verifications();
        report.triggers = self.sink.triggers();
        // Network-tap scan for stolen webhook credentials: any
        // backend-originated request whose URL carries a planted token.
        if !self.webhook_canaries.is_empty() {
            let extra: Vec<Trigger> = net.with_trace(|trace| {
                trace
                    .entries()
                    .iter()
                    .filter(|e| e.requester.starts_with("bot-backend/"))
                    .flat_map(|e| {
                        self.webhook_canaries
                            .iter()
                            .filter(|(token, _)| e.url.contains(token.as_str()))
                            .map(|(_, token_id)| Trigger {
                                token_id: token_id.clone(),
                                requester: e.requester.clone(),
                                at: e.at,
                                via_mail: false,
                            })
                            .collect::<Vec<_>>()
                    })
                    .collect()
            });
            report.triggers.extend(extra);
        }
        // Trigger arrival order is a scheduling artifact under parallel
        // population; sort into canonical (token, requester) order so the
        // report is identical at any worker count. `at` survives for the
        // follow-up window, which uses the per-guild minimum only.
        report.triggers.sort_by(|a, b| {
            (&a.token_id, &a.requester, a.via_mail).cmp(&(&b.token_id, &b.requester, b.via_mail))
        });
        report.detections = self.attribute_from(&report.triggers, &registry, &guild_of_bot);

        // Distill every live guild into a snapshot (triggers and detections
        // so far are live-only: reused backends were never driven), then
        // merge the reused transcripts in and restore canonical order.
        let mut snapshots: Vec<GuildSnapshot> = live_stats
            .into_iter()
            .map(|(name, messages_posted, tokens_planted)| GuildSnapshot {
                triggers: report
                    .triggers
                    .iter()
                    .filter(|t| {
                        registry
                            .get(&t.token_id)
                            .is_some_and(|(_, bot)| *bot == name)
                    })
                    .map(|t| (t.token_id.clone(), t.requester.clone(), t.via_mail))
                    .collect(),
                detection: report
                    .detections
                    .iter()
                    .find(|d| d.bot_name == name)
                    .cloned(),
                bot_name: name,
                messages_posted,
                tokens_planted,
            })
            .collect();
        for snap in reused {
            report.messages_posted += snap.messages_posted;
            report.tokens_planted += snap.tokens_planted;
            report
                .triggers
                .extend(
                    snap.triggers
                        .iter()
                        .map(|(token_id, requester, via_mail)| Trigger {
                            token_id: token_id.clone(),
                            requester: requester.clone(),
                            at: started,
                            via_mail: *via_mail,
                        }),
                );
            if let Some(det) = &snap.detection {
                report.detections.push(det.clone());
            }
            snapshots.push(snap);
        }
        report.triggers.sort_by(|a, b| {
            (&a.token_id, &a.requester, a.via_mail).cmp(&(&b.token_id, &b.requester, b.via_mail))
        });
        report
            .detections
            .sort_by(|a, b| a.bot_name.cmp(&b.bot_name));
        snapshots.sort_by(|a, b| a.bot_name.cmp(&b.bot_name));

        report.backend_bytes_sent = net.with_trace(|t| t.bytes_sent_by("bot-backend/"));
        report.duration = clock.now().duration_since(started);

        // Deterministic totals (pinned equal at any worker count by the
        // parallel-vs-serial tests) go on the span; scheduling-sensitive
        // overhead stays in metrics.
        span.record("bots_tested", report.bots_tested as u64);
        span.record("tokens_planted", report.tokens_planted as u64);
        span.record("messages_posted", report.messages_posted as u64);
        span.record("triggers", report.triggers.len() as u64);
        span.record("detections", report.detections.len() as u64);
        obs.counter("honeypot.guilds_created")
            .add(report.guilds_created as u64);
        obs.counter("honeypot.bots_tested")
            .add(report.bots_tested as u64);
        obs.counter("honeypot.install_failures")
            .add(report.install_failures as u64);
        obs.counter("honeypot.tokens_planted")
            .add(report.tokens_planted as u64);
        obs.counter("honeypot.messages_posted")
            .add(report.messages_posted as u64);
        obs.counter("honeypot.captchas_solved")
            .add(report.captchas_solved);
        obs.counter("honeypot.triggers")
            .add(report.triggers.len() as u64);
        obs.counter("honeypot.detections")
            .add(report.detections.len() as u64);
        (report, snapshots)
    }

    fn set_up_guild(
        &mut self,
        but: &BotUnderTest<S>,
        pool: &mut dyn PersonaRoster,
        registry: &mut BTreeMap<String, (CanaryToken, String)>,
        report: &mut CampaignReport,
    ) -> SubstrateResult<RoomId> {
        let tag = Self::guild_tag(&but.name);
        // "we create new private guilds … We name each guild after the
        // corresponding chatbots for easy identification."
        let guild = self.substrate.create_room(self.researcher, &tag)?;
        report.guilds_created += 1;
        let code = self.substrate.room_invite(self.researcher, guild)?;
        pool.join_all(guild, Some(&code))?;
        // "To add a chatbot to the guild, we need to solve a Google
        // reCAPTCHA … we used the captcha-solving service 2Captcha."
        // Telegram's add-to-group flow has no such wall: the solver is
        // never consulted and the campaign's captcha spend stays zero.
        let captcha_solved =
            self.substrate.install_requires_captcha() && self.solver.solve("21 + 21").is_ok();
        self.substrate
            .install_bot(self.researcher, guild, &but.invite, captcha_solved)?;
        if self.config.plant_webhook_canaries {
            // Extension: a webhook whose secret doubles as a canary. Any
            // backend request carrying the token betrays credential theft.
            // Substrates without webhooks return `None` and plant nothing.
            if let Some(hook_token) =
                self.substrate
                    .plant_webhook(self.researcher, guild, "ci-updates")?
            {
                let token = self.mint.mint(TokenKind::WebhookToken, &tag);
                registry_insert_webhook(&mut self.webhook_canaries, &hook_token, &token.id);
                registry.insert(token.id.clone(), (token, but.name.clone()));
            }
        }
        Ok(guild)
    }

    /// Phase-2 unit of work: populate one guild and drive its backend to
    /// quiescence. `index` is the guild's position in bot-name order and
    /// selects its RNG stream.
    fn run_guild(
        &self,
        index: usize,
        job: GuildJob<S>,
        pool: &dyn PersonaRoster,
        parent: &Span,
    ) -> GuildOutcome {
        // Keyed by the bot-name-order index — the same stream selector the
        // RNG uses — so the trace tree is worker-count-independent.
        let span = parent.child_keyed("guild", index as u64);
        let mut rng = StdRng::seed_from_u64(netsim::splitmix(self.config.seed, index as u64));
        let mut mint = TokenMint::new(SINK_HOST, MAIL_HOST);
        let outcome = match self.populate_guild(job.guild, &job.bot_name, pool, &mut rng, &mut mint)
        {
            Ok(outcome) => outcome,
            // Population failures are campaign bugs, not measurements.
            Err(e) => panic!("failed to populate {}: {e}", job.bot_name),
        };
        if let Some(mut backend) = job.bot {
            self.substrate.drive_to_idle(&mut backend);
        }
        span.record("messages_posted", outcome.messages_posted as u64);
        span.record("tokens_planted", outcome.tokens_planted as u64);
        outcome
    }

    fn populate_guild(
        &self,
        guild: RoomId,
        bot_name: &str,
        pool: &dyn PersonaRoster,
        rng: &mut StdRng,
        mint: &mut TokenMint,
    ) -> SubstrateResult<GuildOutcome> {
        let tag = Self::guild_tag(bot_name);
        let channel = self.substrate.default_channel(guild)?;
        let clock = self.substrate.network().clock();
        let mut outcome = GuildOutcome {
            registry_entries: Vec::new(),
            messages_posted: 0,
            tokens_planted: 0,
        };

        let tokens = mint.mint_guild_set(&tag);
        let feed = generate_feed(rng, pool.len(), self.config.feed_messages);

        // Interleave: tokens dropped at ¼, ½, ¾ and end of the feed.
        let drop_points: Vec<usize> = (1..=tokens.len())
            .map(|i| i * feed.len().max(4) / (tokens.len() + 1))
            .collect();
        let mut token_iter = tokens.into_iter();
        for (i, line) in feed.iter().enumerate() {
            let author = pool.by_index(line.persona);
            self.substrate
                .send_message(author, channel, &line.text, vec![])?;
            outcome.messages_posted += 1;
            clock.sleep(SimDuration::from_secs(30)); // believable pacing
            if drop_points.contains(&i) {
                if let Some(token) = token_iter.next() {
                    self.plant_token(&token, channel, pool, i)?;
                    outcome.registry_entries.push((token, bot_name.to_string()));
                    outcome.tokens_planted += 1;
                }
            }
        }
        // Any tokens not yet dropped (tiny feeds): post them at the end.
        for token in token_iter {
            self.plant_token(&token, channel, pool, 0)?;
            outcome.registry_entries.push((token, bot_name.to_string()));
            outcome.tokens_planted += 1;
        }
        Ok(outcome)
    }

    fn plant_token(
        &self,
        token: &CanaryToken,
        channel: platform::ChannelId,
        pool: &dyn PersonaRoster,
        idx: usize,
    ) -> SubstrateResult<()> {
        let author = pool.by_index(idx + 1);
        match token.kind {
            TokenKind::Url => {
                self.substrate.send_message(
                    author,
                    channel,
                    &format!("shared the doc here {}", token.beacon_url(SINK_HOST)),
                    vec![],
                )?;
            }
            TokenKind::Email => {
                self.substrate.send_message(
                    author,
                    channel,
                    &format!("email me the files at {}", token.email_address(MAIL_HOST)),
                    vec![],
                )?;
            }
            TokenKind::WordDoc | TokenKind::Pdf => {
                let att = token
                    .as_attachment(SINK_HOST)
                    .expect("doc kinds have attachments");
                self.substrate.send_message(
                    author,
                    channel,
                    "notes from the meeting attached",
                    vec![att],
                )?;
            }
            TokenKind::WebhookToken => {
                // Planted during guild set-up, not posted as a message.
            }
        }
        Ok(())
    }

    /// Attribute triggers back to bots by guild tag; collect follow-up
    /// bot messages posted after the first trigger in each guild.
    fn attribute_from(
        &self,
        triggers: &[Trigger],
        registry: &BTreeMap<String, (CanaryToken, String)>,
        guild_of_bot: &BTreeMap<String, RoomId>,
    ) -> Vec<Detection> {
        let mut per_bot: BTreeMap<String, (Vec<TokenKind>, Vec<String>, netsim::SimInstant)> =
            BTreeMap::new();
        for trigger in triggers.iter().cloned() {
            let Some((token, bot_name)) = registry.get(&trigger.token_id) else {
                continue;
            };
            let entry = per_bot
                .entry(bot_name.clone())
                .or_insert_with(|| (Vec::new(), Vec::new(), trigger.at));
            if !entry.0.contains(&token.kind) {
                entry.0.push(token.kind);
            }
            if !entry.1.contains(&trigger.requester) {
                entry.1.push(trigger.requester.clone());
            }
            entry.2 = entry.2.min(trigger.at);
        }
        per_bot
            .into_iter()
            .map(|(bot_name, (mut kinds, mut requesters, first_at))| {
                kinds.sort();
                requesters.sort();
                let followup_messages = guild_of_bot
                    .get(&bot_name)
                    .and_then(|g| self.substrate.default_channel(*g).ok())
                    .and_then(|ch| self.substrate.read_history(self.researcher, ch).ok())
                    .map(|history| {
                        history
                            .iter()
                            .filter(|m| m.at >= first_at && m.author_is_bot)
                            .map(|m| m.content.clone())
                            .collect()
                    })
                    .unwrap_or_default();
                Detection {
                    bot_name,
                    token_kinds: kinds,
                    requesters,
                    followup_messages,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::substrate::DiscordSubstrate;
    use botsdk::{Behavior, BenignBehavior, ExfiltratorBehavior, SnooperBehavior};
    use crawler::solver::CaptchaSolverService;
    use discord_sim::oauth::InviteUrl;
    use discord_sim::{Permissions, Platform, UserId};
    use netsim::clock::VirtualClock;
    use netsim::Network;

    fn world() -> (Platform, Network, UserId) {
        let clock = VirtualClock::new();
        let net = Network::with_clock(31, clock.clone());
        CaptchaSolverService::mount(&net);
        let platform = Platform::new(clock);
        let dev = platform.register_user("dev#1", "dev@x.y");
        (platform, net, dev)
    }

    fn discord(platform: &Platform, net: &Network) -> DiscordSubstrate {
        DiscordSubstrate::new(platform.clone(), net.clone())
    }

    fn make_bot(
        platform: &Platform,
        dev: UserId,
        name: &str,
        perms: Permissions,
        behavior: Box<dyn Behavior>,
    ) -> BotUnderTest<DiscordSubstrate> {
        let app = platform.register_bot_application(dev, name).unwrap();
        BotUnderTest {
            name: name.to_string(),
            client_id: app.client_id,
            bot_user: app.bot_user.0.raw(),
            invite: InviteUrl::bot(app.client_id, perms).to_url().to_string(),
            behavior,
        }
    }

    fn full_perms() -> Permissions {
        Permissions::SEND_MESSAGES
            | Permissions::VIEW_CHANNEL
            | Permissions::READ_MESSAGE_HISTORY
            | Permissions::ATTACH_FILES
    }

    #[test]
    fn benign_fleet_produces_zero_triggers() {
        let (platform, net, dev) = world();
        let mut campaign = Campaign::new(discord(&platform, &net), CampaignConfig::default());
        let bots = vec![
            make_bot(
                &platform,
                dev,
                "CleanBot",
                full_perms(),
                Box::new(BenignBehavior::new("fun")),
            ),
            make_bot(
                &platform,
                dev,
                "NiceBot",
                full_perms(),
                Box::new(BenignBehavior::new("music")),
            ),
        ];
        let report = campaign.run(bots);
        assert_eq!(report.bots_tested, 2);
        assert_eq!(report.guilds_created, 2);
        assert_eq!(report.tokens_planted, 8);
        assert_eq!(report.messages_posted, 50);
        assert!(report.triggers.is_empty());
        assert!(report.detections.is_empty());
        assert_eq!(report.captchas_solved, 2, "one install captcha per bot");
        assert_eq!(
            report.backend_bytes_sent, 0,
            "benign backends send nothing out"
        );
    }

    #[test]
    fn snooper_is_caught_and_attributed() {
        let (platform, net, dev) = world();
        let mut campaign = Campaign::new(discord(&platform, &net), CampaignConfig::default());
        let bots = vec![
            make_bot(
                &platform,
                dev,
                "CleanBot",
                full_perms(),
                Box::new(BenignBehavior::new("fun")),
            ),
            make_bot(
                &platform,
                dev,
                "Melonian",
                full_perms(),
                Box::new(SnooperBehavior::new(10)),
            ),
        ];
        let report = campaign.run(bots);
        assert_eq!(report.detections.len(), 1, "exactly one bot detected");
        let det = &report.detections[0];
        assert_eq!(det.bot_name, "Melonian");
        // The snooper opened the word doc, the pdf, and fetched the URL.
        assert!(det.token_kinds.contains(&TokenKind::Url));
        assert!(det.token_kinds.contains(&TokenKind::WordDoc));
        assert!(det.token_kinds.contains(&TokenKind::Pdf));
        // Requester attribution points at Melonian's backend.
        assert!(det.requesters.iter().all(|r| r.contains("melonian")));
        // The human aside was captured as a follow-up message.
        assert!(det.followup_messages.iter().any(|m| m == "wtf is this bro"));
    }

    #[test]
    fn exfiltrator_trips_email_token_too() {
        let (platform, net, dev) = world();
        let mut campaign = Campaign::new(discord(&platform, &net), CampaignConfig::default());
        let bots = vec![make_bot(
            &platform,
            dev,
            "Harvester",
            full_perms(),
            Box::new(ExfiltratorBehavior::new(None).spamming()),
        )];
        let report = campaign.run(bots);
        assert_eq!(report.detections.len(), 1);
        let det = &report.detections[0];
        assert_eq!(
            det.token_kinds,
            vec![
                TokenKind::Email,
                TokenKind::Url,
                TokenKind::WordDoc,
                TokenKind::Pdf
            ]
        );
        assert!(
            report.backend_bytes_sent > 0,
            "the harvester's traffic is measurable"
        );
    }

    #[test]
    fn guild_isolation_no_cross_guild_attribution() {
        let (platform, net, dev) = world();
        let mut campaign = Campaign::new(discord(&platform, &net), CampaignConfig::default());
        let bots = vec![
            make_bot(
                &platform,
                dev,
                "Spy",
                full_perms(),
                Box::new(SnooperBehavior::new(5)),
            ),
            make_bot(
                &platform,
                dev,
                "Saint",
                full_perms(),
                Box::new(BenignBehavior::new("fun")),
            ),
        ];
        let report = campaign.run(bots);
        assert_eq!(report.detections.len(), 1);
        assert_eq!(report.detections[0].bot_name, "Spy");
        // Every trigger's token carries the Spy guild tag.
        for t in &report.triggers {
            assert!(t.token_id.contains("guild-spy"), "{}", t.token_id);
        }
    }

    #[test]
    fn webhook_thief_caught_via_network_tap() {
        use botsdk::WebhookThiefBehavior;
        let (platform, net, dev) = world();
        let mut campaign = Campaign::new(discord(&platform, &net), CampaignConfig::default());
        let bots = vec![
            make_bot(
                &platform,
                dev,
                "CleanBot",
                full_perms(),
                Box::new(BenignBehavior::new("fun")),
            ),
            make_bot(
                &platform,
                dev,
                "HookSnatcher",
                full_perms() | Permissions::MANAGE_WEBHOOKS,
                Box::new(WebhookThiefBehavior::new("drop.zone.sim")),
            ),
        ];
        let report = campaign.run(bots);
        assert_eq!(report.detections.len(), 1);
        let det = &report.detections[0];
        assert_eq!(det.bot_name, "HookSnatcher");
        assert_eq!(det.token_kinds, vec![TokenKind::WebhookToken]);
        assert!(det.requesters.iter().all(|r| r.contains("hooksnatcher")));
    }

    #[test]
    fn webhook_canaries_can_be_disabled() {
        use botsdk::WebhookThiefBehavior;
        let (platform, net, dev) = world();
        let mut campaign = Campaign::new(
            discord(&platform, &net),
            CampaignConfig {
                plant_webhook_canaries: false,
                ..CampaignConfig::default()
            },
        );
        let bots = vec![make_bot(
            &platform,
            dev,
            "HookSnatcher",
            full_perms() | Permissions::MANAGE_WEBHOOKS,
            Box::new(WebhookThiefBehavior::new("drop.zone.sim")),
        )];
        let report = campaign.run(bots);
        // No canary webhook exists → nothing to steal → no detection; the
        // paper's four-token design alone misses this behaviour class.
        assert!(report.detections.is_empty());
    }

    #[test]
    fn parallel_campaign_matches_serial() {
        use botsdk::WebhookThiefBehavior;
        let run = |workers: usize| {
            let (platform, net, dev) = world();
            let mut campaign = Campaign::new(
                discord(&platform, &net),
                CampaignConfig {
                    workers,
                    ..CampaignConfig::default()
                },
            );
            let bots = vec![
                make_bot(
                    &platform,
                    dev,
                    "CleanBot",
                    full_perms(),
                    Box::new(BenignBehavior::new("fun")),
                ),
                make_bot(
                    &platform,
                    dev,
                    "Melonian",
                    full_perms(),
                    Box::new(SnooperBehavior::new(10)),
                ),
                make_bot(
                    &platform,
                    dev,
                    "Harvester",
                    full_perms(),
                    Box::new(ExfiltratorBehavior::new(None).spamming()),
                ),
                make_bot(
                    &platform,
                    dev,
                    "HookSnatcher",
                    full_perms() | Permissions::MANAGE_WEBHOOKS,
                    Box::new(WebhookThiefBehavior::new("drop.zone.sim")),
                ),
            ];
            let report = campaign.run(bots);
            (
                report.detections.clone(),
                report
                    .triggers
                    .iter()
                    .map(|t| (t.token_id.clone(), t.requester.clone(), t.via_mail))
                    .collect::<Vec<_>>(),
                report.messages_posted,
                report.tokens_planted,
                report.bots_tested,
            )
        };
        let serial = run(1);
        assert_eq!(serial.0.len(), 3, "three of four bots are malicious");
        for workers in [2, 4] {
            assert_eq!(run(workers), serial, "workers={workers}");
        }
    }

    #[test]
    fn traced_campaign_canonical_trace_is_worker_invariant() {
        let trace = |workers: usize| {
            let (platform, net, dev) = world();
            let mut campaign = Campaign::new(
                discord(&platform, &net),
                CampaignConfig {
                    workers,
                    ..CampaignConfig::default()
                },
            );
            let bots = vec![
                make_bot(
                    &platform,
                    dev,
                    "CleanBot",
                    full_perms(),
                    Box::new(BenignBehavior::new("fun")),
                ),
                make_bot(
                    &platform,
                    dev,
                    "Melonian",
                    full_perms(),
                    Box::new(SnooperBehavior::new(10)),
                ),
                make_bot(
                    &platform,
                    dev,
                    "Harvester",
                    full_perms(),
                    Box::new(ExfiltratorBehavior::new(None).spamming()),
                ),
            ];
            let recorder = std::sync::Arc::new(obs::JsonRecorder::new());
            let obs_handle =
                Obs::with_recorder(recorder.clone(), std::sync::Arc::new(net.clock().clone()));
            {
                let root = obs_handle.span("audit");
                campaign.run_traced(bots, &obs_handle, &root, &BTreeMap::new());
            }
            recorder.canonical_trace()
        };
        let serial = trace(1);
        assert!(serial.contains("\"name\":\"honeypot\""));
        assert!(serial.contains("\"name\":\"guild\""));
        for workers in [2, 4] {
            assert_eq!(trace(workers), serial, "workers={workers}");
        }
    }

    #[test]
    fn campaign_is_deterministic() {
        let run = || {
            let (platform, net, dev) = world();
            let mut campaign = Campaign::new(discord(&platform, &net), CampaignConfig::default());
            let bots = vec![make_bot(
                &platform,
                dev,
                "Melonian",
                full_perms(),
                Box::new(SnooperBehavior::new(8)),
            )];
            let report = campaign.run(bots);
            (
                report
                    .detections
                    .iter()
                    .map(|d| (d.bot_name.clone(), d.token_kinds.clone()))
                    .collect::<Vec<_>>(),
                report.messages_posted,
                report.tokens_planted,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn reused_snapshots_reproduce_the_full_report() {
        use botsdk::WebhookThiefBehavior;
        let fleet = |platform: &Platform, dev: UserId| {
            vec![
                make_bot(
                    platform,
                    dev,
                    "CleanBot",
                    full_perms(),
                    Box::new(BenignBehavior::new("fun")),
                ),
                make_bot(
                    platform,
                    dev,
                    "Melonian",
                    full_perms(),
                    Box::new(SnooperBehavior::new(10)),
                ),
                make_bot(
                    platform,
                    dev,
                    "HookSnatcher",
                    full_perms() | Permissions::MANAGE_WEBHOOKS,
                    Box::new(WebhookThiefBehavior::new("drop.zone.sim")),
                ),
            ]
        };
        let canonical = |r: &CampaignReport| {
            (
                r.detections.clone(),
                r.triggers
                    .iter()
                    .map(|t| (t.token_id.clone(), t.requester.clone(), t.via_mail))
                    .collect::<Vec<_>>(),
                r.messages_posted,
                r.tokens_planted,
                r.bots_tested,
                r.guilds_created,
            )
        };

        // Full run: every guild populated, snapshots captured.
        let (platform, net, dev) = world();
        let mut campaign = Campaign::new(discord(&platform, &net), CampaignConfig::default());
        let (full, snapshots) = campaign.run_traced(
            fleet(&platform, dev),
            &Obs::disabled(),
            &Span::disabled(),
            &BTreeMap::new(),
        );
        assert_eq!(snapshots.len(), 3);
        assert!(snapshots.windows(2).all(|w| w[0].bot_name < w[1].bot_name));

        // Reuse run on a fresh world: two of three guilds come from
        // snapshots, only Melonian is re-driven. The merged report must be
        // canonically identical and the snapshots must round-trip.
        let reuse: BTreeMap<String, GuildSnapshot> = snapshots
            .iter()
            .filter(|s| s.bot_name != "Melonian")
            .map(|s| (s.bot_name.clone(), s.clone()))
            .collect();
        let (platform, net, dev) = world();
        let mut campaign = Campaign::new(discord(&platform, &net), CampaignConfig::default());
        let (merged, merged_snapshots) = campaign.run_traced(
            fleet(&platform, dev),
            &Obs::disabled(),
            &Span::disabled(),
            &reuse,
        );
        assert_eq!(canonical(&merged), canonical(&full));
        let shape = |s: &[GuildSnapshot]| {
            s.iter()
                .map(|g| {
                    (
                        g.bot_name.clone(),
                        g.messages_posted,
                        g.tokens_planted,
                        g.triggers.clone(),
                        g.detection.clone(),
                    )
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(shape(&merged_snapshots), shape(&snapshots));
    }

    #[test]
    fn telegram_campaign_runs_the_same_orchestration() {
        use telegram_sim::{deep_link, TelegramSubstrate, TgBenignBehavior, TgPlatform};
        use telegram_sim::{TgBehavior, TgSnooperBehavior};

        let clock = VirtualClock::new();
        let net = Network::with_clock(37, clock.clone());
        let tg = TgPlatform::new(clock);
        let substrate = TelegramSubstrate::new(tg.clone(), net);

        let make = |name: &str,
                    username: &str,
                    privacy: bool,
                    behavior: Box<dyn TgBehavior>|
         -> BotUnderTest<TelegramSubstrate> {
            let bot = tg
                .register_bot(username, platform::TgRights::NONE, privacy)
                .unwrap();
            BotUnderTest {
                name: name.to_string(),
                client_id: bot,
                bot_user: bot,
                invite: deep_link(username, platform::TgRights::NONE),
                behavior,
            }
        };
        let bots = vec![
            make(
                "CleanBot",
                "cleanbot",
                true,
                Box::new(TgBenignBehavior::new("fun")),
            ),
            // Privacy mode off: the snooper's backend receives the whole
            // feed — including the planted canaries — without any command.
            make(
                "Melonian",
                "melonian",
                false,
                Box::new(TgSnooperBehavior::new(10)),
            ),
        ];
        let mut campaign = Campaign::new(substrate, CampaignConfig::default());
        let report = campaign.run(bots);
        assert_eq!(report.bots_tested, 2);
        assert_eq!(report.guilds_created, 2);
        assert_eq!(report.tokens_planted, 8, "four paper tokens per room");
        assert_eq!(report.messages_posted, 50);
        assert_eq!(
            report.captchas_solved, 0,
            "no captcha wall on the Telegram install flow"
        );
        assert_eq!(
            report.manual_verifications, 0,
            "no mobile-verification friction for Telegram personas"
        );
        assert_eq!(report.detections.len(), 1);
        let det = &report.detections[0];
        assert_eq!(det.bot_name, "Melonian");
        assert!(det.token_kinds.contains(&TokenKind::Url));
        assert!(det.requesters.iter().all(|r| r.contains("melonian")));
        assert!(det.followup_messages.iter().any(|m| m == "wtf is this bro"));
    }

    #[test]
    fn telegram_privacy_mode_shields_the_feed() {
        use telegram_sim::{deep_link, TelegramSubstrate, TgPlatform, TgSnooperBehavior};

        let clock = VirtualClock::new();
        let net = Network::with_clock(41, clock.clone());
        let tg = TgPlatform::new(clock);
        let substrate = TelegramSubstrate::new(tg.clone(), net);
        // Same snooper backend, but privacy mode ON and no admin rights:
        // the enforced delivery policy never hands it the feed, so the
        // snoop is structurally impossible — the platform contrast the
        // paper draws in §6.
        let bot = tg
            .register_bot("quietspy", platform::TgRights::NONE, true)
            .unwrap();
        let bots = vec![BotUnderTest::<TelegramSubstrate> {
            name: "QuietSpy".to_string(),
            client_id: bot,
            bot_user: bot,
            invite: deep_link("quietspy", platform::TgRights::NONE),
            behavior: Box::new(TgSnooperBehavior::new(10)),
        }];
        let mut campaign = Campaign::new(substrate, CampaignConfig::default());
        let report = campaign.run(bots);
        assert_eq!(report.bots_tested, 1);
        assert!(
            report.detections.is_empty(),
            "privacy mode withholds the canaries from the backend"
        );
    }

    #[test]
    fn guild_tag_sanitizes_names() {
        type C = Campaign<DiscordSubstrate>;
        assert_eq!(C::guild_tag("Melonian"), "guild-melonian");
        assert_eq!(C::guild_tag("Fun Bot 3000!"), "guild-fun-bot-3000-");
    }
}
