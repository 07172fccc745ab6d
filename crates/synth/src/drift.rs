//! Longitudinal ecosystem drift.
//!
//! The paper audited one snapshot of the listing site; its discussion (and
//! the follow-up literature on bot privacy) argues the risks are *moving*:
//! bots gain permissions, rewrite or abandon their privacy policies, take
//! source repositories private, and change backend behaviour between
//! audits. This module models that as **epochs**: epoch 0 is the frozen
//! world [`crate::build_ecosystem`] produces, and each later epoch applies
//! a seeded batch of per-bot mutations on top of the previous one.
//!
//! Drift draws from its own RNG stream (seeded from the world seed and the
//! epoch number), never from the epoch-0 plan stream — so adding drift
//! cannot perturb the base world, and a bot the drift layer leaves alone
//! serves byte-identical crawl content in every epoch. That invariant is
//! what the incremental re-audit path builds on: the content-addressed
//! artifact cache recognises unchanged bots and skips their re-analysis.
//!
//! Four mutation kinds are modelled; all are cumulative across epochs:
//!
//! * **Permission creep** — a live invite gains one permission it did not
//!   request before (crawl-visible: the invite URL changes);
//! * **Policy churn** — the website's policy hosting moves one step along
//!   `none → partial → complete → dead` (crawl-visible: policy bytes);
//! * **GitHub churn** — a listing gains a fresh repository link or drops
//!   its existing one (crawl-visible; shared repos stay published so other
//!   bots' links keep resolving);
//! * **Behaviour flips** — a benign backend turns snooper or a malicious
//!   one cleans up its act (*not* crawl-visible: only the honeypot can see
//!   it, exactly like the real ecosystem).

use crate::build::{mount_world, world_lineage, Ecosystem};
use crate::config::{EcosystemConfig, FIGURE3_PERMISSION_RATES};
use crate::plan::{plan_world, GithubPublish, WorldPlan};
use crate::truth::{BehaviorClass, InviteClass, PolicyClass};
use codeanal::genrepo;
use codeanal::github::GITHUB_HOST;
use discord_sim::Permissions;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet};

/// Per-epoch mutation probabilities. Each is the chance that one bot
/// experiences that mutation kind in one epoch step.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DriftConfig {
    /// Chance a live invite gains a permission.
    pub permission_creep: f64,
    /// Chance a website's policy hosting changes.
    pub policy_churn: f64,
    /// Chance a listing gains/loses its GitHub link.
    pub github_churn: f64,
    /// Chance a backend's behaviour flips.
    pub behavior_churn: f64,
}

impl Default for DriftConfig {
    fn default() -> Self {
        DriftConfig {
            permission_creep: 0.06,
            policy_churn: 0.08,
            github_churn: 0.05,
            behavior_churn: 0.02,
        }
    }
}

impl DriftConfig {
    /// A completely static ecosystem: every epoch re-serves epoch 0.
    pub fn frozen() -> DriftConfig {
        DriftConfig {
            permission_creep: 0.0,
            policy_churn: 0.0,
            github_churn: 0.0,
            behavior_churn: 0.0,
        }
    }
}

/// One applied mutation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DriftKind {
    /// The invite gained `added`.
    PermissionCreep {
        /// Canonical name of the gained permission.
        added: String,
    },
    /// The policy hosting class changed.
    PolicyRewrite {
        /// Class before the rewrite.
        from: PolicyClass,
        /// Class after the rewrite.
        to: PolicyClass,
    },
    /// The GitHub link was added (`true`) or removed (`false`).
    GithubChurn {
        /// Whether a link was added (vs. removed).
        added: bool,
    },
    /// The backend behaviour flipped.
    BehaviorFlip {
        /// Behaviour before the flip.
        from: BehaviorClass,
        /// Behaviour after the flip.
        to: BehaviorClass,
    },
}

/// One bot's mutation in one epoch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DriftEvent {
    /// Listing index of the mutated bot.
    pub idx: usize,
    /// Listing name (stable across epochs).
    pub bot: String,
    /// What changed.
    pub kind: DriftKind,
    /// Whether the crawler can observe the change (behaviour flips are
    /// invisible to the static pipeline — only the honeypot sees them).
    pub crawl_visible: bool,
}

/// Everything that changed in one epoch step.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct EpochDrift {
    /// The epoch these events produced (events lead from `epoch - 1` to
    /// `epoch`).
    pub epoch: u32,
    /// Applied mutations, in listing order.
    pub events: Vec<DriftEvent>,
}

impl EpochDrift {
    /// Listing indices whose *crawl bytes* changed this epoch — exactly the
    /// bots an incremental re-audit must re-analyze (the artifact cache
    /// serves everyone else).
    pub fn content_drifted(&self) -> BTreeSet<usize> {
        self.events
            .iter()
            .filter(|e| e.crawl_visible)
            .map(|e| e.idx)
            .collect()
    }
}

/// Build the world as it stands at `epoch` (0 = the frozen snapshot), plus
/// the drift log for every epoch step along the way.
///
/// Drift is cumulative and deterministic: `build_ecosystem_at(c, d, 2)`
/// applies epoch 1's mutations and then epoch 2's on top, and always
/// produces the same world for the same `(config, drift, epoch)` triple.
pub fn build_ecosystem_at(
    config: &EcosystemConfig,
    drift: &DriftConfig,
    epoch: u32,
) -> (Ecosystem, Vec<EpochDrift>) {
    let mut plan = plan_world(config);
    let mut log = Vec::with_capacity(epoch as usize);
    for step in 1..=epoch {
        log.push(drift_epoch(&mut plan, config, drift, step));
    }
    let eco = mount_world(&plan, config, world_lineage(config, Some(drift)));
    // Publish the crawl-visible ledger through the listing site's
    // `/changed` endpoint, so conditional-fetch crawlers can cross-check
    // their validators against what actually moved.
    let mut change: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
    for step in &log {
        change.insert(
            step.epoch,
            step.content_drifted()
                .iter()
                .map(|&idx| eco.listing_id(idx))
                .collect(),
        );
    }
    eco.site.set_change_log(epoch, change);
    (eco, log)
}

/// The drift RNG stream for one epoch: decoupled from the plan stream and
/// from every other epoch's stream.
fn epoch_rng(seed: u64, epoch: u32) -> StdRng {
    StdRng::seed_from_u64(
        seed ^ 0x6472_6966_745f_7631u64 ^ (epoch as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
    )
}

/// Mutate `plan` in place from epoch `epoch - 1` to `epoch`.
fn drift_epoch(
    plan: &mut WorldPlan,
    config: &EcosystemConfig,
    drift: &DriftConfig,
    epoch: u32,
) -> EpochDrift {
    let mut rng = epoch_rng(config.seed, epoch);
    let mut events = Vec::new();

    for bot in plan.bots.iter_mut() {
        // Draw every category for every bot, in a fixed order, so the
        // stream never depends on the (mutated) plan state.
        let creep = rng.gen_bool(drift.permission_creep);
        let policy = rng.gen_bool(drift.policy_churn);
        let github = rng.gen_bool(drift.github_churn);
        let behavior = rng.gen_bool(drift.behavior_churn);

        if creep {
            if let Some(perms) = bot.permissions.as_mut() {
                let start = rng.gen_range(0..FIGURE3_PERMISSION_RATES.len());
                for off in 0..FIGURE3_PERMISSION_RATES.len() {
                    let (name, _) =
                        FIGURE3_PERMISSION_RATES[(start + off) % FIGURE3_PERMISSION_RATES.len()];
                    let bit = Permissions::by_name(name).expect("calibration names are canonical");
                    if !perms.contains(bit) {
                        *perms |= bit;
                        events.push(DriftEvent {
                            idx: bot.idx,
                            bot: bot.name.clone(),
                            kind: DriftKind::PermissionCreep {
                                added: name.to_string(),
                            },
                            // Slow-redirect invites time out before the
                            // crawler ever sees the permission set, so the
                            // creep only shows up for cleanly valid links.
                            crawl_visible: bot.invite_class == InviteClass::Valid,
                        });
                        break;
                    }
                }
            }
        }

        if policy && bot.policy_class != PolicyClass::NoWebsite {
            let from = bot.policy_class;
            let to = match from {
                // A site that never had (or lost) its policy publishes a
                // tailored partial one.
                PolicyClass::NoPolicy | PolicyClass::DeadPolicyLink => {
                    let practices = [
                        policy::DataPractice::Collect,
                        policy::DataPractice::Use,
                        policy::DataPractice::Retain,
                    ];
                    let n = rng.gen_range(1usize..=3);
                    bot.policy = Some(policy::corpus::partial_policy(
                        &mut rng,
                        &bot.name,
                        &practices[..n],
                        true,
                    ));
                    PolicyClass::PartialPolicy
                }
                // A boilerplate or partial policy matures into a complete
                // one — the traceability upgrade the paper hoped to see.
                PolicyClass::GenericPolicy | PolicyClass::PartialPolicy => {
                    bot.policy = Some(policy::corpus::complete_policy(&mut rng, &bot.name, true));
                    PolicyClass::CompletePolicy
                }
                // Complete policies rot: the link 404s and traceability
                // collapses back to broken.
                PolicyClass::CompletePolicy => {
                    bot.policy = None;
                    PolicyClass::DeadPolicyLink
                }
                PolicyClass::NoWebsite => unreachable!(),
            };
            bot.policy_class = to;
            events.push(DriftEvent {
                idx: bot.idx,
                bot: bot.name.clone(),
                kind: DriftKind::PolicyRewrite { from, to },
                crawl_visible: true,
            });
        }

        if github {
            if bot.github_class == crate::truth::GithubClass::None {
                // Publish a fresh docs repo under an epoch-scoped owner so
                // the slug can never collide with a plan-phase publish.
                let slug = format!("drift{epoch}-{}/{}-docs", bot.idx, bot.name.to_lowercase());
                bot.publishes
                    .push(GithubPublish::Repo(genrepo::readme_only_repo(&slug)));
                bot.github_link = Some(format!("https://{GITHUB_HOST}/{slug}"));
                bot.github_class = crate::truth::GithubClass::ReadmeOnly;
                events.push(DriftEvent {
                    idx: bot.idx,
                    bot: bot.name.clone(),
                    kind: DriftKind::GithubChurn { added: true },
                    crawl_visible: true,
                });
            } else {
                // Drop the link but keep any plan-phase publishes mounted:
                // a template developer's other bots still point there.
                bot.github_link = None;
                bot.github_class = crate::truth::GithubClass::None;
                events.push(DriftEvent {
                    idx: bot.idx,
                    bot: bot.name.clone(),
                    kind: DriftKind::GithubChurn { added: false },
                    crawl_visible: true,
                });
            }
        }

        if behavior && bot.invite_class == InviteClass::Valid {
            let from = bot.behavior;
            let to = match from {
                // A benign backend turns snooper (the update-channel attack
                // the related work warns about) — installable, so the
                // honeypot can catch it next epoch.
                BehaviorClass::Benign => BehaviorClass::Snooper,
                // A caught (or cautious) malicious backend goes quiet.
                BehaviorClass::Snooper
                | BehaviorClass::Exfiltrator
                | BehaviorClass::WebhookThief => BehaviorClass::Benign,
            };
            bot.behavior = to;
            events.push(DriftEvent {
                idx: bot.idx,
                bot: bot.name.clone(),
                kind: DriftKind::BehaviorFlip { from, to },
                crawl_visible: false,
            });
        }
    }

    EpochDrift { epoch, events }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build_ecosystem;

    fn config() -> EcosystemConfig {
        EcosystemConfig::test_scale(120, 2022)
    }

    fn listing_fingerprint(eco: &Ecosystem) -> Vec<String> {
        // The detail-page-visible surface of each bot, via ground truth +
        // listing metadata (the crawler sees exactly this projection).
        eco.truth
            .bots
            .iter()
            .map(|b| {
                format!(
                    "{}|{:?}|{:?}|{:?}|{:?}",
                    b.name, b.permissions, b.policy_class, b.github_class, b.invite_class
                )
            })
            .collect()
    }

    #[test]
    fn epoch_zero_is_the_frozen_world() {
        let (drifted, log) = build_ecosystem_at(&config(), &DriftConfig::default(), 0);
        let base = build_ecosystem(&config());
        assert!(log.is_empty());
        assert_eq!(listing_fingerprint(&drifted), listing_fingerprint(&base));
    }

    #[test]
    fn drift_is_deterministic_and_cumulative() {
        let drift = DriftConfig::default();
        let (eco_a, log_a) = build_ecosystem_at(&config(), &drift, 2);
        let (eco_b, log_b) = build_ecosystem_at(&config(), &drift, 2);
        assert_eq!(log_a, log_b);
        assert_eq!(listing_fingerprint(&eco_a), listing_fingerprint(&eco_b));
        assert_eq!(log_a.len(), 2);
        assert!(
            !log_a[0].events.is_empty() && !log_a[1].events.is_empty(),
            "default rates must move a 120-bot world"
        );
        // Epoch 1 of a 2-epoch build equals a 1-epoch build's epoch 1.
        let (_, log_short) = build_ecosystem_at(&config(), &drift, 1);
        assert_eq!(log_a[0], log_short[0]);
    }

    #[test]
    fn frozen_drift_changes_nothing() {
        let (eco, log) = build_ecosystem_at(&config(), &DriftConfig::frozen(), 3);
        assert!(log.iter().all(|e| e.events.is_empty()));
        assert_eq!(
            listing_fingerprint(&eco),
            listing_fingerprint(&build_ecosystem(&config()))
        );
    }

    #[test]
    fn undrifted_bots_are_untouched_and_drifted_bots_changed() {
        let drift = DriftConfig::default();
        let (eco, log) = build_ecosystem_at(&config(), &drift, 1);
        let base = build_ecosystem(&config());
        let changed: BTreeSet<usize> = log[0].events.iter().map(|e| e.idx).collect();
        let base_fp = listing_fingerprint(&base);
        let drift_fp = listing_fingerprint(&eco);
        for idx in 0..base_fp.len() {
            if changed.contains(&idx) {
                continue; // behaviour flips may or may not show in truth fp
            }
            assert_eq!(base_fp[idx], drift_fp[idx], "bot {idx} must not change");
        }
        // Every crawl-visible event changed the truth projection.
        for e in log[0].events.iter().filter(|e| e.crawl_visible) {
            assert_ne!(
                base_fp[e.idx], drift_fp[e.idx],
                "event {:?} must be observable",
                e.kind
            );
        }
    }

    #[test]
    fn permission_creep_only_adds_bits() {
        let drift = DriftConfig {
            permission_creep: 1.0,
            policy_churn: 0.0,
            github_churn: 0.0,
            behavior_churn: 0.0,
        };
        let (eco, log) = build_ecosystem_at(&config(), &drift, 1);
        let base = build_ecosystem(&config());
        assert!(!log[0].events.is_empty());
        for (b, d) in base.truth.bots.iter().zip(eco.truth.bots.iter()) {
            if let (Some(before), Some(after)) = (b.permissions, d.permissions) {
                assert!(
                    after.contains(before),
                    "{}: creep must be a superset",
                    b.name
                );
            }
        }
    }

    #[test]
    fn drifted_world_still_mounts_installable_bots() {
        let (eco, _) = build_ecosystem_at(&config(), &DriftConfig::default(), 3);
        for bot in eco.truth.valid_bots() {
            assert!(
                eco.platform.application(bot.client_id).is_ok(),
                "{}",
                bot.name
            );
        }
        // Client ids match the frozen world's: drift never changes which
        // bots register, so warm stores stay keyed correctly.
        let base = build_ecosystem(&config());
        let ids: Vec<u64> = eco.truth.bots.iter().map(|b| b.client_id).collect();
        let base_ids: Vec<u64> = base.truth.bots.iter().map(|b| b.client_id).collect();
        assert_eq!(ids, base_ids);
    }
}
