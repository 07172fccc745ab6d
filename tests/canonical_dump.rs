//! Helper: dump the canonical report for fixed seeds so two builds can be
//! diffed byte-for-byte. Ignored by default; run with
//! `CANON_OUT=<dir> cargo test --release --test canonical_dump -- --ignored`.
//!
//! Per seed (2022 and 7) it writes `canon_<seed>.json`, a 300-bot world
//! with every listing-site defense off, and `canon_defended_<platform>_<seed>.json`
//! for Discord and Telegram: 300-bot worlds behind the captcha wall and the
//! rate limit, with the email wall moved to page 4 so the 12-page listing
//! crosses it too.

use chatbot_audit::{AuditConfig, AuditPipeline, PlatformKind};
use synth::{build_ecosystem, EcosystemConfig};

fn dump(dir: &str, name: &str, eco: &EcosystemConfig) {
    let mut config = AuditConfig {
        honeypot_sample: 15,
        ..AuditConfig::default()
    };
    config.crawl.platform = eco.platform;
    config.crawl.list_host = match eco.platform {
        PlatformKind::Discord => botlist::LIST_HOST,
        PlatformKind::Telegram => platform::TELEGRAM_LIST_HOST,
    }
    .to_string();
    let json = AuditPipeline::new(config)
        .run_full(&build_ecosystem(eco))
        .canonical_json();
    std::fs::write(format!("{dir}/{name}.json"), json).expect("write canonical dump");
}

#[test]
#[ignore = "manual baseline-diff helper; needs CANON_OUT"]
fn dump_canonical_reports() {
    let dir = std::env::var("CANON_OUT").expect("set CANON_OUT to an output directory");
    for seed in [2022u64, 7] {
        dump(
            &dir,
            &format!("canon_{seed}"),
            &EcosystemConfig::test_scale(300, seed),
        );
        for kind in PlatformKind::ALL {
            let defended = EcosystemConfig {
                seed,
                num_bots: 300,
                platform: kind,
                email_wall_after_page: Some(4),
                ..EcosystemConfig::default()
            };
            dump(
                &dir,
                &format!("canon_defended_{}_{seed}", kind.as_str()),
                &defended,
            );
        }
    }
}
