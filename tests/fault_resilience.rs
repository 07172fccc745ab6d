//! Resilience under faults: a flaky network AND flaky storage.
//!
//! The real top.gg occasionally 500s and times out; the paper's scraper
//! "handle[s] and react[s] to exceptions" (§3). The first half of this
//! file remounts the listing site behind a noisy fault plan and verifies
//! the polite crawler still achieves near-complete coverage — while the
//! single-attempt impolite crawler visibly loses listings. The second half
//! points the same fault machinery at the audit store's backend: torn
//! appends, flipped bits, and short reads must never cost more than the
//! damaged frames themselves.

use botlist::LIST_HOST;
use chatbot_audit::{validator_identity, AuditConfig, AuditError, AuditPipeline, StoreConfig};
use crawler::crawl::{crawl_listing, CrawlConfig};
use crawler::incremental::{detail_body_key, detail_key, CachedListing, LISTING_KEY};
use honeypot::campaign::GuildSnapshot;
use netsim::fault::{FaultPlan, FaultyBackend, StorageFaultPlan};
use netsim::latency::LatencyModel;
use std::sync::Arc;
use store::{ArtifactCache, Backend, Frame, Journal, MemBackend, ValidatorCache, PACK_FILE};
use synth::{build_ecosystem, EcosystemConfig};

fn flaky_world(seed: u64) -> synth::Ecosystem {
    let eco = build_ecosystem(&EcosystemConfig::test_scale(300, seed));
    // Remount the same site behind background faults: ~2% of requests fail
    // one way or another.
    let site = eco.site.clone();
    eco.net.mount_with(
        LIST_HOST,
        site,
        LatencyModel::healthy(),
        FaultPlan {
            black_hole: 0.005,
            server_error: 0.01,
            refuse: 0.005,
            ..FaultPlan::default()
        },
    );
    eco
}

#[test]
fn polite_crawler_survives_a_flaky_site() {
    let eco = flaky_world(71);
    let (bots, stats) = crawl_listing(&eco.net, &CrawlConfig::default());
    // Retries absorb the background noise: coverage stays near-complete.
    let coverage = bots.len() as f64 / 300.0;
    assert!(
        coverage > 0.97,
        "coverage {coverage} (failures {})",
        stats.failures
    );
    // Partial-progress counters stay coherent even when listings are lost:
    // every crawled or failed detail page is accounted for, page traversal
    // actually happened, and the defensive walls were really paid for.
    assert_eq!(stats.bots, bots.len());
    assert!(
        stats.bots + stats.failures <= 300,
        "can't account for more bots than exist"
    );
    assert!(stats.pages > 0, "page traversal made progress");
    assert_eq!(
        stats.captchas_solved > 0,
        stats.captcha_spend_dollars > 0.0,
        "spend tracks solves"
    );
    assert!(
        stats.duration.as_millis() > 0,
        "virtual wall-clock advanced"
    );
}

#[test]
fn single_attempt_crawler_loses_listings_on_the_same_site() {
    let eco = flaky_world(71);
    let (bots_polite, _) = crawl_listing(&eco.net, &CrawlConfig::default());

    let eco2 = flaky_world(71);
    let (bots_rude, stats_rude) = crawl_listing(
        &eco2.net,
        &CrawlConfig {
            polite: false,
            ..CrawlConfig::default()
        },
    );

    // The impolite config makes single attempts; faults translate directly
    // into lost detail pages (or lost list pages → lost listings).
    assert!(
        bots_rude.len() < bots_polite.len() || stats_rude.failures > 0,
        "polite {} vs rude {} (rude failures {})",
        bots_polite.len(),
        bots_rude.len(),
        stats_rude.failures
    );
}

// ---------------------------------------------------------------------------
// Storage faults: the frame log and pipeline against a crash-prone disk.
// ---------------------------------------------------------------------------

fn small_world(seed: u64) -> synth::Ecosystem {
    build_ecosystem(&EcosystemConfig::test_scale(40, seed))
}

fn small_config() -> AuditConfig {
    let mut config = AuditConfig {
        honeypot_sample: 8,
        ..AuditConfig::default()
    };
    config.workers = 1;
    config.crawl.workers = 1;
    config.honeypot.workers = 1;
    config
}

#[test]
fn torn_appends_lose_only_the_damaged_suffix() {
    // Write through storage that tears and bit-flips appends; reopening on
    // the clean inner backend must recover only frames that were actually
    // written, verbatim and in order — damage never fabricates or reorders.
    let inner = Arc::new(MemBackend::new());
    let faulty: Arc<dyn Backend> = Arc::new(FaultyBackend::new(
        inner.clone(),
        StorageFaultPlan::crashy(),
        0xdead,
    ));
    let (journal, _) = Journal::open(faulty, "frames.wal").unwrap();
    let written: Vec<Frame> = (0..60)
        .map(|i| Frame {
            kind: 0x0100,
            key: i,
            payload: vec![i as u8; 24],
        })
        .collect();
    for f in &written {
        journal.append(f.kind, f.key, f.payload.clone()).unwrap();
    }
    drop(journal);

    let (_, replay) = Journal::open(inner, "frames.wal").unwrap();
    assert!(
        replay.frames.len() < written.len(),
        "crashy plan must actually damage something"
    );
    // Every surviving frame is one that was written, in write order (a
    // zero-byte tear can drop a frame entirely; a partial tear ends replay).
    let mut remaining = written.iter();
    for f in &replay.frames {
        assert!(
            remaining.any(|w| w == f),
            "replayed frame {f:?} was never written"
        );
    }
}

#[test]
fn audit_converges_to_identical_bytes_on_crash_prone_storage() {
    // Crash every 15 writes on a disk that tears ~15% of appends. Durable
    // progress shrinks to the longest valid prefix on every reopen, but the
    // run must still converge to the uninterrupted run's exact bytes.
    let baseline = AuditPipeline::new(small_config())
        .run_resumable(&small_world(2022), &StoreConfig::in_memory(), 2022)
        .expect("clean run completes")
        .report
        .canonical_json();

    let faulty: Arc<dyn Backend> = Arc::new(FaultyBackend::new(
        Arc::new(MemBackend::new()),
        StorageFaultPlan::crashy(),
        9,
    ));
    let mut attempts = 0;
    let (outcome, validated) = loop {
        attempts += 1;
        assert!(
            attempts <= 60,
            "crashy storage kept the run from converging"
        );
        let store = StoreConfig {
            backend: faulty.clone(),
            kill_after_frames: Some(15),
        };
        let pipeline = AuditPipeline::new(small_config());
        match pipeline.run_resumable(&small_world(2022), &store, 2022) {
            Ok(outcome) => break (outcome, pipeline.obs().counter_value("crawl.validated")),
            Err(AuditError::Interrupted { .. }) => continue,
            Err(other) => panic!("unexpected failure: {other}"),
        }
    };
    assert!(attempts > 1, "kill switch must fire at least once");
    assert_eq!(outcome.report.canonical_json(), baseline);
    assert!(
        outcome.store_stats.artifact_hits > 0 && validated > 0,
        "durable progress survived the tears"
    );
}

#[test]
fn short_reads_cost_rework_never_correctness() {
    // Complete a run on clean storage, then rerun through a backend whose
    // every read comes up short: the artifact pack and validator cache
    // both shrink to a valid prefix, and the pipeline silently re-does the
    // difference.
    let inner = Arc::new(MemBackend::new());
    let clean = StoreConfig {
        backend: inner.clone(),
        kill_after_frames: None,
    };
    let full = AuditPipeline::new(small_config())
        .run_resumable(&small_world(7), &clean, 7)
        .expect("clean run completes");
    let guilds = full.report.honeypot.as_ref().unwrap().guilds_created as u64;

    let short = StorageFaultPlan {
        torn_write: 0.0,
        bit_flip: 0.0,
        short_read: 1.0,
    };
    let faulty: Arc<dyn Backend> = Arc::new(FaultyBackend::new(inner, short, 3));
    let store = StoreConfig {
        backend: faulty,
        kill_after_frames: None,
    };
    let pipeline = AuditPipeline::new(small_config());
    let redo = pipeline
        .run_resumable(&small_world(7), &store, 7)
        .expect("short reads must not fail the run");

    assert_eq!(redo.report.canonical_json(), full.report.canonical_json());
    let reused =
        redo.store_stats.artifact_hits + pipeline.obs().counter_value("honeypot.guilds_reused");
    let stored = full.store_stats.artifact_misses + guilds;
    assert!(
        reused < stored,
        "a short read always loses at least the pack's last frame ({reused} vs {stored})",
    );
}

#[test]
fn undecodable_frames_are_recomputed_not_fatal() {
    let config = small_config();
    let clean = AuditPipeline::new(config.clone())
        .run_resumable(&small_world(2022), &StoreConfig::in_memory(), 2022)
        .expect("clean run completes");
    let baseline = clean.report.canonical_json();

    // A run killed once every analysis is written: its crawl committed the
    // validator cache, and its campaign never stored a transcript.
    let backend: Arc<dyn Backend> = Arc::new(MemBackend::new());
    let killed = StoreConfig {
        backend: backend.clone(),
        kill_after_frames: Some(clean.store_stats.artifact_misses),
    };
    AuditPipeline::new(config.clone())
        .run_resumable(&small_world(2022), &killed, 2022)
        .expect_err("kill switch fires");

    // Entries that pass their CRC but not the decoder, as an older build
    // writing under the same identity might have left them: the listing,
    // one bot's validator record and another bot's cached body, all at the
    // epoch the undrifted site serves.
    let garbage = b"\xffnot an entry";
    let identity = validator_identity(&config, 2022, &small_world(2022).lineage);
    let cache = ValidatorCache::open(backend.clone(), identity).unwrap();
    let listing: CachedListing =
        serde_json::from_slice(&cache.get(LISTING_KEY, 0).expect("a cached listing")).unwrap();
    cache.put(LISTING_KEY, garbage, 0).unwrap();
    cache
        .put(&detail_key(&listing.hrefs[0]), garbage, 0)
        .unwrap();
    cache
        .put(&detail_body_key(&listing.hrefs[1]), garbage, 0)
        .unwrap();
    drop(cache);
    // And one guild transcript's address, found among the clean run's
    // referenced keys on a copy of its pack.
    let reference = Arc::new(MemBackend::new());
    let reference_run = StoreConfig {
        backend: reference.clone(),
        kill_after_frames: None,
    };
    let referenced = AuditPipeline::new(config.clone())
        .run_resumable(&small_world(2022), &reference_run, 2022)
        .unwrap()
        .referenced_keys;
    let reference_pack = ArtifactCache::open(reference, PACK_FILE).unwrap();
    let transcript = referenced
        .into_iter()
        .find(|key| {
            reference_pack
                .get(key)
                .is_some_and(|blob| serde_json::from_slice::<GuildSnapshot>(&blob).is_ok())
        })
        .expect("the campaign stored a transcript");
    let pack = ArtifactCache::open(backend.clone(), PACK_FILE).unwrap();
    pack.put(transcript, garbage).unwrap();
    drop(pack);

    let pipeline = AuditPipeline::new(config);
    let rerun = StoreConfig {
        backend,
        kill_after_frames: None,
    };
    let outcome = pipeline
        .run_resumable(&small_world(2022), &rerun, 2022)
        .expect("undecodable entries are recomputed, not fatal");
    assert_eq!(outcome.report.canonical_json(), baseline);
    assert_eq!(
        pipeline.obs().counter_value("store.artifacts.undecodable"),
        1
    );
    // Every analysis the killed run stored is served, and the planted
    // transcript is no guild's: the campaign drives every guild.
    assert_eq!(outcome.store_stats.artifact_misses, 0);
    assert_eq!(pipeline.obs().counter_value("honeypot.guilds_reused"), 0);
}

#[test]
fn flaky_network_and_resume_compose() {
    // The two fault domains together: crash mid-run on a flaky *network*,
    // then rerun against a fresh flaky world. Fault rolls draw from the
    // fabric's shared request stream, so a rerun is NOT expected to match
    // an uninterrupted one — what must hold is that the crash+rerun
    // sequence itself is deterministic: replay the identical schedule on a
    // second backend and the two final reports are byte-equal.
    let crash_and_resume = || {
        let backend: Arc<dyn Backend> = Arc::new(MemBackend::new());
        let killed = StoreConfig {
            backend: backend.clone(),
            kill_after_frames: Some(30),
        };
        AuditPipeline::new(small_config())
            .run_resumable(&flaky_world(71), &killed, 71)
            .expect_err("kill switch fires");
        let resumed = StoreConfig {
            backend,
            kill_after_frames: None,
        };
        let pipeline = AuditPipeline::new(small_config());
        let outcome = pipeline
            .run_resumable(&flaky_world(71), &resumed, 71)
            .expect("resumes through network noise");
        (outcome, pipeline.obs().counter_value("crawl.validated"))
    };
    let (first, validated) = crash_and_resume();
    let (second, _) = crash_and_resume();
    assert_eq!(
        first.report.canonical_json(),
        second.report.canonical_json()
    );
    assert!(
        first.store_stats.artifact_hits >= 30 && validated > 0,
        "durable progress was reused"
    );
}
