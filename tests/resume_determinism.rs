//! Crash-equivalence of the resumable pipeline.
//!
//! The audit store's contract: a run killed after ANY number of durable
//! writes, or mid-crawl at any frame of its validator cache, then rerun
//! over the same store in a fresh process against a fresh world, produces
//! a canonical report byte-identical to a run that was never interrupted —
//! and a rerun over a complete store fetches no page body and re-analyzes
//! nothing.

use chatbot_audit::{AuditConfig, AuditError, AuditPipeline, StoreConfig};
use std::collections::BTreeMap;
use std::sync::Arc;
use store::{Backend, Frame, MemBackend, PACK_FILE, VALIDATOR_FILE};
use synth::{build_ecosystem, Ecosystem, EcosystemConfig};

const BOTS: usize = 120;

fn world(seed: u64) -> Ecosystem {
    build_ecosystem(&EcosystemConfig::test_scale(BOTS, seed))
}

fn config(workers: usize) -> AuditConfig {
    let mut config = AuditConfig {
        honeypot_sample: 15,
        ..AuditConfig::default()
    };
    config.workers = workers;
    config.crawl.workers = workers;
    config.honeypot.workers = workers;
    config
}

/// One uninterrupted resumable run on a throwaway store.
fn uninterrupted(seed: u64) -> String {
    let eco = world(seed);
    AuditPipeline::new(config(1))
        .run_resumable(&eco, &StoreConfig::in_memory(), seed)
        .expect("uninterrupted run completes")
        .report
        .canonical_json()
}

/// Kill a run after `kill_after` durable writes, then rerun it on the
/// same backend (fresh world = fresh process) and return the final report.
fn crash_and_resume(seed: u64, kill_after: u64, workers: usize) -> String {
    let backend = Arc::new(MemBackend::new());
    let store = StoreConfig {
        backend: backend.clone(),
        kill_after_frames: Some(kill_after),
    };
    let eco = world(seed);
    let err = AuditPipeline::new(config(workers))
        .run_resumable(&eco, &store, seed)
        .expect_err("armed kill switch must fire");
    match err {
        AuditError::Interrupted { frames_written } => assert_eq!(frames_written, kill_after),
        other => panic!("expected interrupt, got {other}"),
    }

    let rerun = StoreConfig {
        backend,
        kill_after_frames: None,
    };
    let eco = world(seed);
    AuditPipeline::new(config(workers))
        .run_resumable(&eco, &rerun, seed)
        .expect("rerun completes")
        .report
        .canonical_json()
}

#[test]
fn resume_is_byte_identical_for_seed_2022() {
    let baseline = uninterrupted(2022);
    // Kill points span the analysis stage — early, middle and late — and
    // land before the campaign once every analysis is written. The crawl's
    // crash points are its validator frames (see below).
    for kill_after in [2, 5, 40, 100, BOTS as u64] {
        assert_eq!(
            crash_and_resume(2022, kill_after, 1),
            baseline,
            "kill after {kill_after} frames diverged"
        );
    }
}

#[test]
fn resume_is_byte_identical_for_seed_7() {
    let baseline = uninterrupted(7);
    for kill_after in [3, 17, 77] {
        assert_eq!(
            crash_and_resume(7, kill_after, 1),
            baseline,
            "kill after {kill_after} frames diverged"
        );
    }
}

#[test]
fn resumable_run_matches_the_plain_pipeline() {
    let eco = world(2022);
    let plain = AuditPipeline::new(config(1))
        .run_full(&eco)
        .canonical_json();
    assert_eq!(
        uninterrupted(2022),
        plain,
        "store plumbing must not change the measurement"
    );
}

#[test]
fn journal_written_parallel_resumes_serial() {
    // The fingerprint excludes every workers knob: a store written by a
    // 4-worker run must serve a single-worker rerun, byte-identically.
    let baseline = uninterrupted(7);
    assert_eq!(
        crash_and_resume(7, 50, 4),
        baseline,
        "cross-worker-count resume diverged"
    );

    let backend = Arc::new(MemBackend::new());
    let eco = world(7);
    let parallel = StoreConfig {
        backend: backend.clone(),
        kill_after_frames: Some(60),
    };
    AuditPipeline::new(config(4))
        .run_resumable(&eco, &parallel, 7)
        .expect_err("killed");
    let eco = world(7);
    let serial = StoreConfig {
        backend,
        kill_after_frames: None,
    };
    let pipeline = AuditPipeline::new(config(1));
    let outcome = pipeline.run_resumable(&eco, &serial, 7).expect("resumes");
    assert_eq!(outcome.report.canonical_json(), baseline);
    // The parallel run's 60 analyses are served from the pack, and every
    // page it crawled answers a 304.
    assert!(outcome.store_stats.artifact_hits >= 60);
    assert_eq!(pipeline.obs().counter_value("crawl.fetched_full"), 0);
}

#[test]
fn crash_storm_converges_to_the_same_bytes() {
    // Crash every 25 writes, over and over, rerunning each time. The run
    // must make monotone progress and finish with identical bytes.
    let baseline = uninterrupted(2022);
    let backend = Arc::new(MemBackend::new());
    let mut attempts = 0;
    let report = loop {
        attempts += 1;
        assert!(attempts <= 40, "crash storm failed to converge");
        let store = StoreConfig {
            backend: backend.clone(),
            kill_after_frames: Some(25),
        };
        let eco = world(2022);
        match AuditPipeline::new(config(1)).run_resumable(&eco, &store, 2022) {
            Ok(outcome) => break outcome.report.canonical_json(),
            Err(AuditError::Interrupted { .. }) => continue,
            Err(other) => panic!("unexpected failure: {other}"),
        }
    };
    assert!(
        attempts > 3,
        "storm must actually crash a few times (got {attempts})"
    );
    assert_eq!(report, baseline);
}

#[test]
fn warm_artifact_pack_skips_every_reanalysis() {
    let backend = Arc::new(MemBackend::new());
    let store = StoreConfig {
        backend: backend.clone(),
        kill_after_frames: None,
    };
    let eco = world(2022);
    let cold = AuditPipeline::new(config(1))
        .run_resumable(&eco, &store, 2022)
        .unwrap();
    assert_eq!(cold.store_stats.artifact_misses as usize, BOTS);
    assert_eq!(cold.store_stats.artifact_hits, 0);

    // Second run over the same backend: the pack and validators are warm.
    let eco = world(2022);
    let pipeline = AuditPipeline::new(config(1));
    let warm = pipeline.run_resumable(&eco, &store, 2022).unwrap();
    assert_eq!(
        warm.store_stats.artifact_hits as usize, BOTS,
        "every analysis served from pack"
    );
    assert_eq!(
        warm.store_stats.artifact_misses, 0,
        "zero re-analyses on a warm pack"
    );
    assert_eq!(
        pipeline.obs().counter_value("crawl.fetched_full"),
        0,
        "a rerun over a complete store fetches no page body"
    );
    assert_eq!(warm.report.canonical_json(), cold.report.canonical_json());
}

/// The key of one validator-cache entry frame (`epoch | key_len | key |
/// value`).
fn entry_key(frame: &Frame) -> &str {
    let len = frame
        .payload
        .get(4..8)
        .map_or(0, |n| u32::from_le_bytes(n.try_into().unwrap()) as usize);
    frame
        .payload
        .get(8..8 + len)
        .and_then(|key| std::str::from_utf8(key).ok())
        .unwrap_or("")
}

#[test]
fn a_crawl_cut_at_any_validator_frame_reruns_to_the_same_bytes() {
    // A process killed mid-crawl leaves a prefix of `validators.wal`, every
    // page it fetched up to the kill. Cut a cold run's file at sampled
    // frame boundaries (every 40th of its 242 frames, the last, and both
    // sides of one bot's detail record) and mid-way through its last
    // frame, and rerun over the cold run's pack: the crawl alone differs.
    const STEP: usize = 40;
    let baseline = uninterrupted(2022);
    let cold = Arc::new(MemBackend::new());
    let store = StoreConfig {
        backend: cold.clone(),
        kill_after_frames: None,
    };
    AuditPipeline::new(config(1))
        .run_resumable(&world(2022), &store, 2022)
        .expect("cold run completes");
    let pack = cold.read(PACK_FILE).unwrap().expect("a pack");
    let wal = cold
        .read(VALIDATOR_FILE)
        .unwrap()
        .expect("a validator cache");
    let frames = store::decode_all(&wal).frames;
    let mut boundaries = vec![0];
    for frame in &frames {
        boundaries.push(boundaries.last().unwrap() + frame.encode().len());
    }
    // A cold serial crawl writes each bot's detail record, then its body.
    let record = frames
        .iter()
        .position(|f| entry_key(f).starts_with("detail:"))
        .expect("a detail record");
    let href = entry_key(&frames[record]).trim_start_matches("detail:");
    assert_eq!(entry_key(&frames[record + 1]), format!("detailbody:{href}"));
    let (without_record, record_only) = (boundaries[record], boundaries[record + 1]);
    let last = frames.len() - 1;
    let torn = boundaries[last] + frames[last].encode().len() / 2;
    let mut cuts: Vec<usize> = boundaries.iter().step_by(STEP).copied().collect();
    cuts.extend([boundaries[last + 1], without_record, record_only, torn]);
    cuts.sort_unstable();
    cuts.dedup();

    let mut spent = BTreeMap::new();
    for workers in [1, 4] {
        for &cut in &cuts {
            let backend = Arc::new(MemBackend::new());
            backend.poke(PACK_FILE, pack.clone());
            backend.poke(VALIDATOR_FILE, wal[..cut].to_vec());
            let rerun = StoreConfig {
                backend,
                kill_after_frames: None,
            };
            let pipeline = AuditPipeline::new(config(workers));
            let outcome = pipeline
                .run_resumable(&world(2022), &rerun, 2022)
                .expect("rerun completes");
            assert_eq!(
                outcome.report.canonical_json(),
                baseline,
                "validators cut at byte {cut}, {workers} workers"
            );
            let obs = pipeline.obs();
            spent.insert(
                (workers, cut),
                (
                    obs.counter_value("crawl.validated"),
                    obs.counter_value("crawl.fetched_full"),
                ),
            );
        }
    }
    // The whole file spares every body; an empty one spares none.
    assert_eq!(spent[&(1, boundaries[last + 1])].1, 0);
    assert_eq!(spent[&(1, 0)].0, 0);
    // A bot whose detail record survived without its body costs one 304
    // more than one that lost both, and is fetched in full all the same.
    let (with, without) = (spent[&(1, record_only)], spent[&(1, without_record)]);
    assert_eq!(with.0, without.0 + 1, "the record's page is revalidated");
    assert_eq!(with.1, without.1, "then fetched in full");
}
