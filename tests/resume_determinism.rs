//! Crash-equivalence of the resumable pipeline.
//!
//! The audit store's contract: a run killed after ANY number of durable
//! frames, then resumed in a fresh process against a fresh world, produces
//! a canonical report byte-identical to a run that was never interrupted —
//! and a fresh run over a warm artifact pack re-analyzes nothing.

use chatbot_audit::{AuditConfig, AuditError, AuditPipeline, StoreConfig};
use std::sync::Arc;
use store::MemBackend;
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

/// Kill a run after `kill_after` durable writes, then resume it on the
/// same backend (fresh world = fresh process) and return the final report.
fn crash_and_resume(seed: u64, kill_after: u64, workers: usize) -> String {
    let backend = Arc::new(MemBackend::new());
    let store = StoreConfig {
        backend: backend.clone(),
        resume: false,
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

    let resumed = StoreConfig {
        backend,
        resume: true,
        kill_after_frames: None,
    };
    let eco = world(seed);
    AuditPipeline::new(config(workers))
        .run_resumable(&eco, &resumed, seed)
        .expect("resumed run completes")
        .report
        .canonical_json()
}

#[test]
fn resume_is_byte_identical_for_seed_2022() {
    let baseline = uninterrupted(2022);
    // Kill points span the stages: mid-crawl-units, mid-analysis, and just
    // before the completion marker.
    for kill_after in [2, 5, 40, 100] {
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
    // The fingerprint excludes every workers knob: a journal written by a
    // 4-worker run must resume under a single-worker run, byte-identically.
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
        resume: false,
        kill_after_frames: Some(60),
    };
    AuditPipeline::new(config(4))
        .run_resumable(&eco, &parallel, 7)
        .expect_err("killed");
    let eco = world(7);
    let serial = StoreConfig {
        backend,
        resume: true,
        kill_after_frames: None,
    };
    let outcome = AuditPipeline::new(config(1))
        .run_resumable(&eco, &serial, 7)
        .expect("resumes");
    assert_eq!(outcome.report.canonical_json(), baseline);
    assert!(outcome.store_stats.frames_replayed + outcome.store_stats.artifact_hits >= 60);
}

#[test]
fn crash_storm_converges_to_the_same_bytes() {
    // Crash every 25 frames, over and over, resuming each time. The run
    // must make monotone progress and finish with identical bytes.
    let baseline = uninterrupted(2022);
    let backend = Arc::new(MemBackend::new());
    let mut attempts = 0;
    let report = loop {
        attempts += 1;
        assert!(attempts <= 40, "crash storm failed to converge");
        let store = StoreConfig {
            backend: backend.clone(),
            resume: attempts > 1,
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
        resume: false,
        kill_after_frames: None,
    };
    let eco = world(2022);
    let cold = AuditPipeline::new(config(1))
        .run_resumable(&eco, &store, 2022)
        .unwrap();
    assert_eq!(cold.store_stats.artifact_misses as usize, BOTS);
    assert_eq!(cold.store_stats.artifact_hits, 0);

    // Second run, fresh journal, same backend: the pack is warm.
    let eco = world(2022);
    let warm = AuditPipeline::new(config(1))
        .run_resumable(&eco, &store, 2022)
        .unwrap();
    assert_eq!(
        warm.store_stats.artifact_hits as usize, BOTS,
        "every analysis served from pack"
    );
    assert_eq!(
        warm.store_stats.artifact_misses, 0,
        "zero re-analyses on a warm pack"
    );
    assert_eq!(
        warm.store_stats.frames_replayed, 0,
        "non-resume run starts a fresh journal"
    );
    assert_eq!(warm.report.canonical_json(), cold.report.canonical_json());
}
