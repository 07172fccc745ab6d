//! The deterministic-trace regression tier.
//!
//! The obs layer's contract mirrors the canonical-report contract one level
//! deeper: the `JsonRecorder`'s canonical trace — the merged span tree of a
//! whole audit (crawl pages, analysis workers, honeypot guilds) — is
//! byte-identical across worker counts for a given seed. Per-worker spans
//! are unkeyed siblings that merge (numeric fields summed), every other
//! span is keyed by a data-derived index, and nothing scheduling-variant
//! (timestamps, span counts, cache splits) appears in the dump. A future
//! change that leaks worker identity into the trace fails this suite.

use chatbot_audit::{AuditConfig, AuditPipeline};
use obs::{JsonRecorder, Obs};
use std::sync::Arc;
use synth::{build_ecosystem, EcosystemConfig};

const BOTS: usize = 120;

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

/// Run the full pipeline (crawl + analysis + honeypot) with a JsonRecorder
/// fed by the world's virtual clock and return the canonical trace.
fn trace(seed: u64, workers: usize) -> String {
    let eco = build_ecosystem(&EcosystemConfig::test_scale(BOTS, seed));
    let recorder = Arc::new(JsonRecorder::new());
    let obs = Obs::with_recorder(recorder.clone(), Arc::new(eco.net.clock().clone()));
    let pipeline = AuditPipeline::with_obs(config(workers), obs);
    let report = pipeline.run_full(&eco);
    assert_eq!(report.bots.len(), BOTS);
    recorder.canonical_trace()
}

#[test]
fn trace_is_byte_identical_across_worker_counts_for_seed_2022() {
    let serial = trace(2022, 1);
    for name in ["static", "dynamic", "crawl", "analysis", "honeypot"] {
        assert!(
            serial.contains(&format!("\"name\":\"{name}\"")),
            "trace must contain the {name} span"
        );
    }
    assert_eq!(trace(2022, 4), serial, "workers=4 diverged from serial");
}

#[test]
fn trace_is_byte_identical_across_worker_counts_for_seed_7() {
    let serial = trace(7, 1);
    assert_eq!(trace(7, 4), serial, "workers=4 diverged from serial");
}

#[test]
fn different_seeds_produce_different_traces() {
    // The trace carries real measurement content (per-page link counts,
    // per-bot analysis outcomes), so distinct worlds must not collide.
    assert_ne!(trace(2022, 1), trace(7, 1));
}

#[test]
fn resumable_runs_trace_the_same_static_tree_shape() {
    // The journaled pipeline opens the same root spans; its trace is
    // deterministic across worker counts too (unit and bot spans are keyed
    // by index, never by worker).
    let resumable_trace = |workers: usize| {
        let eco = build_ecosystem(&EcosystemConfig::test_scale(BOTS, 2022));
        let recorder = Arc::new(JsonRecorder::new());
        let obs = Obs::with_recorder(recorder.clone(), Arc::new(eco.net.clock().clone()));
        let pipeline = AuditPipeline::with_obs(config(workers), obs);
        pipeline
            .run_resumable(&eco, &chatbot_audit::StoreConfig::in_memory(), 2022)
            .expect("resumable run completes");
        recorder.canonical_trace()
    };
    let serial = resumable_trace(1);
    assert!(serial.contains("\"name\":\"units\""));
    assert_eq!(resumable_trace(4), serial, "workers=4 diverged from serial");
}
