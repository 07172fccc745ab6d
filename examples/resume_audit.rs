//! Crash-safe audits: kill a run mid-pipeline, resume it, and verify the
//! resumed report is byte-identical to one that was never interrupted.
//!
//! ```sh
//! cargo run --example resume_audit
//! ```
//!
//! The pipeline journals every completed unit of work (listing traversal,
//! 32-listing crawl chunks, the honeypot campaign) to a write-ahead log,
//! and stores each bot's analysis in a content-addressed artifact pack at
//! the address its crawled bytes hash to. A resumed run replays the
//! journal, serves every analysis already in the pack, and finishes the
//! rest.

use chatbot_audit::{AuditConfig, AuditError, AuditPipeline, StoreConfig};
use std::sync::Arc;
use store::MemBackend;
use synth::{build_ecosystem, EcosystemConfig};

const SEED: u64 = 2022;

fn world() -> synth::Ecosystem {
    build_ecosystem(&EcosystemConfig {
        num_bots: 150,
        seed: SEED,
        ..EcosystemConfig::default()
    })
}

fn config() -> AuditConfig {
    AuditConfig {
        honeypot_sample: 20,
        ..AuditConfig::default()
    }
}

fn main() {
    println!("=== resumable audit walkthrough ===\n");

    // Reference: one uninterrupted run on a throwaway store.
    println!("[1/3] uninterrupted run (reference)");
    let reference = AuditPipeline::new(config())
        .run_resumable(&world(), &StoreConfig::in_memory(), SEED)
        .expect("uninterrupted run completes");
    println!(
        "      {} journal frames written, {} analyses computed\n",
        reference.store_stats.frames_written, reference.store_stats.artifact_misses
    );

    // Crash: same run on a persistent backend, killed after 40 durable
    // writes (journal frames, plus the pack frame each computed analysis
    // writes). (MemBackend keeps this example hermetic; swap in
    // `StoreConfig::on_disk(path)` to survive a real process kill.)
    println!("[2/3] crash: kill switch armed at 40 durable writes");
    let backend = Arc::new(MemBackend::new());
    let killed = StoreConfig {
        backend: backend.clone(),
        resume: false,
        kill_after_frames: Some(40),
    };
    match AuditPipeline::new(config()).run_resumable(&world(), &killed, SEED) {
        Err(AuditError::Interrupted { frames_written }) => {
            println!("      interrupted with {frames_written} durable writes on disk\n");
        }
        other => panic!("expected an interrupt, got {other:?}"),
    }

    // Resume: fresh pipeline, fresh world (a new process would look exactly
    // like this), same backend.
    println!("[3/3] resume from the journal");
    let resumed_store = StoreConfig {
        backend,
        resume: true,
        kill_after_frames: None,
    };
    let resumed = AuditPipeline::new(config())
        .run_resumable(&world(), &resumed_store, SEED)
        .expect("resumed run completes");
    // Analyses computed before the crash are served from the pack.
    println!(
        "      replayed {} frames, served {} analyses from the pack, computed {} fresh",
        resumed.store_stats.frames_replayed,
        resumed.store_stats.artifact_hits,
        resumed.store_stats.artifact_misses,
    );

    let reference_json = reference.report.canonical_json();
    let resumed_json = resumed.report.canonical_json();
    println!(
        "\ncanonical report: {} bytes uninterrupted, {} bytes resumed",
        reference_json.len(),
        resumed_json.len()
    );
    if reference_json == resumed_json {
        println!("VERDICT: byte-identical — the crash cost wall-clock, not correctness");
    } else {
        let diverge = reference_json
            .bytes()
            .zip(resumed_json.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or(reference_json.len().min(resumed_json.len()));
        println!("VERDICT: DIVERGED at byte {diverge} — this is a bug");
        std::process::exit(1);
    }
}
