//! Regenerate every table and figure of the paper's evaluation (§4.2).
//!
//! ```text
//! experiments [--scale N] [--seed S] [--honeypot-sample K] [--json PATH]
//!             [--markdown PATH] [--only fig3|table1|table2|table3|honeypot]
//!             [--enforced] [--workers N] [--bench-json PATH]
//!             [--store-dir DIR] [--resume] [--kill-after-frames N]
//!             [--store-bench-json PATH] [--obs-bench-json PATH]
//!             [--sched-bench-json PATH] [--oplog-bench-json PATH]
//! ```
//!
//! Defaults run the full paper-scale population (20,915 listings, 500
//! honeypot bots). Output is paper-vs-measured for every reported number.
//!
//! With `--store-dir` the pipeline runs through the crash-safe audit store:
//! completed work is journaled to `DIR` and analysis outputs land in a
//! content-addressed pack, so `--resume` continues a killed run and a warm
//! pack skips every unchanged analysis. `--kill-after-frames N` arms the
//! deterministic kill switch after N durable writes, journal and pack
//! frames alike (for crash drills); `--store-bench-json` measures cold vs
//! warm vs resumed wall time.

use bench::{render_comparisons, Comparison};
use chatbot_audit::{
    figure3_distribution, render_figure3, render_table1, render_table2, render_table3,
    table1_histogram, table2_traceability, table3_code_analysis, validate_against_truth,
    AuditConfig, AuditError, AuditPipeline, ResumableOutcome, StoreConfig,
};
use obs::{JsonRecorder, MetricValue, Obs};
use std::sync::Arc;
use synth::{build_ecosystem, EcosystemConfig};

struct Args {
    scale: usize,
    seed: u64,
    honeypot_sample: usize,
    json: Option<String>,
    markdown: Option<String>,
    only: Option<String>,
    enforced: bool,
    workers: usize,
    bench_json: Option<String>,
    store_dir: Option<String>,
    resume: bool,
    kill_after_frames: Option<u64>,
    store_bench_json: Option<String>,
    obs_bench_json: Option<String>,
    sched_bench_json: Option<String>,
    oplog_bench_json: Option<String>,
}

/// Parse the command line (without the program name). A missing or
/// unparseable value, or an unknown flag, is an error naming the flag.
fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        scale: 20_915,
        seed: 2022,
        honeypot_sample: 500,
        json: None,
        markdown: None,
        only: None,
        enforced: false,
        workers: 1,
        bench_json: None,
        store_dir: None,
        resume: false,
        kill_after_frames: None,
        store_bench_json: None,
        obs_bench_json: None,
        sched_bench_json: None,
        oplog_bench_json: None,
    };
    let mut argv = argv.iter();
    while let Some(flag) = argv.next() {
        let mut value = || {
            argv.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--scale" => args.scale = number(flag, value()?)?,
            "--seed" => args.seed = number(flag, value()?)?,
            "--honeypot-sample" => args.honeypot_sample = number(flag, value()?)?,
            "--json" => args.json = Some(value()?),
            "--markdown" => args.markdown = Some(value()?),
            "--only" => args.only = Some(value()?),
            "--enforced" => args.enforced = true,
            "--workers" => args.workers = number(flag, value()?)?,
            "--bench-json" => args.bench_json = Some(value()?),
            "--store-dir" => args.store_dir = Some(value()?),
            "--resume" => args.resume = true,
            "--kill-after-frames" => args.kill_after_frames = Some(number(flag, value()?)?),
            "--store-bench-json" => args.store_bench_json = Some(value()?),
            "--obs-bench-json" => args.obs_bench_json = Some(value()?),
            "--sched-bench-json" => args.sched_bench_json = Some(value()?),
            "--oplog-bench-json" => args.oplog_bench_json = Some(value()?),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// `value` of `flag` as a number.
fn number<T: std::str::FromStr>(flag: &str, value: String) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag}: {value:?} is not a valid number"))
}

/// The cores this process may run on, for the bench headers.
fn available_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

fn want(args: &Args, what: &str) -> bool {
    args.only.as_deref().map(|o| o == what).unwrap_or(true)
}

/// An [`AuditConfig`] with every `workers` knob (crawl sessions, analysis
/// pool, honeypot campaigns) set to `workers`.
fn audit_config(honeypot_sample: usize, workers: usize) -> AuditConfig {
    let mut config = AuditConfig {
        honeypot_sample,
        ..AuditConfig::default()
    };
    config.workers = workers;
    config.crawl.workers = workers;
    config.honeypot.workers = workers;
    config
}

/// The `caches:` line, now a view over the pipeline's obs registry
/// instead of hand-threaded stage counters.
fn caches_line(obs: &Obs) -> String {
    let c = |p: &str| obs.counter_value(p);
    format!(
        "caches: link cache {} hits / {} misses | policy memo {} hits / {} misses | \
         kernels: policy automaton {} states, {} passes, {} bytes | \
         code automaton {} states, {} passes, {} bytes | \
         journal {} written / {} replayed | artifact pack {} hits / {} misses",
        c("analysis.link_cache.hits"),
        c("analysis.link_cache.misses"),
        c("analysis.policy_memo.hits"),
        c("analysis.policy_memo.misses"),
        obs.gauge_value("policy.automaton_states"),
        c("policy.scan_passes"),
        c("policy.bytes_scanned"),
        obs.gauge_value("code.automaton_states"),
        c("code.scan_passes"),
        c("code.bytes_scanned"),
        c("store.journal.frames_written"),
        c("store.journal.replayed"),
        c("store.artifacts.hits"),
        c("store.artifacts.misses"),
    )
}

/// The whole obs registry as JSON: counters and gauges flatten to numbers,
/// histograms to `{count, sum, min, max, mean}` summaries.
fn registry_json(obs: &Obs) -> serde_json::Value {
    let mut m = serde_json::Map::new();
    for (path, value) in obs.metrics_snapshot() {
        let v = match value {
            MetricValue::Counter(n) => n.into(),
            MetricValue::Gauge(n) => n.into(),
            MetricValue::Histogram(h) => {
                let mut s = serde_json::Map::new();
                s.insert("count".into(), h.count.into());
                s.insert("sum".into(), h.sum.into());
                s.insert("min".into(), h.min.into());
                s.insert("max".into(), h.max.into());
                s.insert(
                    "mean".into(),
                    serde_json::to_value(h.mean()).expect("serializable"),
                );
                s.into()
            }
        };
        m.insert(path, v);
    }
    m.into()
}

/// Run the full pipeline (crawl + static analysis + honeypot) at each
/// worker count, recording wall time and speedup over the serial run.
/// World construction happens outside the timer — the engine under test
/// is the audit pipeline, not the synthesizer.
fn parallel_bench(args: &Args, path: &str) {
    let cores = available_cores();
    eprintln!(
        "parallel scaling sweep: {} listings, workers 1/2/4/8 on {cores} core{} …",
        args.scale,
        if cores == 1 { "" } else { "s" }
    );
    let mut runs = Vec::new();
    let mut serial_ms = 0.0_f64;
    for workers in [1usize, 2, 4, 8] {
        let eco = build_ecosystem(&EcosystemConfig {
            num_bots: args.scale,
            seed: args.seed,
            ..EcosystemConfig::default()
        });
        let pipeline = AuditPipeline::new(audit_config(args.honeypot_sample, workers));
        let t0 = std::time::Instant::now();
        let (bots, _) = pipeline.run_static_stages(&eco.net);
        let campaign = pipeline.run_honeypot(&eco);
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        if workers == 1 {
            serial_ms = wall_ms;
        }
        let speedup = serial_ms / wall_ms;
        let obs = pipeline.obs();
        println!(
            "workers {workers}: {wall_ms:7.1} ms wall | speedup {speedup:.2}x | \
             link cache {}/{} hit/miss | policy memo {}/{} hit/miss | \
             policy kernel {} passes/{} bytes | code kernel {} passes/{} bytes | \
             {} bots | {} detections",
            obs.counter_value("analysis.link_cache.hits"),
            obs.counter_value("analysis.link_cache.misses"),
            obs.counter_value("analysis.policy_memo.hits"),
            obs.counter_value("analysis.policy_memo.misses"),
            obs.counter_value("policy.scan_passes"),
            obs.counter_value("policy.bytes_scanned"),
            obs.counter_value("code.scan_passes"),
            obs.counter_value("code.bytes_scanned"),
            bots.len(),
            campaign.detections.len(),
        );
        let mut run = serde_json::Map::new();
        run.insert(
            "workers".into(),
            serde_json::to_value(workers).expect("serializable"),
        );
        run.insert(
            "wall_ms".into(),
            serde_json::to_value(wall_ms).expect("serializable"),
        );
        run.insert(
            "speedup_vs_serial".into(),
            serde_json::to_value(speedup).expect("serializable"),
        );
        run.insert(
            "bots".into(),
            serde_json::to_value(bots.len()).expect("serializable"),
        );
        run.insert(
            "detections".into(),
            serde_json::to_value(campaign.detections.len()).expect("serializable"),
        );
        run.insert("metrics".into(), registry_json(obs));
        runs.push(run.into());
    }
    let mut out = serde_json::Map::new();
    out.insert(
        "available_cores".into(),
        serde_json::to_value(cores).expect("serializable"),
    );
    out.insert(
        "scale".into(),
        serde_json::to_value(args.scale).expect("serializable"),
    );
    out.insert(
        "seed".into(),
        serde_json::to_value(args.seed).expect("serializable"),
    );
    out.insert(
        "honeypot_sample".into(),
        serde_json::to_value(args.honeypot_sample).expect("serializable"),
    );
    out.insert("runs".into(), serde_json::Value::Array(runs));
    std::fs::write(
        path,
        serde_json::to_string_pretty(&out).expect("serializable"),
    )
    .expect("write bench json");
    eprintln!("wrote {path}");
}

/// Measure what the audit store buys: a cold run (empty store), a warm run
/// (fresh journal over a warm artifact pack — re-crawl but zero
/// re-analysis and no re-driven honeypot guild), a pure replay (resuming an
/// already-complete journal), and a crash-at-half-writes resume on an
/// emptied store. All five runs must agree byte-for-byte.
fn store_bench(args: &Args, path: &str) {
    let dir = std::env::temp_dir().join(format!("audit-store-bench-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create bench store dir");
    let dir_str = dir.to_string_lossy().to_string();
    eprintln!(
        "incremental-store bench: {} listings, store at {dir_str} …",
        args.scale
    );

    // Each completed run comes back with its `honeypot.guilds_reused`.
    let run = |resume: bool, kill: Option<u64>| -> (f64, Result<(ResumableOutcome, u64), u64>) {
        let eco = build_ecosystem(&EcosystemConfig {
            num_bots: args.scale,
            seed: args.seed,
            ..EcosystemConfig::default()
        });
        let pipeline = AuditPipeline::new(audit_config(args.honeypot_sample, args.workers));
        let mut store = StoreConfig::on_disk(&dir_str).expect("open bench store");
        store.resume = resume;
        store.kill_after_frames = kill;
        let t0 = std::time::Instant::now();
        let outcome = pipeline.run_resumable(&eco, &store, args.seed);
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        let reused = pipeline.obs().counter_value("honeypot.guilds_reused");
        match outcome {
            Ok(o) => (wall_ms, Ok((o, reused))),
            Err(AuditError::Interrupted { frames_written }) => (wall_ms, Err(frames_written)),
            Err(other) => panic!("store bench run failed: {other}"),
        }
    };
    let run_json = |wall_ms: f64,
                    o: &ResumableOutcome,
                    guilds_reused: u64,
                    speedup: Option<f64>|
     -> serde_json::Value {
        let mut m = serde_json::Map::new();
        m.insert(
            "wall_ms".into(),
            serde_json::to_value(wall_ms).expect("serializable"),
        );
        if let Some(s) = speedup {
            m.insert(
                "speedup_vs_cold".into(),
                serde_json::to_value(s).expect("serializable"),
            );
        }
        m.insert("frames_written".into(), o.store_stats.frames_written.into());
        m.insert(
            "frames_replayed".into(),
            o.store_stats.frames_replayed.into(),
        );
        m.insert("artifact_hits".into(), o.store_stats.artifact_hits.into());
        m.insert(
            "artifact_misses".into(),
            o.store_stats.artifact_misses.into(),
        );
        m.insert("honeypot_guilds_reused".into(), guilds_reused.into());
        m.into()
    };

    // Cold: empty store, every analysis computed and packed.
    let (cold_ms, cold) = run(false, None);
    let (cold, cold_reused) = cold.expect("cold run completes");
    let reference = cold.report.canonical_json();
    let guilds = cold
        .report
        .honeypot
        .as_ref()
        .map_or(0, |c| c.guilds_created);

    // Warm: fresh journal over the warm pack. Re-crawls, re-analyzes
    // nothing, and serves every honeypot guild from its stored transcript.
    let (warm_ms, warm) = run(false, None);
    let (warm, warm_reused) = warm.expect("warm run completes");
    assert_eq!(
        warm.store_stats.artifact_misses, 0,
        "warm pack must serve every analysis"
    );
    assert_eq!(
        warm_reused, guilds as u64,
        "warm pack must serve every guild transcript"
    );
    assert_eq!(warm.report.canonical_json(), reference);

    // Replay: resume the complete journal — everything is already durable.
    let (replay_ms, replay) = run(true, None);
    let (replay, replay_reused) = replay.expect("replay run completes");
    assert_eq!(replay.report.canonical_json(), reference);

    // Crash drill: an emptied store killed half-way, then resumed.
    let _ = std::fs::remove_dir_all(&dir);
    let kill_at = (cold.store_stats.frames_written + cold.store_stats.artifact_misses) / 2;
    let (killed_ms, killed) = run(false, Some(kill_at));
    let durable = killed.expect_err("kill switch fires mid-run");
    let (resume_ms, resumed) = run(true, None);
    let (resumed, resumed_reused) = resumed.expect("resumed run completes");
    assert_eq!(
        resumed.report.canonical_json(),
        reference,
        "resume must be byte-identical"
    );
    let stats = resumed.store_stats;
    assert!(stats.artifact_hits > 0, "killed before any analysis");
    assert!(stats.artifact_misses > 0, "killed after every analysis");

    println!(
        "store bench: cold {cold_ms:.1} ms | warm pack {warm_ms:.1} ms ({:.2}x) | \
         replay {replay_ms:.1} ms ({:.2}x) | crash at write {kill_at} ({durable} durable, \
         {killed_ms:.1} ms) + resume {resume_ms:.1} ms",
        cold_ms / warm_ms,
        cold_ms / replay_ms,
    );

    let mut out = serde_json::Map::new();
    out.insert("scale".into(), args.scale.into());
    out.insert("seed".into(), args.seed.into());
    out.insert("honeypot_sample".into(), args.honeypot_sample.into());
    out.insert("workers".into(), args.workers.into());
    out.insert("available_cores".into(), available_cores().into());
    out.insert("byte_identical".into(), true.into());
    out.insert("cold".into(), run_json(cold_ms, &cold, cold_reused, None));
    out.insert(
        "warm_pack".into(),
        run_json(warm_ms, &warm, warm_reused, Some(cold_ms / warm_ms)),
    );
    out.insert(
        "replay_complete_journal".into(),
        run_json(replay_ms, &replay, replay_reused, Some(cold_ms / replay_ms)),
    );
    let mut crash = serde_json::Map::new();
    crash.insert("kill_after_frames".into(), kill_at.into());
    crash.insert("durable_writes".into(), durable.into());
    crash.insert(
        "killed_wall_ms".into(),
        serde_json::to_value(killed_ms).expect("serializable"),
    );
    crash.insert(
        "resume".into(),
        run_json(
            resume_ms,
            &resumed,
            resumed_reused,
            Some(cold_ms / resume_ms),
        ),
    );
    out.insert("crash_and_resume".into(), crash.into());
    std::fs::write(
        path,
        serde_json::to_string_pretty(&out).expect("serializable"),
    )
    .expect("write store bench json");
    eprintln!("wrote {path}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Measure the observability tax on the end-to-end audit path (crawl +
/// analysis + honeypot): interleaved rounds with the `NullRecorder`
/// (tracing disabled — the default) and the `JsonRecorder` (full span
/// capture), plus a microbench of the exact operations the disabled path
/// adds over no instrumentation at all, scaled by a real run's span count.
fn obs_bench(args: &Args, path: &str) {
    const ROUNDS: usize = 5;
    eprintln!(
        "observability bench: {} listings, {ROUNDS} interleaved rounds per recorder …",
        args.scale
    );

    let run = |mk_obs: &dyn Fn(&synth::Ecosystem) -> Obs| -> f64 {
        let eco = build_ecosystem(&EcosystemConfig {
            num_bots: args.scale,
            seed: args.seed,
            ..EcosystemConfig::default()
        });
        let obs = mk_obs(&eco);
        let pipeline =
            AuditPipeline::with_obs(audit_config(args.honeypot_sample, args.workers), obs);
        let t0 = std::time::Instant::now();
        let (bots, _) = pipeline.run_static_stages(&eco.net);
        let campaign = pipeline.run_honeypot(&eco);
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        assert_eq!(bots.len(), args.scale);
        assert_eq!(campaign.bots_tested, args.honeypot_sample);
        wall_ms
    };
    let median = |xs: &[f64]| -> f64 {
        let mut s = xs.to_vec();
        s.sort_by(f64::total_cmp);
        s[s.len() / 2]
    };

    // Interleave the two recorders so machine drift hits both equally.
    let mut null_ms = Vec::new();
    let mut json_ms = Vec::new();
    let mut spans_per_run = 0usize;
    let mut trace_bytes = 0usize;
    for _ in 0..ROUNDS {
        null_ms.push(run(&|_| Obs::disabled()));
        let recorder = Arc::new(JsonRecorder::new());
        let rec = recorder.clone();
        json_ms.push(run(&move |eco: &synth::Ecosystem| {
            Obs::with_recorder(rec.clone(), Arc::new(eco.net.clock().clone()))
        }));
        spans_per_run = recorder.span_count();
        trace_bytes = recorder.canonical_trace().len();
    }
    let (null_median, json_median) = (median(&null_ms), median(&json_ms));
    let json_overhead_pct = (json_median - null_median) / null_median * 100.0;

    // What the NullRecorder path adds over no instrumentation at all: a
    // tracing check that returns a disabled span (plus a field record that
    // hits the `None` arm) and relaxed-atomic registry updates. Time those
    // directly and scale by the span count a traced run actually opens.
    let disabled = Obs::disabled();
    let iters = 1_000_000u64;
    let t0 = std::time::Instant::now();
    for i in 0..iters {
        let span = disabled.span_keyed("bench", i);
        span.record("x", i);
    }
    let span_ns = t0.elapsed().as_secs_f64() * 1e9 / iters as f64;
    let counter = disabled.counter("bench.counter");
    let t0 = std::time::Instant::now();
    for _ in 0..iters {
        counter.add(1);
    }
    let counter_ns = t0.elapsed().as_secs_f64() * 1e9 / iters as f64;
    // Generous op budget: every span a traced run opens, plus as many
    // metric updates again.
    let assumed_ops = (spans_per_run * 2) as f64;
    let estimated_pct = assumed_ops * (span_ns + counter_ns) / 1e6 / null_median * 100.0;

    println!(
        "obs bench: null {null_median:.1} ms | json {json_median:.1} ms \
         ({json_overhead_pct:+.2}% tracing) | disabled span {span_ns:.1} ns, counter add \
         {counter_ns:.1} ns → NullRecorder ≈{estimated_pct:.3}% of the audit path \
         ({spans_per_run} spans/run, trace {trace_bytes} bytes)"
    );

    let mut out = serde_json::Map::new();
    out.insert("scale".into(), args.scale.into());
    out.insert("seed".into(), args.seed.into());
    out.insert("honeypot_sample".into(), args.honeypot_sample.into());
    out.insert("workers".into(), args.workers.into());
    out.insert("available_cores".into(), available_cores().into());
    out.insert("rounds_each".into(), ROUNDS.into());
    let side = |runs: &[f64], med: f64| -> serde_json::Map {
        let mut m = serde_json::Map::new();
        m.insert(
            "runs_ms".into(),
            serde_json::to_value(runs).expect("serializable"),
        );
        m.insert(
            "median_ms".into(),
            serde_json::to_value(med).expect("serializable"),
        );
        m
    };
    out.insert("null_recorder".into(), side(&null_ms, null_median).into());
    let mut json_side = side(&json_ms, json_median);
    json_side.insert("spans_per_run".into(), spans_per_run.into());
    json_side.insert("trace_bytes".into(), trace_bytes.into());
    out.insert("json_recorder".into(), json_side.into());
    out.insert(
        "json_tracing_overhead_pct".into(),
        serde_json::to_value(json_overhead_pct).expect("serializable"),
    );
    let mut null_overhead = serde_json::Map::new();
    null_overhead.insert(
        "disabled_span_open_record_close_ns".into(),
        serde_json::to_value(span_ns).expect("serializable"),
    );
    null_overhead.insert(
        "counter_add_ns".into(),
        serde_json::to_value(counter_ns).expect("serializable"),
    );
    null_overhead.insert(
        "assumed_ops_per_run".into(),
        serde_json::to_value(assumed_ops).expect("serializable"),
    );
    null_overhead.insert(
        "estimated_overhead_pct".into(),
        serde_json::to_value(estimated_pct).expect("serializable"),
    );
    out.insert("null_recorder_overhead".into(), null_overhead.into());
    std::fs::write(
        path,
        serde_json::to_string_pretty(&out).expect("serializable"),
    )
    .expect("write obs bench json");
    eprintln!("wrote {path}");
}

/// Measure the fleet scheduler: multi-tenant throughput at 1/2/4/8 workers
/// (every worker count must produce byte-identical reports) and what the
/// incremental re-audit path buys over a cold audit of a drifted epoch.
fn sched_bench(args: &Args, path: &str) {
    use chatbot_audit::{
        platform_breakdown, Audit, FleetDaemon, FleetDaemonConfig, JobOutcome, PlatformKind,
    };
    use obs::Clock as _;
    use sched::JobSpec;

    const TENANTS: usize = 6;
    eprintln!(
        "fleet scheduler bench: {TENANTS} tenants × {} listings, workers 1/2/4/8 …",
        args.scale
    );
    let job = |epoch: u32| {
        Audit::builder()
            .scale(args.scale)
            .seed(args.seed)
            .honeypot_sample(args.honeypot_sample)
            .drift(synth::DriftConfig::default())
            .epoch(epoch)
            .into_job()
            .expect("valid fleet job")
    };
    let dump = |outcomes: &[chatbot_audit::JobOutcome]| -> String {
        outcomes
            .iter()
            .map(|o| {
                serde_json::to_string(o.report.as_ref().expect("fleet job completes"))
                    .expect("report serializes")
            })
            .collect::<Vec<_>>()
            .join("\n")
    };
    // Step the daemon loop a tick at a time until nothing is queued, then
    // take every settled outcome.
    let settle = |daemon: &FleetDaemon| -> Vec<JobOutcome> {
        while daemon.queued() > 0 {
            daemon.run_until(daemon.clock().now_millis() + daemon.config().tick_ms);
        }
        daemon.poll_outcomes()
    };

    let mut runs = Vec::new();
    let mut reference = String::new();
    let mut serial_ms = 0.0_f64;
    for workers in [1usize, 2, 4, 8] {
        let daemon = FleetDaemon::new(FleetDaemonConfig {
            workers,
            ..FleetDaemonConfig::default()
        });
        for t in 0..TENANTS {
            daemon
                .submit(JobSpec::new(format!("tenant-{t}")), job(0))
                .expect("queue has room");
        }
        let t0 = std::time::Instant::now();
        let outcomes = settle(&daemon);
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        let this = dump(&outcomes);
        if workers == 1 {
            serial_ms = wall_ms;
            reference = this;
        } else {
            assert_eq!(this, reference, "workers={workers} reports diverged");
        }
        let speedup = serial_ms / wall_ms;
        let throughput = TENANTS as f64 / (wall_ms / 1e3);
        println!(
            "sched workers {workers}: {wall_ms:7.1} ms wall | {throughput:6.2} audits/s | \
             speedup {speedup:.2}x | byte-identical"
        );
        let mut run = serde_json::Map::new();
        run.insert("workers".into(), workers.into());
        run.insert(
            "wall_ms".into(),
            serde_json::to_value(wall_ms).expect("serializable"),
        );
        run.insert(
            "audits_per_sec".into(),
            serde_json::to_value(throughput).expect("serializable"),
        );
        run.insert(
            "speedup_vs_serial".into(),
            serde_json::to_value(speedup).expect("serializable"),
        );
        runs.push(run.into());
    }

    // Incremental vs cold re-audit of a drifted epoch, single tenant.
    // Interleaved rounds with medians, as in the obs bench, so machine
    // drift hits both sides equally.
    //
    // Drift cadence: the multi-tenant runs above drift at the default
    // month-scale rates. A fleet on a weekly re-audit cadence sees about
    // a quarter of that churn per pass, so the incremental scenario
    // divides the default rates by 4 (the exact rates land in the JSON —
    // the speedup is only meaningful relative to them, since every
    // changed bot costs a full fetch no matter how good the cache is).
    const CADENCE_DIV: f64 = 4.0;
    let reaudit_drift = {
        let d = synth::DriftConfig::default();
        synth::DriftConfig {
            permission_creep: d.permission_creep / CADENCE_DIV,
            policy_churn: d.policy_churn / CADENCE_DIV,
            github_churn: d.github_churn / CADENCE_DIV,
            behavior_churn: d.behavior_churn / CADENCE_DIV,
        }
    };
    const ROUNDS: usize = 3;
    let median = |xs: &mut Vec<f64>| -> f64 {
        xs.sort_by(f64::total_cmp);
        xs[xs.len() / 2]
    };
    let mut warm_rounds = Vec::new();
    let mut cold_rounds = Vec::new();
    let mut warm = None;
    let mut cold = None;
    // Crawl-side counters for the warm epoch-1 run alone (epoch 0's cold
    // crawl is subtracted out): 304 round-trips, full fetches, bytes the
    // validators kept off the wire.
    let mut validations = 0u64;
    let mut full_fetches = 0u64;
    let mut bytes_saved = 0u64;
    let mut guilds_reused = 0u64;
    let inc_job = |epoch: u32| {
        Audit::builder()
            .scale(args.scale)
            .seed(args.seed)
            .honeypot_sample(args.honeypot_sample)
            .drift(reaudit_drift.clone())
            .epoch(epoch)
            .into_job()
            .expect("valid fleet job")
    };
    let instrumented_job = |epoch: u32, obs: &obs::Obs| {
        Audit::builder()
            .scale(args.scale)
            .seed(args.seed)
            .honeypot_sample(args.honeypot_sample)
            .drift(reaudit_drift.clone())
            .epoch(epoch)
            .obs(obs.clone())
            .into_job()
            .expect("valid fleet job")
    };
    for _ in 0..ROUNDS {
        let obs = obs::Obs::disabled();
        let daemon = FleetDaemon::new(FleetDaemonConfig::default());
        daemon
            .submit(JobSpec::new("longitudinal"), inc_job(0))
            .expect("submit epoch 0");
        settle(&daemon);
        let at_epoch0 = |path: &str| obs.counter_value(path);
        let base = [
            at_epoch0("crawl.validated"),
            at_epoch0("crawl.fetched_full"),
            at_epoch0("crawl.bytes_saved"),
            at_epoch0("honeypot.guilds_reused"),
        ];
        daemon
            .submit(JobSpec::new("longitudinal"), instrumented_job(1, &obs))
            .expect("submit warm epoch 1");
        let t0 = std::time::Instant::now();
        warm = Some(settle(&daemon).remove(0));
        warm_rounds.push(t0.elapsed().as_secs_f64() * 1e3);
        validations = obs.counter_value("crawl.validated") - base[0];
        full_fetches = obs.counter_value("crawl.fetched_full") - base[1];
        bytes_saved = obs.counter_value("crawl.bytes_saved") - base[2];
        guilds_reused = obs.counter_value("honeypot.guilds_reused") - base[3];

        let fresh = FleetDaemon::new(FleetDaemonConfig::default());
        fresh
            .submit(JobSpec::new("cold"), inc_job(1))
            .expect("submit cold epoch 1");
        let t0 = std::time::Instant::now();
        cold = Some(settle(&fresh).remove(0));
        cold_rounds.push(t0.elapsed().as_secs_f64() * 1e3);
    }
    let (warm, cold) = (
        warm.expect("warm rounds ran"),
        cold.expect("cold rounds ran"),
    );
    let warm_ms = median(&mut warm_rounds);
    let cold_ms = median(&mut cold_rounds);

    let warm_report =
        serde_json::to_string(warm.report.as_ref().expect("warm run completes")).unwrap();
    let cold_report =
        serde_json::to_string(cold.report.as_ref().expect("cold run completes")).unwrap();
    assert_eq!(
        warm_report, cold_report,
        "incremental re-audit diverged from cold"
    );
    let speedup = cold_ms / warm_ms;
    println!(
        "incremental re-audit: cold epoch-1 {cold_ms:.1} ms | warm {warm_ms:.1} ms \
         ({speedup:.2}x) | pack {} hits / {} misses | {}",
        warm.artifact_hits,
        warm.artifact_misses,
        warm.delta.as_ref().map(|d| d.summary()).unwrap_or_default(),
    );
    println!(
        "  warm crawl: {validations} pages 304'd | {full_fetches} full fetches | \
         {bytes_saved} bytes saved | {guilds_reused} honeypot guilds replayed"
    );

    // Heterogeneous fleet: alternate Discord and Telegram tenants through
    // the same daemon. The scheduler must not care which substrate a job
    // mounts — reports stay byte-identical at any worker count and the
    // per-platform breakdown accounts for every tenant.
    eprintln!("mixed-platform fleet: {TENANTS} tenants (alternating discord/telegram) …");
    let mixed_job = |kind: PlatformKind| {
        Audit::builder()
            .platform(kind)
            .scale(args.scale)
            .seed(args.seed)
            .honeypot_sample(args.honeypot_sample)
            .into_job()
            .expect("valid mixed fleet job")
    };
    let mut mixed_runs = Vec::new();
    let mut mixed_reference = String::new();
    let mut mixed_serial_ms = 0.0_f64;
    let mut breakdown_json = serde_json::Value::Null;
    for workers in [1usize, 4] {
        let daemon = FleetDaemon::new(FleetDaemonConfig {
            workers,
            ..FleetDaemonConfig::default()
        });
        for t in 0..TENANTS {
            let kind = if t % 2 == 0 {
                PlatformKind::Discord
            } else {
                PlatformKind::Telegram
            };
            daemon
                .submit(JobSpec::new(format!("mixed-{t}")), mixed_job(kind))
                .expect("queue has room");
        }
        let t0 = std::time::Instant::now();
        let outcomes = settle(&daemon);
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        let this = dump(&outcomes);
        if workers == 1 {
            mixed_serial_ms = wall_ms;
            mixed_reference = this;
            breakdown_json =
                serde_json::to_value(platform_breakdown(&outcomes)).expect("serializable");
        } else {
            assert_eq!(
                this, mixed_reference,
                "mixed fleet workers={workers} reports diverged"
            );
        }
        println!(
            "mixed fleet workers {workers}: {wall_ms:7.1} ms wall | \
             speedup {:.2}x | byte-identical",
            mixed_serial_ms / wall_ms
        );
        let mut run = serde_json::Map::new();
        run.insert("workers".into(), workers.into());
        run.insert(
            "wall_ms".into(),
            serde_json::to_value(wall_ms).expect("serializable"),
        );
        run.insert(
            "speedup_vs_serial".into(),
            serde_json::to_value(mixed_serial_ms / wall_ms).expect("serializable"),
        );
        mixed_runs.push(run.into());
    }

    // Adversarial load: the always-on daemon under a hostile arrival
    // plan — a flooding batch tenant, two equal-weight steady tenants,
    // interactive preemption pokes, and just-missable deadlines riding
    // the flooder's own backlog. This section proves the daemon's three
    // claims with numbers: the deficit-round-robin service gap stays
    // within quantum × weight, every missed deadline surfaces as a typed
    // DeadlineExpired outcome whose count matches the `sched.expired`
    // counter, and cooperative preemption keeps interactive latency at
    // tick granularity while the flooder's sliced batch jobs wait out
    // their own backlog. Everything runs on the virtual clock and must
    // be byte-identical at 1 vs 4 workers.
    use chatbot_audit::ErrorKind;
    use netsim::VirtualClock;
    use std::sync::Arc;

    const ADV_SCALE: usize = 40;
    const ADV_QUANTUM: u32 = 1;
    const ADV_SLICE_FRAMES: u64 = 6;
    const ADV_TICK_MS: u64 = 10;
    let plan_config = synth::ArrivalConfig::default();
    let plan = synth::adversarial_arrivals(&plan_config);
    eprintln!(
        "adversarial load: {} arrivals over {} virtual ms \
         (flood burst {}, {} steady tenants, {} ms deadline slack) …",
        plan.len(),
        u64::from(plan_config.rounds) * plan_config.round_ms,
        plan_config.flood_burst,
        plan_config.steady_tenants,
        plan_config.deadline_slack_ms,
    );
    let adv_job = |epoch: u32| {
        Audit::builder()
            .scale(ADV_SCALE)
            .seed(args.seed)
            .honeypot_sample(5)
            .site_defenses(false)
            .drift(synth::DriftConfig::default())
            .epoch(epoch)
            .into_job()
            .expect("valid adversarial job")
    };
    struct AdvRun {
        dump: String,
        wall_ms: f64,
        completed: u64,
        expired: u64,
        expired_counter: u64,
        parked: u64,
        max_gap: u64,
        interactive_waits: Vec<u64>,
        flood_waits: Vec<u64>,
        horizon_ms: u64,
    }
    let adv_run = |workers: usize| -> AdvRun {
        let daemon = FleetDaemon::with_obs(
            FleetDaemonConfig {
                workers,
                quantum: ADV_QUANTUM,
                batch_slice_frames: Some(ADV_SLICE_FRAMES),
                tick_ms: ADV_TICK_MS,
                ..FleetDaemonConfig::default()
            },
            Arc::new(store::MemBackend::new()),
            VirtualClock::new(),
            obs::Obs::disabled(),
        );
        let t0 = std::time::Instant::now();
        for arrival in &plan {
            daemon.run_until(arrival.at_ms);
            let mut spec = JobSpec::builder(arrival.tenant.as_str())
                .lane_named(arrival.lane)
                .weight(arrival.weight);
            if let Some(deadline) = arrival.deadline_ms {
                spec = spec.deadline_ms(deadline);
            }
            daemon
                .submit(
                    spec.build().expect("plan specs validate"),
                    adv_job(arrival.epoch),
                )
                .expect("plan fits the queue");
        }
        let horizon_ms = plan.last().expect("plan is non-empty").at_ms + 8_000;
        daemon.run_until(horizon_ms);
        assert_eq!(daemon.queued(), 0, "adversarial backlog must drain");
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;

        let mut run = AdvRun {
            dump: String::new(),
            wall_ms,
            completed: 0,
            expired: 0,
            expired_counter: daemon.obs().counter_value("sched.expired"),
            parked: daemon.obs().counter_value("sched.parked"),
            max_gap: daemon.fairness_gap(),
            interactive_waits: Vec::new(),
            flood_waits: Vec::new(),
            horizon_ms,
        };
        for outcome in daemon.poll_outcomes() {
            run.dump.push_str(&format!(
                "id={} tenant={} epoch={} wait={} ",
                outcome.id, outcome.tenant, outcome.epoch, outcome.wait_ms,
            ));
            match &outcome.report {
                Ok(report) => {
                    run.completed += 1;
                    if outcome.tenant == "oncall" {
                        run.interactive_waits.push(outcome.wait_ms);
                    } else if outcome.tenant == "flood" {
                        run.flood_waits.push(outcome.wait_ms);
                    }
                    run.dump
                        .push_str(&serde_json::to_string(report).expect("report serializes"));
                }
                Err(e) => {
                    if e.kind() == ErrorKind::Expired {
                        run.expired += 1;
                    }
                    run.dump.push_str(&format!("error[{}]: {e}", e.kind()));
                }
            }
            run.dump.push('\n');
        }
        run
    };
    let adv_serial = adv_run(1);
    let adv_quad = adv_run(4);
    assert_eq!(
        adv_quad.dump, adv_serial.dump,
        "adversarial outcomes diverged at workers=4"
    );
    assert!(
        adv_serial.expired >= 1,
        "the plan's just-missable deadlines must expire behind the flood"
    );
    assert_eq!(
        adv_serial.expired, adv_serial.expired_counter,
        "typed DeadlineExpired outcomes must match the sched.expired counter"
    );
    assert!(
        adv_serial.parked >= 1,
        "the flooder's sliced batch audits must park at least once"
    );
    // Every plan tenant carries weight 1, so the bound is the quantum.
    let drr_bound = u64::from(ADV_QUANTUM);
    assert!(
        adv_serial.max_gap <= drr_bound,
        "equal-weight service gap {} broke the DRR bound {drr_bound}",
        adv_serial.max_gap
    );
    let mean = |xs: &[u64]| {
        if xs.is_empty() {
            0.0
        } else {
            xs.iter().sum::<u64>() as f64 / xs.len() as f64
        }
    };
    println!(
        "adversarial load: {} jobs | {} completed, {} expired (== sched.expired) | \
         {} preemptions | DRR gap {} <= bound {drr_bound} | byte-identical 1 vs 4 workers",
        plan.len(),
        adv_serial.completed,
        adv_serial.expired,
        adv_serial.parked,
        adv_serial.max_gap,
    );
    println!(
        "  preemption latency (virtual ms): interactive max {} / mean {:.1} vs \
         flooded batch mean {:.1}",
        adv_serial
            .interactive_waits
            .iter()
            .max()
            .copied()
            .unwrap_or(0),
        mean(&adv_serial.interactive_waits),
        mean(&adv_serial.flood_waits),
    );

    // Long horizon: one tenant through 16 epochs of one daemon at the
    // default drift, over a backend that counts the bytes each epoch reads
    // back. The daemon holds the tenant's pack and validator cache open,
    // so from epoch 1 on no epoch may read either file.
    const HORIZON_EPOCHS: u32 = 16;
    eprintln!("long horizon: 1 tenant × {HORIZON_EPOCHS} epochs …");
    let counting = Arc::new(bench::CountingBackend::default());
    let daemon = FleetDaemon::with_backend(FleetDaemonConfig::default(), counting.clone());
    let mut horizon = Vec::new();
    // (wall ms, bytes read, validators.wal bytes) per epoch.
    let mut summary = Vec::new();
    for epoch in 0..HORIZON_EPOCHS {
        let t0 = std::time::Instant::now();
        daemon
            .submit(JobSpec::new("horizon"), job(epoch))
            .expect("submit horizon epoch");
        let outcome = settle(&daemon).remove(0);
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        assert!(outcome.report.is_ok(), "horizon epoch {epoch} failed");
        let reads = counting.take_read_bytes();
        let read_of = |file: &str| reads.get(&format!("horizon/{file}")).copied();
        let pack_read = read_of(store::PACK_FILE).unwrap_or(0);
        let validator_read = read_of(store::VALIDATOR_FILE).unwrap_or(0);
        assert!(
            epoch == 0 || pack_read + validator_read == 0,
            "warm epoch {epoch} read {pack_read} pack and {validator_read} validator bytes"
        );
        let mut row = serde_json::Map::new();
        row.insert("epoch".into(), epoch.into());
        row.insert(
            "wall_ms".into(),
            serde_json::to_value(wall_ms).expect("serializable"),
        );
        let read_bytes: u64 = reads.values().sum();
        row.insert("read_bytes".into(), read_bytes.into());
        row.insert("pack_read_bytes".into(), pack_read.into());
        row.insert("validator_read_bytes".into(), validator_read.into());
        row.insert("artifact_hits".into(), outcome.artifact_hits.into());
        row.insert("artifact_misses".into(), outcome.artifact_misses.into());
        let pack_bytes = counting.file_bytes(&format!("horizon/{}", store::PACK_FILE));
        let validator_bytes = counting.file_bytes(&format!("horizon/{}", store::VALIDATOR_FILE));
        row.insert("pack_bytes".into(), pack_bytes.into());
        row.insert("validator_bytes".into(), validator_bytes.into());
        horizon.push(row);
        summary.push((wall_ms, read_bytes, validator_bytes));
    }
    let (first, last) = (summary[1], summary[summary.len() - 1]);
    println!(
        "long horizon: {HORIZON_EPOCHS} epochs | warm wall epoch 1 {:.1} ms, epoch {} {:.1} ms | \
         max bytes read by a warm epoch {} | validators.wal {} bytes at the end",
        first.0,
        HORIZON_EPOCHS - 1,
        last.0,
        summary[1..].iter().map(|epoch| epoch.1).max().unwrap_or(0),
        last.2,
    );

    let cores = available_cores();
    let mut out = serde_json::Map::new();
    out.insert("scale".into(), args.scale.into());
    out.insert("seed".into(), args.seed.into());
    out.insert("honeypot_sample".into(), args.honeypot_sample.into());
    out.insert("tenants".into(), TENANTS.into());
    out.insert("available_cores".into(), cores.into());
    out.insert("byte_identical".into(), true.into());
    out.insert("runs".into(), serde_json::Value::Array(runs));
    let mut inc = serde_json::Map::new();
    inc.insert(
        "cold_epoch1_ms".into(),
        serde_json::to_value(cold_ms).expect("serializable"),
    );
    inc.insert(
        "incremental_ms".into(),
        serde_json::to_value(warm_ms).expect("serializable"),
    );
    inc.insert(
        "speedup".into(),
        serde_json::to_value(speedup).expect("serializable"),
    );
    inc.insert("artifact_hits".into(), warm.artifact_hits.into());
    inc.insert("artifact_misses".into(), warm.artifact_misses.into());
    inc.insert("validation_roundtrips".into(), validations.into());
    inc.insert("full_fetches".into(), full_fetches.into());
    inc.insert("bytes_saved".into(), bytes_saved.into());
    inc.insert("honeypot_guilds_reused".into(), guilds_reused.into());
    let mut drift = serde_json::Map::new();
    drift.insert(
        "permission_creep".into(),
        serde_json::to_value(reaudit_drift.permission_creep).expect("serializable"),
    );
    drift.insert(
        "policy_churn".into(),
        serde_json::to_value(reaudit_drift.policy_churn).expect("serializable"),
    );
    drift.insert(
        "github_churn".into(),
        serde_json::to_value(reaudit_drift.github_churn).expect("serializable"),
    );
    drift.insert(
        "behavior_churn".into(),
        serde_json::to_value(reaudit_drift.behavior_churn).expect("serializable"),
    );
    inc.insert("drift".into(), drift.into());
    if let Some(delta) = &warm.delta {
        inc.insert(
            "delta".into(),
            serde_json::to_value(delta).expect("serializable"),
        );
    }
    out.insert("incremental_reaudit".into(), inc.into());
    let mut mixed = serde_json::Map::new();
    mixed.insert("tenants".into(), TENANTS.into());
    mixed.insert(
        "platforms".into(),
        serde_json::Value::Array(vec!["discord".into(), "telegram".into()]),
    );
    mixed.insert("byte_identical".into(), true.into());
    mixed.insert("runs".into(), serde_json::Value::Array(mixed_runs));
    mixed.insert("platform_breakdown".into(), breakdown_json);
    out.insert("mixed_platform_fleet".into(), mixed.into());
    let mut adv = serde_json::Map::new();
    adv.insert("scale".into(), ADV_SCALE.into());
    adv.insert("seed".into(), args.seed.into());
    let mut adv_plan = serde_json::Map::new();
    adv_plan.insert("rounds".into(), plan_config.rounds.into());
    adv_plan.insert("round_ms".into(), plan_config.round_ms.into());
    adv_plan.insert("flood_burst".into(), plan_config.flood_burst.into());
    adv_plan.insert("steady_tenants".into(), plan_config.steady_tenants.into());
    adv_plan.insert(
        "deadline_slack_ms".into(),
        plan_config.deadline_slack_ms.into(),
    );
    adv_plan.insert("jobs_submitted".into(), plan.len().into());
    adv.insert("plan".into(), adv_plan.into());
    adv.insert("quantum".into(), ADV_QUANTUM.into());
    adv.insert("batch_slice_frames".into(), ADV_SLICE_FRAMES.into());
    adv.insert("tick_ms".into(), ADV_TICK_MS.into());
    adv.insert("virtual_horizon_ms".into(), adv_serial.horizon_ms.into());
    adv.insert("completed".into(), adv_serial.completed.into());
    adv.insert("expired_typed_outcomes".into(), adv_serial.expired.into());
    adv.insert(
        "sched_expired_counter".into(),
        adv_serial.expired_counter.into(),
    );
    adv.insert("preemptions_sched_parked".into(), adv_serial.parked.into());
    let mut drr = serde_json::Map::new();
    drr.insert("bound_quantum_x_weight".into(), drr_bound.into());
    drr.insert("max_service_gap".into(), adv_serial.max_gap.into());
    drr.insert("within_bound".into(), true.into());
    adv.insert("drr".into(), drr.into());
    let mut lat = serde_json::Map::new();
    lat.insert(
        "interactive_max_wait_virtual_ms".into(),
        adv_serial
            .interactive_waits
            .iter()
            .max()
            .copied()
            .unwrap_or(0)
            .into(),
    );
    lat.insert(
        "interactive_mean_wait_virtual_ms".into(),
        serde_json::to_value(mean(&adv_serial.interactive_waits)).expect("serializable"),
    );
    lat.insert(
        "flood_batch_mean_wait_virtual_ms".into(),
        serde_json::to_value(mean(&adv_serial.flood_waits)).expect("serializable"),
    );
    adv.insert("preemption_latency".into(), lat.into());
    adv.insert("byte_identical_workers_1_vs_4".into(), true.into());
    adv.insert(
        "runs".into(),
        serde_json::Value::Array(
            [(1usize, adv_serial.wall_ms), (4, adv_quad.wall_ms)]
                .iter()
                .map(|(workers, wall_ms)| {
                    let mut run = serde_json::Map::new();
                    run.insert("workers".into(), (*workers).into());
                    run.insert(
                        "wall_ms".into(),
                        serde_json::to_value(wall_ms).expect("serializable"),
                    );
                    run.into()
                })
                .collect(),
        ),
    );
    out.insert("adversarial_load".into(), adv.into());
    let mut long = serde_json::Map::new();
    long.insert("tenants".into(), 1.into());
    long.insert("epochs".into(), HORIZON_EPOCHS.into());
    long.insert("drift".into(), "default".into());
    long.insert(
        "warm_epochs_read_no_pack_or_validator_bytes".into(),
        true.into(),
    );
    long.insert(
        "per_epoch".into(),
        serde_json::Value::Array(horizon.into_iter().map(Into::into).collect()),
    );
    out.insert("long_horizon".into(), long.into());
    std::fs::write(
        path,
        serde_json::to_string_pretty(&out).expect("serializable"),
    )
    .expect("write sched bench json");
    eprintln!("wrote {path}");
}

/// Measure the longitudinal oplog: what a materialized trend query costs
/// versus replaying the fleet's audits, how many bytes generational pack
/// compaction reclaims, and that resumes stay byte-identical across a
/// compaction.
fn oplog_bench(args: &Args, path: &str) {
    use chatbot_audit::{Audit, FleetDaemon, FleetDaemonConfig, PlatformKind};
    use netsim::VirtualClock;
    use sched::JobSpec;
    use std::sync::Arc;

    const EPOCHS: u32 = 5;
    const KEEP_LAST: usize = 2;
    let tenants: [(&str, PlatformKind); 3] = [
        ("acme", PlatformKind::Discord),
        ("globex", PlatformKind::Discord),
        ("initech", PlatformKind::Telegram),
    ];
    eprintln!(
        "longitudinal oplog bench: {} tenants × {EPOCHS} epochs × {} listings …",
        tenants.len(),
        args.scale
    );
    let job = |seed: u64, kind: PlatformKind, epoch: u32| {
        Audit::builder()
            .scale(args.scale)
            .seed(seed)
            .platform(kind)
            .honeypot_sample(args.honeypot_sample)
            .site_defenses(false)
            .drift(synth::DriftConfig::default())
            .epoch(epoch)
            .into_job()
            .expect("valid oplog bench job")
    };
    let run_fleet = || -> FleetDaemon {
        let daemon = FleetDaemon::with_obs(
            FleetDaemonConfig {
                workers: args.workers,
                ..FleetDaemonConfig::default()
            },
            Arc::new(store::MemBackend::new()),
            VirtualClock::new(),
            obs::Obs::disabled(),
        );
        let mut horizon = 0;
        for epoch in 0..EPOCHS {
            for (i, (tenant, kind)) in tenants.iter().enumerate() {
                daemon
                    .submit(
                        JobSpec::new(*tenant),
                        job(args.seed + i as u64, *kind, epoch),
                    )
                    .expect("queue has room");
            }
            horizon += 1_000_000;
            daemon.run_until(horizon);
        }
        assert_eq!(daemon.queued(), 0, "oplog bench fleet must drain");
        daemon
    };
    let trend_dump = |daemon: &FleetDaemon| -> String {
        let mut out = String::new();
        for (tenant, _) in tenants {
            out.push_str(&daemon.trends(tenant).expect("chain").canonical_json());
            out.push('\n');
        }
        out.push_str(
            &serde_json::to_string(&daemon.fleet_trends().expect("fleet")).expect("serializable"),
        );
        out
    };

    // The replay baseline: without the oplog, answering "how did the
    // fleet drift?" means re-running every audit. With it, the same
    // answers come from the persisted chains.
    let t0 = std::time::Instant::now();
    let daemon = run_fleet();
    let replay_ms = t0.elapsed().as_secs_f64() * 1e3;
    let t0 = std::time::Instant::now();
    let views = trend_dump(&daemon);
    let query_ms = t0.elapsed().as_secs_f64() * 1e3;
    let speedup = replay_ms / query_ms;
    println!(
        "trend queries: materialized views {query_ms:.2} ms vs full replay \
         {replay_ms:.1} ms ({speedup:.0}x) over {} chain records",
        tenants.len() * EPOCHS as usize,
    );

    // Generational compaction: drop every artifact generation not
    // referenced by the last KEEP_LAST epochs of each tenant.
    let mut per_tenant = Vec::new();
    for (tenant, _) in tenants {
        let outcome = daemon.compact_tenant(tenant, KEEP_LAST).expect("compacts");
        assert!(
            outcome.reclaimed_bytes() > 0,
            "{tenant}: dropping {} of {EPOCHS} generations must reclaim bytes",
            EPOCHS as usize - KEEP_LAST,
        );
        let mut row = serde_json::Map::new();
        row.insert("tenant".into(), tenant.into());
        row.insert("reclaimed_bytes".into(), outcome.reclaimed_bytes().into());
        row.insert("dropped_blobs".into(), outcome.dropped_blobs.into());
        row.insert("live_blobs".into(), outcome.live_blobs.into());
        row.insert("pack_bytes_before".into(), outcome.pack_bytes_before.into());
        row.insert("pack_bytes_after".into(), outcome.pack_bytes_after.into());
        per_tenant.push(row.into());
    }
    let reclaimed = daemon
        .obs()
        .counter_value("store.compaction.reclaimed_bytes");
    assert!(reclaimed > 0, "compaction counter must record reclamation");
    assert_eq!(
        trend_dump(&daemon),
        views,
        "compaction must not change a trend answer"
    );
    println!(
        "compaction (keep last {KEEP_LAST} epochs): {reclaimed} bytes reclaimed \
         across {} tenants; trend views byte-identical",
        tenants.len(),
    );

    // Resume across compaction: epoch {EPOCHS} lands byte-identically on
    // the compacted fleet and on a never-compacted control.
    let control = run_fleet();
    let mut dumps = Vec::new();
    for d in [&daemon, &control] {
        for (i, (tenant, kind)) in tenants.iter().enumerate() {
            d.submit(
                JobSpec::new(*tenant),
                job(args.seed + i as u64, *kind, EPOCHS),
            )
            .expect("queue has room");
        }
        d.run_until(10_000_000);
        dumps.push(trend_dump(d));
    }
    assert_eq!(
        dumps[0], dumps[1],
        "post-compaction epoch {EPOCHS} diverged from the uncompacted control"
    );
    println!(
        "resume across compaction: epoch {EPOCHS} trend views byte-identical \
         to the uncompacted control"
    );

    let mut out = serde_json::Map::new();
    out.insert("available_cores".into(), available_cores().into());
    out.insert("scale".into(), args.scale.into());
    out.insert("seed".into(), args.seed.into());
    out.insert("honeypot_sample".into(), args.honeypot_sample.into());
    out.insert("workers".into(), args.workers.into());
    out.insert("tenants".into(), tenants.len().into());
    out.insert("epochs".into(), EPOCHS.into());
    let mut trend = serde_json::Map::new();
    trend.insert(
        "replay_all_audits_ms".into(),
        serde_json::to_value(replay_ms).expect("serializable"),
    );
    trend.insert(
        "materialized_query_ms".into(),
        serde_json::to_value(query_ms).expect("serializable"),
    );
    trend.insert(
        "speedup_vs_replay".into(),
        serde_json::to_value(speedup).expect("serializable"),
    );
    trend.insert(
        "chain_records".into(),
        (tenants.len() * EPOCHS as usize).into(),
    );
    out.insert("trend_query".into(), trend.into());
    let mut compaction = serde_json::Map::new();
    compaction.insert("keep_last_epochs".into(), KEEP_LAST.into());
    compaction.insert("reclaimed_bytes".into(), reclaimed.into());
    compaction.insert("per_tenant".into(), serde_json::Value::Array(per_tenant));
    compaction.insert("trend_views_byte_identical".into(), true.into());
    out.insert("store.compaction".into(), compaction.into());
    let mut resume = serde_json::Map::new();
    resume.insert("next_epoch".into(), EPOCHS.into());
    resume.insert("byte_identical_vs_uncompacted".into(), true.into());
    out.insert("resume_across_compaction".into(), resume.into());
    std::fs::write(
        path,
        serde_json::to_string_pretty(&out).expect("serializable"),
    )
    .expect("write oplog bench json");
    eprintln!("wrote {path}");
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|err| {
        eprintln!("{err}");
        std::process::exit(2);
    });
    let scale_factor = args.scale as f64 / 20_915.0;

    eprintln!(
        "building ecosystem: {} listings (seed {}) …",
        args.scale, args.seed
    );
    let eco = build_ecosystem(&EcosystemConfig {
        num_bots: args.scale,
        seed: args.seed,
        ..EcosystemConfig::default()
    });

    if args.enforced {
        eprintln!("runtime policy: ENFORCED (Slack/Teams model — §6 extension)");
        eco.platform
            .set_runtime_policy(discord_sim::RuntimePolicy::Enforced);
    }
    eprintln!(
        "running data collection + traceability + code analysis ({} worker{}) …",
        args.workers,
        if args.workers == 1 { "" } else { "s" }
    );
    let pipeline = AuditPipeline::new(audit_config(args.honeypot_sample, args.workers));
    let (bots, stats, stored_campaign) = if let Some(dir) = &args.store_dir {
        let mut store = StoreConfig::on_disk(dir).expect("open --store-dir");
        store.resume = args.resume;
        store.kill_after_frames = args.kill_after_frames;
        match pipeline.run_resumable(&eco, &store, args.seed) {
            Ok(ResumableOutcome {
                report,
                store_stats,
                ..
            }) => {
                eprintln!(
                    "store: {} frames replayed, {} written; pack {} hits / {} misses",
                    store_stats.frames_replayed,
                    store_stats.frames_written,
                    store_stats.artifact_hits,
                    store_stats.artifact_misses,
                );
                (report.bots, report.crawl_stats, report.honeypot)
            }
            Err(AuditError::Interrupted { frames_written }) => {
                eprintln!(
                    "interrupted after {frames_written} durable writes (journal and \
                     pack frames) — rerun with --resume to continue from here"
                );
                std::process::exit(0);
            }
            Err(other) => {
                eprintln!("audit store failure: {other}");
                std::process::exit(1);
            }
        }
    } else {
        if args.resume || args.kill_after_frames.is_some() {
            eprintln!("--resume / --kill-after-frames require --store-dir");
            std::process::exit(2);
        }
        let (bots, stats) = pipeline.run_static_stages(&eco.net);
        (bots, stats, None)
    };

    let mut json = serde_json::Map::new();
    json.insert("scale".into(), args.scale.into());
    json.insert("seed".into(), args.seed.into());

    println!("== Crawl ==");
    println!(
        "pages {} | bots {} | captchas {} (${:.2}) | email verifications {} | virtual time {}",
        stats.pages,
        stats.bots,
        stats.captchas_solved,
        stats.captcha_spend_dollars,
        stats.email_verifications,
        stats.duration
    );
    println!("{}", caches_line(pipeline.obs()));

    // ---- Figure 3 + in-text permission numbers -------------------------
    if want(&args, "fig3") {
        let rows = figure3_distribution(&bots, 25);
        println!("\n{}", render_figure3(&rows));
        let valid = bots
            .iter()
            .filter(|b| b.crawled.invite_status.is_valid())
            .count();
        let pct = |name: &str| {
            rows.iter()
                .find(|r| r.permission == name)
                .map(|r| r.percent)
                .unwrap_or(0.0)
        };
        let comparisons = vec![
            Comparison::new("bots crawled", 20_915.0 * scale_factor, bots.len() as f64),
            Comparison::new(
                "valid invites %",
                74.0,
                valid as f64 / bots.len().max(1) as f64 * 100.0,
            ),
            Comparison::new("send messages %", 59.18, pct("send messages")),
            Comparison::new("administrator %", 54.86, pct("administrator")),
        ];
        println!(
            "{}",
            render_comparisons("Figure 3 / §4.2 anchors (paper vs measured)", &comparisons)
        );
        json.insert(
            "figure3".into(),
            serde_json::to_value(&rows).expect("serializable"),
        );

        // Least-privilege extension (§5: "minimal required permissions").
        let gaps = chatbot_audit::privilege_gaps(&bots);
        let lp = chatbot_audit::least_privilege_summary(&gaps);
        println!(
            "Least-privilege gap: {}/{} bots over-privileged vs their advertised commands \
             (mean {:.1} excess permission bits; all fixable by configuration)\n",
            lp.over_privileged, lp.analyzed, lp.mean_excess_bits
        );
        json.insert(
            "least_privilege".into(),
            serde_json::to_value(&lp).expect("serializable"),
        );

        // Exposure: guild counts behind each risk flag (§4.2's reach framing).
        println!("Guild exposure by risk flag:");
        for (flag, guilds) in chatbot_audit::exposure_by_flag(&bots) {
            println!("  {flag:?}: {guilds} guilds");
        }
        println!();
    }

    // ---- Table 1 ---------------------------------------------------------
    if want(&args, "table1") {
        let rows = table1_histogram(&bots);
        println!("\n{}", render_table1(&rows));
        let one_bot_pct = rows
            .iter()
            .find(|r| r.bots_per_developer == 1)
            .map(|r| r.percent)
            .unwrap_or(0.0);
        let comparisons = vec![Comparison::new("devs with 1 bot %", 89.08, one_bot_pct)];
        println!(
            "{}",
            render_comparisons("Table 1 anchors (paper vs measured)", &comparisons)
        );
        json.insert(
            "table1".into(),
            serde_json::to_value(&rows).expect("serializable"),
        );
    }

    // ---- Table 2 ---------------------------------------------------------
    if want(&args, "table2") {
        let t2 = table2_traceability(&bots);
        println!("\n{}", render_table2(&t2));
        let comparisons = vec![
            Comparison::new("website link %", 37.27, t2.pct(t2.website_link)),
            Comparison::new("policy link %", 4.35, t2.pct(t2.policy_link)),
            Comparison::new("valid policy %", 4.33, t2.pct(t2.valid_policy)),
            Comparison::new("broken traceability %", 95.67, t2.pct(t2.broken)),
            Comparison::new("complete traceability %", 0.0, t2.pct(t2.complete)),
        ];
        println!(
            "{}",
            render_comparisons("Table 2 (paper vs measured)", &comparisons)
        );
        json.insert(
            "table2".into(),
            serde_json::to_value(&t2).expect("serializable"),
        );
    }

    // ---- Table 3 / code analysis ----------------------------------------
    if want(&args, "table3") {
        let t3 = table3_code_analysis(&bots);
        println!("\n{}", render_table3(&t3));
        let active = bots
            .iter()
            .filter(|b| b.crawled.invite_status.is_valid())
            .count()
            .max(1);
        let comparisons = vec![
            Comparison::new(
                "github links % of active",
                23.86,
                t3.with_github_link as f64 / active as f64 * 100.0,
            ),
            Comparison::new(
                "valid repos % of links",
                60.46,
                t3.valid_repos as f64 / t3.with_github_link.max(1) as f64 * 100.0,
            ),
            Comparison::new(
                "source available % of active",
                14.39,
                t3.with_source as f64 / active as f64 * 100.0,
            ),
            Comparison::new("JS repos checking %", 72.97, t3.js_checking_pct()),
            Comparison::new("Python repos checking %", 2.65, t3.py_checking_pct()),
        ];
        println!(
            "{}",
            render_comparisons("Table 3 / code analysis (paper vs measured)", &comparisons)
        );
        json.insert(
            "table3".into(),
            serde_json::to_value(&t3).expect("serializable"),
        );
    }

    // ---- Honeypot ---------------------------------------------------------
    let mut campaign_result = None;
    if want(&args, "honeypot") {
        eprintln!(
            "running honeypot campaign over the {} most-voted bots …",
            args.honeypot_sample
        );
        let campaign = stored_campaign.unwrap_or_else(|| pipeline.run_honeypot(&eco));
        println!("\n== Honeypot (§4.2) ==");
        println!(
            "guilds {} | bots tested {} | tokens planted {} | messages {} | captchas {} (${:.2}) | manual verifications {}",
            campaign.guilds_created,
            campaign.bots_tested,
            campaign.tokens_planted,
            campaign.messages_posted,
            campaign.captchas_solved,
            campaign.captcha_spend_dollars,
            campaign.manual_verifications,
        );
        for det in &campaign.detections {
            println!(
                "DETECTION: {} — tokens {:?} via {:?}; follow-up messages: {:?}",
                det.bot_name, det.token_kinds, det.requesters, det.followup_messages
            );
        }
        let comparisons = vec![
            Comparison::new(
                "bots tested",
                500.0 * (args.honeypot_sample as f64 / 500.0),
                campaign.bots_tested as f64,
            ),
            Comparison::new("bots detected", 1.0, campaign.detections.len() as f64),
        ];
        println!(
            "{}",
            render_comparisons("Honeypot (paper vs measured)", &comparisons)
        );

        // Validation against ground truth — beyond the paper.
        let validation = validate_against_truth(&bots, &eco.truth, Some(&campaign));
        println!("\n== Methodology validation (vs planted ground truth) ==");
        println!(
            "invite validity     : precision {:.3} recall {:.3} (n={})",
            validation.invite_validity.precision(),
            validation.invite_validity.recall(),
            validation.invite_validity.total()
        );
        println!(
            "policy discovery    : precision {:.3} recall {:.3}",
            validation.policy_discovery.precision(),
            validation.policy_discovery.recall()
        );
        println!(
            "traceability agree  : {:.3}",
            validation.traceability_agreement
        );
        println!(
            "repo resolution     : precision {:.3} recall {:.3}",
            validation.repo_resolution.precision(),
            validation.repo_resolution.recall()
        );
        println!(
            "check detection     : precision {:.3} recall {:.3}",
            validation.check_detection.precision(),
            validation.check_detection.recall()
        );
        println!(
            "honeypot detection  : precision {:.3} recall {:.3}",
            validation.honeypot_detection.precision(),
            validation.honeypot_detection.recall()
        );
        json.insert(
            "validation".into(),
            serde_json::to_value(&validation).expect("serializable"),
        );
        campaign_result = Some(campaign);
    }

    if let Some(path) = &args.markdown {
        let detections = campaign_result
            .as_ref()
            .map(|c| c.detections.clone())
            .unwrap_or_default();
        let md = chatbot_audit::render_markdown_dossier(&bots, &detections);
        std::fs::write(path, md).expect("write markdown dossier");
        eprintln!("wrote {path}");
    }

    // The full registry view, captured after every stage has reported.
    json.insert("metrics".into(), registry_json(pipeline.obs()));

    if let Some(path) = &args.json {
        std::fs::write(
            path,
            serde_json::to_string_pretty(&json).expect("serializable"),
        )
        .expect("write json output");
        eprintln!("wrote {path}");
    }

    if let Some(path) = &args.bench_json {
        parallel_bench(&args, path);
    }

    if let Some(path) = &args.store_bench_json {
        store_bench(&args, path);
    }

    if let Some(path) = &args.obs_bench_json {
        obs_bench(&args, path);
    }

    if let Some(path) = &args.sched_bench_json {
        sched_bench(&args, path);
    }

    if let Some(path) = &args.oplog_bench_json {
        oplog_bench(&args, path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        let argv: Vec<String> = line.split_whitespace().map(String::from).collect();
        parse_args(&argv)
    }

    #[test]
    fn a_valid_command_line_sets_the_flags_it_names() {
        let args = parse("--scale 2000 --workers 2 --only none --kill-after-frames 40").unwrap();
        assert_eq!((args.scale, args.seed, args.workers), (2000, 2022, 2));
        assert_eq!(args.only.as_deref(), Some("none"));
        assert_eq!(args.kill_after_frames, Some(40));
    }

    #[test]
    fn a_bad_number_is_an_error_naming_the_flag() {
        let err = parse("--workers abc").err().unwrap();
        assert_eq!(err, r#"--workers: "abc" is not a valid number"#);
        assert!(parse("--scale 2,000").is_err());
        assert!(parse("--kill-after-frames 4O").is_err());
    }

    #[test]
    fn a_missing_value_is_an_error_naming_the_flag() {
        let err = |line| parse(line).err().unwrap();
        assert_eq!(err("--workers 2 --json"), "--json needs a value");
        assert_eq!(err("--seed"), "--seed needs a value");
    }
}
