#!/bin/sh
# Tier-1 gate: build, tests, lints. Run before every push.
set -eux

cargo fmt --all --check
cargo build --release
cargo test -q --workspace
cargo test -q --test resume_determinism
cargo test -q --test trace_determinism
cargo test -q --test sched_determinism
cargo test -q --test daemon_determinism
cargo test -q --test incremental_determinism
cargo test -q --test platform_determinism
cargo test -q --test oplog_determinism
cargo test -q -p oplog
# The fleet, store and oplog benches at small scale: they assert
# byte-identical reports at 1/2/4/8 workers, warm equal to cold at epoch 1,
# identical adversarial outcomes at 1 vs 4 workers, a warm pack, a full
# journal replay and a crash-at-half resume on a DiskBackend, and trend
# views unchanged by compaction and by resuming across it. The JSON goes to
# temp files, not the committed BENCH_*.json.
cargo run --release -q -p bench --bin experiments -- --scale 60 --honeypot-sample 6 --only none --sched-bench-json "$(mktemp)" --store-bench-json "$(mktemp)" --oplog-bench-json "$(mktemp)" > /dev/null
# The self-checking examples: fleet_audit asserts that compaction keeps the
# trend views byte-identical and that a clone leaves its source chain alone;
# resume_audit exits 1 unless a killed run resumes byte-identically.
cargo run --release -q --example fleet_audit > /dev/null
cargo run --release -q --example resume_audit > /dev/null
cargo clippy --workspace --all-targets -- -D warnings
cargo bench --workspace --no-run
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q
# The benchmark is its own workspace over these crates; --locked fails the
# step if a manifest change would rewrite its lock file.
cargo test -q --locked --offline --manifest-path auditbench/Cargo.toml
