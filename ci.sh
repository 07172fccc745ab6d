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
cargo clippy --all-targets -- -D warnings
cargo bench --no-run
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q
# The benchmark is its own workspace over these crates; --locked fails the
# step if a manifest change would rewrite its lock file.
cargo test -q --locked --offline --manifest-path auditbench/Cargo.toml
