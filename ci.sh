#!/usr/bin/env bash
# Local CI gate: formatting, lints, the tier-1 build + test pass, every
# workspace test, then the synth and perf smokes.
# Run from the repo root; any failure aborts with a non-zero exit.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy (workspace, -D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> tier-1: cargo test -q"
cargo test -q

echo "==> every workspace test: cargo test --workspace -q"
cargo test --workspace -q

echo "==> streaming smoke: minaret synth streams a 10^5-scholar snapshot"
SYNTH_DIR="$(mktemp -d)"
trap 'rm -rf "$SYNTH_DIR"' EXIT
cargo run -q --release -p minaret-cli -- synth --scholars 100000 --seed 231 --data-dir "$SYNTH_DIR"
rm -rf "$SYNTH_DIR"

# The perf smoke also runs the E7 world-size sweep (10^3..10^5) with its
# two same-run gates: uncached recommend p50 flat across world sizes,
# and the lazy cold start beating regeneration at 10^5. Set
# MINARET_WORLD_SWEEP=1 to extend the sweep to 10^6 scholars.
# It also runs the connection-scaling sweep (100 and 1000 idle
# keep-alive connections against the epoll reactor) with two same-run
# gates: serving threads fixed at io_threads + workers (+1 slack)
# regardless of connection count, and the uncached recommend p50 flat
# (<= 1.5x the 100-connection point) as idle sockets pile up. Set
# MINARET_CONN_SWEEP=1 to extend that sweep to 10k connections
# (clamped to the fd budget).
# The assign smoke solves a 50-manuscript batch over a 10^4-scholar
# world and gates flow >= greedy (same-run) plus the batch latency
# against the committed assign_batch50_millis baseline.
echo "==> perf smoke: batched speedup + extraction + served cache hit + store put/get/recovery + lock contention + world-size/conn-scaling sweeps + batch assignment vs BENCH_e7_scalability.json"
cargo run -q --release --example perf_smoke

echo "==> alloc smoke: warm-path allocations vs BENCH_e7_scalability.json (count-allocs)"
cargo run -q --release --features count-allocs --example perf_smoke

echo "CI OK"
