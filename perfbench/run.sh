#!/usr/bin/env bash
# Builds the MINARET server and CLI from the checkout this script sits
# in, builds the load generator, then runs one benchmark workload:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   bash perfbench/run.sh --self-test
#
# Run from the repository root. The last stdout line is the JSON result.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [[ ! -f "$root/Cargo.toml" || ! -d "$root/crates/server" || ! -d "$root/crates/cli" ]]; then
    echo "perfbench: $root does not hold the MINARET sources (Cargo.toml, crates/server, crates/cli)" >&2
    exit 2
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/.bench_build}"
case "$CARGO_TARGET_DIR" in /*) ;; *) CARGO_TARGET_DIR="$root/$CARGO_TARGET_DIR" ;; esac

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" \
    -p minaret-server -p minaret-cli >&2
cargo build --release --offline --quiet --manifest-path "$root/perfbench/Cargo.toml" >&2

cd "$root"
exec "$CARGO_TARGET_DIR/release/perfbench" \
    --server-bin "$CARGO_TARGET_DIR/release/minaret-server" \
    --cli-bin "$CARGO_TARGET_DIR/release/minaret-cli" \
    --out-dir "$root/.perfbench" \
    "$@"
