#!/usr/bin/env bash
# Builds the serving binaries and the benchmark from source, then runs
# one workload. Run from the repository root:
#
#   bash flowbench/run.sh --workload serve-mix --seed 1 --seconds 20 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build); the
# benchmark's scratch files go under it too.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p asicgap-serve --bins >&2
cargo build --release --offline --quiet --manifest-path flowbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/flowbench" \
    --bin-dir "$CARGO_TARGET_DIR/release" \
    --work-dir "$CARGO_TARGET_DIR/flowbench-work" \
    "$@"
