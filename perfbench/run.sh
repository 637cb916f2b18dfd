#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it with the given
# arguments. Run from the repository root:
#   bash perfbench/run.sh --workload server --seed 1 --seconds 20 --trace 0
set -euo pipefail
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml --bins >&2
exec "${CARGO_TARGET_DIR:-perfbench/target}/release/lpbench" "$@"
