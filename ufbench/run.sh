#!/usr/bin/env bash
# Build the server and the benchmark from this checkout, then run one
# benchmark pass. Run from the repository root:
#   bash ufbench/run.sh --workload check-open --seed 1 --seconds 15 --trace 0
# Build output goes to stderr; the last line of stdout is the JSON result.
set -euo pipefail
root="$(pwd)"
target="${CARGO_TARGET_DIR:-$root/.bench_build}"
case "$target" in /*) ;; *) target="$root/$target" ;; esac
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" --bin ufilter 1>&2
cargo build --release --offline --quiet --manifest-path "$root/ufbench/Cargo.toml" 1>&2
exec "$target/release/ufbench" --server-bin "$target/release/ufilter" "$@"
