#!/usr/bin/env bash
# Builds the benchmark (release, offline) and runs it.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run of one workload; the last line of standard output is the
#       result object (the form the driver calls, see ../BENCHMARK.json)
#   benchmark/run.sh [--workload W] [--seed N] [--seconds S] [--out F]
#       the suite: every workload in its own process, untraced then
#       traced, every metric printed by name and unit, one summary file;
#       exits non-zero on any correctness failure
#   benchmark/run.sh --check-manifest BENCHMARK.json [SUMMARY.json]
#   benchmark/run.sh --agree A.json B.json
#
# Build output goes to $CARGO_TARGET_DIR, or benchmark/target without it.
# Cargo's own messages go to standard error only.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
export CARGO_TARGET_DIR="$target"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/compass-benchmark" "$@"
