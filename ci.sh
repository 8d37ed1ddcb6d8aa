#!/usr/bin/env bash
# Repo CI gate: build, test, lint, format — what .github/workflows/ci.yml
# runs. Keep this green before pushing.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release --workspace
cargo test -q --workspace
cargo test -q --workspace --features check-invariants
cargo run --release -q -p compass-simcheck -- --soak 30
# report_obs self-validates its artifacts (counters, JSONL + Chrome trace,
# BENCH_obs.json) and exits nonzero on any malformed or silent output.
cargo run --release -q -p compass-bench --bin report_obs -- target/obs-smoke >/dev/null
# Fleet smoke: the design-space runner sweeps every knob family across
# four workloads (frontend depth, OS-port batch, disk wake, checkpoint
# record/resume), dedupes shared baselines, re-runs a sampled subset at
# the transport baseline and requires bit-identical BackendStats, and
# gates on zero neutrality violations in the per-axis sensitivity deltas.
# This subsumes the report_ckpt smoke.
cargo run --release -q -p compass-fleet -- --smoke --out target/BENCH_fleet_smoke.json
# OS-server-wall smoke: httplite BackendStats must be bit-identical
# across frontend and OS-port batching and the disk-wake path (exits
# nonzero on any divergence), and the measured short-scale speedup of the
# deepest batched row must stay within 20% of the committed
# BENCH_http.json headline (override the baseline artifact with
# BENCH_HTTP_BASELINE).
cargo run --release -q -p compass-bench --bin report_http -- --smoke
# The benchmark (read-only here): BENCHMARK.json must match the
# benchmark's own catalogue field by field, and its unit tests must pass.
# The unit tests build benchmark/ against this workspace, so they also
# guard every public name it uses (L1Mirror, Hierarchy::epoch_victims,
# ArchRecord::Access::victims, the counter names it reads).
bash benchmark/run.sh --check-manifest BENCHMARK.json
cargo test --offline --manifest-path benchmark/Cargo.toml
# Golden fingerprints: one short driver run per workload at the golden
# seed. Its warm-ups check events, cycles, per-class accesses, disk and
# NIC totals and units done against benchmark/golden.json, so a change
# that moves any simulated result fails here.
for w in sci tpcc tpcd httplite; do
  bash benchmark/run.sh --workload "$w" --seed 1998 --seconds 0 --trace 0 \
    --out-dir target/bench-smoke | tail -n 1 | grep -q '"correct": true' \
    || { echo "benchmark golden check failed: $w" >&2; exit 1; }
done
# Clippy over both feature combinations: default and with the per-step
# invariant layer (the engine's whole-backend audit after every step, the
# OS wait-queue audit after every syscall, and the schedule-seed oracle).
cargo clippy --all-targets --workspace -- -D warnings
cargo clippy --all-targets --workspace --features check-invariants -- -D warnings
cargo fmt --all --check
