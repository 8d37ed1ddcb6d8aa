#!/usr/bin/env bash
# Repo CI gate: build, test, lint, format — what .github/workflows/ci.yml
# runs. Keep this green before pushing.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release --workspace
cargo test -q --workspace
cargo test -q --workspace --features check-invariants
cargo run --release -q -p compass-simcheck -- --soak 30
# The reference memo's differential proptests again, in release at 16x
# the default case count: the L1 rehit against the full hierarchy
# access, and the memoised translation against a fresh page walk.
PROPTEST_CASES=4096 cargo test --release -q -p compass-arch --test rehit_props
PROPTEST_CASES=4096 cargo test --release -q -p compass-backend --test memo_props
# Fleet smoke: the design-space runner sweeps one simulated knob on each
# of four workloads (compute-, OS/disk-, OLTP- and network-heavy), runs
# every job at the shipped batch depth and again at depth 1, and
# requires bit-identical BackendStats.
cargo run --release -q -p compass-fleet -- --preset smoke --out target/BENCH_fleet_smoke.json
# The committed BENCH_fleet.json must be that smoke output: every line but
# the host timings ("host") is deterministic.
diff <(grep -v '"host"' BENCH_fleet.json) <(grep -v '"host"' target/BENCH_fleet_smoke.json) \
  || { echo "BENCH_fleet.json is stale: run compass-fleet --preset smoke --out BENCH_fleet.json" >&2; exit 1; }
# The paper's simulated tables (Table 1 and studies S1-S3, EXPERIMENTS.md)
# as one preset, every job twinned at batch depth 1: the TPC-D scan and
# software DSM are diffed across depths on every CI run.
cargo run --release -q -p compass-fleet -- --preset paper --quiet --out target/paper.json
# The benchmark (read-only here): BENCHMARK.json must match the
# benchmark's own catalogue field by field, and its unit tests must pass.
# The unit tests build benchmark/ against this workspace, so they also
# guard every public name it uses: CheckpointData::{encode, decode,
# ff_events}, ArchRecord::Access::victims, Hierarchy::{encode_snapshot,
# epoch_victims}, compass_snap::{Writer, seal}, L1Mirror,
# BackendConfig::deadlock_ms, EventPort/ReqPort/Notifier driven from
# std::thread posters (ReqPort is unused by the simulator; only the
# benchmark's comm.reqport_call_ns probe keeps it), and the counter names
# it reads.
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
# The traced driver form: counters and the trace ring on, plus the layer
# probes that drive event and request ports from std::thread posters (the
# path on which a blocking post notifies the backend and parks instead of
# running the engine itself). Each run must finish and stay correct.
for w in sci tpcc tpcd httplite; do
  timeout 600 bash benchmark/run.sh --workload "$w" --seed 1998 --seconds 0 --trace 1 \
    --out-dir target/bench-smoke | tail -n 1 | grep -q '"correct": true' \
    || { echo "benchmark traced run failed: $w" >&2; exit 1; }
done
# Clippy over both feature combinations: default and with the per-step
# invariant layer (the engine's whole-backend audit after every step, the
# OS wait-queue audit after every syscall, and the schedule-seed oracle).
cargo clippy --all-targets --workspace -- -D warnings
cargo clippy --all-targets --workspace --features check-invariants -- -D warnings
cargo fmt --all --check
