#!/usr/bin/env bash
# Repo CI gate: build, test, lint, format — what .github/workflows/ci.yml
# runs. Keep this green before pushing.
set -euo pipefail
cd "$(dirname "$0")"

cargo build --release --workspace
# The shipped crates' runtime dependencies stay in the tree: apart from
# parking_lot (vendored until ROADMAP 1(b)), every package they build
# against lives under crates/.
tree=$(cargo tree --offline -e normal -p compass -p compass-workloads -p compass-simcheck \
  -p compass-fleet -p compass-bench --prefix none)
outside=$(grep -v -e '^$' -e "($PWD/crates/" -e '^parking_lot ' <<<"$tree" | sort -u || true)
[ -z "$outside" ] || { echo "runtime dependencies outside crates/:" >&2; echo "$outside" >&2; exit 1; }
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
# BackendConfig::deadlock_ms (read by nothing: the engine's only posters
# are tasks; the benchmark still sets it), EventPort::with_capacity with a
# Notifier::new epoch and ReqPort, both driven from std::thread posters
# that park in coro::wait and never reach an engine (ReqPort is unused by
# the simulator; only the benchmark's comm.reqport_call_ns probe keeps
# it), and the counter names it reads (a deleted one reads 0).
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
# probes that drive event and request ports from std::thread posters (a
# blocking post from a plain thread bumps the port's notify epoch and
# parks until the probe's consumer thread replies; no simulation posts
# that way). Each run must finish and stay correct.
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
