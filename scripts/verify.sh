#!/usr/bin/env bash
# Pre-merge gate: the tier-1 verify, run hermetically.
#
# --offline proves the zero-dependency property on every run: the build
# must succeed from a clean checkout with an empty cargo registry cache,
# with nothing but the in-tree workspace crates. If this script fails
# only without --offline having anything cached, someone reintroduced an
# external dependency — keep the workspace dependency-free instead.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release --offline"
cargo build --release --offline

echo "== cargo test -q --offline (workspace)"
cargo test -q --offline --workspace

echo "== bench smoke: bench_baseline (RT_BENCH_FAST=1)"
# Every PR regenerates a comparable perf record. The smoke run writes to
# target/ so it never clobbers the committed full-size BENCH_lbm.json;
# regenerate that one with a plain
# `cargo run --release -p hemocloud-bench --bin bench_baseline`.
smoke_json="target/BENCH_lbm.json"
rm -f "$smoke_json"
RT_BENCH_FAST=1 BENCH_OUT="$smoke_json" \
  cargo run -q --release --offline -p hemocloud-bench --bin bench_baseline

if [ ! -f "$smoke_json" ]; then
  echo "ERROR: bench smoke did not produce $smoke_json" >&2
  exit 1
fi
# Match only bare nan/inf *values* (`"x": NaN`), not substrings of
# legitimate strings such as "indirect".
if grep -qiE ': *-?(nan|inf)' "$smoke_json"; then
  echo "ERROR: non-finite throughput in $smoke_json:" >&2
  grep -iE ': *-?(nan|inf)' "$smoke_json" >&2
  exit 1
fi
# Every throughput value (solver MFLUPS and STREAM GB/s) must be > 0.
if ! grep -oE '"(mflups|gb_s)": *[0-9.eE+-]+' "$smoke_json" \
    | awk -F': *' 'BEGIN { n = 0 } { n++; if ($2 + 0 <= 0) bad = 1 }
                   END { exit (bad || n < 3) }'; then
  echo "ERROR: zero/missing throughput values in $smoke_json:" >&2
  cat "$smoke_json" >&2
  exit 1
fi
# The prefetching solver must have produced bit-identical distributions
# to the default solver — the binary also exits non-zero on divergence,
# but the JSON record is the durable witness.
if ! grep -q '"prefetch_bitwise_equal": true' "$smoke_json"; then
  echo "ERROR: prefetch on is not bitwise equal to prefetch off in $smoke_json" >&2
  exit 1
fi
# The explicitly vectorized collide-stream must have produced bit-identical
# f64 distributions to the scalar loop for every kernel config (the binary
# compares forced-scalar vs forced-vector solvers and records the verdict).
if ! grep -q '"simd_bitwise_equal": true' "$smoke_json"; then
  echo "ERROR: vector solver is not bitwise equal to scalar in $smoke_json" >&2
  exit 1
fi
# Single-precision storage rows must be present (the nan/inf grep above
# covers them) and the accuracy witness must be recorded.
if ! grep -q '"config": "AA/SOA/indirect/f32"' "$smoke_json"; then
  echo "ERROR: no f32 kernel rows in $smoke_json" >&2
  exit 1
fi
if ! grep -q '"f32_f64_moment_max_diff"' "$smoke_json"; then
  echo "ERROR: no f32 accuracy witness in $smoke_json" >&2
  exit 1
fi
echo "bench smoke: OK ($smoke_json)"

echo "== SIMD determinism smoke: RT_SIMD=scalar forced backend"
# Force the portable lane backend process-wide: every row must report the
# "scalar-lanes" instruction path, and the in-binary forced-scalar vs
# forced-vector comparison now pits the portable wide lanes against the
# plain scalar loop — so between this run and the default (avx2) run
# above, all three instruction paths are proven bit-identical for f64.
simd_json="target/BENCH_simd_scalar.json"
rm -f "$simd_json"
RT_SIMD=scalar RT_BENCH_FAST=1 BENCH_OUT="$simd_json" \
  cargo run -q --release --offline -p hemocloud-bench --bin bench_baseline > /dev/null
if ! grep -q '"simd_bitwise_equal": true' "$simd_json"; then
  echo "ERROR: portable wide lanes are not bitwise equal to scalar in $simd_json" >&2
  exit 1
fi
if grep -q '"simd": "avx2"' "$simd_json"; then
  echo "ERROR: RT_SIMD=scalar did not force the portable backend in $simd_json" >&2
  exit 1
fi
echo "SIMD determinism smoke: OK ($simd_json)"

echo "== perf regression gate: fresh fast-mode vs committed BENCH_lbm.json"
# The committed baseline is full-size and the smoke run is the fast mesh,
# so the numbers are not identical — but a healthy checkout lands well
# within 2x of the committed values on the machine class that produced
# them. Fail on non-finite values or a >50% regression; this catches
# silent hot-path regressions without requiring the slow full-size run.
committed_json="BENCH_lbm.json"
if [ -f "$committed_json" ]; then
  perf_gate() { # label fresh committed
    awk -v fresh="$2" -v base="$3" -v label="$1" 'BEGIN {
      if (fresh == "" || base == "" || fresh + 0 != fresh || base + 0 != base) {
        printf "ERROR: perf gate %s: non-numeric values (fresh=%s committed=%s)\n", label, fresh, base
        exit 1
      }
      if (fresh + 0 < 0.5 * (base + 0)) {
        printf "ERROR: perf gate %s: fresh %s is <50%% of committed %s\n", label, fresh, base
        exit 1
      }
      printf "  %s: fresh %s vs committed %s: OK\n", label, fresh, base
    }'
  }
  fresh_mflups=$(grep -m1 '"mflups"' "$smoke_json" | grep -oE '[0-9.]+' | head -1)
  base_mflups=$(grep -m1 '"mflups"' "$committed_json" | grep -oE '[0-9.]+' | head -1)
  perf_gate "solver MFLUPS" "$fresh_mflups" "$base_mflups"
  fresh_copy=$(grep -oE '"gb_s": *[0-9.]+' "$smoke_json" | head -1 | grep -oE '[0-9.]+$')
  base_copy=$(grep -oE '"gb_s": *[0-9.]+' "$committed_json" | head -1 | grep -oE '[0-9.]+$')
  perf_gate "STREAM Copy GB/s" "$fresh_copy" "$base_copy"
  fresh_triad=$(grep -oE '"gb_s": *[0-9.]+' "$smoke_json" | sed -n 2p | grep -oE '[0-9.]+$')
  base_triad=$(grep -oE '"gb_s": *[0-9.]+' "$committed_json" | sed -n 2p | grep -oE '[0-9.]+$')
  perf_gate "STREAM Triad GB/s" "$fresh_triad" "$base_triad"

  # The committed baseline must carry the kernel-config sweep, and its
  # best AA row must be at least as fast as the AB/AoS (HARVEY) row —
  # the AB->AA speedup is the point of recording the sweep.
  # f64 rows only: the f32 rows are faster by construction and must not
  # stand in for the double-precision AB->AA comparison.
  ab_mflups=$(grep -oE '\{"config": "AB/AOS/indirect/f64[^}]*' "$committed_json" \
    | grep -oE '"mflups": [0-9.]+' | grep -oE '[0-9.]+' | head -1)
  best_aa_mflups=$(grep -oE '\{"config": "AA/(AOS|SOA)/indirect/f64[^}]*' "$committed_json" \
    | grep -oE '"mflups": [0-9.]+' | grep -oE '[0-9.]+' | sort -g | tail -1)
  if [ -z "$ab_mflups" ] || [ -z "$best_aa_mflups" ]; then
    echo "ERROR: committed $committed_json lacks AB/AA kernel rows" >&2
    exit 1
  fi
  if ! awk -v aa="$best_aa_mflups" -v ab="$ab_mflups" 'BEGIN { exit !(aa + 0 >= ab + 0) }'; then
    echo "ERROR: committed best AA row ($best_aa_mflups MFLUPS) is slower than AB ($ab_mflups MFLUPS)" >&2
    exit 1
  fi
  echo "  committed kernel sweep: best AA $best_aa_mflups >= AB $ab_mflups MFLUPS: OK"

  # Model-fidelity gate: the best config's measured_over_modeled ratio
  # must not blow up relative to the committed full-size baseline. Fast
  # mode inflates the ratio (its STREAM arrays are cache-resident, so the
  # reference bandwidth is higher), so the gate allows a generous 2.5x —
  # it catches the failure mode where a hot-path regression doubles the
  # update time while STREAM stays flat, not small drifts.
  fresh_ratio=$(grep -m1 '"best"' "$smoke_json" \
    | grep -oE '"measured_over_modeled": [0-9.]+' | grep -oE '[0-9.]+')
  base_ratio=$(grep -m1 '"best"' "$committed_json" \
    | grep -oE '"measured_over_modeled": [0-9.]+' | grep -oE '[0-9.]+')
  if [ -z "$fresh_ratio" ] || [ -z "$base_ratio" ]; then
    echo "ERROR: missing best-config measured_over_modeled (fresh=$fresh_ratio committed=$base_ratio)" >&2
    exit 1
  fi
  if ! awk -v f="$fresh_ratio" -v b="$base_ratio" 'BEGIN { exit !(f + 0 <= 2.5 * (b + 0)) }'; then
    echo "ERROR: best-config measured_over_modeled regressed: fresh $fresh_ratio > 2.5x committed $base_ratio" >&2
    exit 1
  fi
  echo "  best-config measured/modeled: fresh $fresh_ratio vs committed $base_ratio (<=2.5x): OK"
else
  echo "ERROR: committed $committed_json missing" >&2
  exit 1
fi
echo "perf regression gate: OK"

echo "== campaign smoke: demo campaign at the committed seed"
# The scheduler's demo campaign must stay healthy: reproducible at seed
# 42, finite economics, and a non-empty placement log. The committed
# full record is CAMPAIGN_sched.json; the smoke run writes to target/ and
# the campaign binary itself exits non-zero on invariant violations
# (guard kills, retry success, and the calibration MAPE drop).
campaign_json="target/CAMPAIGN_sched.json"
rm -f "$campaign_json"
CAMPAIGN_SEED=42 CAMPAIGN_OUT="$campaign_json" \
  cargo run -q --release --offline -p hemocloud-bench --bin campaign

if [ ! -f "$campaign_json" ]; then
  echo "ERROR: campaign smoke did not produce $campaign_json" >&2
  exit 1
fi
if grep -qiE ': *-?(nan|inf)' "$campaign_json"; then
  echo "ERROR: non-finite values in $campaign_json:" >&2
  grep -iE ': *-?(nan|inf)' "$campaign_json" >&2
  exit 1
fi
# Makespan and total cost must be strictly positive, and at least one
# placement must have been recorded.
if ! grep -oE '"(makespan_s|total_cost_dollars)": *[0-9.eE+-]+' "$campaign_json" \
    | awk -F': *' 'BEGIN { n = 0 } { n++; if ($2 + 0 <= 0) bad = 1 }
                   END { exit (bad || n != 2) }'; then
  echo "ERROR: non-positive makespan/cost in $campaign_json" >&2
  exit 1
fi
if ! grep -q '"measured_step_s"' "$campaign_json"; then
  echo "ERROR: empty placement log in $campaign_json" >&2
  exit 1
fi
echo "campaign smoke: OK ($campaign_json)"

echo "== fabric smoke: routed contention demo at the committed seed"
# The routed-fabric demo: ten 2-node jobs contending pairwise on a
# spread topology's oversubscribed trunks. The binary itself exits
# non-zero unless the per-link delivered bytes reconcile *exactly*
# against the Eq. 9 message graph, the report is byte-identical across
# 1/2/4 event shards, a co-scheduled job is measurably slower than the
# same job isolated, and calibration closes the contention gap. The gate
# additionally proves worker-count independence: run 1 pins
# RT_POOL_THREADS=1, run 2 pins 8, and both the report and the obs
# snapshot (per-link byte counters included) must not differ by a byte.
for run in 1 2; do
  threads=1; [ "$run" -eq 2 ] && threads=8
  FABRIC_SEED=42 RT_POOL_THREADS="$threads" \
    FABRIC_OUT="target/CAMPAIGN_fabric_${run}.json" \
    OBS_OUT="target/OBS_fabric_${run}.json" \
    cargo run -q --release --offline -p hemocloud-bench --bin fabric_demo > /dev/null
done
for f in target/CAMPAIGN_fabric_1.json target/OBS_fabric_1.json; do
  if grep -qiE ': *-?(nan|inf)' "$f"; then
    echo "ERROR: non-finite values in $f:" >&2
    grep -iE ': *-?(nan|inf)' "$f" >&2
    exit 1
  fi
done
if ! cmp -s target/CAMPAIGN_fabric_1.json target/CAMPAIGN_fabric_2.json; then
  echo "ERROR: fabric campaign report differs across worker counts 1 and 8:" >&2
  diff target/CAMPAIGN_fabric_1.json target/CAMPAIGN_fabric_2.json | head >&2
  exit 1
fi
if ! cmp -s target/OBS_fabric_1.json target/OBS_fabric_2.json; then
  echo "ERROR: fabric obs snapshot differs across worker counts 1 and 8:" >&2
  diff target/OBS_fabric_1.json target/OBS_fabric_2.json | head >&2
  exit 1
fi
if ! grep -q '"topology": "spread"' target/CAMPAIGN_fabric_1.json; then
  echo "ERROR: fabric placements not routed on the spread topology" >&2
  exit 1
fi
# The committed record must exist and carry the same witnesses: exact
# byte reconciliation and a real (>1%) contention slowdown.
if [ ! -f "CAMPAIGN_fabric.json" ]; then
  echo "ERROR: committed CAMPAIGN_fabric.json missing" >&2
  exit 1
fi
eq9=$(grep -oE '"fabric_eq9_bytes": *"[0-9]+"' CAMPAIGN_fabric.json \
  | grep -oE '[0-9]+"' | tr -d '"')
got=$(grep -oE '"fabric_delivered_bytes": *"[0-9]+"' CAMPAIGN_fabric.json \
  | grep -oE '[0-9]+"' | tr -d '"')
if [ -z "$eq9" ] || [ "$eq9" != "$got" ]; then
  echo "ERROR: committed CAMPAIGN_fabric.json delivered bytes '$got' != Eq. 9 total '$eq9'" >&2
  exit 1
fi
if ! grep -oE '"fabric_contention_slowdown": *"[0-9.]+"' CAMPAIGN_fabric.json \
    | grep -oE '[0-9.]+"' | tr -d '"' | awk '{ exit !($1 > 1.01) }'; then
  echo "ERROR: committed CAMPAIGN_fabric.json lacks a measurable contention slowdown" >&2
  exit 1
fi
echo "fabric smoke: OK (delivered bytes == Eq. 9 total $eq9; worker-count invariant)"

echo "== sched scale smoke: bench_sched (RT_BENCH_FAST=1)"
# The million-job scheduler path, smoke-sized: the binary itself exits
# non-zero on zero/non-finite events-per-sec, missing outcomes, or a
# shard-determinism violation; the gate re-checks the artifact and
# byte-compares the per-shard reports it wrote. Regenerate the committed
# full-size BENCH_sched.json with a plain
# `cargo run --release -p hemocloud-bench --bin bench_sched`.
sched_json="target/BENCH_sched.json"
rm -f "$sched_json" target/SCHED_det.shard*.json
RT_BENCH_FAST=1 SCHED_OUT="$sched_json" SCHED_REPORT_OUT_PREFIX="target/SCHED_det" \
  cargo run -q --release --offline -p hemocloud-bench --bin bench_sched

if [ ! -f "$sched_json" ]; then
  echo "ERROR: sched smoke did not produce $sched_json" >&2
  exit 1
fi
if grep -qiE ': *-?(nan|inf)' "$sched_json"; then
  echo "ERROR: non-finite values in $sched_json:" >&2
  grep -iE ': *-?(nan|inf)' "$sched_json" >&2
  exit 1
fi
if ! grep -oE '"events_per_sec": *[0-9.eE+-]+' "$sched_json" \
    | awk -F': *' '{ if ($2 + 0 <= 0) exit 1; n = 1 } END { exit !n }'; then
  echo "ERROR: zero/missing events_per_sec in $sched_json" >&2
  exit 1
fi
if ! grep -q '"reports_identical": true' "$sched_json"; then
  echo "ERROR: shard determinism flag not set in $sched_json" >&2
  exit 1
fi
# Independent byte-diff of the reports the determinism pass rendered at
# shard counts 1 and 4 (and 2): the tentpole guarantee, enforced outside
# the binary that claims it.
for s in 2 4; do
  if ! cmp -s target/SCHED_det.shard1.json "target/SCHED_det.shard${s}.json"; then
    echo "ERROR: campaign report differs between 1 and ${s} event shards:" >&2
    diff "target/SCHED_det.shard1.json" "target/SCHED_det.shard${s}.json" | head >&2
    exit 1
  fi
done
if grep -qiE ': *-?(nan|inf)' target/SCHED_det.shard1.json; then
  echo "ERROR: non-finite values in the sharded campaign report:" >&2
  grep -iE ': *-?(nan|inf)' target/SCHED_det.shard1.json >&2
  exit 1
fi
echo "sched scale smoke: OK ($sched_json; shard reports byte-identical)"

# The committed full-size scale record must exist and carry the same
# witness flag — a PR cannot claim the million-job path without it.
if [ ! -f "BENCH_sched.json" ]; then
  echo "ERROR: committed BENCH_sched.json missing" >&2
  exit 1
fi
if ! grep -q '"reports_identical": true' "BENCH_sched.json"; then
  echo "ERROR: committed BENCH_sched.json lacks the shard-determinism witness" >&2
  exit 1
fi

echo "== obs smoke: deterministic metrics snapshots"
# The observability layer's contract: two identical seeded runs render
# byte-identical snapshots (Render::Deterministic demotes wall-clock
# samples to counts; everything else is fixed-count instrumentation).
# Checked at pool widths 1 and 8 for the bench baseline, and at the
# committed seed for the campaign (whose registry runs on the virtual
# clock, so its spans are deterministic even in Full render).
obs_diff() { # label file_a file_b
  if ! cmp -s "$2" "$3"; then
    echo "ERROR: obs snapshots differ across identical runs ($1):" >&2
    diff "$2" "$3" >&2 || true
    exit 1
  fi
  if grep -qiE ': *-?(nan|inf)' "$2"; then
    echo "ERROR: non-finite metric in $2:" >&2
    grep -iE ': *-?(nan|inf)' "$2" >&2
    exit 1
  fi
  echo "  $1: byte-identical, finite: OK"
}
for width in 1 8; do
  for run in 1 2; do
    RT_BENCH_FAST=1 RT_POOL_THREADS="$width" \
      BENCH_OUT="target/OBS_bench_w${width}_${run}.bench.json" \
      OBS_OUT="target/OBS_bench_w${width}_${run}.json" \
      cargo run -q --release --offline -p hemocloud-bench --bin bench_baseline \
      > /dev/null
  done
  obs_diff "bench_baseline width $width" \
    "target/OBS_bench_w${width}_1.json" "target/OBS_bench_w${width}_2.json"
done
for run in 1 2; do
  CAMPAIGN_SEED=42 CAMPAIGN_OUT="target/OBS_campaign_${run}.campaign.json" \
    OBS_OUT="target/OBS_campaign_${run}.json" \
    cargo run -q --release --offline -p hemocloud-bench --bin campaign > /dev/null
done
obs_diff "campaign seed 42" "target/OBS_campaign_1.json" "target/OBS_campaign_2.json"
echo "obs smoke: OK"

echo "== eval sweep smoke: eval_campaign (RT_BENCH_FAST=1)"
# The scenario-sweep evaluation harness: the smoke grid (16 cells) with
# every invariant checker armed. The binary exits non-zero on any
# violation (budget overruns, SLO drift, billed < busy, inexact guard
# kills, Eq. 9 byte mismatches, non-finite statistics); the gate
# re-checks the artifact and proves worker-count independence by
# byte-comparing RT_POOL_THREADS=1 vs =8 runs. Regenerate the committed
# full-grid EVAL_campaign.json with a plain
# `cargo run --release -p hemocloud-bench --bin eval_campaign`.
for run in 1 2; do
  threads=1; [ "$run" -eq 2 ] && threads=8
  RT_BENCH_FAST=1 RT_POOL_THREADS="$threads" \
    EVAL_OUT="target/EVAL_campaign_${run}.json" \
    cargo run -q --release --offline -p hemocloud-bench --bin eval_campaign > /dev/null
done
if [ ! -f target/EVAL_campaign_1.json ]; then
  echo "ERROR: eval sweep smoke did not produce target/EVAL_campaign_1.json" >&2
  exit 1
fi
if grep -qiE ': *-?(nan|inf)' target/EVAL_campaign_1.json; then
  echo "ERROR: non-finite values in target/EVAL_campaign_1.json:" >&2
  grep -iE ': *-?(nan|inf)' target/EVAL_campaign_1.json >&2
  exit 1
fi
if ! cmp -s target/EVAL_campaign_1.json target/EVAL_campaign_2.json; then
  echo "ERROR: eval sweep report differs across worker counts 1 and 8:" >&2
  diff target/EVAL_campaign_1.json target/EVAL_campaign_2.json | head >&2
  exit 1
fi
if ! grep -q '"violations": 0,' target/EVAL_campaign_1.json; then
  echo "ERROR: eval sweep smoke recorded violations:" >&2
  grep -A4 '"violation_list"' target/EVAL_campaign_1.json | head >&2
  exit 1
fi
# The committed full-grid record must exist and carry the witnesses: the
# full grid, zero violations, the >=48-cell floor, both new anatomies
# swept, and non-vacuous Eq. 9 / guard-exactness checkers.
if [ ! -f "EVAL_campaign.json" ]; then
  echo "ERROR: committed EVAL_campaign.json missing" >&2
  exit 1
fi
if grep -qiE ': *-?(nan|inf)' EVAL_campaign.json; then
  echo "ERROR: non-finite values in committed EVAL_campaign.json" >&2
  exit 1
fi
if ! grep -q '"grid": "full"' EVAL_campaign.json; then
  echo "ERROR: committed EVAL_campaign.json was not produced by the full grid" >&2
  exit 1
fi
if ! grep -q '"violations": "0"' EVAL_campaign.json; then
  echo "ERROR: committed EVAL_campaign.json carries invariant violations" >&2
  exit 1
fi
eval_cells=$(grep -oE '"cells": *"[0-9]+"' EVAL_campaign.json | grep -oE '[0-9]+' | head -1)
if [ -z "$eval_cells" ] || [ "$eval_cells" -lt 48 ]; then
  echo "ERROR: committed EVAL_campaign.json swept only '$eval_cells' cells (< 48)" >&2
  exit 1
fi
for geom in sten8 aneu8; do
  if ! grep -q "\"axis\": \"geometry\", \"value\": \"$geom\"" EVAL_campaign.json; then
    echo "ERROR: committed EVAL_campaign.json lacks the $geom geometry axis" >&2
    exit 1
  fi
done
for witness in eq9_cells_checked guard_exact_checks; do
  n=$(grep -oE "\"$witness\": *\"[0-9]+\"" EVAL_campaign.json | grep -oE '[0-9]+' | head -1)
  if [ -z "$n" ] || [ "$n" -eq 0 ]; then
    echo "ERROR: committed EVAL_campaign.json: $witness is '$n' (vacuous evaluation)" >&2
    exit 1
  fi
done
echo "eval sweep smoke: OK ($eval_cells committed cells, zero violations, worker-count invariant)"

echo "== cargo doc --no-deps --offline"
# The API docs must build cleanly: the AA safety argument and the kernel
# accounting live in doc comments, so broken intra-doc links or bad
# rustdoc syntax are regressions.
cargo doc --no-deps --offline --workspace -q

echo "== cargo tree: checking for non-workspace dependencies"
if cargo tree --offline --workspace --edges normal,dev,build \
    | grep -v "hemocloud" | grep -q "v[0-9]"; then
  echo "ERROR: non-workspace dependencies found:" >&2
  cargo tree --offline --workspace --edges normal,dev,build | grep -v "hemocloud" >&2
  exit 1
fi

echo "verify.sh: OK"
