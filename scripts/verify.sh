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

echo "== check: fresh artifacts, byte-identity pairs, committed artifacts"
# Every artifact invariant lives in crates/bench/src/gates.rs (DESIGN.md
# §13 has the table); `check` spawns the four generators (`repro`, the
# paper's evaluation, among them) into target/check/<run>/, at
# RT_BENCH_FAST=1 but for `eval_campaign` and `repro`, which run full
# size; gates what they wrote and the committed BENCH_*/EVAL_*/REPRO
# files, holds the committed EVAL_campaign.json and REPRO.json equal to
# the fresh ones but for their stamps, and compares the pairs that must
# agree byte for byte.
# Regenerate the committed set with `... --bin check -- --regen`.
cargo run -q --release --offline -p hemocloud-bench --bin check

echo "== cargo clippy --offline --workspace --all-targets -- -D warnings"
# A deliberate exception carries its reason in an `#[allow]` at the site
# (the kernels' counted `q` loops), never a blanket setting here.
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== cargo doc --no-deps --offline"
# The API docs must build cleanly: the AA safety argument and the kernel
# accounting live in doc comments, so broken intra-doc links or bad
# rustdoc syntax are regressions (rustdoc only warns about them, hence -D).
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --offline --workspace -q

echo "== cargo tree: checking for non-workspace dependencies"
if cargo tree --offline --workspace --edges normal,dev,build \
    | grep -v "hemocloud" | grep -q "v[0-9]"; then
  echo "ERROR: non-workspace dependencies found:" >&2
  cargo tree --offline --workspace --edges normal,dev,build | grep -v "hemocloud" >&2
  exit 1
fi

echo "verify.sh: OK"
