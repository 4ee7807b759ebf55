#!/usr/bin/env bash
# Non-test code lines per file: the lines before the first `#[cfg(test)]`
# at column 0 that are neither blank nor, once trimmed, start with `//`.
# The counter the "less code" criteria in ISSUE.md / CHANGES.md cite.
#
#   scripts/loc.sh crates/sched/src/{scheduler,sweep}.rs
set -euo pipefail
[ "$#" -gt 0 ] || { echo "usage: $0 <files...>" >&2; exit 2; }
total=0
for f in "$@"; do
  n=$(awk '/^#\[cfg\(test\)\]/ { exit }
           { sub(/^[ \t]+/, "") }
           $0 != "" && $0 !~ /^\/\// { n++ }
           END { print n + 0 }' "$f")
  printf '%6d %s\n' "$n" "$f"
  total=$((total + n))
done
printf '%6d total\n' "$total"
