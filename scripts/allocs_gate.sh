#!/usr/bin/env bash
# allocs_gate.sh <pkg> <bench-regex> <benchtime> [<ceiling>]
#
# CI's allocation gate: runs the benchmarks of <pkg> matching <bench-regex>
# for <benchtime> with -benchmem and fails when none ran or when any of
# them reports more than <ceiling> allocs/op (default 0 — the loop must not
# touch the allocator in steady state).
set -euo pipefail
pkg=$1 regex=$2 benchtime=$3 ceiling=${4:-0}
out="$(go test -run '^$' -bench "$regex" -benchmem -benchtime "$benchtime" "$pkg")"
echo "$out"
echo "$out" | awk -v max="$ceiling" '
  /^Benchmark/ && /allocs\/op$/ {
    ran++
    if ($(NF-1) + 0 > max) { print $1 ": " $(NF-1) " allocs/op, ceiling " max > "/dev/stderr"; bad = 1 }
  }
  END {
    if (!ran) { print "no benchmark matched" > "/dev/stderr"; exit 1 }
    exit bad
  }'
