#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Everything written stays in
# the checkout: the Go build cache and the binary go to .bench_build/ at the
# checkout's root, next to the spill and trace files the benchmark writes
# (XDG_CONFIG_HOME too: the go command keeps its telemetry counters there).
# Arguments are passed through, e.g.
#   bash benchmark/run.sh --workload tpch_power --seed 1 --seconds 12 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local
(cd "$here" && go build -o "$out/bfcbo-benchmark" .)
cd "$root"
exec "$out/bfcbo-benchmark" -out .bench_build "$@"
