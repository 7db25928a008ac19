#!/usr/bin/env bash
# reach.sh — the reachability ledger.
#
# Builds every product entry point — cmd/bfcbo, cmd/bench, cmd/tpchgen, the
# two examples and the benchmark binary — with coverage over the whole root
# module, runs a fixed list of invocations under one GOCOVERDIR, and prints
# the functions `go tool covdata func` reports at 0 %: the code no entry
# point executes. The observability server is scraped twice: after its query
# has finished, and while four streams are still running. Error paths are
# over-reported (the list drives few failures), so read a name here as
# "look at it", not "delete it".
#
# With --check it also gates on scripts/reach.txt, the committed ledger of
# functions known to be unreached, one "file: function — reason" a line. It
# fails when a function is unreached but not in the ledger (new code no entry
# point runs, or code a change stranded: delete it, reach it, or add it with
# its reason), and it fails on a ledger line without a reason. Ledger names
# that this run did reach are only listed, because some flip from run to run.
#
#   scripts/reach.sh            # everything lands in .bench_build/reach
#   scripts/reach.sh --check    # the same, then diff against the ledger
#   REACH_OUT=/tmp/r REACH_ADDR=127.0.0.1:18924 scripts/reach.sh
set -uo pipefail
check=0
case "${1:-}" in
  --check) check=1 ;;
  "") ;;
  *) echo "usage: $0 [--check]" >&2; exit 2 ;;
esac
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
ledger="$root/scripts/reach.txt"
out="${REACH_OUT:-$root/.bench_build/reach}"
addr="${REACH_ADDR:-127.0.0.1:18923}"
rm -rf "$out"
mkdir -p "$out/bin" "$out/cov" "$out/work"
cd "$root"

cover=(-cover -coverpkg=bfcbo/...)
go build "${cover[@]}" -o "$out/bin/" ./cmd/bfcbo ./cmd/bench ./cmd/tpchgen ./examples/quickstart ./examples/sql || exit 1
(cd benchmark && go build "${cover[@]}" -o "$out/bin/benchmark" .) || exit 1
export GOCOVERDIR="$out/cov"

# run reports a failing invocation and goes on: the fault runs are allowed
# to fail, and a ledger with a hole still says what it reached.
run() {
  echo "+ $*" >&2
  "$@" >"$out/work/last.out" 2>&1 || echo "  exit $? (see $out/work/last.out)" >&2
}
bin="$out/bin"

for w in tpch_power tpch_spill plan_heavy sql_streams; do
  for trace in 0 1; do
    run "$bin/benchmark" -out "$out/work" -workload "$w" -seed 1 -seconds 2 -trace "$trace"
  done
done
run "$bin/bench" -experiment all -sf 0.005 -reps 1
run "$bin/tpchgen" -sf 0.005 -stats
run "$bin/quickstart"
run "$bin/sql"
run "$bin/bfcbo" -q 8 -mode bfcbo -sf 0.01 -dop 4
run "$bin/bfcbo" -q 8 -mode nobf -sf 0.01 -dop 2 -trace-out "$out/work/trace.json"
run "$bin/bfcbo" -q 12 -mode naive -sf 0.01
run "$bin/bfcbo" -sf 0.01 -mode bfpost -sql "SELECT * FROM orders o, lineitem l WHERE o.o_orderkey = l.l_orderkey AND l.l_quantity > 45"
# An OR group and a NOT over a numeric BETWEEN: the NOT and OR kernels.
run "$bin/bfcbo" -sf 0.01 -sql "SELECT * FROM orders o, lineitem l WHERE o.o_orderkey = l.l_orderkey AND (l.l_quantity < 5 OR l.l_discount > 0.09) AND NOT l.l_tax BETWEEN 0.02 AND 0.06"
run "$bin/bfcbo" -q 21 -sf 0.05 -dop 2 -mem-budget 1MB
# Under a 1-byte budget Q13's grace join at SF 0.2 repartitions a partition
# once (spill depth 1).
run "$bin/bfcbo" -q 13 -sf 0.2 -dop 2 -mem-budget 1B
# One injected spill-write fault, at the 7th write: how many chunks a run
# writes varies with the schedule, and Q9's plan writes too few for a lower
# rate to fire every time with this seed.
run "$bin/bfcbo" -q 9 -sf 0.02 -dop 2 -mem-budget 256KB -faults "seed=42,spill.write=0.1,mem.deny=0.2"
# Six streams behind a cap of two queue at the scheduler's count gate.
run "$bin/bfcbo" -q 12 -sf 0.01 -streams 6 -max-concurrent 2 -timeout 5s
# The sched.admit fault site refuses half the admissions: each refused
# admission surfaces as its stream's typed fault.
run "$bin/bfcbo" -q 12 -sf 0.01 -streams 6 -faults "seed=7,sched.admit=0.5"

# The observability server keeps serving after its query until it is
# signalled. serve starts one in the background and waits for it to
# answer; stop_serving waits until its query is done and its signal handler
# installed (it says "serving observability endpoints"), then sends SIGTERM,
# which it handles like an interrupt: it exits cleanly and flushes its
# counters. (A background job of a non-interactive shell starts with SIGINT
# ignored, and a signal that beats the handler kills the server unflushed.)
serve() {
  echo "+ $bin/bfcbo $* -obs-listen $addr (scraped, then interrupted)" >&2
  "$bin/bfcbo" "$@" -obs-listen "$addr" >"$out/work/obs.out" 2>&1 &
  srv=$!
  for _ in $(seq 500); do
    curl -fsS -o /dev/null "http://$addr/metrics" 2>/dev/null && break
    sleep 0.02
  done
}
await_done() {
  for _ in $(seq 500); do
    grep -q "serving observability endpoints" "$out/work/obs.out" 2>/dev/null && break
    kill -0 "$srv" 2>/dev/null || break
    sleep 0.02
  done
}
stop_serving() {
  await_done
  kill -TERM "$srv" 2>/dev/null
  wait "$srv" 2>/dev/null
}

# After the query has finished: every endpoint once.
serve -q 3 -sf 0.01
await_done
for path in /metrics /query /debug/queries /debug/queries/live "/debug/queries/kill?id=1" \
  /debug/trace/1 /debug/workload "/debug/pprof/goroutine?debug=1"; do
  curl -sS -o /dev/null "http://$addr$path" || true
done
stop_serving

# While queries run (CI's live-scrape smoke): poll the live view until it
# lists a query in flight, then kill that one. Every slot acquisition stalls
# 100 ms (the sched.slot fault site), so each query stays in flight for
# about half a second instead of a few milliseconds, and the poll finds one
# on every run.
serve -q 9 -sf 0.01 -streams 4 -faults "sched.slot=1,slotdelay=100ms"
for _ in $(seq 200); do
  id="$(curl -sS "http://$addr/debug/queries/live" 2>/dev/null | sed -n 's/.*"id": *\([0-9]*\).*/\1/p' | head -n 1)"
  if [ -n "$id" ]; then
    curl -sS -o /dev/null "http://$addr/debug/queries/kill?id=$id" || true
    break
  fi
  kill -0 "$srv" 2>/dev/null || break
done
[ -n "$id" ] || echo "  the live view never listed a running query" >&2
stop_serving

echo
echo "functions no entry point reached (0 % of statements):"
go tool covdata func -i="$GOCOVERDIR" >"$out/func.txt" || exit 1
awk '$NF == "0.0%" { print "  " $1 " " $2; n++ } END { print n + 0, "functions" }' "$out/func.txt"
[ "$check" = 1 ] || exit 0

# The check compares "file: function" keys, without line numbers, so an
# unrelated edit above a function does not move it.
awk '$NF == "0.0%" { sub(/:[0-9]+:$/, ":", $1); print $1 " " $2 }' "$out/func.txt" | LC_ALL=C sort -u >"$out/unreached.txt"
grep -vE '^[[:space:]]*(#|$)' "$ledger" >"$out/ledger.txt"
awk '{ print $1 " " $2 }' "$out/ledger.txt" | LC_ALL=C sort -u >"$out/ledger_keys.txt"
status=0
noreason="$(awk 'NF < 4 || $3 != "—"' "$out/ledger.txt")"
if [ -n "$noreason" ]; then
  echo
  echo "FAIL: ledger lines without a \"— reason\" ($ledger):"
  echo "$noreason" | sed 's/^/  /'
  status=1
fi
new="$(LC_ALL=C comm -23 "$out/unreached.txt" "$out/ledger_keys.txt")"
if [ -n "$new" ]; then
  echo
  echo "FAIL: unreached, and not in the ledger ($ledger): reach, delete or list each with its reason"
  echo "$new" | sed 's/^/  /'
  status=1
fi
gone="$(LC_ALL=C comm -13 "$out/unreached.txt" "$out/ledger_keys.txt")"
if [ -n "$gone" ]; then
  echo
  echo "in the ledger but reached in this run (delete the line unless it flips between runs):"
  echo "$gone" | sed 's/^/  /'
fi
echo
if [ "$status" = 0 ]; then
  echo "reachability ledger: ok ($(wc -l <"$out/ledger_keys.txt") entries, $(wc -l <"$out/unreached.txt") unreached in this run)"
fi
exit "$status"
