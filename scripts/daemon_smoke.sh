#!/usr/bin/env bash
# End-to-end smoke of the `repro serve` daemon: health, keep-alive,
# memoization across requests, trace-store write/replay, cache GC,
# request coalescing, text/SSE response formats, the event firehose,
# phase-sampled runs (simpoint.* metrics), and graceful drain.
#
# Usage: scripts/daemon_smoke.sh [REPRO_BINARY] [ADDR]
#   REPRO_BINARY  path to the repro binary (default target/release/repro)
#   ADDR          host:port to bind      (default 127.0.0.1:7878)
#
# Scratch files are written to the current directory; run from a
# disposable workspace (CI job dir or a temp dir).
set -euo pipefail

REPRO="${1:-target/release/repro}"
ADDR="${2:-127.0.0.1:7878}"
BASE="http://${ADDR}"

metric() {
  curl -fsS "${BASE}/metrics" | awk -v name="$1" '$1 == name {print $2}'
}

"${REPRO}" serve --addr "${ADDR}" --cache-dir .ci-cache 2> serve.log &
SERVE_PID=$!
for _ in $(seq 1 50); do
  if curl -fsS "${BASE}/healthz" > /dev/null 2>&1; then break; fi
  sleep 0.2
done
curl -fsS "${BASE}/healthz"
echo

# Keep-alive: one curl invocation fetches two URLs over one reused TCP
# connection; the daemon must count the reuse.
curl -fsS "${BASE}/healthz" "${BASE}/experiments" > /dev/null
reuses=$(metric horizon_serve_keepalive_reuses)
echo "keep-alive reuses: ${reuses:-0}"
test "${reuses:-0}" -ge 1

hits_before=$(metric horizon_engine_memo_hits)
hits_before=${hits_before:-0}
curl -fsS -X POST -d '{"quick":true}' "${BASE}/run/table1" > /dev/null
curl -fsS -X POST -d '{"quick":true}' "${BASE}/run/table1" > /dev/null
hits_after=$(metric horizon_engine_memo_hits)
echo "memo hits: ${hits_before} -> ${hits_after}"
test "${hits_after}" -gt "${hits_before}"

# Trace store: a fresh seed misses memo and disk cache, so table1 writes
# packed traces through the implicit .ci-cache/traces store and fig2
# (same seed, mostly different machines) replays them.
tr_hits_before=$(metric horizon_tracestore_hits)
tr_hits_before=${tr_hits_before:-0}
fresh_seed=$((RANDOM * 32768 + RANDOM + 1))
curl -fsS -X POST -d "{\"quick\":true,\"seed\":${fresh_seed}}" "${BASE}/run/table1" > /dev/null
curl -fsS -X POST -d "{\"quick\":true,\"seed\":${fresh_seed}}" "${BASE}/run/fig2" > /dev/null
tr_hits_after=$(metric horizon_tracestore_hits)
echo "trace-store hits: ${tr_hits_before} -> ${tr_hits_after:-0}"
test "${tr_hits_after:-0}" -gt "${tr_hits_before}"

# Phase-sampled run: must execute the simpoint pipeline, visible through
# the simpoint.* counters in /metrics.
curl -fsS -X POST -d '{"quick":true,"sampling":"simpoint"}' "${BASE}/run/table1" > sampled.json
grep -q '"schema_version":1' sampled.json
phases=$(metric horizon_simpoint_phases)
echo "simpoint phases: ${phases:-0}"
test "${phases:-0}" -gt 0
sampled_insts=$(metric horizon_simpoint_sampled_instructions)
echo "simpoint sampled instructions: ${sampled_insts:-0}"
test "${sampled_insts:-0}" -gt 0
# Unknown sampling knobs must be rejected loudly.
code=$(curl -sS -o /dev/null -w '%{http_code}' -X POST \
  -d '{"quick":true,"sampling":"sometimes"}' "${BASE}/run/table1")
test "${code}" -eq 400

# /cache/gc with a trace budget reports the trace-store fields.
curl -fsS -X POST -d '{"max_trace_bytes": 268435456}' "${BASE}/cache/gc" > gc.json
grep -q '"trace_examined"' gc.json

# Concurrency: parallel identical POSTs must coalesce onto one campaign
# (the fresh seed misses every cache, so the cold run is slow enough for
# the stragglers to ride along), and the structured report must carry
# the schema version.
CURL_PIDS=""
for i in 1 2 3 4; do
  curl -fsS -X POST -d '{"quick":true,"seed":20170601}' "${BASE}/run/table2" > "run_par_${i}.json" &
  CURL_PIDS="${CURL_PIDS} $!"
done
wait ${CURL_PIDS}
grep -q '"schema_version":1' run_par_1.json
coalesced=$(metric horizon_serve_coalesced_runs)
echo "coalesced runs: ${coalesced:-0}"
test "${coalesced:-0}" -ge 1

# ?format=text must be byte-identical to batch stdout.
curl -fsS -X POST -d '{"quick":true}' "${BASE}/run/table1?format=text" > served.txt
"${REPRO}" table1 --quick > batch.txt
cmp served.txt batch.txt

# Streamed run: SSE events with at least one phase event before the
# terminal report, which carries the structured body.
curl -fsSN -X POST -d '{"quick":true}' "${BASE}/run/table1?stream=events" > stream.txt
grep -q '^event: start' stream.txt
grep -q '^event: phase_enter' stream.txt
first_phase=$(grep -n '^event: phase_enter' stream.txt | head -1 | cut -d: -f1)
report_line=$(grep -n '^event: report' stream.txt | cut -d: -f1)
echo "first phase event at line ${first_phase}, report at line ${report_line}"
test "${first_phase}" -lt "${report_line}"
awk '/^event: /{last=$2} END{exit last != "report"}' stream.txt
grep -A1 '^event: report' stream.txt | grep -q '"schema_version":1'

# Firehose closes after the requested number of events. Wait for the
# subscription to register before triggering the run — a memoized run
# completes in microseconds, faster than curl can connect.
curl -fsSN "${BASE}/events?limit=2" > firehose.txt &
FIREHOSE_PID=$!
for _ in $(seq 1 50); do
  subs=$(curl -fsS "${BASE}/healthz" | grep -o '"event_subscribers":[0-9]*' | cut -d: -f2)
  if test "${subs:-0}" -ge 1; then break; fi
  sleep 0.1
done
curl -fsS -X POST -d '{"quick":true}' "${BASE}/run/table1" > /dev/null
wait "${FIREHOSE_PID}"
test "$(grep -c '^event: ' firehose.txt)" -eq 2

kill -TERM "${SERVE_PID}"
# Watchdog: SIGKILL if the daemon fails to drain within 30s, which
# forces a non-zero exit code below.
( sleep 30; kill -KILL "${SERVE_PID}" 2>/dev/null ) &
WATCHDOG=$!
rc=0
wait "${SERVE_PID}" || rc=$?
kill "${WATCHDOG}" 2>/dev/null || true
cat serve.log
test "${rc}" -eq 0
