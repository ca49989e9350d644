#!/usr/bin/env bash
# End-to-end smoke of the `repro serve` daemon: health, keep-alive,
# memoization across requests, bounded memory over a burst of warm
# requests, trace-store write/replay, cache GC,
# request coalescing, exactly-once simulation in a cold burst of
# overlapping experiments, JSON/text response formats, rejection of the
# retired streaming routes, phase-sampled runs (simpoint.* metrics), and
# graceful drain.
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

"${REPRO}" serve --addr "${ADDR}" --cache-dir .ci-cache --trace-store .ci-cache/traces \
  2> serve.log &
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

# Memory growth: a burst of warm keep-alive requests must not grow the
# daemon. It keeps no per-request state (no span records; its PCA memo is
# bounded), so VmRSS may move by allocator noise only: ~0.1 MB here, where
# a daemon that kept a span record per request grew ~6.8 MB over the same
# 300 requests.
RSS_BURST=150          # rounds of the two experiments below
RSS_BOUND_KB=1536
vm_rss_kb() { awk '/^VmRSS:/ {print $2}' "/proc/${SERVE_PID}/status"; }
curl -fsS -X POST -d '{"quick":true}' "${BASE}/run/table2" "${BASE}/run/fig2" > /dev/null
rss_before=$(vm_rss_kb)
burst=()
for _ in $(seq 1 "${RSS_BURST}"); do
  burst+=("${BASE}/run/table2?format=text" "${BASE}/run/fig2?format=text")
done
curl -fsS -X POST -d '{"quick":true}' "${burst[@]}" > /dev/null
rss_after=$(vm_rss_kb)
echo "VmRSS over ${#burst[@]} warm requests: ${rss_before} kB -> ${rss_after} kB" \
  "(bound: +${RSS_BOUND_KB} kB)"
test $((rss_after - rss_before)) -le "${RSS_BOUND_KB}"

# Trace store: a fresh seed misses memo and disk cache, so table1 writes
# packed traces through the .ci-cache/traces store and fig2
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

# Cold burst: distinct experiments that share grid cells, sent at once on
# a fresh seed, run as concurrent campaigns on the one engine. Every job
# they miss must simulate exactly once, so the simulated-job count grows
# by exactly the number of new memo entries.
memo_entries() {
  curl -fsS "${BASE}/healthz" | grep -o '"memo_entries":[0-9]*' | cut -d: -f2
}
burst_seed=$((fresh_seed + 1))
sim_before=$(metric horizon_engine_simulated_jobs)
memo_before=$(memo_entries)
CURL_PIDS=""
for exp in table1 table2 fig1 fig2; do
  curl -fsS -X POST -d "{\"quick\":true,\"seed\":${burst_seed}}" "${BASE}/run/${exp}" \
    > "burst_${exp}.json" &
  CURL_PIDS="${CURL_PIDS} $!"
done
wait ${CURL_PIDS}
sim_delta=$(( $(metric horizon_engine_simulated_jobs) - ${sim_before:-0} ))
memo_delta=$(( $(memo_entries) - memo_before ))
echo "cold burst: ${sim_delta} jobs simulated, ${memo_delta} new memo entries"
test "${sim_delta}" -gt 0
test "${sim_delta}" -eq "${memo_delta}"

# ?format=text must be byte-identical to batch stdout.
curl -fsS -X POST -d '{"quick":true}' "${BASE}/run/table1?format=text" > served.txt
"${REPRO}" table1 --quick > batch.txt
cmp served.txt batch.txt

# No live event routes: `/events` is 404, and `stream` is an unknown
# query parameter on runs (400), never a silently ignored one.
code=$(curl -sS -o /dev/null -w '%{http_code}' "${BASE}/events")
test "${code}" -eq 404
code=$(curl -sS -o /dev/null -w '%{http_code}' -X POST \
  -d '{"quick":true}' "${BASE}/run/table1?stream=events")
test "${code}" -eq 400

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
