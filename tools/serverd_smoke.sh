#!/usr/bin/env bash
# serverd_smoke.sh — end-to-end smoke of the REAL koios_serverd process
# (the chaos bench drives the same stack in-process; this script is the
# only place the actual signal handler / exit-status story is exercised).
#
#   tools/serverd_smoke.sh [BUILD_DIR]       # default: build
#
# Acts, in order:
#   0. bad numeric flag values (a sign, a suffix, out of range, below the
#      flag's minimum) exit 2 naming the flag, before the daemon binds,
#      loads or starts a thread
#   1. fixture + daemon A starts, becomes ready (zero-touch initial load)
#   2. happy path: ping, one query, a batch over the binary protocol,
#      line-JSON via the same listener
#   3. metrics scrape: server + engine + watcher families present, incl.
#      per-dialect request latency, koios_phase_seconds span histograms
#      and positive engine latency gauges (p50, p99, EWMA)
#   4. hot snapshot push (atomic rename): watcher swaps, still ready,
#      queries keep answering
#   5. corrupt push: swap rejected (fail-closed), old snapshot answers,
#      swap_failures counter ticks
#   5b. /debug/tracez scrape mid-run: parses as Chrome trace-event JSON
#      with search + swap spans; saved as serverd_tracez.json for CI
#   6. daemon B (tiny queue, 1 worker, small request cap) pointed at a
#      MISSING repository: up but unready, /readyz 503, sheds carry a
#      retry hint; pushing the fixture flips it ready with zero touches
#   7. oversized request rejected from the frame header (daemon B's cap)
#   8. retry-after on the tiny queue: a 64-query burst must shed with
#      hint-carrying statuses and still answer some queries
#   9. SIGTERM drain of daemon A while a batch is in flight: exits 0,
#      "drained" in the log
#
# Any failed check aborts with a nonzero exit (set -e); daemons are
# reaped on exit.
set -euo pipefail

BUILD_DIR="${1:-build}"
for bin in koios_serverd koios_client make_serve_fixture; do
  if [[ ! -x "$BUILD_DIR/$bin" ]]; then
    echo "missing $BUILD_DIR/$bin (build first)" >&2
    exit 1
  fi
done
SERVERD="$BUILD_DIR/koios_serverd"
CLIENT="$BUILD_DIR/koios_client"
FIXTURE="$BUILD_DIR/make_serve_fixture"

WORK="$(mktemp -d /tmp/serverd_smoke.XXXXXX)"
PID_A="" PID_B=""
cleanup() {
  [[ -n "$PID_A" ]] && kill -9 "$PID_A" 2>/dev/null || true
  [[ -n "$PID_B" ]] && kill -9 "$PID_B" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() {
  echo "SMOKE FAIL: $*" >&2
  for log in "$WORK"/serverd_*.log; do
    [[ -f "$log" ]] && { echo "---- $log ----" >&2; cat "$log" >&2; }
  done
  if [[ -n "${PORT_A:-}" ]]; then
    echo "---- daemon A watch metrics ----" >&2
    "$CLIENT" --port "$PORT_A" --http /metrics 2>/dev/null |
      grep -E '^koios_(watch|server_ready)' >&2 || true
  fi
  exit 1
}
note() { echo "--- $*"; }

wait_file() { # path, tries
  local i
  for ((i = 0; i < ${2:-50}; i++)); do
    [[ -s "$1" ]] && return 0
    sleep 0.1
  done
  return 1
}

wait_ready() { # port, tries
  local i
  for ((i = 0; i < ${2:-150}; i++)); do
    if "$CLIENT" --port "$1" --http /readyz >/dev/null 2>&1; then
      return 0
    fi
    sleep 0.1
  done
  return 1
}

# A settled change triggers a synchronous spool + load + engine build in
# the watcher thread, which can take seconds on a loaded runner — poll the
# metric generously.
wait_metric() { # port, exact metric line, tries
  local i
  for ((i = 0; i < ${3:-150}; i++)); do
    "$CLIENT" --port "$1" --http /metrics 2>/dev/null |
      grep -q "^$2\$" && return 0
    sleep 0.1
  done
  return 1
}

# ---- act 0: bad numeric flag values exit 2 --------------------------------
note "act 0: bad numeric flag values exit 2"
# Each pair is one flag and one value it must refuse. The repository path
# does not exist, so nothing is loaded even if a value slipped through; the
# timeout catches a daemon that started instead of exiting.
for bad in "--threads -1" "--shards -1" "--queue -1" \
  "--max-request-bytes -1" "--threads 4x" "--port 70000" "--threads 0" \
  "--shards 0" "--poll-ms 0"; do
  read -r flag value <<<"$bad"
  rc=0
  timeout 10 "$SERVERD" --repo "$WORK/never.bin" "$flag" "$value" \
    >/dev/null 2>"$WORK/bad_flag.err" || rc=$?
  [[ "$rc" -eq 2 ]] || fail "'$bad' exited $rc, want 2"
  grep -q -- "$flag" "$WORK/bad_flag.err" ||
    fail "'$bad': message does not name the flag: $(cat "$WORK/bad_flag.err")"
done

# ---- act 1: fixture + daemon A -------------------------------------------
note "act 1: start daemon A on a fresh fixture"
"$FIXTURE" "$WORK/repo.bin" --sets 1500 --seed 7 \
  --queries "$WORK/queries.txt" --num-queries 64 >/dev/null
# --queue covers act 9's 320-query in-flight batch (the tiny-queue
# shedding story is daemon B's).
"$SERVERD" --repo "$WORK/repo.bin" --port 0 --port-file "$WORK/port_a" \
  --threads 2 --queue 1024 --poll-ms 100 >"$WORK/serverd_a.log" 2>&1 &
PID_A=$!
wait_file "$WORK/port_a" || fail "daemon A never wrote its port file"
PORT_A="$(cat "$WORK/port_a")"
wait_ready "$PORT_A" || fail "daemon A never became ready"
"$CLIENT" --port "$PORT_A" --http /healthz | grep -q '^ok$' ||
  fail "healthz"

# ---- act 2: happy path ----------------------------------------------------
note "act 2: happy path (ping, query, batch, JSON line mode)"
"$CLIENT" --port "$PORT_A" --ping | grep -q pong || fail "ping"
Q1="$(head -1 "$WORK/queries.txt")"
[[ -n "$("$CLIENT" --port "$PORT_A" --query "$Q1" --k 5)" ]] ||
  fail "single query returned nothing"
BATCH_LINES="$("$CLIENT" --port "$PORT_A" --stdin <"$WORK/queries.txt" |
  cut -f1 | sort -un | wc -l)"
[[ "$BATCH_LINES" -eq 64 ]] ||
  fail "batch answered $BATCH_LINES of 64 queries"
# Line-JSON on the same listener, strict parser: a typo must fail loud.
JSON_TOKENS="[${Q1// /,}]"
exec 3<>"/dev/tcp/127.0.0.1/$PORT_A"
printf '{"tokens":%s,"k":3}\n{"tokens":%s,"aplha":0.9}\n' \
  "$JSON_TOKENS" "$JSON_TOKENS" >&3
IFS= read -r line1 <&3
IFS= read -r line2 <&3
exec 3<&- 3>&-
grep -q '"status":"ok"' <<<"$line1" || fail "JSON query: $line1"
grep -q '"status":"invalid_argument".*aplha' <<<"$line2" ||
  fail "JSON strictness: $line2"

# ---- act 3: metrics scrape ------------------------------------------------
note "act 3: metrics scrape"
METRICS="$("$CLIENT" --port "$PORT_A" --http /metrics)"
for series in koios_server_responses_ok_total koios_server_ready \
  koios_queries_completed_total koios_cursor_cache_hits_total \
  koios_watch_initial_loads_total; do
  grep -q "^$series" <<<"$METRICS" || fail "metrics missing $series"
done
grep -q '^koios_server_ready 1$' <<<"$METRICS" || fail "not ready in metrics"
# Observability families: request latency split by wire dialect, and the
# per-phase span histograms (act 2's traffic guarantees sampled queries
# at the default 1-in-16 rate).
grep -q '^koios_server_request_seconds_bucket{dialect="binary"' \
  <<<"$METRICS" || fail "metrics missing binary-dialect latency"
grep -q '^koios_server_request_seconds_bucket{dialect="json"' \
  <<<"$METRICS" || fail "metrics missing json-dialect latency"
grep -q '^koios_phase_seconds_bucket{phase="search"' <<<"$METRICS" ||
  fail "metrics missing koios_phase_seconds for the search phase"
# The engine's latency gauges, read from its histograms and EWMA: act 2's
# queries completed, so each is present and positive.
for series in koios_query_latency_p50_seconds koios_query_latency_p99_seconds \
  koios_query_latency_ewma_seconds; do
  awk -v s="$series" '$1 == s && $2 > 0 { ok = 1 } END { exit !ok }' \
    <<<"$METRICS" || fail "metrics: $series missing or not above 0"
done

# ---- act 4: hot snapshot push (atomic rename) -----------------------------
note "act 4: hot snapshot push"
"$FIXTURE" "$WORK/next.bin" --sets 1500 --seed 8 >/dev/null
mv "$WORK/next.bin" "$WORK/repo.bin"
wait_metric "$PORT_A" 'koios_watch_swaps_completed_total 1' ||
  fail "hot push never swapped"
wait_ready "$PORT_A" 10 || fail "daemon A unready after hot push"
[[ -n "$("$CLIENT" --port "$PORT_A" --query "$Q1" --k 5)" ]] ||
  fail "query after hot push"

# ---- act 5: corrupt push is rejected, old snapshot keeps answering --------
note "act 5: corrupt push rejected"
"$FIXTURE" "$WORK/bad.bin" --sets 1500 --seed 9 --corrupt >/dev/null
mv "$WORK/bad.bin" "$WORK/repo.bin"
wait_metric "$PORT_A" 'koios_watch_swap_failures_total 1' ||
  fail "corrupt push was not rejected"
wait_ready "$PORT_A" 10 || fail "daemon A unready after corrupt push"
[[ -n "$("$CLIENT" --port "$PORT_A" --query "$Q1" --k 5)" ]] ||
  fail "old snapshot stopped answering after corrupt push"

# ---- act 5b: /debug/tracez is Perfetto-loadable Chrome trace JSON ---------
note "act 5b: tracez capture parses as Chrome trace-event JSON"
"$CLIENT" --port "$PORT_A" --http /debug/tracez >"$WORK/tracez.json" ||
  fail "tracez scrape failed"
python3 - "$WORK/tracez.json" <<'PY' || fail "tracez JSON validation"
import json, sys
doc = json.load(open(sys.argv[1]))
events = doc["traceEvents"]
assert isinstance(events, list) and events, "traceEvents empty"
names = {e.get("name") for e in events}
assert "search" in names, "no search span: %s" % sorted(n for n in names if n)
assert "watch.swap" in names, "no watch.swap span (acts 4/5 pushed twice)"
complete = [e for e in events if e.get("ph") == "X"]
assert complete, "no complete (ph=X) events"
for e in complete:
    for key in ("name", "ts", "dur", "pid", "tid"):
        assert key in e, "event missing %s: %r" % (key, e)
print("tracez ok: %d events, %d span names" % (len(events), len(names)))
PY
# Keep a copy where CI picks it up as an artifact (repo root when the
# workflow runs this script).
cp "$WORK/tracez.json" serverd_tracez.json 2>/dev/null || true

# ---- act 6: daemon B starts unready against a missing repository ----------
note "act 6: daemon B unready until the first push lands"
"$SERVERD" --repo "$WORK/repo_b.bin" --port 0 --port-file "$WORK/port_b" \
  --threads 1 --queue 1 --poll-ms 100 --max-request-bytes 8192 \
  >"$WORK/serverd_b.log" 2>&1 &
PID_B=$!
wait_file "$WORK/port_b" || fail "daemon B never wrote its port file"
PORT_B="$(cat "$WORK/port_b")"
sleep 0.3
"$CLIENT" --port "$PORT_B" --http /healthz | grep -q '^ok$' ||
  fail "daemon B healthz while unready"
if "$CLIENT" --port "$PORT_B" --http /readyz >/dev/null 2>&1; then
  fail "daemon B claims ready with no repository"
fi
UNREADY_ERR="$("$CLIENT" --port "$PORT_B" --query "$Q1" --retries 0 2>&1 \
  >/dev/null)" && fail "unready daemon B answered a query"
grep -q 'retry after' <<<"$UNREADY_ERR" ||
  fail "unready shed carried no retry hint: $UNREADY_ERR"
"$FIXTURE" "$WORK/stage.bin" --sets 1500 --seed 7 >/dev/null
mv "$WORK/stage.bin" "$WORK/repo_b.bin"
wait_ready "$PORT_B" || fail "daemon B never became ready after the push"

# ---- act 7: oversized request rejected from the header --------------------
note "act 7: oversized request rejected"
BIG_QUERY="$(seq -s' ' 0 2499)" # 2500 tokens ~ 10KB body > 8KB cap
OVERSIZE_ERR="$("$CLIENT" --port "$PORT_B" --query "$BIG_QUERY" \
  --retries 0 2>&1 >/dev/null)" && fail "oversized request was answered"
grep -q 'exceeds' <<<"$OVERSIZE_ERR" ||
  fail "oversized rejection not from the size cap: $OVERSIZE_ERR"
"$CLIENT" --port "$PORT_B" --ping >/dev/null || fail "daemon B after oversize"

# ---- act 8: retry-after on the tiny queue ---------------------------------
note "act 8: tiny-queue burst sheds with retry hints"
BURST_ERR="$WORK/burst_err.txt"
BURST_OUT="$WORK/burst_out.txt"
rc=0
for ((i = 0; i < 64; i++)); do echo "$Q1"; done |
  "$CLIENT" --port "$PORT_B" --stdin >"$BURST_OUT" 2>"$BURST_ERR" || rc=$?
[[ "$rc" -eq 3 ]] || fail "tiny-queue burst was not shed at all (rc=$rc)"
grep -q 'retry after' "$BURST_ERR" ||
  fail "sheds carried no retry hint: $(head -3 "$BURST_ERR")"
[[ -s "$BURST_OUT" ]] || fail "tiny-queue burst answered nothing"
kill -9 "$PID_B" 2>/dev/null
wait "$PID_B" 2>/dev/null || true # reap, so the shell prints no job notice
PID_B=""

# ---- act 9: SIGTERM drain under load exits 0 ------------------------------
note "act 9: SIGTERM drain under load"
DRAIN_OUT="$WORK/drain_out.txt"
(for ((i = 0; i < 5; i++)); do cat "$WORK/queries.txt"; done |
  "$CLIENT" --port "$PORT_A" --stdin >"$DRAIN_OUT" 2>/dev/null) &
BATCH_PID=$!
sleep 0.2
kill -TERM "$PID_A"
rc=0
wait "$PID_A" || rc=$?
PID_A=""
[[ "$rc" -eq 0 ]] || fail "SIGTERM drain exited $rc, want 0"
grep -q 'drained' "$WORK/serverd_a.log" || fail "no drain line in the log"
wait "$BATCH_PID" || fail "in-flight batch failed during drain"
DRAIN_LINES="$(cut -f1 "$DRAIN_OUT" | sort -un | wc -l)"
[[ "$DRAIN_LINES" -eq 320 ]] ||
  fail "drain completed only $DRAIN_LINES of 320 in-flight queries"

echo "serverd smoke: all acts passed"
