#!/usr/bin/env bash
# Smoke-test the advisord serving daemon end to end: build, start, wait for
# readiness, exercise every route, then SIGTERM and assert a clean drain
# (exit 0), and restart on the same model dir to check the restore path. CI runs this on every push; it also works locally:
#
#   ./scripts/smoke_advisord.sh [port]
#
# Uses the Heuristic advisor so startup is instant; the HTTP surface, guard
# routing, admission control and drain path are identical for every advisor.
set -euo pipefail

PORT="${1:-18930}"
BASE="http://127.0.0.1:${PORT}"
DIR="$(mktemp -d)"
BIN="${DIR}/advisord"
LOG="${DIR}/advisord.log"
JSONL="${DIR}/advisord.jsonl"
REPORT="${DIR}/report.json"

cleanup() {
    [ -n "${PID:-}" ] && kill -9 "$PID" 2>/dev/null || true
    rm -rf "$DIR"
}
trap cleanup EXIT

fail() { echo "smoke_advisord: FAIL: $*" >&2; echo "--- daemon log:" >&2; cat "$LOG" >&2 || true; exit 1; }

go build -o "$BIN" ./cmd/advisord

# Tracing on (retain every request in the flight recorder), structured log
# to a JSONL file, forensics report dumped on drain.
"$BIN" -addr "127.0.0.1:${PORT}" -advisor Heuristic -n 8 -model-dir "${DIR}/models" \
    -trace-record-all -log-file "$JSONL" -report "$REPORT" 2>"$LOG" &
PID=$!

# Readiness must flip within 30s (Heuristic trains in milliseconds).
wait_ready() {
    for _ in $(seq 1 120); do
        if curl -fsS "${BASE}/readyz" >/dev/null 2>&1; then return 0; fi
        kill -0 "$PID" 2>/dev/null || fail "daemon died before becoming ready"
        sleep 0.25
    done
    fail "/readyz never returned 200"
}
wait_ready

# Liveness and the API surface.
curl -fsS "${BASE}/healthz" | grep -q ok || fail "/healthz not ok"

REC=$(curl -fsS -X POST "${BASE}/v1/recommend" \
    -d '{"queries":["SELECT l_partkey FROM lineitem WHERE l_quantity > 30"]}') \
    || fail "recommend request failed"
echo "$REC" | grep -q '"tier"'          || fail "recommend answer missing tier: $REC"
echo "$REC" | grep -q '"model_version"' || fail "recommend answer missing model_version: $REC"
echo "$REC" | grep -q '"trace_id"'      || fail "recommend answer missing trace_id: $REC"

# The returned trace ID must resolve at the flight recorder.
TRACE_ID=$(echo "$REC" | sed -n 's/.*"trace_id":"\([0-9a-f]*\)".*/\1/p')
[ -n "$TRACE_ID" ] || fail "could not extract trace_id from: $REC"
curl -fsS "${BASE}/debug/traces?trace=${TRACE_ID}" | grep -q '"span_id"' \
    || fail "trace ${TRACE_ID} not retained at /debug/traces"

# The daemon echoes a caller's traceparent header.
PARENT="00-00000000000000000000000000abc123-000000000000d00d-01"
ECHOED=$(curl -fsS -D - -o /dev/null -X POST "${BASE}/v1/recommend" \
    -H "Traceparent: ${PARENT}" \
    -d '{"queries":["SELECT COUNT(*) FROM orders"]}' | tr -d '\r' \
    | sed -n 's/^[Tt]raceparent: //p')
echo "$ECHOED" | grep -q "00-00000000000000000000000000abc123-" \
    || fail "traceparent not adopted: got ${ECHOED:-<none>}"

UPD=$(curl -fsS -X POST "${BASE}/v1/update" \
    -d '{"queries":["SELECT COUNT(*) FROM orders"]}') \
    || fail "update request failed"
echo "$UPD" | grep -q '"outcome":"committed"' || fail "update not committed: $UPD"

curl -fsS "${BASE}/v1/status"     | grep -q '"ready":true' || fail "status not ready"
curl -fsS "${BASE}/v1/quarantine" | grep -q '"entries"'    || fail "quarantine endpoint broken"

# The flight-recorder dump is non-empty (record-all retains every request).
DUMP=$(curl -fsS "${BASE}/debug/traces") || fail "/debug/traces failed"
echo "$DUMP" | grep -q '"len":0' && fail "flight recorder empty with -trace-record-all: $DUMP"
echo "$DUMP" | grep -q '"trace_id"' || fail "flight dump carries no traces: $DUMP"

# Bad input must 400, not crash.
CODE=$(curl -s -o /dev/null -w '%{http_code}' -X POST "${BASE}/v1/recommend" -d '{"queries":[]}')
[ "$CODE" = "400" ] || fail "empty workload: got $CODE, want 400"

# Graceful drain: SIGTERM → readyz flips 503 → process exits 0, model persisted.
kill -TERM "$PID"
if ! wait "$PID"; then fail "daemon exited non-zero on SIGTERM"; fi
PID=""
[ -f "${DIR}/models/Heuristic.model" ] || fail "no model persisted to -model-dir"

# The structured log is non-empty, well-formed JSONL (every line one JSON
# object with the fixed prefix fields).
[ -s "$JSONL" ] || fail "structured log ${JSONL} empty or missing"
python3 - "$JSONL" <<'PY' || fail "structured log is not well-formed JSONL"
import json, sys
with open(sys.argv[1]) as f:
    for i, line in enumerate(f, 1):
        try:
            m = json.loads(line)
        except ValueError as e:
            sys.exit(f"line {i}: not JSON: {e}")
        for k in ("ts", "level", "tool", "msg"):
            if k not in m:
                sys.exit(f"line {i}: missing {k}: {line.strip()}")
        if m["tool"] != "advisord":
            sys.exit(f"line {i}: tool = {m['tool']!r}")
PY
grep -q '"msg":"drained"' "$JSONL" || fail "log missing the drain line"

# The forensics report was written on drain and carries the retained traces.
[ -s "$REPORT" ] || fail "report ${REPORT} empty or missing"
grep -q '"traces"' "$REPORT" || fail "report missing the flight-recorder traces"

# Restart on the same -model-dir: the daemon restores the drained model
# instead of training, and a restored daemon keeps committing updates.
LOG="${DIR}/advisord-restart.log"
"$BIN" -addr "127.0.0.1:${PORT}" -advisor Heuristic -n 8 -model-dir "${DIR}/models" 2>"$LOG" &
PID=$!
wait_ready
grep -q 'restored model' "$LOG" || fail "restart did not restore the persisted model"
grep -q 'training from scratch' "$LOG" && fail "restart trained from scratch over a persisted model"
UPD=$(curl -fsS -X POST "${BASE}/v1/update" \
    -d '{"queries":["SELECT COUNT(*) FROM orders"]}') \
    || fail "update after restart failed"
echo "$UPD" | grep -q '"outcome":"committed"' || fail "update after restart not committed: $UPD"
kill -TERM "$PID"
if ! wait "$PID"; then fail "restarted daemon exited non-zero on SIGTERM"; fi
PID=""

echo "smoke_advisord: OK"
