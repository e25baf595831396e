#!/usr/bin/env bash
# trace_smoke.sh — black-box proof of the distributed-tracing contract:
# boot real spectrumd + schedd binaries, run a one-task agentd against
# them, then assert the measurement's trace ID — rooted at the agent's
# poll cycle — is retrievable from every daemon's /debug/traces.
#
# The agent exits after its task, so its spans come from the durable
# JSONL export (-trace-export) rather than a live debug endpoint; the
# two daemons are queried over HTTP like an operator would.
#
# Usage: scripts/trace_smoke.sh [artifact-dir]   (default: trace-smoke)
set -euo pipefail
cd "$(dirname "$0")/.."

source scripts/lib.sh "${1:-trace-smoke}"

SPECTRUM=127.0.0.1:18025
SCHED=127.0.0.1:18027

build_cmds spectrumd schedd agentd

"$WORK/spectrumd" -addr "$SPECTRUM" -wal "$WORK/wal" \
  -trace-export "$OUT/spectrumd-spans.jsonl" >"$OUT/spectrumd.log" 2>&1 &
"$WORK/schedd" -addr "$SCHED" -nodes node-1 -plan-every 2s \
  -trace-export "$OUT/schedd-spans.jsonl" >"$OUT/schedd.log" 2>&1 &

wait_ready "$SPECTRUM" spectrumd
wait_ready "$SCHED" schedd

# One leased measurement, then exit. The simulated agent clock races
# through the scheduled window, so this takes seconds of wall time.
"$WORK/agentd" -node node-1 -scheduler "http://$SCHED" \
  -collector "http://$SPECTRUM" -spool "$WORK/spool.jsonl" \
  -drain 500ms -poll 2s -tasks 1 -admin "" \
  -trace-export "$OUT/agent-spans.jsonl" >"$OUT/agentd.log" 2>&1

TRACE_ID=$(python3 - "$OUT/agent-spans.jsonl" <<'EOF'
import json, sys
for line in open(sys.argv[1]):
    rec = json.loads(line)
    if rec.get("name") == "agent.task":
        print(rec["trace_id"])
        break
EOF
)
if [ -z "$TRACE_ID" ]; then
  echo "FAIL: no agent.task span in $OUT/agent-spans.jsonl" >&2
  exit 1
fi
echo "measurement trace: $TRACE_ID"

fail=0
for daemon in "schedd $SCHED" "spectrumd $SPECTRUM"; do
  set -- $daemon
  name=$1 hostport=$2
  curl -fsS "http://$hostport/debug/traces?trace_id=$TRACE_ID" >"$OUT/$name-trace.json"
  n=$(python3 -c 'import json,sys; print(len(json.load(open(sys.argv[1]))))' "$OUT/$name-trace.json")
  if [ "$n" -eq 0 ]; then
    echo "FAIL: $name holds no spans of trace $TRACE_ID" >&2
    fail=1
  else
    echo "OK: $name holds $n span(s) of trace $TRACE_ID"
  fi
done
exit $fail
