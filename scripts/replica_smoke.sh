#!/usr/bin/env bash
# replica_smoke.sh — black-box proof of the multi-replica collector
# tier. First a plain spectrumd (no -ring, no secret) must be a ring of
# one: itself the coordinator, ready at once, and every /replica/* call
# refused. Then boot three spectrumd replicas as one ring, register through one
# member, submit readings through the "wrong" members (forcing ring
# forwarding), verify every replica serves the identical fleet view,
# kill a non-coordinator and prove (a) submissions owned by the dead
# member shed with 503 + Retry-After instead of being acked into a
# void, (b) the restarted member catches up from a live peer and gates
# /readyz until it has.
#
# Usage: scripts/replica_smoke.sh [artifact-dir]   (default: replica-smoke)
set -euo pipefail
cd "$(dirname "$0")/.."

source scripts/lib.sh "${1:-replica-smoke}"

A1=127.0.0.1:18201
A2=127.0.0.1:18202
A3=127.0.0.1:18203
RING="r1=http://$A1,r2=http://$A2,r3=http://$A3"
# Every member shares the ring secret; /replica/* rejects anyone else.
export SENSORCAL_RING_SECRET=smoke-ring-secret

build_cmds spectrumd

# A plain daemon is a ring of one. With no secret configured the peer
# protocol is closed to everyone, whatever credential a caller presents.
A0=127.0.0.1:18200
env -u SENSORCAL_RING_SECRET "$WORK/spectrumd" -addr "$A0" -epoch 1s \
  >>"$OUT/spectrumd-plain.log" 2>&1 &
PLAIN=$!
wait_ready "$A0" "plain spectrumd"
curl -fsS "http://$A0/api/ring" >"$OUT/ring-plain.json"
python3 - "$OUT/ring-plain.json" <<'EOF'
import json, sys
ring = json.load(open(sys.argv[1]))
assert len(ring["members"]) == 1, f"{len(ring['members'])} members, want 1"
assert ring["self"] == ring["coordinator"], f"self {ring['self']} does not coordinate"
assert ring["ready"], "ring of one not ready"
EOF
for auth in "" "$SENSORCAL_RING_SECRET"; do
  code=$(curl -s -o /dev/null -w '%{http_code}' -X POST "http://$A0/replica/drain" \
    -H "X-Sensorcal-Ring-Auth: $auth" -d '{"cutoff":"2030-01-01T00:00:00Z"}')
  if [ "$code" != "403" ]; then
    echo "FAIL: /replica/drain on a ring of one returned $code, want 403" >&2
    exit 1
  fi
done
kill "$PLAIN"; wait "$PLAIN" || true
echo "OK: plain spectrumd is a ready ring of one and refuses the peer protocol"

start_replica() { # id addr
  "$WORK/spectrumd" -addr "$2" -replica-id "$1" -ring "$RING" \
    -wal "$WORK/wal-$1" -epoch 1s -catchup-wait 10s \
    >>"$OUT/spectrumd-$1.log" 2>&1 &
}

start_replica r1 "$A1"
start_replica r2 "$A2"
start_replica r3 "$A3"
wait_ready "$A1" r1; wait_ready "$A2" r2; wait_ready "$A3" r3

# The ring endpoint agrees on topology and the coordinator everywhere.
for a in "$A1" "$A2" "$A3"; do
  curl -fsS "http://$a/api/ring" >"$OUT/ring-$a.json"
  python3 - "$OUT/ring-$a.json" <<'EOF'
import json, sys
ring = json.load(open(sys.argv[1]))
assert ring["coordinator"] == "r1", f"coordinator {ring['coordinator']}, want r1"
assert len(ring["members"]) == 3, f"{len(ring['members'])} members, want 3"
assert ring["ready"], "replica not ready"
EOF
done
echo "OK: ring topology agreed on all three replicas"

# The peer protocol is credential-gated: a drain attempt without the
# ring secret must bounce with 403, not hand over pending evidence.
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST "http://$A1/replica/drain" \
  -d '{"cutoff":"2030-01-01T00:00:00Z"}')
if [ "$code" != "403" ]; then
  echo "FAIL: unauthenticated /replica/drain returned $code, want 403" >&2
  exit 1
fi
echo "OK: unauthenticated peer-protocol call rejected with 403"

# Register 10 nodes through r2 only — the broadcast must land them on
# every ledger. node-2 is pinned to r3 by the ring placement tests, and
# we rely on that below.
for n in $(seq 0 9); do
  curl -fsS -X POST "http://$A2/api/register" \
    -d "{\"id\":\"node-$n\",\"operator\":\"op-$n\",\"hardware\":\"rtl-sdr-v3\"}" >/dev/null
done

# Submit every node's readings through r1: most are owned elsewhere, so
# this exercises the forward path. node-7 reads hot to trip an anomaly.
submit_round() { # key-prefix entry-addr
  local batch="[" sep=""
  for n in $(seq 0 9); do
    p=-60; [ "$n" -eq 7 ] && p=-10
    batch="$batch$sep{\"node\":\"node-$n\",\"signal_id\":\"tv-521\",\"power_dbm\":$p,\"key\":\"$1-$n\"}"
    sep=","
  done
  batch="$batch]"
  curl -fsS -X POST "http://$2/api/readings" -d "$batch"
}
submit_round w1 "$A1" >"$OUT/submit1.json"
python3 - "$OUT/submit1.json" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
assert r["accepted"] == 10 and r["rejected"] == 0, r
EOF
echo "OK: 10 readings accepted through a non-owning replica"

# Forwarding really happened: the entry replica's counter is non-zero.
curl -fsS "http://$A1/metrics" >"$OUT/metrics-r1.txt"
grep -q '^replica_forwarded_readings_total [1-9]' "$OUT/metrics-r1.txt" || {
  echo "FAIL: no forwarded readings counted on r1" >&2
  exit 1
}

# Let the coordinator run a merge close (epoch window 1s), then the
# fleet view must be byte-identical on every replica and contain the
# scores the merge moved.
sleep 3
curl -fsS "http://$A1/api/fleet" >"$OUT/fleet-r1.json"
curl -fsS "http://$A2/api/fleet" >"$OUT/fleet-r2.json"
curl -fsS "http://$A3/api/fleet" >"$OUT/fleet-r3.json"
cmp "$OUT/fleet-r1.json" "$OUT/fleet-r2.json"
cmp "$OUT/fleet-r1.json" "$OUT/fleet-r3.json"
python3 - "$OUT/fleet-r1.json" <<'EOF'
import json, sys
fleet = json.load(open(sys.argv[1]))
assert len(fleet) == 10, f"{len(fleet)} nodes, want 10"
scores = {e["node"]: e["score"] for e in fleet}
assert scores["node-7"] < max(s for n, s in scores.items() if n != "node-7"), \
    f"node-7 never penalized: {scores}"
EOF
echo "OK: fleet view byte-identical across the ring, merge moved scores"

# Kill the non-coordinator r3. A batch containing node-2 (owned by r3)
# must shed whole with 503 + Retry-After: never ack evidence that was
# not placed.
pkill -f "replica-id r3" || true
sleep 0.5
code=$(curl -s -o "$OUT/shed-body.txt" -D "$OUT/shed-headers.txt" -w '%{http_code}' \
  -X POST "http://$A1/api/readings" \
  -d '[{"node":"node-2","signal_id":"tv-521","power_dbm":-60,"key":"dead-1"}]')
if [ "$code" != "503" ]; then
  echo "FAIL: submission for a dead owner returned $code, want 503" >&2
  exit 1
fi
grep -qi '^retry-after:' "$OUT/shed-headers.txt" || {
  echo "FAIL: 503 without Retry-After" >&2
  exit 1
}
echo "OK: dead-owner submission shed with 503 + Retry-After"

# Restart r3 on its surviving WAL: boot catch-up from a live peer must
# gate /readyz until the copy lands, then the ring converges again.
start_replica r3 "$A3"
wait_ready "$A3" "restarted r3"
curl -fsS "http://$A3/api/fleet" >"$OUT/fleet-r3-restarted.json"
cmp "$OUT/fleet-r1.json" "$OUT/fleet-r3-restarted.json" || {
  # The fleet merges live freshness; allow one refresh cycle.
  sleep 1
  curl -fsS "http://$A1/api/fleet" >"$OUT/fleet-r1-2.json"
  curl -fsS "http://$A3/api/fleet" >"$OUT/fleet-r3-restarted.json"
  cmp "$OUT/fleet-r1-2.json" "$OUT/fleet-r3-restarted.json"
}
# And the rerouted submission goes through now.
curl -fsS -X POST "http://$A1/api/readings" \
  -d '[{"node":"node-2","signal_id":"tv-521","power_dbm":-60,"key":"dead-1"}]' \
  >"$OUT/resubmit.json"
python3 - "$OUT/resubmit.json" <<'EOF'
import json, sys
r = json.load(open(sys.argv[1]))
assert r["accepted"] + r["duplicates"] == 1 and r["rejected"] == 0, r
EOF
echo "OK: restarted replica caught up; rerouted submission accepted"
echo "replica smoke passed"
