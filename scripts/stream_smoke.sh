#!/usr/bin/env bash
# stream_smoke.sh — black-box proof of the fleet streaming service:
# boot a real spectrumd, stream frames from 100 sensors through the wire
# API with python3 + curl, then assert the aggregation actually happened
# (/api/occupancy holds non-empty slots) and the daemon stayed healthy
# (/readyz 200, i.e. the aggregation breaker never opened).
#
# Usage: scripts/stream_smoke.sh [artifact-dir]   (default: stream-smoke)
set -euo pipefail
cd "$(dirname "$0")/.."

source scripts/lib.sh "${1:-stream-smoke}"

ADDR=127.0.0.1:18125

build_cmds spectrumd
"$WORK/spectrumd" -addr "$ADDR" >"$OUT/spectrumd.log" 2>&1 &
wait_ready "$ADDR" spectrumd

# 100 sensors in four bodies of 25 frames, in the documented wire form:
# {"frames":[{sensor,center_hz,sample_rate,iq_b64}]}, iq_b64 being base64
# of little-endian float32 I/Q pairs, one -stream-fft (256) frame each —
# a tone, on centers inside the default -stream-band 470e6:698e6.
python3 - "$WORK" <<'EOF'
import base64, json, math, struct, sys
n, centers = 256, [500e6, 550e6, 600e6, 650e6]
def tone(cycles):
    return base64.b64encode(b"".join(
        struct.pack("<ff", 0.4 * math.cos(2 * math.pi * cycles * i / n),
                    0.4 * math.sin(2 * math.pi * cycles * i / n))
        for i in range(n))).decode()
for b in range(4):
    frames = [{"sensor": f"sensor-{s:03d}", "center_hz": centers[s % 4],
               "sample_rate": 2.4e6, "iq_b64": tone(8 + s % 16)}
              for s in range(b * 25, b * 25 + 25)]
    json.dump({"frames": frames}, open(f"{sys.argv[1]}/frames-{b}.json", "w"))
EOF
: >"$OUT/frames.log"
for round in 1 2 3 4 5; do
  for b in 0 1 2 3; do
    # -f: anything but 2xx (a shed or a rejected frame) fails the smoke.
    curl -fsS -X POST "http://$ADDR/api/stream/frames" \
      -d @"$WORK/frames-$b.json" >>"$OUT/frames.log"
  done
done

curl -fsS "http://$ADDR/api/occupancy" >"$OUT/occupancy.json"
python3 - "$OUT/occupancy.json" <<'EOF'
import json, sys
occ = json.load(open(sys.argv[1]))
slots = occ.get("slots") or []
frames = sum(s.get("frames", 0) for s in slots)
if not slots or frames == 0:
    raise SystemExit(f"FAIL: occupancy empty (slots={len(slots)}, frames={frames})")
buckets = sum(1 for s in slots for f in s.get("occupancy", []) if f > 0)
print(f"OK: {len(slots)} slot(s), {frames} frames folded, {buckets} occupied bucket(s)")
EOF

# Still ready after the load: the breaker never latched the service
# degraded, and the stream health check passes.
code=$(curl -s -o "$OUT/readyz.txt" -w '%{http_code}' "http://$ADDR/readyz")
if [ "$code" != "200" ]; then
  echo "FAIL: /readyz returned $code after streaming load" >&2
  cat "$OUT/readyz.txt" >&2
  exit 1
fi
echo "OK: /readyz healthy after streaming load"

# The stream metrics surfaced on /metrics prove the obs wiring end to end.
curl -fsS "http://$ADDR/metrics" >"$OUT/metrics.txt"
grep -q '^stream_frames_processed_total [1-9]' "$OUT/metrics.txt" || {
  echo "FAIL: stream_frames_processed_total not advancing" >&2
  exit 1
}
echo "OK: stream metrics advancing"
