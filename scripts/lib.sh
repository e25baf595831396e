# lib.sh — what the smoke scripts share. Source it from the repo root
# with the artifact directory:
#
#   source scripts/lib.sh "${1:-stream-smoke}"
#
# It sets OUT (artifacts, kept) and WORK (binaries, WALs and spools,
# removed on exit) and kills whatever the script left running.

OUT=$1
mkdir -p "$OUT"
WORK=$(mktemp -d)
cleanup() {
  kill $(jobs -p) 2>/dev/null || true
  wait 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

# build_cmds name... — build ./cmd/<name> binaries into $WORK.
build_cmds() {
  go build -o "$WORK/" "${@/#/./cmd/}"
}

# wait_ready addr what — poll /readyz (not /metrics: that answers while
# spectrumd is still replaying its WAL) for up to 10 s.
wait_ready() {
  for i in $(seq 1 50); do
    curl -fsS "http://$1/readyz" >/dev/null 2>&1 && return 0
    sleep 0.2
  done
  echo "FAIL: $2 never became ready" >&2
  exit 1
}
