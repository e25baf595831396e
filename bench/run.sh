#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Everything
# the build and the run write stays under .bench_build in the checkout:
# the Go build cache, the binary, WAL directories and trace files.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
mkdir -p "$out/gotmp"
(
	cd "$here"
	GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/gotmp" XDG_CONFIG_HOME="$out/config" \
		GOFLAGS=-mod=mod GOTOOLCHAIN=local GOENV=off GOWORK=off go build -o "$out/fleetbench" .
)
cd "$root"
exec "$out/fleetbench" "$@"
