#!/usr/bin/env bash
# Builds dsfserve and the benchmark from this checkout, then runs one
# workload. Every build artifact and the Go build cache stay under
# .bench_build/ in the checkout root (or $CARGO_TARGET_DIR when set).
#
#   bash perfbench/run.sh --workload solve-det --seed 1 --seconds 20 --trace 0
set -euo pipefail

root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/bin" "$out/gocache" "$out/gopath" "$out/tmp"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/mod"
export GOTMPDIR="$out/tmp" GOENV=off GOPROXY=off GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off

if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/dsfserve" ]; then
	echo "perfbench: run from the repository root (no go.mod or cmd/dsfserve here)" >&2
	exit 2
fi
go build -o "$out/bin/dsfserve" ./cmd/dsfserve >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -dsfserve "$out/bin/dsfserve" "$@"
