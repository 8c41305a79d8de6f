#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it. Run from
# the repository root:
#
#   bash _perfbench/run.sh --workload inject-served --seed 2019 --seconds 20 --trace 0
#   bash _perfbench/run.sh --seed 2019 --trace 1    # traced pass over every workload
#   bash _perfbench/run.sh compare parent-runs/ change-runs/
#
# Every build product and scratch file stays under .bench_build/ (or
# $CARGO_TARGET_DIR when set) in the current directory.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/gocache" "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp" \
	GOENV=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOPROXY=off
(cd "$here" && go build -o "$out/perfbench" .)
if [ "${1:-}" = compare ]; then
	exec "$out/perfbench" "$@"
fi
# repro-quick checks its tables against the CLI's output.
(cd "$here/.." && go build -o "$out/reproduce" ./cmd/reproduce)
exec "$out/perfbench" -scratch "$out/tmp" -reproduce "$out/reproduce" "$@"
