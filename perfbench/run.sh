#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs it with the given arguments:
#
#   bash perfbench/run.sh --workload als-serial --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every build and run artifact stays under
# .bench_build/ in that directory (Go build cache, binary, traces, scratch
# checkpoints). Without the repository's Go sources next to perfbench/ the
# build fails and the script exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOTELEMETRY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=-mod=readonly

if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod must exist)" >&2
	exit 2
fi
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -out "$out" "$@"
