#!/usr/bin/env bash
# Builds the sweep benchmark from the checkout's sources and runs it.
# Run from the root of the repository:
#   bash sweepbench/run.sh --workload lossy_pairs --seed 1 --seconds 30 --trace 0
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
build="$root/.bench_build"

if [[ ! -f "$root/go.mod" ]]; then
	echo "sweepbench: no go.mod at $root: run from a checkout of the repository" >&2
	exit 2
fi

mkdir -p "$build/tmp"
export TMPDIR="$build/tmp" GOTMPDIR="$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
export CGO_ENABLED=0

(cd "$here" && go build -o "$build/sweepbench" .)
exec "$build/sweepbench" --out "$build/sweepbench-out" --expected "$here/expected" "$@"
