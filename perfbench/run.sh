#!/usr/bin/env bash
# Builds perfbench from this checkout and runs it. Run from the root of
# the repository; every argument is passed through, e.g.
#
#   bash perfbench/run.sh --workload plan_cold --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache, temporary cache directories and
# trace files all stay under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp"
export GOENV=off GOWORK=off GOPROXY=off GOTOOLCHAIN=local GOFLAGS=

commit=unknown
if [ -d "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)
fi

(cd "$root/perfbench" && go build -buildvcs=false -o "$build/perfbench" .)
exec "$build/perfbench" --workdir "$build/work" --commit "$commit" "$@"
