#!/usr/bin/env bash
# Builds the serving-tier benchmark from source and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload churn --seed 1 --seconds 20 --trace 0
#
# Every build and run artifact (Go build cache, binary, WAL directories,
# span files) stays under .bench_build/ in the current directory.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
# Flush the build's (and any earlier run's) writeback now, so it does not
# compete with the run's fsyncs.
sync -f "$build"
exec "$build/perfbench" -dir "$build" "$@"
