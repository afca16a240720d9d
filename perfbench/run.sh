#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload campaign-d3 --seed 43 --seconds 10 --trace 0
#
# Everything it writes (Go build cache, binary, cached inputs, ledgers)
# stays under .bench_build/ in the current directory.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod"
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd perfbench && go build -o "$build/bin/perfbench" .)
exec "$build/bin/perfbench" "$@"
