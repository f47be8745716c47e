#!/usr/bin/env bash
# Builds the benchmark and tunerd from source into .bench_build/perfbench
# under the current directory (the repository root) and runs the
# benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload matrix --seed 1 --seconds 20 --trace 0
#
# Every file the Go toolchain writes (build cache, module cache, config)
# stays under .bench_build. Outside a full checkout the build fails and
# the script exits nonzero without printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off

bench="$out/perfbench" tunerd="$out/tunerd"
stale() {
	[ ! -x "$1" ] || [ -n "$(find "$root/perfbench" "$root/internal" "$root/cmd" "$root/go.mod" -newer "$1" -print -quit)" ]
}
if stale "$bench" || stale "$tunerd"; then
	(cd "$root/perfbench" && go build -o "$bench" ./cmd/perfbench) >&2
	go build -o "$tunerd" ./cmd/tunerd >&2
fi
exec "$bench" -tunerd "$tunerd" -workdir "$out" "$@"
