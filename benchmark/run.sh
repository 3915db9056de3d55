#!/usr/bin/env bash
# The benchmark's command: build ./benchmark from source and run it, keeping
# every file the build and the run write inside the checkout (.bench_build).
# Usage, from the repo root:
#   bash benchmark/run.sh --workload chat_open --seed 42 --seconds 10 --trace 0
set -euo pipefail
root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/benchmark" ]]; then
	echo "benchmark/run.sh: run from the root of a pie checkout (go.mod not found in $root)" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
# The go command's caches, temp files, config and telemetry all go here too.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" GOTOOLCHAIN=local
go build -o "$out/bin/benchmark" ./benchmark
exec "$out/bin/benchmark" "$@"
