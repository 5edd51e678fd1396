#!/usr/bin/env bash
# Builds the netbatch benchmark from the checkout it sits in and runs it,
# passing every argument through:
#
#   bash perfbench/run.sh --workload year6 --seed 7 --seconds 20 --trace 0
#
# Everything the Go toolchain writes (build cache, temp files, the binary)
# stays under .bench_build/ at the repository root.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/cache" "$out/tmp" "$out/config" "$out/gopath"

export GOCACHE="$out/cache/go-build"
export XDG_CACHE_HOME="$out/cache"
export XDG_CONFIG_HOME="$out/config"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
