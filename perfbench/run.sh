#!/usr/bin/env bash
# run.sh builds the hotnoc benchmark from the surrounding source tree and
# runs it, passing every argument through:
#
#   bash perfbench/run.sh --workload fig1-cold --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Everything the build writes (the Go
# build cache, temporary files, the binary) stays under .bench_build/ in
# the current directory, and the module build never touches the network.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/go-cache" "$out/tmp" "$out/config"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local GOTELEMETRY=off

go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
