#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Run it from the root of the repository:
#
#   bash perfbench/run.sh --workload highway-beacon --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh compare base.txt head.txt
#
# Everything the build writes (binary, build cache, temporary files) goes
# under .bench_build, or $CARGO_TARGET_DIR when that is set.
set -euo pipefail
cd "$(dirname "$0")/.."
out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp" "$out/config"
out="$(cd "$out" && pwd)"
export GOCACHE="$out/gocache" GOMODCACHE="$out/modcache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
go build -C perfbench -o "$out/perfbench" .
exec "$out/perfbench" "$@"
