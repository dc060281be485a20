#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload. Run it from the
# repository root:
#
#   bash bench/run.sh --workload serve-hot --seed 1 --seconds 15 --trace 0
#
# Every build artefact (the Go build cache included) stays under
# .bench_build/, so a run reads and writes nothing outside the checkout. The
# build fails, and the script exits non-zero without a result, when the
# repository around bench/ is missing.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C bench build -o "$out/bench" .
exec "$out/bench" -trace-out "$out/spans.json" "$@"
