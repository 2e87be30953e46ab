#!/usr/bin/env bash
# Builds the benchmark from source and runs it. From the repository root:
#
#   bash _perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# The binary, the Go build cache and traced runs' span files go to
# .bench_build/, so a run reads and writes nothing outside the checkout.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOENV=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false CGO_ENABLED=0
(cd _perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
