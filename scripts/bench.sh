#!/bin/sh
# Perf-trajectory runner (DESIGN.md §11): measures the hot-path suite
# (Dijkstra variants, NNSearcher, FindPair, end-to-end WMA) on the city
# presets and writes a schema-versioned BENCH_<stamp>.json.
#
# Usage:
#   scripts/bench.sh [out.json] [extra mcfsperf flags...]
#
# With no arguments the file is written to results/BENCH_<stamp>.json.
# Useful flags to pass through: -quick (reduced CI configuration),
# -cities aalborg, -seed N. Compare two files with scripts/benchcmp.sh.
set -eu
cd "$(dirname "$0")/.."

out=""
case "${1-}" in
*.json)
	out=$1
	shift
	;;
esac
if [ -z "$out" ]; then
	mkdir -p results
	out="results/BENCH_$(date -u +%Y%m%dT%H%M%SZ).json"
fi

go run ./cmd/mcfsperf -out "$out" "$@"
