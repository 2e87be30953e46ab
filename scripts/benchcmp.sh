#!/bin/sh
# Compares two BENCH_*.json files produced by scripts/bench.sh and exits
# non-zero when any shared benchmark slowed down past the regression
# threshold, changed a work counter or lost its counters, or when a
# benchmark of a city the new file measured is missing from it
# (DESIGN.md §11). Counters are deterministic, so any difference
# counts: a change that legitimately moves the work trajectory declares
# it and commits a new baseline.
#
# Usage:
#   scripts/benchcmp.sh old.json new.json [threshold]
#
# threshold is the allowed new/old ns-per-op growth ratio, default 1.15
# (+15%); timings on shared runners are noisy, so keep it generous and
# read the printed table for the real story.
set -eu
cd "$(dirname "$0")/.."

if [ $# -lt 2 ]; then
	echo "usage: scripts/benchcmp.sh old.json new.json [threshold]" >&2
	exit 2
fi
old=$1
new=$2
threshold=${3:-1.15}

go run ./cmd/mcfsperf -compare -threshold "$threshold" "$old" "$new"
