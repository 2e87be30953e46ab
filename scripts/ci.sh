#!/bin/sh
# Tier-1 verification gate: formatting, vet, and the full test suite
# under the race detector (the parallel bench harness depends on the
# audited immutability of shared instances — keep -race in the loop).
set -eu
cd "$(dirname "$0")/.."

fmt=$(gofmt -l -s .)
if [ -n "$fmt" ]; then
	echo "gofmt -s needed on:" >&2
	echo "$fmt" >&2
	exit 1
fi

go vet ./...
go build ./...

# Project static analysis (DESIGN.md §10): machine-checks the
# concurrency/cancellation/determinism invariants with full go/types
# information. One run analyzes the whole tree and fails the gate on any
# finding. Its summary line's total_ms is checked against the wall-clock
# budget in scripts/lint_budget.txt: an overrun warns by default and
# fails with MCFS_LINT_STRICT=1 (mirroring the perf smoke's warn/strict
# split, since shared runners are noisy).
lintbin=$(mktemp -t mcfslint_XXXXXX)
lintlog=$(mktemp -t mcfslint_log_XXXXXX)
go build -o "$lintbin" ./cmd/mcfslint
if ! "$lintbin" ./... 2>"$lintlog"; then
	cat "$lintlog" >&2
	rm -f "$lintbin" "$lintlog"
	exit 1
fi
cat "$lintlog" >&2
lint_ms=$(sed -n 's/^mcfslint: .* total_ms \([0-9][0-9]*\) .*$/\1/p' "$lintlog")
lint_budget=$(cat scripts/lint_budget.txt)
rm -f "$lintbin" "$lintlog"
echo "mcfslint: run ${lint_ms}ms (budget ${lint_budget}ms)"
if [ -n "$lint_ms" ] && [ "$lint_ms" -gt "$lint_budget" ]; then
	if [ "${MCFS_LINT_STRICT-}" = "1" ]; then
		echo "mcfslint: run ${lint_ms}ms exceeds the ${lint_budget}ms budget (strict mode; scripts/lint_budget.txt)" >&2
		exit 1
	fi
	echo "mcfslint: WARNING: run ${lint_ms}ms exceeds the ${lint_budget}ms budget (warn-only; set MCFS_LINT_STRICT=1 to fail)" >&2
fi

# Full suite under the race detector, with a coverage profile over the
# library packages. Coverage is gated against the recorded baseline:
# new code lands with tests or the number in coverage_baseline.txt is
# raised/lowered deliberately in the same commit, never silently.
covprofile=$(mktemp)
go test -race -coverprofile="$covprofile" ./internal/...
go test -race . ./cmd/... ./examples/...

total=$(go tool cover -func="$covprofile" | awk '/^total:/ { sub(/%/, "", $3); print $3 }')
baseline=$(cat scripts/coverage_baseline.txt)
rm -f "$covprofile"
echo "coverage: internal/... total ${total}% (baseline ${baseline}%)"
if awk -v t="$total" -v b="$baseline" 'BEGIN { exit !(t < b) }'; then
	echo "coverage gate: ${total}% is below the recorded baseline ${baseline}% (scripts/coverage_baseline.txt)" >&2
	exit 1
fi

# Bounded fuzz smoke: each fuzz target gets a few seconds of actual
# fuzzing (not just the seed corpus) so a regression that only random
# inputs can reach still trips CI. Findings are written to the package's
# testdata/fuzz corpus by the fuzzer and reproduce as regular tests.
for target in FuzzMatcher=./internal/bipartite FuzzDijkstra=./internal/graph FuzzMonotoneQueues=./internal/pq FuzzReadInstance=./internal/data FuzzReadDIMACSGraph=./internal/data FuzzSnapshotRestore=./internal/dynamic FuzzChurnBodies=./internal/serve; do
	name=${target%%=*}
	pkg=${target#*=}
	echo "fuzz smoke: $name"
	go test -run='^$' -fuzz="^${name}\$" -fuzztime=5s "$pkg" >/dev/null
done

# Perf smoke (DESIGN.md §11): runs the perf suite in its reduced -quick
# configuration and diffs it against the committed quick baseline. Work
# counters are deterministic, so the first comparison, whose 1000x ns/op
# threshold only a changed or lost counter or a dropped row can trip,
# fails the gate. Timings on
# shared CI runners are noisy, so a timing regression past the default
# threshold only warns; set MCFS_PERF_STRICT=1 to make it fail. The full
# (non-quick) committed BENCH_*.json trajectory is for
# scripts/benchcmp.sh between PRs, not for this step.
perfbase=$(ls results/BENCH_quick_*.json 2>/dev/null | sort | tail -n 1)
perfout=$(mktemp -t bench_smoke_XXXXXX.json)
echo "perf smoke: running quick suite"
scripts/bench.sh "$perfout" -quick
if [ -n "$perfbase" ]; then
	echo "perf smoke: work counters against $perfbase"
	if ! scripts/benchcmp.sh "$perfbase" "$perfout" 1000; then
		echo "perf smoke: work counters changed (a deliberate change commits a new quick baseline)" >&2
		rm -f "$perfout"
		exit 1
	fi
	echo "perf smoke: timings against $perfbase"
	if ! scripts/benchcmp.sh "$perfbase" "$perfout"; then
		if [ "${MCFS_PERF_STRICT-}" = "1" ]; then
			echo "perf smoke: regression beyond threshold (strict mode)" >&2
			rm -f "$perfout"
			exit 1
		fi
		echo "perf smoke: WARNING: regression beyond threshold (warn-only; set MCFS_PERF_STRICT=1 to fail)" >&2
	fi
else
	echo "perf smoke: no committed results/BENCH_quick_*.json baseline; skipping comparison"
fi
rm -f "$perfout"
# Recorder-overhead check (DESIGN.md §13): the instrumented Dijkstra
# with no recorder attached must stay near the uninstrumented path.
# The ns/op comparison against the committed baseline happens through
# the quick-suite diff above; this run keeps the three variants
# (disabled/enabled/raw add) visible in the CI log.
echo "perf smoke: recorder overhead benchmark"
go test -run '^$' -bench '^BenchmarkRecorderOverhead$' -benchtime=0.5s -count=1 ./internal/graph/

# Smoke-run every example in quick mode. They run in a scratch dir so
# the artifacts some of them write (SVG/GeoJSON) stay out of the tree.
exdir=$(mktemp -d)
trap 'rm -rf "$exdir"' EXIT
go build -o "$exdir" ./examples/...
for ex in examples/*/; do
	name=$(basename "$ex")
	echo "example: $name"
	(cd "$exdir" && MCFS_EXAMPLE_QUICK=1 "./$name" >/dev/null)
done

echo "ci: OK"
