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
# information. Non-zero on any finding. The cold run (-nocache -timing)
# is checked against the wall-clock budget in scripts/lint_budget.txt:
# an overrun warns by default and fails with MCFS_LINT_STRICT=1
# (mirroring the perf smoke's warn/strict split, since shared runners
# are noisy). The second run hits the result cache and demonstrates the
# warm-path speedup in the CI log.
lintbin=$(mktemp -t mcfslint_XXXXXX)
lintlog=$(mktemp -t mcfslint_log_XXXXXX)
go build -o "$lintbin" ./cmd/mcfslint
if ! "$lintbin" -nocache -timing ./... 2>"$lintlog"; then
	cat "$lintlog" >&2
	rm -f "$lintbin" "$lintlog"
	exit 1
fi
cat "$lintlog" >&2
lint_ms=$(awk '/^mcfslint: total_ms / { print $3 }' "$lintlog")
lint_budget=$(cat scripts/lint_budget.txt)
echo "mcfslint: cold run ${lint_ms}ms (budget ${lint_budget}ms)"
if [ -n "$lint_ms" ] && [ "$lint_ms" -gt "$lint_budget" ]; then
	if [ "${MCFS_LINT_STRICT-}" = "1" ]; then
		echo "mcfslint: cold run ${lint_ms}ms exceeds the ${lint_budget}ms budget (strict mode; scripts/lint_budget.txt)" >&2
		rm -f "$lintbin" "$lintlog"
		exit 1
	fi
	echo "mcfslint: WARNING: cold run ${lint_ms}ms exceeds the ${lint_budget}ms budget (warn-only; set MCFS_LINT_STRICT=1 to fail)" >&2
fi
echo "mcfslint: warm (cached) run"
"$lintbin" -timing ./...
rm -f "$lintbin" "$lintlog"

# Full suite under the race detector, with a coverage profile over the
# library packages. Coverage is gated against the recorded baseline:
# new code lands with tests or the number in coverage_baseline.txt is
# raised/lowered deliberately in the same commit, never silently.
covprofile=$(mktemp)
go test -race -coverprofile="$covprofile" ./internal/...
go test -race . ./cmd/... ./examples/...

# mcfsd serving smoke (DESIGN.md §12): boots the daemon on a
# quickstart-scale instance, queries an assignment, captures a snapshot,
# restarts from it, verifies the published objective is identical, and
# checks the SIGTERM drain exits cleanly. The test also runs as part of
# the ./cmd/ suite above; the named step keeps the serving path visible
# in CI output when it breaks.
echo "mcfsd smoke: serve -> snapshot -> restart -> identical objective"
go test -race -run '^TestMCFSDServeSnapshotRestart$' -count=1 ./cmd/ >/dev/null

# /metrics smoke (DESIGN.md §13): boot a real daemon, curl the
# Prometheus exposition, and fail when it is empty or unparseable.
# Every non-comment line must be "name value" with a numeric value —
# the same shape the in-process serve tests assert, re-checked here
# through an actual socket.
echo "mcfsd smoke: /metrics exposition"
smokedir=$(mktemp -d)
go build -o "$smokedir" ./cmd/mcfsgen ./cmd/mcfsd
"$smokedir/mcfsgen" -type uniform -n 400 -alpha 2.5 -m 20 -l 60 -cap 8 -k 6 -seed 7 -o "$smokedir/inst.mcfs"
# Create the log before the daemon starts: the poll below reads it, and
# awk cannot open a file the child's redirect has not created yet.
: >"$smokedir/out.log"
"$smokedir/mcfsd" -in "$smokedir/inst.mcfs" -addr 127.0.0.1:0 -quiet >"$smokedir/out.log" 2>&1 &
mcfsd_pid=$!
metrics_url=""
for _ in $(seq 1 50); do
	metrics_url=$(awk 'match($0, /listening on http:\/\/[^ ]+/) { print substr($0, RSTART+13, RLENGTH-13) }' "$smokedir/out.log")
	[ -n "$metrics_url" ] && break
	sleep 0.1
done
if [ -z "$metrics_url" ]; then
	echo "mcfsd smoke: daemon never printed its address" >&2
	cat "$smokedir/out.log" >&2
	kill "$mcfsd_pid" 2>/dev/null || true
	rm -rf "$smokedir"
	exit 1
fi
curl -fsS "$metrics_url/metrics" >"$smokedir/metrics.txt"
kill "$mcfsd_pid"
wait "$mcfsd_pid" 2>/dev/null || true
if ! awk '
	/^#/ { next }
	NF != 2 || $2 !~ /^-?[0-9.eE+]+$/ { bad++; print "unparseable metrics line: " $0 > "/dev/stderr" }
	{ lines++ }
	END { exit (lines == 0 || bad > 0) }
' "$smokedir/metrics.txt"; then
	echo "mcfsd smoke: /metrics empty or unparseable" >&2
	rm -rf "$smokedir"
	exit 1
fi
if ! grep -q '^mcfs_' "$smokedir/metrics.txt" || ! grep -q '^mcfsd_' "$smokedir/metrics.txt"; then
	echo "mcfsd smoke: /metrics missing solver or daemon metric families" >&2
	rm -rf "$smokedir"
	exit 1
fi
echo "mcfsd smoke: /metrics OK ($(grep -vc '^#' "$smokedir/metrics.txt") samples)"
rm -rf "$smokedir"

# Crash-recovery smoke (DESIGN.md §12): run the daemon with a fast
# periodic snapshot policy, churn the population, SIGKILL it (no drain),
# plant a corrupt generation on top, and restart from the generation
# directory. Recovery must skip the corrupt file and republish exactly
# the settled pre-crash objective. The same property runs in-process as
# TestMCFSDCrashRecovery; this step proves it through real processes
# and a real kill -9.
echo "mcfsd smoke: crash -> restore newest generation"
crashdir=$(mktemp -d)
go build -o "$crashdir" ./cmd/mcfsgen ./cmd/mcfsd
"$crashdir/mcfsgen" -type uniform -n 400 -alpha 2.5 -m 20 -l 60 -cap 8 -k 6 -seed 11 -o "$crashdir/inst.mcfs"
: >"$crashdir/out.log"
"$crashdir/mcfsd" -in "$crashdir/inst.mcfs" -addr 127.0.0.1:0 -quiet \
	-snapshot-every 50ms -snapshot-dir "$crashdir/snaps" >"$crashdir/out.log" 2>&1 &
mcfsd_pid=$!
crash_url=""
for _ in $(seq 1 50); do
	crash_url=$(awk 'match($0, /listening on http:\/\/[^ ]+/) { print substr($0, RSTART+13, RLENGTH-13) }' "$crashdir/out.log")
	[ -n "$crash_url" ] && break
	sleep 0.1
done
if [ -z "$crash_url" ]; then
	echo "mcfsd smoke: crash daemon never printed its address" >&2
	cat "$crashdir/out.log" >&2
	kill "$mcfsd_pid" 2>/dev/null || true
	rm -rf "$crashdir"
	exit 1
fi
node=$(curl -fsS "$crash_url/assign?customer=0" | sed -n 's/.*"node": *\([0-9][0-9]*\).*/\1/p' | head -n 1)
curl -fsS -X POST -H 'Content-Type: application/json' \
	-d "{\"nodes\":[$node,$node,$node]}" "$crash_url/arrivals" >/dev/null
pre_objective=$(curl -fsS "$crash_url/stats" | sed -n 's/.*"objective": *\(-\{0,1\}[0-9][0-9]*\).*/\1/p' | head -n 1)
# Wait for two more generations after the churn settled: the snapshot
# loop is sequential, so the second one is guaranteed to capture the
# post-churn state (see TestMCFSDCrashRecovery).
newest_gen() {
	ls "$crashdir/snaps" 2>/dev/null |
		sed -n 's/^mcfsd-0*\([0-9][0-9]*\)\.snap\.json$/\1/p' | sort -n | tail -n 1
}
base_gen=$(newest_gen)
base_gen=${base_gen:-0}
for _ in $(seq 1 100); do
	g=$(newest_gen)
	[ -n "$g" ] && [ "$g" -ge $((base_gen + 2)) ] && break
	sleep 0.1
done
g=$(newest_gen)
if [ -z "$g" ] || [ "$g" -lt $((base_gen + 2)) ]; then
	echo "mcfsd smoke: snapshot policy stalled (newest generation ${g:-none})" >&2
	kill "$mcfsd_pid" 2>/dev/null || true
	rm -rf "$crashdir"
	exit 1
fi
kill -9 "$mcfsd_pid"
wait "$mcfsd_pid" 2>/dev/null || true
printf '{torn' >"$crashdir/snaps/mcfsd-99999999.snap.json"
: >"$crashdir/out2.log"
"$crashdir/mcfsd" -in "$crashdir/inst.mcfs" -addr 127.0.0.1:0 -quiet \
	-restore "$crashdir/snaps" >"$crashdir/out2.log" 2>&1 &
mcfsd_pid=$!
crash_url=""
for _ in $(seq 1 50); do
	crash_url=$(awk 'match($0, /listening on http:\/\/[^ ]+/) { print substr($0, RSTART+13, RLENGTH-13) }' "$crashdir/out2.log")
	[ -n "$crash_url" ] && break
	sleep 0.1
done
if [ -z "$crash_url" ]; then
	echo "mcfsd smoke: restored daemon never printed its address" >&2
	cat "$crashdir/out2.log" >&2
	kill "$mcfsd_pid" 2>/dev/null || true
	rm -rf "$crashdir"
	exit 1
fi
post_objective=$(curl -fsS "$crash_url/stats" | sed -n 's/.*"objective": *\(-\{0,1\}[0-9][0-9]*\).*/\1/p' | head -n 1)
kill "$mcfsd_pid"
wait "$mcfsd_pid" 2>/dev/null || true
if ! grep -q 'skipping corrupt snapshot' "$crashdir/out2.log"; then
	echo "mcfsd smoke: restore did not report the planted corrupt generation" >&2
	cat "$crashdir/out2.log" >&2
	rm -rf "$crashdir"
	exit 1
fi
if [ -z "$pre_objective" ] || [ "$pre_objective" != "$post_objective" ]; then
	echo "mcfsd smoke: crash recovery drifted: objective ${pre_objective:-?} -> ${post_objective:-?}" >&2
	rm -rf "$crashdir"
	exit 1
fi
echo "mcfsd smoke: crash recovery OK (objective $post_objective preserved)"
rm -rf "$crashdir"

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
for target in FuzzMatcher=./internal/bipartite FuzzDijkstra=./internal/graph FuzzMonotoneQueues=./internal/pq FuzzReadInstance=./internal/data FuzzSnapshotRestore=./internal/dynamic; do
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
