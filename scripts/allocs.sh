#!/usr/bin/env sh
# Exact per-line heap allocations of one full-stack round benchmark, per
# page: runs one round of Benchmark$BENCH
# (internal/experiment/round_bench_test.go) with every allocation sampled
# (-memprofilerate=1, the deploy left out), then prints pprof's 25 largest
# per-line alloc_objects divided by the pages that round served, and the
# round's totals per page: allocations, and bytes (the benchmark line's B/op
# divided by its pages/op). One round only: with -benchtime Nx, N > 1, the
# testing package first runs b.N = 1, so the profile would hold N+1 rounds
# against N rounds' pages. Writes allocs.out and wadeploy.test in the working
# directory. BENCH=all prints only the totals of the three round benchmarks,
# one line each.
#
#   BENCH=PetstoreTopo128Round sh scripts/allocs.sh
set -eu

BENCH=${BENCH:-PetstoreCentralizedRound}
GO=${GO:-go}

allocs() {
	out=$($GO test -run '^$' -bench "^Benchmark$1\$" -benchtime 1x -benchmem \
		-memprofilerate=1 -memprofile=allocs.out -o wadeploy.test ./internal/experiment)
	echo "$out" | grep "^Benchmark$1"
	field() { echo "$out" | awk -v unit="$1" '/pages\/op/ { for (i = 2; i <= NF; i++) if ($i == unit) print $(i-1) }'; }
	pages=$(field pages/op)
	bytes=$(field B/op)
	[ -n "$pages" ] && [ -n "$bytes" ] || { echo "allocs: no pages/op or B/op in the benchmark output" >&2; exit 1; }

	$GO tool pprof -sample_index=alloc_objects -top -lines -nodecount=25 wadeploy.test allocs.out 2>/dev/null |
		awk -v pages="$pages" -v bytes="$bytes" '
			/^ *flat/ { printf "%10s %10s  %s\n", "flat/page", "cum/page", "line"; body = 1; next }
			body && NF >= 6 { printf "%10.3f %10.3f  %s %s\n", $1 / pages, $4 / pages, $6, $7; next }
			/^Showing nodes accounting/ { for (i = 1; i <= NF; i++) if ($i == "total") total = $(i-1) }
			END { printf "total %.3f allocs/page, %.1f bytes/page over %d pages\n", total / pages, bytes / pages, pages }'
}

if [ "$BENCH" != all ]; then
	allocs "$BENCH"
	exit
fi
for b in PetstoreCentralizedRound RubisAsyncRound PetstoreTopo128Round; do
	lines=$(allocs "$b")
	echo "$b: $(echo "$lines" | tail -n 1)"
done
