#!/usr/bin/env sh
# Exact per-line heap allocations of one full-stack round benchmark, per
# page: runs one round of Benchmark$BENCH
# (internal/experiment/round_bench_test.go) with every allocation sampled
# (-memprofilerate=1, the deploy left out), then prints pprof's 25 largest
# per-line alloc_objects divided by the pages that round served. One round
# only: with -benchtime Nx, N > 1, the testing package first runs b.N = 1, so
# the profile would hold N+1 rounds against N rounds' pages. Writes
# allocs.out and wadeploy.test in the working directory.
#
#   BENCH=PetstoreTopo128Round sh scripts/allocs.sh
set -eu

BENCH=${BENCH:-PetstoreCentralizedRound}
GO=${GO:-go}

out=$($GO test -run '^$' -bench "^Benchmark$BENCH\$" -benchtime 1x -benchmem \
	-memprofilerate=1 -memprofile=allocs.out -o wadeploy.test ./internal/experiment)
echo "$out" | grep "^Benchmark$BENCH"
pages=$(echo "$out" | awk '/pages\/op/ { for (i = 2; i <= NF; i++) if ($i == "pages/op") print $(i-1) }')
[ -n "$pages" ] || { echo "allocs: no pages/op in the benchmark output" >&2; exit 1; }

$GO tool pprof -sample_index=alloc_objects -top -lines -nodecount=25 wadeploy.test allocs.out 2>/dev/null |
	awk -v pages="$pages" '
		/^ *flat/ { printf "%10s %10s  %s\n", "flat/page", "cum/page", "line"; body = 1; next }
		body && NF >= 6 { printf "%10.3f %10.3f  %s %s\n", $1 / pages, $4 / pages, $6, $7; next }
		/^Showing nodes accounting/ { for (i = 1; i <= NF; i++) if ($i == "total") total = $(i-1) }
		END { printf "total %.3f allocs/page over %d pages\n", total / pages, pages }'
