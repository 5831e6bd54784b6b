#!/usr/bin/env bash
# The BENCHMARK.json command. Builds the benchmark from source inside the
# checkout (build cache and temporary files under .bench_build, nothing
# outside the checkout), then runs one workload in one phase:
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# The last line of standard output is the contract's JSON object. In a
# directory without the program's sources it exits non-zero and prints none.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "bench/run.sh: $PWD holds no go.mod and internal/: not a checkout of the program" >&2
	exit 1
fi
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS=
# -buildvcs=false: the driver's checkout is not a git repository, and one that
# sits inside somebody else's must not fail the build; the revision is passed in.
go build -buildvcs=false -o "$build/bench" ./bench
rev=$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
exec "$build/bench" -rev "$rev" "$@"
