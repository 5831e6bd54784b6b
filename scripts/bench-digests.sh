#!/bin/sh
# Holds the smoke benchmark's per-workload digests to the checked-in
# scripts/bench-smoke-digests.txt. A digest fingerprints a workload's
# simulated output (bench/run.go), so a change whose digests move changes what
# the simulation computes and has to say so in the same commit: regenerate
# with UPDATE=1 and commit the diff.
#
# Reads bench/out/result.json, so run `go run ./bench -smoke -traced` first
# (seed 1, the default). Needs jq.
set -eu
cd "$(dirname "$0")/.."

result=bench/out/result.json
want=scripts/bench-smoke-digests.txt

if [ ! -f "$result" ]; then
	echo "bench-digests: no $result; run go run ./bench -smoke -traced first" >&2
	exit 1
fi
if ! jq -e '.manifest.smoke == true and .manifest.seed == 1' "$result" >/dev/null; then
	echo "bench-digests: $result is not a seed-1 smoke run" >&2
	exit 1
fi
got=$(jq -r '.workloads | to_entries[] | "\(.key) \(.value.digest)"' "$result" | sort)

if [ "${UPDATE:-}" = 1 ]; then
	printf '%s\n' "$got" >"$want"
	echo "bench-digests: wrote $want"
	exit 0
fi
if ! printf '%s\n' "$got" | diff -u "$want" -; then
	echo "bench-digests: smoke digests differ from $want (UPDATE=1 rewrites it)" >&2
	exit 1
fi
echo "bench-digests: OK ($(printf '%s\n' "$got" | wc -l | tr -d ' ') workloads)"
