#!/usr/bin/env bash
# A/B the working tree (B, the change) against a parent revision (A) with
# identical benchmark code and settings:
#
#   bench/ab.sh <parent-ref> [pairs]        # pairs defaults to 10, the minimum for a claim
#   TRACED=1 bench/ab.sh <parent-ref>       # also run the traced phase (per-layer metrics)
#   SEED=2 bench/ab.sh <parent-ref>         # the held-out seed
#
# Each side is built once. The parent tree is `git archive <parent-ref>` in a
# temporary directory with this tree's bench/ and BENCHMARK.json dropped in, so
# both sides are measured by the same harness. Runs alternate which side goes
# first. Result files are kept under bench/out/ab-<time>/{A,B}; the verdicts
# come from `bench -compare`, which fails on a regression.
set -euo pipefail
ref=${1:?usage: bench/ab.sh <parent-ref> [pairs]}
pairs=${2:-10}
root=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/parent"
git -C "$root" archive "$ref" | tar -x -C "$tmp/parent"
rm -rf "$tmp/parent/bench"
cp -R "$root/bench" "$tmp/parent/bench"
rm -rf "$tmp/parent/bench/out"
cp "$root/BENCHMARK.json" "$tmp/parent/"
(cd "$tmp/parent" && go build -buildvcs=false -o "$tmp/bench-A" ./bench)
(cd "$root" && go build -buildvcs=false -o "$tmp/bench-B" ./bench)

rev_A=$(git -C "$root" rev-parse --short=12 "$ref")
rev_B=$(git -C "$root" rev-parse --short=12 HEAD)
git -C "$root" diff --quiet HEAD -- || rev_B="$rev_B+worktree"
out="$root/bench/out/ab-$(date +%Y%m%d-%H%M%S)"
mkdir -p "$out/A" "$out/B"
flags=(-seed "${SEED:-1}")
if [ -n "${TRACED:-}" ]; then flags+=(-traced); fi

run() { # side, pair number
	local rev=rev_$1
	"$tmp/bench-$1" "${flags[@]}" -rev "${!rev}" -out-dir "$tmp/out-$1" -o "$out/$1/run-$(printf %02d "$2").json"
}
for i in $(seq 1 "$pairs"); do
	echo "=== pair $i of $pairs ==="
	if [ $((i % 2)) -eq 1 ]; then run A "$i"; run B "$i"; else run B "$i"; run A "$i"; fi
done
"$tmp/bench-B" -compare "$out/A" "$out/B"
