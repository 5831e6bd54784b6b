#!/bin/sh
# Runs every program under examples/ and holds its standard output to the
# checked-in examples/<name>/stdout.golden. The examples read no wall clock,
# so their output is a pure function of the code: a change meant to move one
# regenerates its golden with UPDATE=1 and commits the diff.
set -eu
cd "$(dirname "$0")/.."

GO="${GO:-go}"
got=$(mktemp)
trap 'rm -f "$got"' EXIT

status=0
for dir in examples/*/; do
	name=$(basename "$dir")
	want="${dir}stdout.golden"
	$GO run "./examples/$name" >"$got"
	if [ "${UPDATE:-}" = 1 ]; then
		cp "$got" "$want"
		echo "examples: wrote $want"
	elif ! diff -u "$want" "$got"; then
		echo "examples: $name stdout differs from $want (UPDATE=1 rewrites it)" >&2
		status=1
	else
		echo "examples: $name OK"
	fi
done
exit "$status"
