#!/usr/bin/env sh
# Caller-coverage ratchet for internal/sqldb, the counterpart of loc.sh: a
# sqldb feature arrives with its caller or not at all. Runs every test
# OUTSIDE internal/sqldb (experiment goldens and sweeps, the bench smoke, the
# CLI, container, core, both applications, dbrepl, controller) with coverage
# of internal/sqldb only, prints the per-function table, and fails when
#
#   - a function no caller reaches (0.0%) is not on the allow-list below, or
#   - total caller coverage falls under FLOOR.
#
# A PR that removes unreached code raises FLOOR to its figure minus one
# point; a PR that has to lower it, or to grow the list, says why in
# CHANGES.md.
set -eu

GO="${GO:-go}"
FLOOR=75.5

# file:function, one reason each. Safety code no caller test provokes.
ALLOW='
ast.go:stmt        marker method: only ever called through the Stmt interface switch, never invoked
ast.go:expr        marker method, as above for Expr
lexer.go:Error     no caller test hands the database malformed SQL; the text is outside input
parser.go:errorf   as above: every syntax error of a reachable statement is built here
eval.go:failing     a reference that does not resolve compiles to its error; every application reference resolves
eval.go:likeMatch   the general LIKE matcher, the reference the substring path is tested against; the keyword search only sends ASCII %word%
eval.go:likeRec     as above: the recursion of likeMatch
db.go:reviveRow    transaction undo of a DELETE; caller tests roll back inserts and updates only
value.go:Null      the NULL constructor: no application column holds NULL, every NULL arm is three-valued-logic safety
value.go:String    Kind.String, only in the type-error message of coerce; Value.String on the next lines is reached
'

out="${OUT:-$(mktemp -d)}"
trap '[ -n "${OUT:-}" ] || rm -rf "$out"' EXIT

pkgs=$($GO list ./... | grep -v '/internal/sqldb$')
# shellcheck disable=SC2086
$GO test -count=1 -coverpkg=wadeploy/internal/sqldb -coverprofile="$out/sqldb-callers.out" $pkgs > "$out/test.log" 2>&1 || {
	cat "$out/test.log"
	exit 1
}
$GO tool cover -func="$out/sqldb-callers.out" | tee "$out/sqldb-callers.txt"

fail=0
for fn in $(awk '$NF == "0.0%" { n = split($1, p, "/"); split(p[n], f, ":"); print f[1] ":" $2 }' "$out/sqldb-callers.txt" | sort -u); do
	if ! echo "$ALLOW" | grep -q "^$fn "; then
		echo "sqldb-inventory: $fn has no caller outside internal/sqldb (delete it, or land its caller in the same PR)"
		fail=1
	fi
done

total=$(awk '$1 == "total:" { sub("%", "", $NF); print $NF }' "$out/sqldb-callers.txt")
echo "sqldb caller coverage: $total% (floor $FLOOR%)"
if ! awk -v t="$total" -v f="$FLOOR" 'BEGIN { exit !(t + 0 >= f + 0) }'; then
	echo "sqldb-inventory: caller coverage $total% is under the floor $FLOOR%"
	fail=1
fi
exit $fail
