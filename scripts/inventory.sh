#!/usr/bin/env sh
# Caller-coverage ratchet, the counterpart of loc.sh: code stays only while
# a program reaches it. One coverage run: the tests that drive the programs —
# internal/experiment, cmd/wadeploy and bench — covering every internal
# package.
#
# It prints the per-function table and fails when
#
#   - a function the run leaves at 0.0% has no line in ALLOW,
#   - a line in ALLOW names a function that is reached or gone, or
#   - a package's statement coverage falls under its line in FLOORS.
#
# A function is keyed by file and name, so methods that share a name in one
# file share a key: the key needs one ALLOW line per function it leaves at
# 0.0%, each naming its receiver.
#
# A change that removes unreached code raises the floors it moves to the new
# figure minus one point; a change that has to lower one, or to grow ALLOW, says
# why in CHANGES.md.
set -eu

GO="${GO:-go}"

# Package, floor (% of statements) of the programs' coverage.
FLOORS='
sqldb       74.3
container   81.9
controller  81.5
core        91.2
dbrepl      64.4
experiment  94.2
faults      80.6
jms         91.2
metrics     84.0
petstore    83.9
planner     93.8
rmi         93.7
rubis       83.1
sim         89.3
simnet      85.6
trace       92.1
web         89.2
workload    90.2
'

# package/file:function, one line and reason per function. A function allowed
# here is kept on purpose although no program reaches it.
ALLOW='
sqldb/ast.go:stmt                           (*CreateTableStmt).stmt, a Stmt marker method: only ever called through the Stmt interface switch, never invoked
sqldb/ast.go:stmt                           (*CreateIndexStmt).stmt, as above
sqldb/ast.go:stmt                           (*InsertStmt).stmt, as above
sqldb/ast.go:stmt                           (*UpdateStmt).stmt, as above
sqldb/ast.go:stmt                           (*SelectStmt).stmt, as above
sqldb/ast.go:expr                           (*Literal).expr, the Expr marker method, as above for Stmt
sqldb/ast.go:expr                           (*Placeholder).expr, as above
sqldb/ast.go:expr                           (*ColumnRef).expr, as above
sqldb/ast.go:expr                           (*BinaryExpr).expr, as above
sqldb/lexer.go:Error                        no program hands the database malformed SQL; the text is outside input
sqldb/parser.go:errorf                      as above: every syntax error of a reachable statement is built here
sqldb/eval.go:failing                       a reference that does not resolve compiles to its error; every application reference resolves
sqldb/eval.go:likeMatch                     the general LIKE matcher, the reference the substring path is tested against; the keyword search only sends ASCII %word%
sqldb/eval.go:likeRec                       as above: the recursion of likeMatch
sqldb/db.go:remove                          index upkeep when an UPDATE moves an indexed value or an INSERT fails part-way; no program does either
sqldb/db.go:truncate                        the undo of a multi-row INSERT that fails part-way: statements are atomic; no program INSERT fails
sqldb/value.go:String                       Kind.String, the %v of a kind in error text; no program statement fails
sqldb/value.go:String                       Value.String, the %v of a value in error text; no program statement fails
container/batch.go:CoalesceUpdates          the batch form of the coalescer of the windowed pusher: container and rubis tests replay a drain buffer through it
container/entity.go:UpdateIfVersion         the paper section 4.5 version-number pattern (DESIGN.md); container tests
container/pusher.go:RemoveTarget            Wiring.SuspendTargets on an edge with RMI pushes: controller tests; no program suspends one
container/query.go:InvalidatePrefix         the paper section 4.4 pull invalidation: no benchmark page writes Product or Category
container/row.go:Clone                      the copy UpdateIfVersion makes of the changes it is handed
container/session.go:Instances              the content read container tests assert the sessions of a stateful bean with
dbrepl/dbrepl.go:drain                      backlog replay once the path of a cut-off replica heals: dbrepl tests; no program cuts a replication path
experiment/experiment.go:DefaultRunOptions  examples/petstore and examples/rubis (make examples)
faults/subtree.go:SubtreePartition          hub-subtree outage schedule for the planned composed-fault runs (ROADMAP.md); faults tests
metrics/histogram.go:BucketRange            the bucket bounds metrics and workload tests check quantiles against
metrics/metrics.go:GaugeValue               the registry read tests use for gauges (simnet link state)
metrics/metrics.go:FindHistogram            the registry read tests use for histograms (lag, staleness)
rubis/queries.go:qUser                      the re-query of the UserInfo view after a user commit: no benchmark page writes a user; rubis tests
sim/shard.go:Send                           cross-lane sends the planned sharded lanes build on (ROADMAP.md); sim tests
sim/sim.go:Pending                          the queue-depth read of the engine tests
sim/sim.go:Live                             the no-leaked-process read of the engine tests
sim/sim.go:Fail                             Promise.Fail: the error Await returns, which the promise probe of bench reads; no program fails a promise; sim tests
sim/wheel.go:len                            the count Pending reads
simnet/hierarchy.go:BackupHub               the redundant uplinks SubtreePartition cuts; simnet and faults tests
simnet/hierarchy.go:Subtree                 the blast radius SubtreePartition cuts off; simnet, faults and core tests
simnet/simnet.go:Error                      the error method of BulkError: the migration reads Sent and resumes, nothing prints one
simnet/simnet.go:Unwrap                     the cause of a BulkError, for errors.Is: simnet tests
web/web.go:Pages                            petstore and rubis tests check which servers serve pages
'

out="${OUT:-$(mktemp -d)}"
trap '[ -n "${OUT:-}" ] || rm -rf "$out"' EXIT

$GO test -count=1 -coverpkg="$($GO list ./internal/... | paste -sd, -)" -coverprofile="$out/programs.out" \
	./internal/experiment ./cmd/wadeploy ./bench > "$out/programs.log" 2>&1 || {
	cat "$out/programs.log"
	exit 1
}
$GO tool cover -func="$out/programs.out" | sed 's|^wadeploy/internal/||' | tee "$out/programs.txt"

fail=0
# One line per function at 0.0%, and one per ALLOW line; a key's two counts
# must match.
awk '$NF == "0.0%" { split($1, f, ":"); print f[1] ":" $2 }' "$out/programs.txt" | sort > "$out/zero.txt"
echo "$ALLOW" | awk 'NF { print $1 }' | sort > "$out/allow.txt"
for fn in $(sort -u "$out/zero.txt" "$out/allow.txt"); do
	zero=$(grep -cx "$fn" "$out/zero.txt" || true)
	allowed=$(grep -cx "$fn" "$out/allow.txt" || true)
	if [ "$zero" -gt "$allowed" ]; then
		echo "inventory: $fn: $zero reached by no program, $allowed in ALLOW (delete it, land its caller, or say in ALLOW why it stays)"
		fail=1
	elif [ "$zero" -lt "$allowed" ]; then
		echo "inventory: $fn: $allowed in ALLOW, $zero reached by no program (drop the line of the one reached or gone)"
		fail=1
	fi
done

# Statement coverage per package, from the profile's blocks: a block shared by
# several test binaries counts once, covered if any of them ran it.
awk -v floors="$FLOORS" '
	BEGIN {
		n = split(floors, l, "\n")
		for (i = 1; i <= n; i++) if (split(l[i], f, " ") == 2) floor[f[1]] = f[2]
	}
	$1 == "mode:" { next }
	{
		sub("^wadeploy/internal/", "", $1)
		stmts[$1] = $2
		if ($3 > 0) hit[$1] = 1
	}
	END {
		for (b in stmts) {
			pkg = b; sub("/[^/]*$", "", pkg)
			total[pkg] += stmts[b]
			if (b in hit) covered[pkg] += stmts[b]
		}
		for (pkg in total) {
			pct = 100 * covered[pkg] / total[pkg]
			if (!(pkg in floor)) {
				printf "inventory: %s at %.1f%% has no floor in FLOORS\n", pkg, pct
			} else if (pct < floor[pkg] + 0) {
				printf "inventory: %s coverage %.1f%% is under its floor %s%%\n", pkg, pct, floor[pkg]
			} else {
				printf "%-10s %5.1f%% (floor %s%%)\n", pkg, pct, floor[pkg]
			}
		}
	}' "$out/programs.out" | sort > "$out/floors.txt"
cat "$out/floors.txt"
if grep -q '^inventory:' "$out/floors.txt"; then
	fail=1
fi
exit $fail
