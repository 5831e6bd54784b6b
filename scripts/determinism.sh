#!/usr/bin/env sh
# Determinism gate: every deterministic surface must be byte-identical
# between the sequential and the parallel scheduler. CI runs this via
# `make determinism`; it also works locally from the repo root.
#
# Each block runs one command twice (-parallel 1 vs -parallel 8) and diffs
# the output. Snapshots (*-p1.txt, *-w1.txt, *-p1.json) go to $OUT,
# which CI sets and uploads; without OUT they go to a temporary directory
# that is removed on success and named on failure.
set -eu

GO="${GO:-go}"
if [ -n "${OUT:-}" ]; then
	mkdir -p "$OUT"
	out="$OUT"
else
	out=$(mktemp -d)
	trap 'status=$?; if [ "$status" -eq 0 ]; then rm -rf "$out"; else echo "determinism gate: snapshots left in $out"; fi' EXIT
fi

echo '== table6 under the canonical WAN-outage schedule =='
# Same seed, same tables, same metric snapshots at any parallelism.
$GO run ./cmd/wadeploy -quick -faults canonical -parallel 1 -metrics-out "$out/metrics-p1.json" table6 > "$out/table6-p1.txt"
$GO run ./cmd/wadeploy -quick -faults canonical -parallel 8 -metrics-out "$out/metrics-p8.json" table6 > "$out/table6-p8.txt"
diff "$out/table6-p1.txt" "$out/table6-p8.txt"
diff "$out/metrics-p1.json" "$out/metrics-p8.json"

echo '== availability table across parallelism =='
# Every configuration under the canonical outage is its own seeded run; the
# scored edge's per-page success rates must not depend on scheduling.
$GO run ./cmd/wadeploy -quick -diag -parallel 1 faults > "$out/faults-p1.txt"
$GO run ./cmd/wadeploy -quick -diag -parallel 8 faults > "$out/faults-p8.txt"
diff "$out/faults-p1.txt" "$out/faults-p8.txt"
# RUBiS's edges serve browse pages from push-fed query caches through the
# outage.
$GO run ./cmd/wadeploy -quick -app rubis -faults canonical -parallel 1 faults > "$out/faults-rubis-p1.txt"
$GO run ./cmd/wadeploy -quick -app rubis -faults canonical -parallel 8 faults > "$out/faults-rubis-p8.txt"
diff "$out/faults-rubis-p1.txt" "$out/faults-rubis-p8.txt"

echo '== sensitivity sweeps across point parallelism =='
$GO run ./cmd/wadeploy -quick -app rubis -parallel 1 sweep-latency > "$out/sweep-latency-p1.txt"
$GO run ./cmd/wadeploy -quick -app rubis -parallel 8 sweep-latency > "$out/sweep-latency-p8.txt"
diff "$out/sweep-latency-p1.txt" "$out/sweep-latency-p8.txt"
$GO run ./cmd/wadeploy -quick -config centralized -parallel 1 sweep-load > "$out/sweep-load-p1.txt"
$GO run ./cmd/wadeploy -quick -config centralized -parallel 8 sweep-load > "$out/sweep-load-p8.txt"
diff "$out/sweep-load-p1.txt" "$out/sweep-load-p8.txt"

echo '== per-configuration metrics across parallelism =='
$GO run ./cmd/wadeploy -quick -app rubis -ext -parallel 1 -metrics-out "$out/metrics-rubis-p1.json" metrics > "$out/metrics-p1.txt"
$GO run ./cmd/wadeploy -quick -app rubis -ext -parallel 8 -metrics-out "$out/metrics-rubis-p8.json" metrics > "$out/metrics-p8.txt"
diff "$out/metrics-p1.txt" "$out/metrics-p8.txt"
diff "$out/metrics-rubis-p1.json" "$out/metrics-rubis-p8.json"

echo '== streaming workload engine across worker counts =='
# Results depend on the shard count, never the worker count.
$GO run ./cmd/wadeploy -quick -sessions 20000 -shards 4 -parallel 1 scale > "$out/scale-w1.txt"
$GO run ./cmd/wadeploy -quick -sessions 20000 -shards 4 -parallel 8 scale > "$out/scale-w8.txt"
diff "$out/scale-w1.txt" "$out/scale-w8.txt"

echo '== causal tracing across parallelism =='
# The sampler is a pure function of the trace ID, never of scheduling.
$GO run ./cmd/wadeploy -quick -sample 4 -parallel 1 trace > "$out/trace-p1.txt"
$GO run ./cmd/wadeploy -quick -sample 4 -parallel 8 trace > "$out/trace-p8.txt"
diff "$out/trace-p1.txt" "$out/trace-p8.txt"
$GO run ./cmd/wadeploy -quick -sessions 20000 -shards 4 -parallel 1 -trace scale > "$out/scale-trace-w1.txt"
$GO run ./cmd/wadeploy -quick -sessions 20000 -shards 4 -parallel 8 -trace scale > "$out/scale-trace-w8.txt"
diff "$out/scale-trace-w1.txt" "$out/scale-trace-w8.txt"

echo '== online re-placement controller =='
# The controller draws only on the virtual clock and its dedicated RNG
# stream, never on scheduling order.
$GO run ./cmd/wadeploy -quick -parallel 1 adapt > "$out/adapt-p1.txt"
$GO run ./cmd/wadeploy -quick -parallel 8 adapt > "$out/adapt-p8.txt"
diff "$out/adapt-p1.txt" "$out/adapt-p8.txt"
# RUBiS extends through the same start path; its cut-over also fills each
# edge's push-fed query cache from the main server's views.
$GO run ./cmd/wadeploy -quick -app rubis -parallel 1 adapt > "$out/adapt-rubis-p1.txt"
$GO run ./cmd/wadeploy -quick -app rubis -parallel 8 adapt > "$out/adapt-rubis-p8.txt"
diff "$out/adapt-rubis-p1.txt" "$out/adapt-rubis-p8.txt"

echo '== consistency spectrum across arm parallelism =='
# Each replication arm is an independent seeded simulation.
$GO run ./cmd/wadeploy -quick -parallel 1 consistency > "$out/consistency-p1.txt"
$GO run ./cmd/wadeploy -quick -parallel 8 consistency > "$out/consistency-p8.txt"
diff "$out/consistency-p1.txt" "$out/consistency-p8.txt"
# RUBiS's delta arms are where the push-refreshed query caches depend on the
# main server's views rather than on what rides the wire.
$GO run ./cmd/wadeploy -quick -app rubis -parallel 1 consistency > "$out/consistency-rubis-p1.txt"
$GO run ./cmd/wadeploy -quick -app rubis -parallel 8 consistency > "$out/consistency-rubis-p8.txt"
diff "$out/consistency-rubis-p1.txt" "$out/consistency-rubis-p8.txt"

echo '== topology sweep across point parallelism =='
# Each edge-count point is an independent seeded simulation: the scaling
# table (latency, WAN traffic, footprint, pushes) must be byte-identical
# at any -parallel.
$GO run ./cmd/wadeploy -quick -edges 2,4,8,16 -partitions 8 -config query-caching -parallel 1 topo > "$out/topo-p1.txt"
$GO run ./cmd/wadeploy -quick -edges 2,4,8,16 -partitions 8 -config query-caching -parallel 8 topo > "$out/topo-p8.txt"
diff "$out/topo-p1.txt" "$out/topo-p8.txt"

echo '== engine goldens =='
# Hierarchies, partitioning, delta replication and batching are all opt-in,
# so the paper books never move.
$GO test ./internal/experiment -run TestEngineGolden -count=1 -v

echo 'determinism gate: OK'
