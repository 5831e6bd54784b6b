# wadeploy — build, test and reproduce the paper's evaluation.

GO ?= go

.PHONY: all verify build vet test race determinism bench-digests loc sqldb-inventory profile allocs repro repro-quick examples clean

all: verify

# Tier-1 verification: compile, static checks, full test suite.
verify: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Race-detector pass over every package: the parallel experiment scheduler
# overlaps entire simulation runs, so this must stay clean.
race:
	$(GO) test -race ./...

# Determinism gate: every deterministic surface byte-identical between the
# sequential and the parallel scheduler (see scripts/determinism.sh).
determinism:
	sh scripts/determinism.sh

# The smoke benchmark's four digests against scripts/bench-smoke-digests.txt
# (run `go run ./bench -smoke -traced` first); UPDATE=1 rewrites the file.
bench-digests:
	sh scripts/bench-digests.sh

# Non-test Go line count against the budget in scripts/loc.sh.
loc:
	sh scripts/loc.sh

# Caller coverage of internal/sqldb from every other package's tests: fails
# on a function no caller reaches or a total under the floor in
# scripts/sqldb-inventory.sh.
sqldb-inventory:
	sh scripts/sqldb-inventory.sh

# CPU and heap profiles of steady-state full-stack rounds of one of the
# repository benchmark's three full-stack workloads, deployed off the clock,
# ten rounds: petstore-centralized (the default), BENCH=RubisAsyncRound for
# rubis-async, BENCH=PetstoreTopo128Round for petstore-topo128. Inspect with
# `go tool pprof -top wadeploy.test cpu.out` / `... -sample_index=alloc_space mem.out`.
BENCH ?= PetstoreCentralizedRound
profile:
	$(GO) test -run '^$$' -bench '^Benchmark$(BENCH)$$' -benchtime 10x \
		-cpuprofile=cpu.out -memprofile=mem.out -o wadeploy.test ./internal/experiment

# Exact heap allocations per page, by source line, of one steady-state round
# of the same benchmarks (BENCH as for profile): every allocation sampled
# (-memprofilerate=1) into allocs.out, the deploy left out, and pprof's
# per-line counts divided by the round's pages (scripts/allocs.sh). Kept apart
# from profile, whose CPU profile that sampling rate would distort.
allocs:
	BENCH=$(BENCH) GO=$(GO) sh scripts/allocs.sh

# Full paper-length reproduction: Tables 6-7 and Figures 7-8 at one virtual
# hour per configuration (about a minute of wall-clock time), plus the
# DB-replication extension row and diagnostics.
repro:
	$(GO) run ./cmd/wadeploy -diag -ext -p95 all

repro-quick:
	$(GO) run ./cmd/wadeploy -quick all

# Every example's stdout against its examples/<name>/stdout.golden
# (see scripts/examples.sh); UPDATE=1 rewrites the goldens.
examples:
	GO=$(GO) sh scripts/examples.sh

clean:
	$(GO) clean ./...
