# Developer/CI entry points. `make ci` is the gate every change must
# pass: gofmt, vet, build, the full test suite under the race detector (the
# concurrency-conformance suite only means something with -race), the
# chaos and crash conformance suites, a short fuzz pass over the wire
# and storage codecs, and the headline benchmarks.

GO ?= go

.PHONY: ci fmt vet build test race fuzz chaos crash failover migrate tenants scrub bench-check bench-compare bench bench-workers bench-migration loc clean

# ci keeps the fuzz leg to a 5s-per-target smoke; run `make fuzz` for
# the full exploration pass.
ci: FUZZTIME = 5s
ci: fmt vet build bench-check race chaos crash failover migrate tenants fuzz bench-workers

# Fails, listing the files, when any Go file is not gofmt-formatted.
fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt -l:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test: bench-check chaos crash failover migrate tenants
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Chaos-conformance suite: replay three fixed seeded fault plans over
# both fabrics under the race detector (DESIGN.md "Failure model").
chaos:
	MSSG_CHAOS_SEEDS=1,7,42 $(GO) test -race -count=1 -run 'TestChaos' ./internal/chaos

# Crash-conformance suite: kill the durable store at every filesystem
# operation under four torn-write policies, recover, and verify against
# the oracle (DESIGN.md "Durability & crash recovery"). Set
# MSSG_CRASH_STRIDE=N to subsample the sweep.
crash:
	$(GO) test -race -count=1 -run 'TestKillAtEverySyncpoint|TestCrashDuringRecovery|TestTorn' ./internal/crash
	$(GO) test -race -count=1 -run 'TestIngestCrashResumeSweep|TestFailedWindowIsNotRemembered' ./internal/ingest

# Replication/failover conformance suite: replica-reroute equality,
# all-replicas-dead degradation, and the mid-query kill scenarios,
# under the race detector (DESIGN.md "Replication & failover").
failover:
	$(GO) test -race -count=1 -run 'TestFailover|TestChaosFailover' ./internal/query ./internal/chaos

# Elastic-topology conformance suite: live join/drain migrations with
# BFS running throughout, a kill sweep crashing the source, destination
# and coordinator at every migration phase boundary, and crash-then-
# resume from the durable checkpoint, all under the race detector
# (DESIGN.md "Elastic topology & live migration").
migrate:
	MSSG_CHAOS_SEEDS=1,7,42 $(GO) test -race -count=1 -run 'TestChaosMigrate' ./internal/chaos
	$(GO) test -race -count=1 -run 'TestMigrate|TestDurableMigration|TestPlacementHolder|TestManifest' ./internal/ingest
	$(GO) test -race -count=1 -run 'TestEngineElasticTopology' ./internal/core

# Multi-tenant serving conformance suite: fair-share flood/weight/
# isolation/deadline scheduling tests plus the end-to-end result-cache
# test (oracle equality, ingest-commit and epoch-advance invalidation),
# under the race detector (DESIGN.md "Multi-tenant serving").
tenants:
	$(GO) test -race -count=1 -run 'TestTenant|TestDeadlineStartsAtExecution|TestEngineResultCache|TestEngineCacheSkips' ./internal/query
	$(GO) test -race -count=1 -run 'TestQueryCacheEndToEnd' ./internal/core

# Offline checksum scrub of every node database under DIR (quarantines
# and repairs corrupt blocks): make scrub DIR=/data/mssg
scrub:
	$(GO) run ./cmd/mssg-bench -check $(DIR)

# Short fuzz pass over every Fuzz target in the module, found per
# package with `go test -list` (regression corpus + FUZZTIME of
# exploration per target):
# make fuzz FUZZTIME=5s
FUZZTIME ?= 10s
fuzz:
	@set -e; for pkg in $$($(GO) list -f '{{if or .TestGoFiles .XTestGoFiles}}{{.ImportPath}}{{end}}' ./...); do \
		for target in $$($(GO) test -list '^Fuzz' $$pkg | grep '^Fuzz'); do \
			echo "fuzz $$pkg $$target"; \
			$(GO) test -run xxx -fuzz "^$$target$$" -fuzztime $(FUZZTIME) $$pkg; \
		done; \
	done

# The benchmark/ module (BENCHMARK.json's harness) is its own Go module,
# so `./...` never reaches it — yet it compiles against query.ParallelBFS,
# query.LevelStat, query.NewEngine and the graphdb capability interfaces.
# Vet and test it here so an internal rename cannot break it silently.
# It is also the one performance benchmark: serving throughput, tenant
# scheduling and the result cache are its serve-mixed workload
# (benchmark/README.md).
bench-check:
	$(GO) -C benchmark vet .
	$(GO) -C benchmark test .

# Verdict per (workload, end-to-end metric) for two result directories
# written by benchmark/run.sh -out (see benchmark/README.md):
# make bench-compare BASE=/tmp/cmp/base CAND=/tmp/cmp/cand
bench-compare:
	bash benchmark/run.sh -compare $(BASE) $(CAND)

# Paper figure/table regenerations (slow; one full experiment per bench).
bench:
	$(GO) test -run xxx -bench 'BenchmarkFig|BenchmarkTable' -benchtime=1x .

# Serial vs parallel fringe expansion on the shootout graph.
bench-workers:
	$(GO) test -run xxx -bench BenchmarkBFSWorkers -benchtime=1x .

# Query latency under a live shard migration (DESIGN.md §15): the same
# BFS workload quiescent, during a join migration, and after its epoch
# commit.
bench-migration:
	$(GO) run ./cmd/mssg-bench migration

# Non-test Go lines outside the benchmark module: the size figure the
# roadmap and simplicity changes quote.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' -exec cat {} + | wc -l

clean:
	$(GO) clean ./...
