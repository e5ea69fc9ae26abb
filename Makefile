# Developer/CI entry points. `make ci` is the gate every change must
# pass: vet, build, the full test suite under the race detector (the
# concurrency-conformance suite only means something with -race), the
# chaos and crash conformance suites, a short fuzz pass over the wire
# and storage codecs, and the headline benchmarks.

GO ?= go

.PHONY: ci vet build test race fuzz chaos crash failover migrate tenants scrub bench-check bench-compare bench bench-workers bench-io bench-migration loc clean

# ci keeps the fuzz leg to a 5s-per-target smoke; run `make fuzz` for
# the full exploration pass.
ci: FUZZTIME = 5s
ci: vet build bench-check race chaos crash failover migrate tenants fuzz bench-workers

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

# Short fuzz pass over the wire and storage codecs and grDB's chain
# format (regression corpus + FUZZTIME of exploration per target):
# make fuzz FUZZTIME=5s
FUZZTIME ?= 10s
fuzz:
	$(GO) test -run xxx -fuzz FuzzEdgeRoundTrip -fuzztime $(FUZZTIME) ./internal/graph
	$(GO) test -run xxx -fuzz FuzzEdgeDecodeNoPanic -fuzztime $(FUZZTIME) ./internal/graph
	$(GO) test -run xxx -fuzz FuzzTCPFrameDecode -fuzztime $(FUZZTIME) ./internal/cluster
	$(GO) test -run xxx -fuzz FuzzRecordScan -fuzztime $(FUZZTIME) ./internal/storage/wal
	$(GO) test -run xxx -fuzz FuzzCheckpointRecordDecode -fuzztime $(FUZZTIME) ./internal/storage/wal
	$(GO) test -run xxx -fuzz FuzzManifestDecode -fuzztime $(FUZZTIME) ./internal/graphdb/grdb
	$(GO) test -run xxx -fuzz FuzzStateRecordDecode -fuzztime $(FUZZTIME) ./internal/graphdb/grdb
	$(GO) test -run xxx -fuzz FuzzChainWalk -fuzztime $(FUZZTIME) ./internal/graphdb/grdb
	$(GO) test -run xxx -fuzz FuzzWALRecordDecode -fuzztime $(FUZZTIME) ./internal/graphdb/reldb
	$(GO) test -run xxx -fuzz FuzzManifestDecode -fuzztime $(FUZZTIME) ./internal/graphdb/reldb
	$(GO) test -run xxx -fuzz FuzzPlacementDecode -fuzztime $(FUZZTIME) ./internal/ingest
	$(GO) test -run xxx -fuzz FuzzCheckpointDecode -fuzztime $(FUZZTIME) ./internal/ingest
	$(GO) test -run xxx -fuzz FuzzFringeChunkDecode -fuzztime $(FUZZTIME) ./internal/query
	$(GO) test -run xxx -fuzz FuzzFringeChunkRoundTrip -fuzztime $(FUZZTIME) ./internal/query
	$(GO) test -run xxx -fuzz FuzzCanonicalParams -fuzztime $(FUZZTIME) ./internal/query/qcache
	$(GO) test -run xxx -fuzz FuzzCodecRoundTrip -fuzztime $(FUZZTIME) ./internal/storage/compress
	$(GO) test -run xxx -fuzz FuzzDecodeArbitrary -fuzztime $(FUZZTIME) ./internal/storage/compress
	$(GO) test -run xxx -fuzz FuzzStoreDecode -fuzztime $(FUZZTIME) ./internal/storage/compress

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

# Semi-external I/O engine ablation (DESIGN.md §13): block compression
# against the baseline on grDB under the harsh disk model.
bench-io:
	$(GO) run ./cmd/mssg-bench io

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
