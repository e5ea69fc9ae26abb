// Ablation benchmarks for the design choices DESIGN.md §5 calls out:
// grDB's level ladder, link-vs-defragment chain layout, the pipelined
// BFS threshold, the block-cache budget, and the declustering policy.
// Run with -benchtime=1x; results are reported as custom metrics
// (ms/query, edges/s).
package mssg_test

import (
	"fmt"
	"testing"
	"time"

	"mssg/internal/core"
	"mssg/internal/gen"
	"mssg/internal/graph"
	"mssg/internal/graphdb"
	_ "mssg/internal/graphdb/all"
	"mssg/internal/graphdb/grdb"
	"mssg/internal/ingest"
	"mssg/internal/query"
)

// ablationWorkload builds the shared graph + queries once per process.
var ablationEdges []graph.Edge
var ablationPairs [][2]graph.VertexID

func ablationWorkload(b *testing.B) ([]graph.Edge, [][2]graph.VertexID) {
	b.Helper()
	if ablationEdges == nil {
		cfg := gen.PubMedS(0.002)
		edges, err := gen.Generate(cfg)
		if err != nil {
			b.Fatalf("generate: %v", err)
		}
		ablationEdges = edges
		ablationPairs = gen.RandomQueryPairs(edges, cfg.Vertices, 15, 2024)
	}
	return ablationEdges, ablationPairs
}

// measureSearch ingests into a fresh engine and times the query workload.
func measureSearch(b *testing.B, backend string, opts graphdb.Options,
	icfg ingest.Config, qcfg query.BFSConfig) (time.Duration, int64) {
	b.Helper()
	edges, pairs := ablationWorkload(b)
	icfg.AddReverse = true
	e, err := core.New(core.Config{
		Backends:  8,
		Backend:   backend,
		Dir:       b.TempDir(),
		DBOptions: opts,
		Ingest:    icfg,
	})
	if err != nil {
		b.Fatalf("core.New: %v", err)
	}
	defer e.Close()
	if _, err := e.IngestEdges(edges); err != nil {
		b.Fatalf("ingest: %v", err)
	}
	var total time.Duration
	var traversed int64
	for _, q := range pairs {
		qcfg.Source, qcfg.Dest = q[0], q[1]
		t0 := time.Now()
		res, err := e.BFS(qcfg)
		if err != nil {
			b.Fatalf("BFS: %v", err)
		}
		total += time.Since(t0)
		traversed += res.EdgesTraversed
	}
	return total, traversed
}

func reportSearch(b *testing.B, total time.Duration, traversed int64, queries int) {
	b.ReportMetric(float64(total.Microseconds())/1000/float64(queries), "ms/query")
	b.ReportMetric(float64(traversed)/total.Seconds(), "edges/s")
}

// BenchmarkAblationGrDBLevels sweeps grDB level ladders: the prototype's
// exponential ladder vs a flat two-level layout vs an aggressive
// power-tower (d_l = 2^(2^l), the paper's suggested curve).
func BenchmarkAblationGrDBLevels(b *testing.B) {
	ladders := map[string][]graphdb.LevelSpec{
		"prototype-6level": nil, // grdb default: 2,4,16,256,4K,16K
		"flat-2level": {
			{SubBlockCap: 2, BlockBytes: 4 << 10},
			{SubBlockCap: 512, BlockBytes: 4 << 10},
		},
		"power-tower": {
			{SubBlockCap: 2, BlockBytes: 4 << 10},
			{SubBlockCap: 4, BlockBytes: 4 << 10},
			{SubBlockCap: 16, BlockBytes: 4 << 10},
			{SubBlockCap: 256, BlockBytes: 4 << 10},
			{SubBlockCap: 65536, BlockBytes: 1 << 20},
		},
	}
	for name, levels := range ladders {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				total, traversed := measureSearch(b, "grdb",
					graphdb.Options{Levels: levels}, ingest.Config{}, query.BFSConfig{})
				reportSearch(b, total, traversed, len(ablationPairs))
			}
		})
	}
}

// BenchmarkAblationDefrag measures grDB search before and after the
// idle-time chain compaction of §3.4.1.
func BenchmarkAblationDefrag(b *testing.B) {
	edges, pairs := ablationWorkload(b)
	for _, defrag := range []bool{false, true} {
		name := "linked-chains"
		if defrag {
			name = "defragmented"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e, err := core.New(core.Config{
					Backends: 8,
					Backend:  "grdb",
					Dir:      b.TempDir(),
					Ingest:   ingest.Config{AddReverse: true},
				})
				if err != nil {
					b.Fatalf("core.New: %v", err)
				}
				if _, err := e.IngestEdges(edges); err != nil {
					b.Fatalf("ingest: %v", err)
				}
				if defrag {
					var rewritten int64
					for _, db := range e.Databases() {
						n, err := db.(*grdb.DB).Defragment()
						if err != nil {
							b.Fatalf("defragment: %v", err)
						}
						rewritten += n
					}
					b.ReportMetric(float64(rewritten), "chains-rewritten")
				}
				var total time.Duration
				var traversed int64
				for _, q := range pairs {
					t0 := time.Now()
					res, err := e.BFS(query.BFSConfig{Source: q[0], Dest: q[1]})
					if err != nil {
						b.Fatalf("BFS: %v", err)
					}
					total += time.Since(t0)
					traversed += res.EdgesTraversed
				}
				reportSearch(b, total, traversed, len(pairs))
				e.Close()
			}
		})
	}
}

// BenchmarkAblationPipelineThreshold sweeps Algorithm 2's chunk
// threshold, including the degenerate 1 (send every vertex immediately).
func BenchmarkAblationPipelineThreshold(b *testing.B) {
	for _, threshold := range []int{1, 64, 1024, 16384} {
		b.Run(fmt.Sprintf("threshold-%d", threshold), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				total, traversed := measureSearch(b, "grdb", graphdb.Options{},
					ingest.Config{}, query.BFSConfig{Pipelined: true, Threshold: threshold})
				reportSearch(b, total, traversed, len(ablationPairs))
			}
		})
	}
}

// BenchmarkAblationCacheSize sweeps grDB's block-cache budget from
// disabled to comfortably larger than the working set (Fig 5.2's axis,
// finer grained).
func BenchmarkAblationCacheSize(b *testing.B) {
	for _, kb := range []int64{-1, 64, 512, 4096, 65536} {
		name := fmt.Sprintf("cache-%dKB", kb)
		if kb < 0 {
			name = "cache-off"
		}
		bytes := kb * 1024
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				total, traversed := measureSearch(b, "grdb",
					graphdb.Options{CacheBytes: bytes}, ingest.Config{}, query.BFSConfig{})
				reportSearch(b, total, traversed, len(ablationPairs))
			}
		})
	}
}

// BenchmarkAblationDecluster compares vertex-granularity declustering
// with the known-mapping BFS against edge-granularity declustering with
// the broadcast BFS (paper §3.2/§4.2 trade-off).
func BenchmarkAblationDecluster(b *testing.B) {
	type variant struct {
		name   string
		policy func() ingest.Policy
	}
	variants := []variant{
		{"vertex-known-mapping", func() ingest.Policy { return ingest.VertexMod{} }},
		{"edge-broadcast", func() ingest.Policy { return &ingest.EdgeRoundRobin{} }},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				total, traversed := measureSearch(b, "hashmap", graphdb.Options{},
					ingest.Config{Policy: v.policy}, query.BFSConfig{})
				reportSearch(b, total, traversed, len(ablationPairs))
			}
		})
	}
}

// BenchmarkAblationFabric compares the in-process and loopback-TCP
// transports on the same search workload.
func BenchmarkAblationFabric(b *testing.B) {
	edges, pairs := ablationWorkload(b)
	for _, kind := range []core.FabricKind{core.InProc, core.TCP} {
		name := "inproc"
		if kind == core.TCP {
			name = "tcp"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e, err := core.New(core.Config{
					Backends: 8,
					Backend:  "hashmap",
					Fabric:   kind,
					Ingest:   ingest.Config{AddReverse: true},
				})
				if err != nil {
					b.Fatalf("core.New: %v", err)
				}
				if _, err := e.IngestEdges(edges); err != nil {
					b.Fatalf("ingest: %v", err)
				}
				var total time.Duration
				var traversed int64
				for _, q := range pairs {
					t0 := time.Now()
					res, err := e.BFS(query.BFSConfig{Source: q[0], Dest: q[1]})
					if err != nil {
						b.Fatalf("BFS: %v", err)
					}
					total += time.Since(t0)
					traversed += res.EdgesTraversed
				}
				reportSearch(b, total, traversed, len(pairs))
				e.Close()
			}
		})
	}
}

// BenchmarkAblationClusteringPolicy compares modulo vertex declustering
// against the §3.2 summary-based greedy affinity policy, reporting the
// cross-node fringe traffic each induces during search.
func BenchmarkAblationClusteringPolicy(b *testing.B) {
	edges, pairs := ablationWorkload(b)
	type variant struct {
		name   string
		policy func() ingest.Policy
	}
	greedy := ingest.NewGreedyCluster(1024)
	variants := []variant{
		{"vertex-mod", nil},
		{"greedy-affinity", func() ingest.Policy { return greedy }},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e, err := core.New(core.Config{
					Backends:  8,
					FrontEnds: 2,
					Backend:   "hashmap",
					Ingest:    ingest.Config{AddReverse: true, Policy: v.policy},
				})
				if err != nil {
					b.Fatalf("core.New: %v", err)
				}
				if _, err := e.IngestEdges(edges); err != nil {
					b.Fatalf("ingest: %v", err)
				}
				var total time.Duration
				var traversed, fringeSent int64
				for _, q := range pairs {
					t0 := time.Now()
					res, err := e.BFS(query.BFSConfig{Source: q[0], Dest: q[1]})
					if err != nil {
						b.Fatalf("BFS: %v", err)
					}
					total += time.Since(t0)
					traversed += res.EdgesTraversed
					fringeSent += res.FringeSent
				}
				reportSearch(b, total, traversed, len(pairs))
				b.ReportMetric(float64(fringeSent), "fringe-sent")
				e.Close()
			}
		})
	}
}

// BenchmarkAblationOverflowStrategy compares grDB's two §3.4.1 overflow
// strategies: link-on-overflow (the prototype's choice, compaction
// deferred to idle time) vs copy-up-on-overflow (pay copies at insertion
// for shorter chains at read time).
func BenchmarkAblationOverflowStrategy(b *testing.B) {
	edges, pairs := ablationWorkload(b)
	for _, copyUp := range []bool{false, true} {
		name := "link-on-overflow"
		if copyUp {
			name = "copy-up-on-overflow"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e, err := core.New(core.Config{
					Backends:  8,
					Backend:   "grdb",
					Dir:       b.TempDir(),
					DBOptions: graphdb.Options{CopyUpOnOverflow: copyUp},
					Ingest:    ingest.Config{AddReverse: true, WindowEdges: 64},
				})
				if err != nil {
					b.Fatalf("core.New: %v", err)
				}
				t0 := time.Now()
				if _, err := e.IngestEdges(edges); err != nil {
					b.Fatalf("ingest: %v", err)
				}
				b.ReportMetric(time.Since(t0).Seconds(), "ingest-s")
				var total time.Duration
				var traversed int64
				for _, q := range pairs {
					t1 := time.Now()
					res, err := e.BFS(query.BFSConfig{Source: q[0], Dest: q[1]})
					if err != nil {
						b.Fatalf("BFS: %v", err)
					}
					total += time.Since(t1)
					traversed += res.EdgesTraversed
				}
				reportSearch(b, total, traversed, len(pairs))
				e.Close()
			}
		})
	}
}
