// Benchmarks regenerating every table and figure of the paper's
// evaluation (chapter 5), one testing.B per artifact, plus
// microbenchmarks of the load-bearing primitives. The figure benches
// wrap the same experiment harness as cmd/mssg-bench; each iteration
// performs the entire experiment, so run them with -benchtime=1x (the
// interesting output is the reported tables and custom metrics, not
// ns/op):
//
//	go test -bench 'BenchmarkFig|BenchmarkTable' -benchtime=1x
//
// Ablation benches for the design choices DESIGN.md calls out live in
// ablation_bench_test.go.
package mssg_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"mssg/internal/experiments"
	"mssg/internal/graphdb"
	"mssg/internal/ingest"
	"mssg/internal/query"
)

// benchScale keeps one full figure regeneration in the seconds range.
const benchScale = 0.002

// runExperiment executes one experiment per iteration and logs its table
// on the last iteration.
func runExperiment(b *testing.B, id string) {
	exp, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	p := &experiments.Params{Scale: benchScale, Queries: 20}
	var table *experiments.Table
	for i := 0; i < b.N; i++ {
		// Fresh scratch space per iteration: experiments create engines
		// with fixed labels.
		p.Dir = b.TempDir()
		t, err := exp.Run(p)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		table = t
	}
	if table != nil {
		b.Logf("\n%s", table.String())
	}
}

func BenchmarkTable51_GraphStats(b *testing.B)   { runExperiment(b, "table5.1") }
func BenchmarkFig51_InMemorySearch(b *testing.B) { runExperiment(b, "fig5.1") }
func BenchmarkFig52_CacheEffect(b *testing.B)    { runExperiment(b, "fig5.2") }
func BenchmarkFig53_IngestPubMedS(b *testing.B)  { runExperiment(b, "fig5.3") }
func BenchmarkFig54_SearchPubMedS(b *testing.B)  { runExperiment(b, "fig5.4") }
func BenchmarkFig55_IngestPubMedL(b *testing.B)  { runExperiment(b, "fig5.5") }
func BenchmarkFig56_SearchPubMedL(b *testing.B)  { runExperiment(b, "fig5.6") }
func BenchmarkFig57_EdgesPerSec(b *testing.B)    { runExperiment(b, "fig5.7") }
func BenchmarkFig58_SynSearch(b *testing.B)      { runExperiment(b, "fig5.8") }
func BenchmarkFig59_SynEdgesPerSec(b *testing.B) { runExperiment(b, "fig5.9") }
func BenchmarkMigration_LiveJoin(b *testing.B)   { runExperiment(b, "migration") }

// BenchmarkBFSWorkers compares serial (workers=1) against parallel
// (workers=GOMAXPROCS) fringe expansion on the shootout graph, over
// grDB with a bounded cache and simulated device latency — the
// configuration where overlapping adjacency fetches matters. Compare
// the ms/query and edges/s metrics between the two sub-benchmarks:
//
//	go test -run xxx -bench BenchmarkBFSWorkers -benchtime=1x
//
// The parallel leg uses at least 4 workers even on small machines:
// expansion overlaps simulated device latency (sleeps, not CPU), so
// extra workers pay off regardless of core count.
func BenchmarkBFSWorkers(b *testing.B) {
	opts := graphdb.Options{CacheBytes: 256 << 10, SimReadLatency: 100 * time.Microsecond}
	parallel := runtime.GOMAXPROCS(0)
	if parallel < 4 {
		parallel = 4
	}
	for _, workers := range []int{1, parallel} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				total, traversed := measureSearch(b, "grdb", opts, ingest.Config{},
					query.BFSConfig{Workers: workers})
				reportSearch(b, total, traversed, len(ablationPairs))
			}
		})
	}
}

// sanity check that the bench ids and the harness stay in sync.
func TestAllExperimentIDsHaveBenches(t *testing.T) {
	want := map[string]bool{
		"table5.1": true, "fig5.1": true, "fig5.2": true, "fig5.3": true,
		"fig5.4": true, "fig5.5": true, "fig5.6": true, "fig5.7": true,
		"fig5.8": true, "fig5.9": true,
		"migration": true,
	}
	for _, e := range experiments.All() {
		if !want[e.ID] {
			t.Errorf("experiment %s has no benchmark wrapper", e.ID)
		}
		delete(want, e.ID)
	}
	for id := range want {
		t.Errorf("benchmark wrapper for %s has no experiment", id)
	}
}
