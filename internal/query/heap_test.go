package query

import (
	"context"
	"runtime"
	"testing"

	"mssg/internal/cluster"
	"mssg/internal/gen"
	"mssg/internal/graph"
)

// TestInProcFabricHeapBounded: a resident in-proc fabric must not grow
// the heap with the number of queries it has served. Each query leases
// fresh channels, so its mailboxes stay in the endpoints' maps long after
// it finished; they used to keep every delivered fringe payload reachable
// through the dequeued prefix of their backing arrays (≈ 2 MB per search
// on the benchmark graphs).
func TestInProcFabricHeapBounded(t *testing.T) {
	const p, queries, limit = 4, 300, 8 << 20
	edges, err := gen.Generate(gen.Config{Name: "heap", Vertices: 20000, M: 3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	f := cluster.NewInProc(p, 0)
	defer f.Close()
	dbs := partition(t, edges, p)
	// A destination on the most populous level ends every search right
	// after its largest exchange, so the last frames a mailbox delivered —
	// the ones its backing array still holds — are the big ones.
	perLevel := make(map[int32]int)
	var dest graph.VertexID
	dist := refDist(edges, 0)
	for _, d := range dist {
		perLevel[d]++
	}
	for v, d := range dist {
		if perLevel[d] > perLevel[dist[dest]] || (perLevel[d] == perLevel[dist[dest]] && v < dest) {
			dest = v
		}
	}
	run := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := ParallelBFS(context.Background(), f, dbs, BFSConfig{Source: 0, Dest: dest}); err != nil {
				t.Fatal(err)
			}
		}
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapInuse
	}
	run(10) // pools, visited maps and the fabric's own tables reach steady state
	before := heap()
	run(queries)
	after := heap()
	if after > before+limit {
		t.Fatalf("heap grew %d KB over %d searches (limit %d KB): delivered payloads are being retained",
			(after-before)>>10, queries, limit>>10)
	}
	t.Logf("heap in use: %d KB before, %d KB after %d searches", before>>10, after>>10, queries)
}
