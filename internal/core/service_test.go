package core_test

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"mssg/internal/cluster"
	"mssg/internal/core"
	"mssg/internal/gen"
	"mssg/internal/graph"
	"mssg/internal/graphdb"
	_ "mssg/internal/graphdb/all"
	"mssg/internal/graphdb/grdb"
	"mssg/internal/ingest"
	"mssg/internal/query"
)

func TestConfigValidation(t *testing.T) {
	if _, err := core.New(core.Config{Backends: 0}); err == nil {
		t.Error("zero backends accepted")
	}
	if _, err := core.New(core.Config{Backends: 2, Backend: "no-such-db"}); err == nil {
		t.Error("unknown backend accepted")
	}
	if _, err := core.New(core.Config{Backends: 2, Fabric: core.FabricKind(9)}); err == nil {
		t.Error("unknown fabric accepted")
	}
	// Out-of-core backend without a directory must fail cleanly.
	if _, err := core.New(core.Config{Backends: 2, Backend: "grdb"}); err == nil {
		t.Error("grdb without Dir accepted")
	}
}

// Every cross-field rule is refused by Validate, before New creates a
// node directory or opens a database.
func TestConfigValidateRejectsBeforeOpening(t *testing.T) {
	rendezvous2 := func() ingest.Policy { return ingest.NewRendezvous(4, 2, 0) }
	holder, err := ingest.NewPlacementHolder("", ingest.Manifest{Committed: ingest.Placement{
		Policy: "rendezvous", Backends: 4, Replication: 2,
	}})
	if err != nil {
		t.Fatal(err)
	}
	for name, cfg := range map[string]core.Config{
		"placement wider than engine":  {Backends: 3, Placement: holder},
		"replication above back-ends":  {Backends: 1, Ingest: ingest.Config{ReplicationFactor: 2, Policy: rendezvous2}},
		"replication without replicas": {Backends: 4, Ingest: ingest.Config{ReplicationFactor: 2}},
		"fault plan without seed":      {Backends: 2, Fault: &cluster.Plan{DropProb: 0.01}},
		"crash node outside fabric":    {Backends: 1, Fault: &cluster.Plan{Seed: 1, Crashes: []cluster.Crash{{Node: 1, AfterSends: 5}}}},
		"negative crash node":          {Backends: 2, Fault: &cluster.Plan{Seed: 1, Crashes: []cluster.Crash{{Node: -1, AfterSends: 5}}}},
		"bounded mailboxes":            {Backends: 4, MailboxBuffer: 4},
	} {
		cfg.Backend, cfg.Dir = "grdb", t.TempDir()
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", name, cfg)
		}
		if e, err := core.New(cfg); err == nil {
			e.Close()
			t.Errorf("%s: New accepted the config", name)
		}
		if _, err := os.Stat(filepath.Join(cfg.Dir, "node000")); !os.IsNotExist(err) {
			t.Errorf("%s: New touched the directory before rejecting (stat: %v)", name, err)
		}
	}
}

// A durable ingest on a backend without graphdb.Checkpointer is refused
// with one error before any filter stores an edge.
func TestDurableIngestNeedsCheckpointer(t *testing.T) {
	e, err := core.New(core.Config{
		Backends: 2, Backend: "mysql", Dir: t.TempDir(),
		DBOptions: graphdb.Options{Durability: graphdb.DurabilityFull},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	_, err = e.IngestEdges([]graph.Edge{{Src: 1, Dst: 2}, {Src: 2, Dst: 3}})
	if err == nil || strings.Count(err.Error(), "Checkpointer") != 1 {
		t.Fatalf("durable ingest on mysql: err = %v, want one Checkpointer error", err)
	}
	for i, db := range e.Databases() {
		if n := db.Stats().EdgesStored; n != 0 {
			t.Errorf("node %d stored %d edges before the refusal", i, n)
		}
	}
}

func TestDefaultsApplied(t *testing.T) {
	e, err := core.New(core.Config{Backends: 2, Backend: "hashmap"})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if e.Backends() != 2 {
		t.Fatalf("Backends = %d", e.Backends())
	}
	if len(e.Databases()) != 2 || e.DB(0) == nil || e.DB(1) == nil {
		t.Fatal("databases not opened")
	}
	if e.Fabric() == nil || e.Fabric().Nodes() != 2 {
		t.Fatal("fabric not built")
	}
}

func TestEngineClosedOperationsFail(t *testing.T) {
	e, err := core.New(core.Config{Backends: 2, Backend: "hashmap"})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.IngestEdges([]graph.Edge{{Src: 1, Dst: 2}}); err == nil {
		t.Error("Ingest after Close succeeded")
	}
	if _, err := e.BFS(query.BFSConfig{Source: 1, Dest: 2}); err == nil {
		t.Error("BFS after Close succeeded")
	}
	if err := e.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}
}

// TestEngineCloseDuringQueries: a signal handler closes the engine while
// other goroutines query it. Under -race the closed flag must be
// synchronized; every query answers or fails, and none hangs.
func TestEngineCloseDuringQueries(t *testing.T) {
	e, err := core.New(core.Config{Backends: 3, Backend: "hashmap", Ingest: ingest.Config{AddReverse: true}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.IngestEdges(testGraph(t)); err != nil {
		t.Fatal(err)
	}
	var started, done sync.WaitGroup
	for i := 0; i < 4; i++ {
		started.Add(1)
		done.Add(1)
		go func(i int) {
			defer done.Done()
			for n := 0; ; n++ {
				var err error
				if i%2 == 0 {
					_, err = e.BFS(query.BFSConfig{Source: 3, Dest: 57})
				} else {
					_, err = e.KHop(query.KHopConfig{Source: 3, K: 2})
				}
				if n == 0 {
					started.Done()
				}
				if err != nil {
					return
				}
			}
		}(i)
	}
	started.Wait()
	var closers sync.WaitGroup
	for i := 0; i < 2; i++ {
		closers.Add(1)
		go func() {
			defer closers.Done()
			e.Close()
		}()
	}
	closers.Wait()
	done.Wait()
}

func TestIngestGenerated(t *testing.T) {
	e := newEngine(t, "hashmap", 3, 2)
	stats, err := e.IngestGenerated(gen.Config{Name: "g", Vertices: 200, M: 2, Seed: 9})
	if err != nil {
		t.Fatalf("IngestGenerated: %v", err)
	}
	if stats.EdgesIn.Load() == 0 {
		t.Fatal("no edges generated")
	}
	res, err := e.BFS(query.BFSConfig{Source: 0, Dest: 150})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Found {
		t.Fatal("generated graph not searchable")
	}
}

func TestResetMetadataAcrossEngine(t *testing.T) {
	e := newEngine(t, "hashmap", 2, 1)
	if _, err := e.IngestEdges([]graph.Edge{{Src: 0, Dst: 1}}); err != nil {
		t.Fatal(err)
	}
	if err := e.DB(0).SetMetadata(0, 9); err != nil {
		t.Fatal(err)
	}
	e.ResetMetadata()
	md, err := e.DB(0).Metadata(0)
	if err != nil || md != 0 {
		t.Fatalf("metadata after reset = %d, %v", md, err)
	}
}

// TestSimulatedLatencySlowsEngine wires the simulated disk through the
// whole engine and checks it actually costs time.
func TestSimulatedLatencySlowsEngine(t *testing.T) {
	edges, err := gen.Generate(gen.Config{Name: "lat", Vertices: 2000, M: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	run := func(opts graphdb.Options) int64 {
		e, err := core.New(core.Config{
			Backends:  2,
			Backend:   "grdb",
			Dir:       t.TempDir(),
			DBOptions: opts,
			Ingest:    ingest.Config{AddReverse: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		if _, err := e.IngestEdges(edges); err != nil {
			t.Fatal(err)
		}
		var reads int64
		for _, db := range e.Databases() {
			r, _ := db.(graphdb.IOCounters).IOCounters()
			reads += r
		}
		return reads
	}
	// Same workload with and without latency must do identical physical
	// work; wall time differs but I/O counts are the determinism check.
	plain := run(graphdb.Options{CacheBytes: 1 << 20})
	simulated := run(graphdb.Options{CacheBytes: 1 << 20, SimReadLatency: 50_000, SimWriteLatency: 50_000})
	if plain != simulated {
		t.Fatalf("simulated latency changed I/O counts: %d vs %d", plain, simulated)
	}
}

func TestBackendsListedInErrors(t *testing.T) {
	_, err := core.New(core.Config{Backends: 1, Backend: "bogus"})
	if err == nil || !strings.Contains(err.Error(), "grdb") {
		t.Fatalf("error %v does not list available backends", err)
	}
}

// Window ids restart with every ingest run, so a durable engine must
// scope its dedup-set to one run: a second ingest, and one after the
// engine is reopened, stores its edges instead of dropping them as
// duplicates of the previous run's windows.
func TestDurableIngestRunsAccumulate(t *testing.T) {
	dir := t.TempDir()
	open := func() *core.Engine {
		e, err := core.New(core.Config{
			Backends: 2, FrontEnds: 1, Backend: "grdb", Dir: dir,
			DBOptions: graphdb.Options{Durability: graphdb.DurabilityFull},
		})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	e := open()
	for i, dst := range []graph.VertexID{1, 2, 3} {
		if i == 2 {
			if err := e.Close(); err != nil {
				t.Fatal(err)
			}
			e = open()
		}
		stats, err := e.IngestEdges([]graph.Edge{{Src: 0, Dst: dst}})
		if err != nil {
			t.Fatalf("run %d: %v", i+1, err)
		}
		if stats.EdgesStored.Load() != 1 || stats.DupBlocks.Load() != 0 {
			t.Errorf("run %d: EdgesStored %d, DupBlocks %d; want 1, 0",
				i+1, stats.EdgesStored.Load(), stats.DupBlocks.Load())
		}
		if deg := totalDegree(t, e, 0); deg != int64(i+1) {
			t.Errorf("after run %d: Degree(0) = %d, want %d", i+1, deg, i+1)
		}
	}
	e.Close()
}

// An ingest whose front-end failed part-way is unfinished, even though
// every back-end saw its stream end: the next durable ingest resumes it
// and skips the windows that were stored, rather than starting a new run
// that would store them twice.
func TestDurableIngestResumesAfterFrontEndFailure(t *testing.T) {
	e, err := core.New(core.Config{
		Backends: 2, FrontEnds: 1, Backend: "grdb", Dir: t.TempDir(),
		DBOptions: graphdb.Options{Durability: graphdb.DurabilityFull},
		Ingest:    ingest.Config{WindowEdges: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	edges := []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}, {Src: 3, Dst: 0}}
	_, err = e.Ingest(func(int) (graph.EdgeReader, error) {
		return &failingReader{edges: edges[:2]}, nil
	})
	if err == nil {
		t.Fatal("ingest with a failing reader succeeded")
	}
	stats, err := e.IngestEdges(edges)
	if err != nil {
		t.Fatal(err)
	}
	if stats.DupBlocks.Load() != 2 || stats.EdgesStored.Load() != 2 {
		t.Errorf("resumed run: DupBlocks %d, EdgesStored %d; want 2, 2",
			stats.DupBlocks.Load(), stats.EdgesStored.Load())
	}
	for _, ed := range edges {
		if deg := totalDegree(t, e, ed.Src); deg != 1 {
			t.Errorf("Degree(%d) = %d, want 1", ed.Src, deg)
		}
	}
}

// A run in which one back-end's last store failed is unfinished, even
// though every other back-end committed all of its windows: the next
// durable ingest of the same stream resumes it, so the back-ends that
// committed skip their windows and the failed one stores its own, and
// every edge ends up stored once.
func TestDurableIngestResumesAfterBackendStoreFailure(t *testing.T) {
	failNode0.Store(false)
	e, err := core.New(core.Config{
		Backends: 2, FrontEnds: 1, Backend: failStoreBackend, Dir: t.TempDir(),
		DBOptions: graphdb.Options{Durability: graphdb.DurabilityFull},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	first := []graph.Edge{{Src: 10, Dst: 11}, {Src: 11, Dst: 12}}
	if _, err := e.IngestEdges(first); err != nil {
		t.Fatal(err)
	}
	// Back-end 0 stores this run's windows only at Finalize, and that
	// store fails; back-end 1 commits its windows.
	edges := []graph.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}, {Src: 3, Dst: 0}}
	failNode0.Store(true)
	if _, err := e.IngestEdges(edges); err == nil {
		t.Fatal("ingest with a failing back-end store succeeded")
	}
	if failNode0.Load() {
		t.Fatal("back-end 0 never stored")
	}
	if _, err := e.IngestEdges(edges); err != nil {
		t.Fatal(err)
	}
	for _, ed := range append(first, edges...) {
		if deg := totalDegree(t, e, ed.Src); deg != 1 {
			t.Errorf("Degree(%d) = %d, want 1", ed.Src, deg)
		}
	}
}

// failStoreBackend is grDB whose node-0 instance fails one StoreEdges
// call while failNode0 is set.
const failStoreBackend = "grdb-failstore-test"

var failNode0 atomic.Bool

func init() {
	graphdb.Register(failStoreBackend, func(opts graphdb.Options) (graphdb.Graph, error) {
		db, err := grdb.Open(opts)
		switch {
		case err != nil:
			return nil, err
		case filepath.Base(opts.Dir) != "node000":
			return db, nil
		}
		return failStore{db}, nil
	})
}

type failStore struct{ *grdb.DB }

func (f failStore) StoreEdges(edges []graph.Edge) error {
	if failNode0.CompareAndSwap(true, false) {
		return errors.New("injected StoreEdges failure")
	}
	return f.DB.StoreEdges(edges)
}

// failingReader yields its edges, then an error.
type failingReader struct {
	edges []graph.Edge
}

func (r *failingReader) ReadEdge() (graph.Edge, error) {
	if len(r.edges) == 0 {
		return graph.Edge{}, errors.New("reader failed")
	}
	e := r.edges[0]
	r.edges = r.edges[1:]
	return e, nil
}

// totalDegree sums v's stored out-degree over every back-end.
func totalDegree(t *testing.T, e *core.Engine, v graph.VertexID) int64 {
	t.Helper()
	var sum int64
	for _, db := range e.Databases() {
		d, err := graphdb.Degree(db, v)
		if err != nil {
			t.Fatal(err)
		}
		sum += d
	}
	return sum
}
