package crash

import (
	"os"
	"sort"
	"strconv"
	"testing"

	"mssg/internal/graph"
	"mssg/internal/graphdb"
	"mssg/internal/graphdb/grdb"
	"mssg/internal/graphdb/reldb"
	"mssg/internal/storage/crashfs"
	"mssg/internal/storage/vfs"
)

// stride picks how densely the sweep visits crash points: 1 (every
// filesystem operation) unless MSSG_CRASH_STRIDE or -short thins it out.
func stride(t *testing.T) int64 {
	if s := os.Getenv("MSSG_CRASH_STRIDE"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			t.Fatalf("MSSG_CRASH_STRIDE=%q: want a positive integer", s)
		}
		return int64(n)
	}
	if testing.Short() {
		return 8
	}
	return 1
}

// policies rotate across crash points so the sweep exercises clean cuts,
// half-writes, sector tearing, and bit corruption of the in-flight write.
var policies = []crashfs.Policy{
	crashfs.CutClean, crashfs.CutShort, crashfs.TearSectors, crashfs.FlipBit,
}

// backend is one durable graphdb implementation under sweep. Both
// backends run the same workload and the same oracle verification; scrub
// is optional (reldb has no block scrubber — its checksummed reads fail
// loudly instead, which the adjacency pass exercises).
type backend struct {
	name  string
	open  func(dir string, fsys vfs.FS, verify bool) (graphdb.Graph, error)
	scrub func(g graphdb.Graph) (corrupt int64, err error)
}

func grdbOpts(dir string, fsys vfs.FS) graphdb.Options {
	return graphdb.Options{
		Dir:          dir,
		MaxFileBytes: 4096,
		CacheBytes:   1 << 16,
		Levels: []graphdb.LevelSpec{
			{SubBlockCap: 2, BlockBytes: 256},
			{SubBlockCap: 4, BlockBytes: 256},
			{SubBlockCap: 8, BlockBytes: 256},
		},
		Durability: graphdb.DurabilityFull,
		FS:         fsys,
	}
}

var backends = []backend{
	{
		name: "grdb",
		open: func(dir string, fsys vfs.FS, verify bool) (graphdb.Graph, error) {
			opts := grdbOpts(dir, fsys)
			opts.VerifyOnOpen = verify
			return grdb.Open(opts)
		},
		scrub: func(g graphdb.Graph) (int64, error) {
			rep, err := g.(*grdb.DB).Scrub()
			if err != nil {
				return 0, err
			}
			return int64(rep.CorruptBlocks), nil
		},
	},
	{
		name: "reldb",
		open: func(dir string, fsys vfs.FS, verify bool) (graphdb.Graph, error) {
			return reldb.Open(graphdb.Options{
				Dir:          dir,
				MaxFileBytes: 64 << 10,
				// Zero cache budget: every release wants to write back, so
				// the sweep maximally exercises the no-steal policy that
				// keeps dirty pages off disk until their WAL images commit.
				CacheBytes: -1,
				Durability: graphdb.DurabilityFull,
				FS:         fsys,
			})
		},
	},
}

// batchEdges is the oracle: batch i stores a deterministic adjacency for
// vertex i alone, so recovered state maps cleanly onto "how many batches
// survived".
func batchEdges(i int) []graph.Edge {
	v := graph.VertexID(i)
	n := 3 + i%5
	edges := make([]graph.Edge, n)
	for j := range edges {
		edges[j] = graph.Edge{Src: v, Dst: graph.VertexID(1000 + 10*i + j)}
	}
	return edges
}

const workloadBatches = 6

// runWorkload stores batches each followed by a Flush and returns how
// many Flushes succeeded. Errors after the crash point are expected; the
// caller learns about them through the committed count.
func runWorkload(d graphdb.Graph) (committed int) {
	for i := 0; i < workloadBatches; i++ {
		if err := d.StoreEdges(batchEdges(i)); err != nil {
			return committed
		}
		if err := d.Flush(); err != nil {
			return committed
		}
		committed = i + 1
	}
	return committed
}

// verifyRecovered reopens dir on the real filesystem and checks the
// recovered database against the oracle: some prefix of batches is fully
// present (at least every acked one, at most one more — the batch whose
// commit was in flight), every present batch is byte-exact with no
// duplicates, and no torn block reads as valid anywhere.
func verifyRecovered(t *testing.T, b backend, dir string, committed int, ctx string) {
	t.Helper()
	d, err := b.open(dir, nil, true)
	if err != nil {
		t.Fatalf("%s: recovery open: %v", ctx, err)
	}
	defer d.Close()
	if b.scrub != nil {
		corrupt, err := b.scrub(d)
		if err != nil {
			t.Fatalf("%s: scrub: %v", ctx, err)
		}
		if corrupt != 0 {
			t.Fatalf("%s: %d torn blocks survived recovery", ctx, corrupt)
		}
	}
	recovered := -1
	for i := 0; i < workloadBatches; i++ {
		want := batchEdges(i)
		out := graph.NewAdjList(16)
		if err := graphdb.Adjacency(d, graph.VertexID(i), out); err != nil {
			t.Fatalf("%s: adjacency(%d): %v", ctx, i, err)
		}
		got := append([]graph.VertexID(nil), out.IDs()...)
		sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
		switch {
		case len(got) == 0:
			if recovered == -1 {
				recovered = i
			}
		case recovered != -1:
			t.Fatalf("%s: batch %d present after missing batch %d: not a prefix", ctx, i, recovered)
		default:
			if len(got) != len(want) {
				t.Fatalf("%s: batch %d has %d edges, want %d (torn batch visible)", ctx, i, len(got), len(want))
			}
			for j, e := range want {
				if got[j] != e.Dst {
					t.Fatalf("%s: batch %d neighbour %d = %d, want %d", ctx, i, j, got[j], e.Dst)
				}
			}
			for j := 1; j < len(got); j++ {
				if got[j] == got[j-1] {
					t.Fatalf("%s: batch %d has duplicate neighbour %d", ctx, i, got[j])
				}
			}
		}
	}
	if recovered == -1 {
		recovered = workloadBatches
	}
	if recovered < committed {
		t.Fatalf("%s: lost acked batches: recovered %d, %d were committed", ctx, recovered, committed)
	}
	if recovered > committed+1 {
		t.Fatalf("%s: recovered %d batches but only %d committed + 1 in flight", ctx, recovered, committed)
	}
}

// TestKillAtEverySyncpoint is the tentpole sweep: count the filesystem
// operations a clean workload performs, then re-run it once per
// operation with a crash injected there, and verify recovery after each.
// Odd crash points additionally arm the opportunistic-writeback model
// (crashfs.SetRetainUnsynced), in which a pseudo-random per-file prefix
// of unsynced writes survives the crash instead of all being lost — the
// model that catches steal/no-undo protocol bugs the clean-rollback
// model cannot (a dirty page written back before its WAL images were
// synced passes clean rollback, because rollback politely erases the
// evidence).
func TestKillAtEverySyncpoint(t *testing.T) {
	for _, b := range backends {
		b := b
		t.Run(b.name, func(t *testing.T) {
			// Dry run: measure the op budget.
			dryDir := t.TempDir()
			cfs := crashfs.New(vfs.OS)
			d, err := b.open(dryDir, cfs, false)
			if err != nil {
				t.Fatal(err)
			}
			if got := runWorkload(d); got != workloadBatches {
				t.Fatalf("dry run committed %d/%d batches", got, workloadBatches)
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			total := cfs.Ops()
			if total < 50 {
				t.Fatalf("suspiciously few filesystem ops in dry run: %d", total)
			}
			t.Logf("sweeping %d crash points, stride %d", total, stride(t))

			for k := int64(1); k <= total; k += stride(t) {
				policy := policies[int(k)%len(policies)]
				dir := t.TempDir()
				cfs := crashfs.New(vfs.OS)
				cfs.SetCrashPoint(k, policy)
				retained := k%2 == 1
				if retained {
					cfs.SetRetainUnsynced(uint64(k))
				}
				committed := 0
				d, err := b.open(dir, cfs, false)
				if err == nil {
					committed = runWorkload(d)
				}
				cfs.Shutdown()
				if !cfs.Crashed() {
					// The workload finished before reaching op k (Close performs
					// fewer ops than the dry run's accounting reserved); nothing
					// left to sweep.
					continue
				}
				ctx := "crash@" + strconv.FormatInt(k, 10) + "/" + policy.String()
				if retained {
					ctx += "/retain"
				}
				verifyRecovered(t, b, dir, committed, ctx)
			}
		})
	}
}

// TestCrashDuringRecovery crashes a second time while the first crash is
// being recovered, then verifies the third process sees a consistent
// prefix. Recovery must itself be crash-safe (it replays, flushes, and
// resets the log through the same syncpoints).
func TestCrashDuringRecovery(t *testing.T) {
	for _, b := range backends {
		b := b
		t.Run(b.name, func(t *testing.T) {
			// Build a database whose WAL holds a committed but unfinished
			// checkpoint: crash right after the workload's last commit fsync.
			// Rather than guess the op index, crash partway through a workload,
			// then sweep crash points over the recovery itself.
			seedDir := t.TempDir()
			seed := crashfs.New(vfs.OS)
			d, err := b.open(seedDir, seed, false)
			if err != nil {
				t.Fatal(err)
			}
			if got := runWorkload(d); got != workloadBatches {
				t.Fatalf("seed run committed %d", got)
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			mid := seed.Ops() / 2

			for off := int64(0); off < 20; off += 4 {
				dir := t.TempDir()
				cfs := crashfs.New(vfs.OS)
				cfs.SetCrashPoint(mid, crashfs.CutShort)
				cfs.SetRetainUnsynced(uint64(off + 1))
				committed := 0
				if d, err := b.open(dir, cfs, false); err == nil {
					committed = runWorkload(d)
				}
				cfs.Shutdown()
				if !cfs.Crashed() {
					t.Fatalf("seed crash at %d never fired", mid)
				}

				// Crash again, off ops into recovery.
				rfs := crashfs.New(vfs.OS)
				rfs.SetCrashPoint(off+1, crashfs.TearSectors)
				if d, err := b.open(dir, rfs, false); err == nil {
					d.Close()
				}
				rfs.Shutdown()

				verifyRecovered(t, b, dir, committed, "double-crash@"+strconv.FormatInt(off+1, 10))
			}
		})
	}
}

// TestTornBlockNeverReadsValid corrupts a synced data file directly (a
// latent media fault rather than a crash) and confirms reads fail loudly
// and Scrub quarantines-and-repairs.
func TestTornBlockNeverReadsValid(t *testing.T) {
	dir := t.TempDir()
	d, err := grdb.Open(grdbOpts(dir, nil))
	if err != nil {
		t.Fatal(err)
	}
	if got := runWorkload(d); got != workloadBatches {
		t.Fatalf("committed %d", got)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	path := dir + "/level0.0000"
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[7] ^= 0x01
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	d2, err := grdb.Open(grdbOpts(dir, nil))
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	out := graph.NewAdjList(16)
	if err := graphdb.Adjacency(d2, 0, out); err == nil {
		t.Fatal("flipped bit read back as valid adjacency")
	}
	rep, err := d2.Scrub()
	if err != nil {
		t.Fatal(err)
	}
	if rep.CorruptBlocks != 1 {
		t.Fatalf("Scrub found %d corrupt blocks, want 1", rep.CorruptBlocks)
	}
	if _, err := d2.Check(); err != nil {
		t.Fatalf("post-scrub check: %v", err)
	}
}

// TestTornReldbBlockNeverReadsValid is the reldb analogue: a flipped bit
// in a synced heap file must fail the checksummed read rather than decode
// as a valid row.
func TestTornReldbBlockNeverReadsValid(t *testing.T) {
	rel := backends[1]
	dir := t.TempDir()
	d, err := rel.open(dir, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := runWorkload(d); got != workloadBatches {
		t.Fatalf("committed %d", got)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	path := dir + "/heap.0000"
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[100] ^= 0x01
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	d2, err := rel.open(dir, nil, false)
	if err != nil {
		return // corruption already rejected at open — also acceptable
	}
	defer d2.Close()
	failed := false
	for i := 0; i < workloadBatches; i++ {
		out := graph.NewAdjList(16)
		if err := graphdb.Adjacency(d2, graph.VertexID(i), out); err != nil {
			failed = true
		}
	}
	if !failed {
		t.Fatal("flipped bit read back as valid adjacency")
	}
}
