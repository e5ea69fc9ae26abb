package crash

import (
	"reflect"
	"sort"
	"strconv"
	"testing"

	"mssg/internal/graph"
	"mssg/internal/graphdb"
	"mssg/internal/graphdb/grdb"
	"mssg/internal/storage/blockio"
	"mssg/internal/storage/crashfs"
	"mssg/internal/storage/vfs"
)

// freshBatch's chain (seven edges over sub-blocks of 2, 4 and 8 words)
// is the first to reach level 2, so storing it allocates level 2's first
// block, which no write has touched.
const freshBatch = 4

// allocWorkload commits batch 0, then stores and commits freshBatch. It
// returns how many of the two commits succeeded and the filesystem
// operation count after the first.
func allocWorkload(dir string, fsys vfs.FS, ops func() int64) (committed int, base int64) {
	d, err := grdb.Open(grdbOpts(dir, fsys))
	if err != nil {
		return 0, 0
	}
	defer d.Close()
	if d.StoreEdges(batchEdges(0)) != nil || d.Flush() != nil {
		return 0, 0
	}
	base = ops()
	if d.StoreEdges(batchEdges(freshBatch)) != nil || d.Flush() != nil {
		return 1, base
	}
	return 2, base
}

func adjacencyOf(t *testing.T, d graphdb.Graph, v graph.VertexID) []graph.VertexID {
	t.Helper()
	out := graph.NewAdjList(16)
	if err := graphdb.Adjacency(d, v, out); err != nil {
		t.Fatalf("adjacency(%d): %v", v, err)
	}
	got := append([]graph.VertexID(nil), out.IDs()...)
	sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
	return got
}

func batchDsts(i int) []graph.VertexID {
	var ids []graph.VertexID
	for _, e := range batchEdges(i) {
		ids = append(ids, e.Dst)
	}
	return ids
}

// TestKillAtEverySyncpointBeforeFirstWriteBack kills a durable grDB at
// every filesystem operation of the commit that first writes a freshly
// allocated block, which covers every point between the allocation and
// the block's first write-back. After recovery the committed batch is
// intact and the fresh batch is whole or absent; when it is absent, the
// fresh block reads as empty and checksum-clean, and storing the batch
// again (which allocates the same sub-block) reads back exactly.
func TestKillAtEverySyncpointBeforeFirstWriteBack(t *testing.T) {
	dry := crashfs.New(vfs.OS)
	committed, base := allocWorkload(t.TempDir(), dry, dry.Ops)
	if committed != 2 {
		t.Fatalf("dry run committed %d/2", committed)
	}
	total := dry.Ops()
	for k := base + 1; k <= total; k += stride(t) {
		policy := policies[int(k)%len(policies)]
		dir := t.TempDir()
		cfs := crashfs.New(vfs.OS)
		cfs.SetCrashPoint(k, policy)
		if k%2 == 1 {
			cfs.SetRetainUnsynced(uint64(k))
		}
		committed, _ := allocWorkload(dir, cfs, cfs.Ops)
		cfs.Shutdown()
		if !cfs.Crashed() {
			continue
		}
		ctx := "crash@" + strconv.FormatInt(k, 10) + "/" + policy.String()

		opts := grdbOpts(dir, nil)
		opts.VerifyOnOpen = true
		d, err := grdb.Open(opts)
		if err != nil {
			t.Fatalf("%s: recovery open: %v", ctx, err)
		}
		if got := adjacencyOf(t, d, 0); !reflect.DeepEqual(got, batchDsts(0)) {
			t.Fatalf("%s: committed batch 0 reads %v", ctx, got)
		}
		got := adjacencyOf(t, d, freshBatch)
		if len(got) != 0 || committed == 2 {
			if !reflect.DeepEqual(got, batchDsts(freshBatch)) {
				t.Fatalf("%s: fresh batch reads %v (committed %d)", ctx, got, committed)
			}
			d.Close()
			continue
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}

		s, err := blockio.OpenStore(blockio.Config{
			Dir: dir, Prefix: "level2", BlockSize: 256, MaxFileBytes: 4096, Checksums: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 256)
		err = s.ReadBlock(0, buf)
		s.Close()
		if err != nil {
			t.Fatalf("%s: fresh block: %v", ctx, err)
		}
		for i, b := range buf {
			if b != 0 {
				t.Fatalf("%s: fresh block byte %d = %#x, want an empty block", ctx, i, b)
			}
		}

		d, err = grdb.Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.StoreEdges(batchEdges(freshBatch)); err != nil {
			t.Fatalf("%s: re-store: %v", ctx, err)
		}
		if got := adjacencyOf(t, d, freshBatch); !reflect.DeepEqual(got, batchDsts(freshBatch)) {
			t.Fatalf("%s: re-stored fresh batch reads %v", ctx, got)
		}
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
