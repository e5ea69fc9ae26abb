package reldb

import (
	"bytes"
	"encoding/binary"
	"sort"
	"testing"

	"mssg/internal/graph"
	"mssg/internal/graphdb"
	"mssg/internal/storage/btree"
	"mssg/internal/storage/wal"
)

// The record encoders the tests below write checkpoints with.
var encodeImageRecord = wal.EncodeImage

func encodeStateRecord(m manifest) []byte { return wal.EncodeState(m.encode()) }

func openAt(t *testing.T, dir string) *DB {
	t.Helper()
	d, err := Open(graphdb.Options{Dir: dir, Durability: graphdb.DurabilityFull})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return d
}

func sortedNeighbors(t *testing.T, d *DB, v graph.VertexID) []graph.VertexID {
	t.Helper()
	out := graph.NewAdjList(16)
	if err := graphdb.Adjacency(d, v, out); err != nil {
		t.Fatalf("Adjacency(%d): %v", v, err)
	}
	got := append([]graph.VertexID(nil), out.IDs()...)
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	return got
}

func TestReplayRecoversSyncedStatements(t *testing.T) {
	dir := t.TempDir()
	d := openAt(t, dir)
	if err := d.StoreEdges([]graph.Edge{{Src: 1, Dst: 10}, {Src: 1, Dst: 11}}); err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	// A second batch whose log records are synced but whose flush never
	// completed: data pages stay dirty in the cache, the manifest still
	// describes the first batch. Abandoning the handle is the crash.
	if err := d.StoreEdges([]graph.Edge{{Src: 2, Dst: 20}, {Src: 2, Dst: 21}}); err != nil {
		t.Fatal(err)
	}
	if err := d.log.Sync(); err != nil {
		t.Fatal(err)
	}
	// No Close — abandon.

	d2 := openAt(t, dir)
	defer d2.Close()
	if got := sortedNeighbors(t, d2, 1); len(got) != 2 {
		t.Fatalf("flushed vertex lost: %v", got)
	}
	if got := sortedNeighbors(t, d2, 2); len(got) != 2 || got[0] != 20 || got[1] != 21 {
		t.Fatalf("replay lost synced batch: %v", got)
	}
	// Recovery completed the flush, so the log must be retired.
	if !d2.log.Empty() {
		t.Fatal("WAL not retired after replay")
	}
}

func TestUnsyncedStatementsVanish(t *testing.T) {
	dir := t.TempDir()
	d := openAt(t, dir)
	if err := d.StoreEdges([]graph.Edge{{Src: 1, Dst: 10}}); err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	// Staged but never synced: the records exist only in memory.
	if err := d.StoreEdges([]graph.Edge{{Src: 2, Dst: 20}}); err != nil {
		t.Fatal(err)
	}
	// Abandon.

	d2 := openAt(t, dir)
	defer d2.Close()
	if got := sortedNeighbors(t, d2, 2); len(got) != 0 {
		t.Fatalf("unsynced batch survived: %v", got)
	}
	if got := sortedNeighbors(t, d2, 1); len(got) != 1 {
		t.Fatalf("flushed batch lost: %v", got)
	}
}

func TestReplayIsIdempotent(t *testing.T) {
	// Crash between the manifest write and the log reset: the data files
	// already hold everything the log holds. Replay re-inserts the rows
	// (new heap versions) but the index repoint is last-wins, so queries
	// must see each edge exactly once.
	dir := t.TempDir()
	d := openAt(t, dir)
	if err := d.StoreEdges([]graph.Edge{{Src: 3, Dst: 30}, {Src: 3, Dst: 31}, {Src: 4, Dst: 40}}); err != nil {
		t.Fatal(err)
	}
	// Flush minus the final log.Reset.
	if err := d.log.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := d.cache.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := d.heapStore.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := d.idxStore.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := d.saveManifest(); err != nil {
		t.Fatal(err)
	}
	// Abandon before log.Reset.

	d2 := openAt(t, dir)
	defer d2.Close()
	if got := sortedNeighbors(t, d2, 3); len(got) != 2 || got[0] != 30 || got[1] != 31 {
		t.Fatalf("duplicate or lost edges after double-apply: %v", got)
	}
	if got := sortedNeighbors(t, d2, 4); len(got) != 1 || got[0] != 40 {
		t.Fatalf("vertex 4 after double-apply: %v", got)
	}
	// Appending after recovery must continue the tail, not fork it.
	if err := d2.StoreEdges([]graph.Edge{{Src: 3, Dst: 32}}); err != nil {
		t.Fatal(err)
	}
	if got := sortedNeighbors(t, d2, 3); len(got) != 3 {
		t.Fatalf("append after recovery: %v", got)
	}
}

func TestReplaySelfHealsLostHead(t *testing.T) {
	// A crash can persist a row record but lose the head record that
	// followed it. Replay must rebuild the head from the rows themselves
	// so later appends extend the tail instead of restarting at chunk 1.
	dir := t.TempDir()
	d := openAt(t, dir)
	blob := make([]byte, 0, 3*8)
	for _, u := range []uint64{100, 101, 102} {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], u)
		blob = append(blob, b[:]...)
	}
	if _, err := d.log.Append(encodeWALRecord(7, 1, blob)); err != nil {
		t.Fatal(err)
	}
	if err := d.log.Sync(); err != nil {
		t.Fatal(err)
	}
	// Abandon: no head record was ever logged or written.

	d2 := openAt(t, dir)
	defer d2.Close()
	tailChunk, tailCount, err := d2.readHead(7)
	if err != nil {
		t.Fatal(err)
	}
	if tailChunk != 1 || tailCount != 3 {
		t.Fatalf("healed head = (%d, %d), want (1, 3)", tailChunk, tailCount)
	}
	if err := d2.StoreEdges([]graph.Edge{{Src: 7, Dst: 103}}); err != nil {
		t.Fatal(err)
	}
	if got := sortedNeighbors(t, d2, 7); len(got) != 4 || got[0] != 100 || got[3] != 103 {
		t.Fatalf("append after self-heal: %v", got)
	}
}

func TestWALRecordRoundTrip(t *testing.T) {
	rec := encodeWALRecord(42, 9, []byte{1, 2, 3})
	v, c, blob, err := decodeWALRecord(rec)
	if err != nil || v != 42 || c != 9 || !bytes.Equal(blob, []byte{1, 2, 3}) {
		t.Fatalf("round trip = %d %d %v %v", v, c, blob, err)
	}
	if _, _, _, err := decodeWALRecord([]byte{1, 2, 3}); err == nil {
		t.Fatal("short record accepted")
	}
}

func FuzzWALRecordDecode(f *testing.F) {
	f.Add(encodeWALRecord(1, 2, []byte("blob")))
	f.Add(encodeWALRecord(-5, 0, nil))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		v, c, blob, err := decodeWALRecord(b)
		if err != nil {
			return
		}
		// Valid decodes must survive a re-encode round trip.
		if !bytes.Equal(encodeWALRecord(v, c, blob), b) {
			t.Fatalf("round trip mismatch for %x", b)
		}
	})
}

func TestRecoverCommittedCheckpointMidWriteback(t *testing.T) {
	// A durable Flush whose commit fsync finished but whose write-back,
	// store syncs, manifest, and log reset did not: recovery must restore
	// the checkpoint from its WAL images and sealed state, not re-run
	// statements against whatever the interrupted write-back left behind.
	dir := t.TempDir()
	d := openAt(t, dir)
	if err := d.StoreEdges([]graph.Edge{{Src: 1, Dst: 10}, {Src: 1, Dst: 11}}); err != nil {
		t.Fatal(err)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := d.StoreEdges([]graph.Edge{{Src: 2, Dst: 20}, {Src: 2, Dst: 21}}); err != nil {
		t.Fatal(err)
	}
	// The first half of Flush, stopping right after the commit point: the
	// manifest on disk still describes the first batch only.
	err := d.cache.Dirty(func(space uint32, block int64, data []byte) error {
		_, err := d.log.Append(encodeImageRecord(space, block, data))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.log.Append(encodeStateRecord(d.currentManifest())); err != nil {
		t.Fatal(err)
	}
	if err := d.log.Sync(); err != nil {
		t.Fatal(err)
	}
	// No write-back, no manifest — abandon at the worst moment.

	d2 := openAt(t, dir)
	defer d2.Close()
	if got := sortedNeighbors(t, d2, 1); len(got) != 2 {
		t.Fatalf("first batch lost: %v", got)
	}
	if got := sortedNeighbors(t, d2, 2); len(got) != 2 || got[0] != 20 || got[1] != 21 {
		t.Fatalf("committed checkpoint not recovered: %v", got)
	}
	if !d2.log.Empty() {
		t.Fatal("WAL not retired after checkpoint recovery")
	}
}

func TestUncommittedCheckpointImagesIgnored(t *testing.T) {
	// Images staged for a flush whose state record never landed must not
	// be applied: the rows replay logically instead (the data files still
	// hold the previous flush exactly, thanks to the no-steal cache).
	dir := t.TempDir()
	d := openAt(t, dir)
	if err := d.StoreEdges([]graph.Edge{{Src: 5, Dst: 50}}); err != nil {
		t.Fatal(err)
	}
	err := d.cache.Dirty(func(space uint32, block int64, data []byte) error {
		_, err := d.log.Append(encodeImageRecord(space, block, data))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	// Sync rows + images but no state record, then abandon.
	if err := d.log.Sync(); err != nil {
		t.Fatal(err)
	}

	d2 := openAt(t, dir)
	defer d2.Close()
	if got := sortedNeighbors(t, d2, 5); len(got) != 1 || got[0] != 50 {
		t.Fatalf("synced rows lost: %v", got)
	}
}

// TestCheckpointRecordRoundTrip writes a committed flush whose records
// are laid out byte by byte as the WAL format defines them — 'I', space
// u32, block u64, the page; then 'S' and the 40 manifest bytes (root,
// pages, count, heap tail, heap pages, each u64) — and checks that it
// recovers and that the encoders emit exactly those bytes, so a log
// written by earlier code still replays.
func TestCheckpointRecordRoundTrip(t *testing.T) {
	dir := t.TempDir()
	d := openAt(t, dir)
	if err := d.StoreEdges([]graph.Edge{{Src: 4, Dst: 40}, {Src: 4, Dst: 41}, {Src: 9, Dst: 90}}); err != nil {
		t.Fatal(err)
	}
	le := binary.LittleEndian
	images := 0
	err := d.cache.Dirty(func(space uint32, block int64, data []byte) error {
		rec := le.AppendUint64(le.AppendUint32([]byte{'I'}, space), uint64(block))
		rec = append(rec, data...)
		if !bytes.Equal(wal.EncodeImage(space, block, data), rec) {
			t.Errorf("image record of space %d block %d differs from the format", space, block)
		}
		images++
		_, err := d.log.Append(rec)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	m := d.currentManifest()
	rec := []byte{'S'}
	for _, v := range []int64{m.tree.Root, m.tree.NumPages, m.tree.Count, m.heapTail, m.heapPages} {
		rec = le.AppendUint64(rec, uint64(v))
	}
	if !bytes.Equal(encodeStateRecord(m), rec) {
		t.Errorf("state record differs from the format:\n got %x\nwant %x", encodeStateRecord(m), rec)
	}
	if _, err := d.log.Append(rec); err != nil {
		t.Fatal(err)
	}
	if err := d.log.Sync(); err != nil {
		t.Fatal(err)
	}
	if images == 0 {
		t.Fatal("no dirty pages to log")
	}
	// Abandon at the commit point, before any write-back.

	d2 := openAt(t, dir)
	defer d2.Close()
	if got := sortedNeighbors(t, d2, 4); len(got) != 2 || got[0] != 40 || got[1] != 41 {
		t.Fatalf("vertex 4 after recovery: %v", got)
	}
	if got := sortedNeighbors(t, d2, 9); len(got) != 1 || got[0] != 90 {
		t.Fatalf("vertex 9 after recovery: %v", got)
	}
	if !d2.log.Empty() {
		t.Fatal("WAL not retired after checkpoint recovery")
	}
}

func FuzzManifestDecode(f *testing.F) {
	seed := manifest{tree: btree.Meta{Root: 1, NumPages: 2, Count: 3}, heapTail: 4, heapPages: 5}.encode()
	f.Add(seed)
	f.Add([]byte{})
	f.Add(seed[:39])
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := decodeManifest(b)
		if err != nil {
			return
		}
		if !bytes.Equal(m.encode(), b) {
			t.Fatalf("manifest round trip mismatch for %x", b)
		}
	})
}
