package grdb

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"mssg/internal/graph"
	"mssg/internal/graphdb"
	"mssg/internal/storage/blockio"
	"mssg/internal/storage/vfs"
	"mssg/internal/storage/wal"
)

// The record encoders the tests below write checkpoints with.
var encodeImageRecord = wal.EncodeImage

func encodeStateRecord(st manifestState) []byte { return wal.EncodeState(encodeState(st)) }

func durableOpts(dir string) graphdb.Options {
	return graphdb.Options{
		Dir:          dir,
		MaxFileBytes: 4096,
		Levels:       tinyLevels(),
		Durability:   graphdb.DurabilityFull,
	}
}

func openDurable(t *testing.T, dir string) *DB {
	t.Helper()
	d, err := Open(durableOpts(dir))
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return d
}

func TestDurableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	d := openDurable(t, dir)
	want := storeN(t, d, 7, 20)
	if err := d.SetCheckpoint([]byte("ckpt-blob")); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d = openDurable(t, dir)
	defer d.Close()
	if got := neighbors(t, d, 7); len(got) != len(want) {
		t.Fatalf("reopened adjacency has %d neighbours, want %d", len(got), len(want))
	}
	blob, err := d.GetCheckpoint()
	if err != nil || string(blob) != "ckpt-blob" {
		t.Fatalf("GetCheckpoint = %q, %v", blob, err)
	}
	if _, err := d.Check(); err != nil {
		t.Fatalf("Check after durable reopen: %v", err)
	}
}

func TestUncommittedBatchVanishes(t *testing.T) {
	dir := t.TempDir()
	d := openDurable(t, dir)
	storeN(t, d, 1, 5)
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	// Stored but never flushed: under no-steal these blocks live only in
	// the cache, so abandoning the handle (a "crash" that loses all
	// unsynced state, and then some) must roll the database back to the
	// committed checkpoint.
	storeN(t, d, 2, 5)
	// No Close — abandon.

	d2 := openDurable(t, dir)
	defer d2.Close()
	if got := neighbors(t, d2, 1); len(got) != 5 {
		t.Fatalf("committed vertex lost: %d neighbours, want 5", len(got))
	}
	if got := neighbors(t, d2, 2); len(got) != 0 {
		t.Fatalf("uncommitted vertex visible after reopen: %d neighbours", len(got))
	}
	if st := d2.Stats(); st.EdgesStored != 5 {
		t.Fatalf("EdgesStored = %d, want 5", st.EdgesStored)
	}
}

func TestWALReplayCompletesCheckpoint(t *testing.T) {
	// Build a committed WAL whose post-commit steps never ran: store
	// edges, checkpoint, then restore the data files and manifest to
	// their pre-checkpoint state while keeping the WAL. Recovery must
	// reconstruct the checkpoint from the log alone.
	dir := t.TempDir()
	d := openDurable(t, dir)
	storeN(t, d, 3, 12)

	// Checkpoint steps 1-3 only: log images + state, sync — commit —
	// but skip write-back, store sync, manifest, and WAL reset.
	err := d.cache.Dirty(func(space uint32, block int64, data []byte) error {
		_, err := d.wal.Append(encodeImageRecord(space, block, data))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.wal.Append(encodeStateRecord(d.manifestState())); err != nil {
		t.Fatal(err)
	}
	if err := d.wal.Sync(); err != nil {
		t.Fatal(err)
	}
	// Abandon without completing: data files still hold the empty
	// database, the manifest is absent, only the WAL has the edges.

	d2 := openDurable(t, dir)
	defer d2.Close()
	if got := neighbors(t, d2, 3); len(got) != 12 {
		t.Fatalf("WAL replay recovered %d neighbours, want 12", len(got))
	}
	if st := d2.Stats(); st.EdgesStored != 12 {
		t.Fatalf("EdgesStored = %d, want 12", st.EdgesStored)
	}
	if _, err := d2.Check(); err != nil {
		t.Fatalf("Check after WAL recovery: %v", err)
	}
	// The completed recovery must have persisted the manifest and
	// retired the log: a third open sees the same state with no replay.
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
	d3 := openDurable(t, dir)
	defer d3.Close()
	if !d3.wal.Empty() {
		t.Fatal("WAL not retired after recovery")
	}
	if got := neighbors(t, d3, 3); len(got) != 12 {
		t.Fatalf("third open: %d neighbours, want 12", len(got))
	}
}

func TestWALWithoutStateRecordIsDiscarded(t *testing.T) {
	dir := t.TempDir()
	d := openDurable(t, dir)
	storeN(t, d, 4, 8)
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	// Log images of a new batch but no state record (crash before the
	// commit fsync covered it).
	storeN(t, d, 5, 8)
	err := d.cache.Dirty(func(space uint32, block int64, data []byte) error {
		_, err := d.wal.Append(encodeImageRecord(space, block, data))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.wal.Sync(); err != nil {
		t.Fatal(err)
	}
	// Abandon.

	d2 := openDurable(t, dir)
	defer d2.Close()
	if got := neighbors(t, d2, 4); len(got) != 8 {
		t.Fatalf("committed vertex: %d neighbours, want 8", len(got))
	}
	if got := neighbors(t, d2, 5); len(got) != 0 {
		t.Fatalf("uncommitted images applied: vertex 5 has %d neighbours", len(got))
	}
}

func TestCheckpointBlobNonDurable(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(graphdb.Options{Dir: dir, MaxFileBytes: 4096, Levels: tinyLevels()})
	if err != nil {
		t.Fatal(err)
	}
	if blob, _ := d.GetCheckpoint(); blob != nil {
		t.Fatalf("fresh database has checkpoint %q", blob)
	}
	if err := d.SetCheckpoint([]byte("staged")); err != nil {
		t.Fatal(err)
	}
	// Staged but not flushed: GetCheckpoint still returns the committed
	// (absent) blob.
	if blob, _ := d.GetCheckpoint(); blob != nil {
		t.Fatalf("staged blob visible before Flush: %q", blob)
	}
	if err := d.Flush(); err != nil {
		t.Fatal(err)
	}
	if blob, _ := d.GetCheckpoint(); string(blob) != "staged" {
		t.Fatalf("after Flush: %q", blob)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	d2, err := Open(graphdb.Options{Dir: dir, MaxFileBytes: 4096, Levels: tinyLevels()})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if blob, _ := d2.GetCheckpoint(); string(blob) != "staged" {
		t.Fatalf("after reopen: %q", blob)
	}
}

func TestScrubQuarantinesAndRepairs(t *testing.T) {
	dir := t.TempDir()
	d := openDurable(t, dir)
	storeN(t, d, 0, 2) // fits level 0
	storeN(t, d, 1, 2)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Corrupt one byte of the level-0 data file.
	path := filepath.Join(dir, "level0.0000")
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[3] ^= 0x40
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}

	d2 := openDurable(t, dir)
	defer d2.Close()
	out := graph.NewAdjList(4)
	if err := graphdb.Adjacency(d2, 0, out); !errors.Is(err, blockio.ErrCorrupt) {
		t.Fatalf("read of corrupt block: %v, want ErrCorrupt", err)
	}
	rep, err := d2.Scrub()
	if err != nil {
		t.Fatalf("Scrub: %v", err)
	}
	if rep.CorruptBlocks != 1 || len(rep.Quarantined) != 1 {
		t.Fatalf("ScrubReport = %+v, want 1 corrupt + 1 quarantined", rep)
	}
	q, err := os.ReadFile(rep.Quarantined[0])
	if err != nil {
		t.Fatalf("quarantine file: %v", err)
	}
	if !bytes.Contains(q, []byte{b[3]}) && len(q) == 0 {
		t.Fatal("quarantine file empty")
	}
	// The repaired block reads as empty; structure is consistent.
	if got := neighbors(t, d2, 0); len(got) != 0 {
		t.Fatalf("repaired block still has %d neighbours", len(got))
	}
	if _, err := d2.Check(); err != nil {
		t.Fatalf("Check after scrub: %v", err)
	}
}

func TestVerifyOnOpen(t *testing.T) {
	dir := t.TempDir()
	d := openDurable(t, dir)
	storeN(t, d, 6, 10)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	opts := durableOpts(dir)
	opts.VerifyOnOpen = true
	d2, err := Open(opts)
	if err != nil {
		t.Fatalf("verify-on-open of a healthy database: %v", err)
	}
	d2.Close()
}

func FuzzManifestDecode(f *testing.F) {
	f.Add(encodeManifest(manifestState{
		gen: 3, edges: 42, maxVertex: 9,
		nextFree: []int64{0, 1, 2}, ckpt: []byte("blob"),
	}))
	v1 := make([]byte, 8*5)
	le.PutUint64(v1[0:8], 7)
	f.Add(v1)
	f.Add([]byte(manifestMagic))
	f.Fuzz(func(t *testing.T, b []byte) {
		// Must never panic, for any ladder length.
		for _, levels := range []int{1, 3, 6} {
			st, err := decodeManifest(b, levels)
			if err == nil && len(st.nextFree) != levels {
				t.Fatalf("decoded %d levels, want %d", len(st.nextFree), levels)
			}
		}
	})
}

func FuzzStateRecordDecode(f *testing.F) {
	f.Add(encodeState(manifestState{
		edges: 10, maxVertex: 5, nextFree: []int64{0, 4, 8}, ckpt: []byte("x"),
	}))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		for _, levels := range []int{1, 3, 6} {
			st, err := decodeState(b, levels)
			if err == nil && !bytes.Equal(encodeState(st), b) {
				t.Fatalf("state round trip mismatch for %x", b)
			}
		}
	})
}

// TestCheckpointRecordRoundTrip writes a committed checkpoint whose
// records are laid out byte by byte as the WAL format defines them —
// 'I', level u32, block u64, the block; then 'S', edges u64, maxVertex
// u64, levels u32, blob length u32, nextFree, the blob — and checks that
// it recovers and that the encoders emit exactly those bytes, so a log
// written by earlier code still replays.
func TestCheckpointRecordRoundTrip(t *testing.T) {
	dir := t.TempDir()
	d := openDurable(t, dir)
	storeN(t, d, 3, 12)
	if err := d.SetCheckpoint([]byte("blob")); err != nil {
		t.Fatal(err)
	}
	images := 0
	err := d.cache.Dirty(func(space uint32, block int64, data []byte) error {
		rec := le.AppendUint64(le.AppendUint32([]byte{'I'}, space), uint64(block))
		rec = append(rec, data...)
		if !bytes.Equal(wal.EncodeImage(space, block, data), rec) {
			t.Errorf("image record of level %d block %d differs from the format", space, block)
		}
		images++
		_, err := d.wal.Append(rec)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	st := d.manifestState()
	rec := le.AppendUint64(le.AppendUint64([]byte{'S'}, uint64(st.edges)), uint64(st.maxVertex))
	rec = le.AppendUint32(le.AppendUint32(rec, uint32(len(st.nextFree))), uint32(len(st.ckpt)))
	for _, nf := range st.nextFree {
		rec = le.AppendUint64(rec, uint64(nf))
	}
	rec = append(rec, st.ckpt...)
	if !bytes.Equal(encodeStateRecord(st), rec) {
		t.Errorf("state record differs from the format:\n got %x\nwant %x", encodeStateRecord(st), rec)
	}
	if _, err := d.wal.Append(rec); err != nil {
		t.Fatal(err)
	}
	if err := d.wal.Sync(); err != nil {
		t.Fatal(err)
	}
	if images == 0 {
		t.Fatal("no dirty blocks to log")
	}
	// Abandon at the commit point: only the log holds the edges.

	d2 := openDurable(t, dir)
	defer d2.Close()
	if got := neighbors(t, d2, 3); len(got) != 12 {
		t.Fatalf("recovered %d neighbours, want 12", len(got))
	}
	if blob, err := d2.GetCheckpoint(); err != nil || string(blob) != "blob" {
		t.Fatalf("GetCheckpoint = %q, %v", blob, err)
	}
	if _, err := d2.Check(); err != nil {
		t.Fatalf("Check after recovery: %v", err)
	}
}

// eioFS fails the nth read, write or sync (op) of the files whose base
// name starts with file, counted once armed: a disk error rather than a
// crash. Checksum sidecars never fail.
type eioFS struct {
	vfs.FS
	file, op string
	n, ops   int
	armed    bool
}

type eioFile struct {
	vfs.File
	owner *eioFS
}

func (f *eioFS) OpenFile(name string, flag int, perm fs.FileMode) (vfs.File, error) {
	file, err := f.FS.OpenFile(name, flag, perm)
	if err != nil || !strings.HasPrefix(filepath.Base(name), f.file) || strings.HasSuffix(name, ".sum") {
		return file, err
	}
	return &eioFile{File: file, owner: f}, nil
}

func (f *eioFS) fail(op string) error {
	if f.armed && op == f.op {
		if f.ops++; f.ops == f.n {
			return syscall.EIO
		}
	}
	return nil
}

func (f *eioFile) ReadAt(p []byte, off int64) (int, error) {
	if err := f.owner.fail("read"); err != nil {
		return 0, err
	}
	return f.File.ReadAt(p, off)
}

func (f *eioFile) WriteAt(p []byte, off int64) (int, error) {
	if err := f.owner.fail("write"); err != nil {
		return 0, err
	}
	return f.File.WriteAt(p, off)
}

func (f *eioFile) Sync() error {
	if err := f.owner.fail("sync"); err != nil {
		return err
	}
	return f.File.Sync()
}

// TestFailedFlushKeepsWhatTheLogHolds: a durable Flush that fails leaves
// the database exactly at whichever commit its log holds — the previous
// one when the commit record never reached the log, the new one when it
// did — with the edges and the checkpoint blob in step, then and after a
// reopen.
func TestFailedFlushKeepsWhatTheLogHolds(t *testing.T) {
	for _, tc := range []struct {
		file, op  string
		committed bool
	}{
		{walName, "write", false},
		{walName, "sync", true}, // the write reached the file; its fsync failed
		{"level", "write", true},
	} {
		dir := t.TempDir()
		fsys := &eioFS{FS: vfs.OS, file: tc.file, op: tc.op, n: 1}
		opts := durableOpts(dir)
		opts.FS = fsys
		d, err := Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		storeN(t, d, 1, 5)
		if err := d.Flush(); err != nil {
			t.Fatal(err)
		}
		storeN(t, d, 2, 5)
		if err := d.SetCheckpoint([]byte("second")); err != nil {
			t.Fatal(err)
		}
		fsys.armed = true
		if err := d.Flush(); !errors.Is(err, syscall.EIO) {
			t.Fatalf("%s %s: Flush = %v, want EIO", tc.file, tc.op, err)
		}
		want, wantBlob := 0, ""
		if tc.committed {
			want, wantBlob = 5, "second"
		}
		for pass := 0; pass < 2; pass++ {
			blob, _ := d.GetCheckpoint()
			if got := neighbors(t, d, 2); len(got) != want || string(blob) != wantBlob || d.edges.Load() != int64(5+want) {
				t.Fatalf("%s %s, pass %d: %d neighbours, %d edges, blob %q; want %d, %d, %q",
					tc.file, tc.op, pass, len(got), d.edges.Load(), blob, want, 5+want, wantBlob)
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			if d, err = Open(opts); err != nil {
				t.Fatal(err)
			}
		}
		d.Close()
	}
}

// TestFailedStoreLeavesNoTrace: a durable StoreEdges that fails midway
// must leave the database at its last commit, so storing the same batch
// again stores it exactly once — no Flush or Close may commit the part
// the failed call appended.
func TestFailedStoreLeavesNoTrace(t *testing.T) {
	const n = 200_000
	batch := func(k int) []graph.Edge {
		edges := make([]graph.Edge, n)
		for v := range edges {
			edges[v] = graph.Edge{Src: graph.VertexID(v), Dst: graph.VertexID((v + k) % n)}
		}
		return edges
	}
	dir := t.TempDir()
	fsys := &eioFS{FS: vfs.OS, file: "level", op: "read", n: 31}
	open := func() *DB {
		d, err := Open(graphdb.Options{Dir: dir, CacheBytes: 16 << 10, Durability: graphdb.DurabilityFull, FS: fsys})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	d := open()
	if err := d.StoreEdges(batch(1)); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d = open() // cold cache
	fsys.armed = true
	if err := d.StoreEdges(batch(2)); !errors.Is(err, syscall.EIO) {
		t.Fatalf("StoreEdges with a failing read: %v, want EIO", err)
	}
	fsys.armed = false
	if got := d.edges.Load(); got != n {
		t.Fatalf("after the failed store: %d edges, want the committed %d", got, n)
	}
	if got := d.Stats().EdgesStored; got != n {
		t.Fatalf("after the failed store: Stats reports %d edges, want the committed %d", got, n)
	}
	if err := d.StoreEdges(batch(2)); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d = open()
	defer d.Close()
	var sum int64
	for v := graph.VertexID(0); v < n; v++ {
		deg, err := d.Degree(v)
		if err != nil {
			t.Fatal(err)
		}
		sum += deg
	}
	if got := d.Stats().EdgesStored; got != 2*n || sum != 2*n {
		t.Fatalf("stored %d edges (degree sum %d), want exactly %d", got, sum, 2*n)
	}
}
