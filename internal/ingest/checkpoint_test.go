package ingest

import (
	"errors"
	"reflect"
	"testing"

	"mssg/internal/graph"
	"mssg/internal/graphdb"
	"mssg/internal/graphdb/grdb"
	"mssg/internal/graphdb/hashdb"
)

func TestSeenCodecRoundTrip(t *testing.T) {
	seen := map[uint64]struct{}{
		windowKey(0, 1):     {},
		windowKey(3, 9):     {},
		windowKey(7, 1<<40): {},
	}
	got, err := decodeSeen(encodeSeen(seen))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, seen) {
		t.Fatalf("round trip = %v, want %v", got, seen)
	}
	empty, err := decodeSeen(nil)
	if err != nil || len(empty) != 0 {
		t.Fatalf("decodeSeen(nil) = %v, %v", empty, err)
	}
	for _, bad := range [][]byte{
		[]byte("xxxx"),
		[]byte("ICK1"),
		append([]byte("ICK1"), make([]byte, 13)...), // misaligned body
		encodeSeen(seen)[:20],                       // truncated
	} {
		if _, err := decodeSeen(bad); err == nil {
			t.Errorf("decodeSeen accepted %x", bad)
		}
	}
}

// TestDurableIngestResumesFromCheckpoint is the back-end half of
// crash-restart ingestion: a store filter that checkpoints its dedup-set,
// "crashes", and is rebuilt over the reopened database must skip every
// window the checkpoint covers and store only the rest.
func TestDurableIngestResumesFromCheckpoint(t *testing.T) {
	dir := t.TempDir()
	open := func() graphdb.Graph {
		db, err := grdb.Open(graphdb.Options{
			Dir:        dir,
			Levels:     []graphdb.LevelSpec{{SubBlockCap: 2, BlockBytes: 256}, {SubBlockCap: 4, BlockBytes: 256}, {SubBlockCap: 8, BlockBytes: 256}},
			Durability: graphdb.DurabilityFull,
		})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		return db
	}

	db := open()
	stats := &Stats{}
	sf := &storeFilter{cfg: Config{Durable: true, CheckpointWindows: 1}, db: db, stats: stats}
	if err := sf.Init(nil); err != nil {
		t.Fatal(err)
	}
	w1 := encodeWindow(0, 1, []graph.Edge{{Src: 1, Dst: 2}, {Src: 1, Dst: 3}})
	w2 := encodeWindow(0, 2, []graph.Edge{{Src: 2, Dst: 4}})
	if err := sf.apply(w1); err != nil {
		t.Fatal(err)
	}
	if err := sf.apply(w2); err != nil {
		t.Fatal(err)
	}
	// Crash: abandon filter and database without Finalize/Close. Every
	// window was checkpointed (CheckpointWindows: 1), so the restarted
	// back-end must remember both.

	db2 := open()
	defer db2.Close()
	stats2 := &Stats{}
	sf2 := &storeFilter{cfg: Config{Durable: true}, db: db2, stats: stats2}
	if err := sf2.Init(nil); err != nil {
		t.Fatal(err)
	}
	w3 := encodeWindow(0, 3, []graph.Edge{{Src: 3, Dst: 5}})
	// The front-end re-ships the whole stream plus one new window.
	for _, w := range [][]byte{w1, w2, w3} {
		if err := sf2.apply(w); err != nil {
			t.Fatal(err)
		}
	}
	if err := sf2.Finalize(nil); err != nil {
		t.Fatal(err)
	}
	if got := stats2.DupBlocks.Load(); got != 2 {
		t.Errorf("DupBlocks = %d, want 2 (checkpointed windows not skipped)", got)
	}
	if got := stats2.EdgesStored.Load(); got != 1 {
		t.Errorf("EdgesStored = %d, want 1", got)
	}
	deg, err := graphdb.Degree(db2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if deg != 2 {
		t.Errorf("Degree(1) = %d, want 2 (re-shipped window double-stored)", deg)
	}
}

// TestFailedWindowIsNotRemembered: a window whose store fails must not
// enter the dedup set. The runtime finalizes a store filter even after
// Process failed, so a failed window recorded as applied would be
// checkpointed and then skipped as a duplicate when it is re-shipped,
// losing its edges. Windows are staged, so the failing store holds both
// w1 and w2, and neither may be remembered.
func TestFailedWindowIsNotRemembered(t *testing.T) {
	dir := t.TempDir()
	open := func() graphdb.Graph {
		db, err := grdb.Open(graphdb.Options{
			Dir:        dir,
			Levels:     []graphdb.LevelSpec{{SubBlockCap: 2, BlockBytes: 256}, {SubBlockCap: 4, BlockBytes: 256}, {SubBlockCap: 8, BlockBytes: 256}},
			Durability: graphdb.DurabilityFull,
		})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		return db
	}
	w1 := encodeWindow(0, 1, []graph.Edge{{Src: 1, Dst: 2}, {Src: 1, Dst: 3}})
	w2 := encodeWindow(0, 2, []graph.Edge{{Src: 2, Dst: 4}})

	db := open()
	failing := &failNthStore{Graph: db, Checkpointer: db.(graphdb.Checkpointer), n: 1}
	stats := &Stats{}
	sf := &storeFilter{cfg: Config{Durable: true, CheckpointWindows: 2}, db: failing, stats: stats}
	if err := sf.Init(nil); err != nil {
		t.Fatal(err)
	}
	if err := sf.apply(w1); err != nil {
		t.Fatalf("staging w1: %v", err)
	}
	if err := sf.apply(w2); err == nil {
		t.Fatal("the store of the full stage did not fail")
	}
	if failing.calls != 1 {
		t.Fatalf("StoreEdges calls = %d, want 1 (one store for the stage)", failing.calls)
	}
	if err := sf.Finalize(nil); err != nil {
		t.Fatal(err)
	}
	if got := stats.EdgesStored.Load(); got != 0 {
		t.Errorf("EdgesStored = %d after a failed store, want 0", got)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := open()
	defer db2.Close()
	stats2 := &Stats{}
	sf2 := &storeFilter{cfg: Config{Durable: true}, db: db2, stats: stats2}
	if err := sf2.Init(nil); err != nil {
		t.Fatal(err)
	}
	for _, w := range [][]byte{w1, w2} {
		if err := sf2.apply(w); err != nil {
			t.Fatal(err)
		}
	}
	if err := sf2.Finalize(nil); err != nil {
		t.Fatal(err)
	}
	if got := stats2.DupBlocks.Load(); got != 0 {
		t.Errorf("DupBlocks = %d, want 0 (no window of the failed store was applied)", got)
	}
	if got := stats2.EdgesStored.Load(); got != 3 {
		t.Errorf("EdgesStored = %d, want 3 (w1 and w2 re-applied)", got)
	}
	if deg, err := graphdb.Degree(db2, 1); err != nil || deg != 2 {
		t.Errorf("Degree(1) = %d, %v; want 2 (failed window lost)", deg, err)
	}
	if deg, err := graphdb.Degree(db2, 2); err != nil || deg != 1 {
		t.Errorf("Degree(2) = %d, %v; want 1 (failed window lost)", deg, err)
	}
}

// failNthStore fails the n-th StoreEdges call before it touches the
// database, and forwards everything else.
type failNthStore struct {
	graphdb.Graph
	graphdb.Checkpointer
	n, calls int
}

func (f *failNthStore) StoreEdges(edges []graph.Edge) error {
	f.calls++
	if f.calls == f.n {
		return errors.New("injected StoreEdges failure")
	}
	return f.Graph.StoreEdges(edges)
}

// TestDurableIngestNeedsCheckpointer: hashdb has no durable checkpoint
// support, so durable ingest over it must fail loudly at Init rather than
// silently losing resume semantics.
func TestDurableIngestNeedsCheckpointer(t *testing.T) {
	sf := &storeFilter{cfg: Config{Durable: true}, db: fakeNoCkpt{}, stats: &Stats{}}
	if err := sf.Init(nil); err == nil {
		t.Fatal("durable ingest accepted a database without Checkpointer")
	}
}

type fakeNoCkpt struct{ graphdb.Graph }

func TestCheckpointCodec(t *testing.T) {
	seen := map[uint64]struct{}{windowKey(0, 1): {}, windowKey(2, 5): {}}
	run, done, got, err := decodeCheckpoint(encodeCheckpoint(7, true, seen))
	if err != nil || run != 7 || !done || !reflect.DeepEqual(got, seen) {
		t.Fatalf("round trip = %d, %v, %v, %v", run, done, got, err)
	}
	if run, done, got, err = decodeCheckpoint(encodeCheckpoint(3, false, nil)); err != nil || run != 3 || done || len(got) != 0 {
		t.Fatalf("empty set round trip = %d, %v, %v, %v", run, done, got, err)
	}
	// A fresh database is a finished run 0, so the first ingest is run 1.
	if run, done, got, err = decodeCheckpoint(nil); err != nil || run != 0 || !done || len(got) != 0 {
		t.Fatalf("decodeCheckpoint(nil) = %d, %v, %v, %v", run, done, got, err)
	}
	// A run-less ICK1 set is an unfinished run 1, resumed by the next ingest.
	if run, done, got, err = decodeCheckpoint(encodeSeen(seen)); err != nil || run != 1 || done || !reflect.DeepEqual(got, seen) {
		t.Fatalf("ICK1 blob = %d, %v, %v, %v", run, done, got, err)
	}
	good := encodeCheckpoint(7, true, seen)
	flag2 := append([]byte(nil), good...)
	flag2[12] = 2
	for _, bad := range [][]byte{
		[]byte("ICK2"),
		good[:ckptRunBytes], // no set
		good[:len(good)-3],  // truncated set
		flag2,               // unknown flag
		[]byte("ICK3xxxxxxxxxxxxxxxxxxxxxxxxxxxx"),
	} {
		if _, _, _, err := decodeCheckpoint(bad); err == nil {
			t.Errorf("decodeCheckpoint accepted %x", bad)
		}
	}
}

// TestStagedDuplicateStoredOnce: a duplicate of a window that is staged
// but not yet stored is dropped, and the window is stored once, by one
// StoreEdges call, when the stage is stored.
func TestStagedDuplicateStoredOnce(t *testing.T) {
	db := hashdb.New()
	defer db.Close()
	counted := &failNthStore{Graph: db} // n = 0: counts calls, never fails
	stats := &Stats{}
	sf := &storeFilter{db: counted, stats: stats}
	if err := sf.Init(nil); err != nil {
		t.Fatal(err)
	}
	w1 := encodeWindow(0, 1, []graph.Edge{{Src: 1, Dst: 2}, {Src: 1, Dst: 3}})
	for _, w := range [][]byte{w1, w1} {
		if err := sf.apply(w); err != nil {
			t.Fatal(err)
		}
	}
	if got := stats.DupBlocks.Load(); got != 1 {
		t.Errorf("DupBlocks = %d, want 1 (staged duplicate not dropped)", got)
	}
	if counted.calls != 0 || stats.EdgesStored.Load() != 0 {
		t.Errorf("before the store: %d StoreEdges calls, EdgesStored %d; want 0, 0 (staged windows count at store)",
			counted.calls, stats.EdgesStored.Load())
	}
	if err := sf.Finalize(nil); err != nil {
		t.Fatal(err)
	}
	if counted.calls != 1 || stats.EdgesStored.Load() != 2 {
		t.Errorf("after Finalize: %d StoreEdges calls, EdgesStored %d; want 1, 2", counted.calls, stats.EdgesStored.Load())
	}
	if deg, err := graphdb.Degree(db, 1); err != nil || deg != 2 {
		t.Errorf("Degree(1) = %d, %v; want 2", deg, err)
	}
	// Once stored, the window is still a duplicate.
	if err := sf.apply(w1); err != nil {
		t.Fatal(err)
	}
	if got := stats.DupBlocks.Load(); got != 2 {
		t.Errorf("DupBlocks = %d, want 2 (stored window re-applied)", got)
	}
}

// TestStoreAtCheckpointWindowsBound: a back-end stores its stage with one
// StoreEdges call each time CheckpointWindows windows are staged, and the
// rest at Finalize.
func TestStoreAtCheckpointWindowsBound(t *testing.T) {
	db := hashdb.New()
	defer db.Close()
	counted := &failNthStore{Graph: db}
	stats := &Stats{}
	sf := &storeFilter{cfg: Config{CheckpointWindows: 3}, db: counted, stats: stats}
	if err := sf.Init(nil); err != nil {
		t.Fatal(err)
	}
	for seq := 1; seq <= 7; seq++ {
		v := graph.VertexID(seq)
		if err := sf.apply(encodeWindow(0, uint64(seq), []graph.Edge{{Src: v, Dst: v + 100}})); err != nil {
			t.Fatal(err)
		}
		if want := seq / 3; counted.calls != want || stats.EdgesStored.Load() != int64(3*want) {
			t.Fatalf("after window %d: %d StoreEdges calls, EdgesStored %d; want %d, %d",
				seq, counted.calls, stats.EdgesStored.Load(), want, 3*want)
		}
	}
	if err := sf.Finalize(nil); err != nil {
		t.Fatal(err)
	}
	if counted.calls != 3 || stats.EdgesStored.Load() != 7 {
		t.Errorf("after Finalize: %d StoreEdges calls, EdgesStored %d; want 3, 7", counted.calls, stats.EdgesStored.Load())
	}
	for v := graph.VertexID(1); v <= 7; v++ {
		if deg, err := graphdb.Degree(db, v); err != nil || deg != 1 {
			t.Errorf("Degree(%d) = %d, %v; want 1", v, deg, err)
		}
	}
}

// TestNextRun: a durable ingest starts a new run only when every
// back-end holds the latest run, finished; a back-end that is unfinished
// or still at an earlier run makes the ingest resume the latest run.
// FinishRun finishes the run every back-end holds and keeps its set.
func TestNextRun(t *testing.T) {
	seen := map[uint64]struct{}{windowKey(0, 1): {}}
	for _, tc := range []struct {
		name  string
		blobs [][]byte
		want  uint64
	}{
		{"fresh", [][]byte{nil, nil}, 1},
		{"finished", [][]byte{encodeCheckpoint(1, true, seen), encodeCheckpoint(1, true, nil)}, 2},
		{"one unfinished", [][]byte{encodeCheckpoint(2, true, seen), encodeCheckpoint(2, false, seen)}, 2},
		{"one behind", [][]byte{encodeCheckpoint(1, true, seen), encodeCheckpoint(2, true, seen)}, 2},
		{"one fresh", [][]byte{nil, encodeCheckpoint(1, true, seen)}, 1},
		{"ICK1", [][]byte{encodeSeen(seen), nil}, 1},
	} {
		dbs := make([]*memCheckpointer, len(tc.blobs))
		for i, b := range tc.blobs {
			dbs[i] = &memCheckpointer{Graph: hashdb.New(), blob: b}
		}
		db := func(i int) graphdb.Graph { return dbs[i] }
		if got, err := nextRun(len(dbs), db); err != nil || got != tc.want {
			t.Errorf("%s: nextRun = %d, %v; want %d", tc.name, got, err, tc.want)
		}
	}

	dbs := []*memCheckpointer{
		{Graph: hashdb.New(), blob: encodeCheckpoint(3, false, seen)},
		{Graph: hashdb.New(), blob: encodeCheckpoint(3, true, nil)},
	}
	db := func(i int) graphdb.Graph { return dbs[i] }
	if err := FinishRun(len(dbs), db); err != nil {
		t.Fatal(err)
	}
	if got, err := nextRun(len(dbs), db); err != nil || got != 4 {
		t.Errorf("after FinishRun: nextRun = %d, %v; want 4", got, err)
	}
	if run, done, got, err := decodeCheckpoint(dbs[0].blob); err != nil || run != 3 || !done || !reflect.DeepEqual(got, seen) {
		t.Errorf("back-end 0 after FinishRun = %d, %v, %v, %v; want run 3, finished, its set", run, done, got, err)
	}
}

// memCheckpointer keeps a checkpoint blob in memory; SetCheckpoint
// stands for SetCheckpoint followed by Flush.
type memCheckpointer struct {
	graphdb.Graph
	blob []byte
}

func (m *memCheckpointer) SetCheckpoint(b []byte) error   { m.blob = b; return nil }
func (m *memCheckpointer) GetCheckpoint() ([]byte, error) { return m.blob, nil }

// FuzzCheckpointDecode: decodeCheckpoint reads a blob from disk, so it
// must not panic on any input, and whatever it accepts re-encodes to a
// blob that decodes to the same checkpoint.
func FuzzCheckpointDecode(f *testing.F) {
	f.Add([]byte(nil))
	f.Add(encodeSeen(map[uint64]struct{}{windowKey(1, 2): {}}))
	f.Add(encodeCheckpoint(4, true, map[uint64]struct{}{windowKey(0, 9): {}}))
	f.Fuzz(func(t *testing.T, b []byte) {
		run, done, seen, err := decodeCheckpoint(b)
		if err != nil {
			return
		}
		run2, done2, seen2, err := decodeCheckpoint(encodeCheckpoint(run, done, seen))
		if err != nil || run2 != run || done2 != done || !reflect.DeepEqual(seen2, seen) {
			t.Fatalf("re-encoded checkpoint (%d, %v, %d keys) decodes to (%d, %v, %d keys), %v",
				run, done, len(seen), run2, done2, len(seen2), err)
		}
	})
}
