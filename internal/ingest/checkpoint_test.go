package ingest

import (
	"errors"
	"reflect"
	"testing"

	"mssg/internal/graph"
	"mssg/internal/graphdb"
	"mssg/internal/graphdb/grdb"
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

// TestFailedWindowIsNotRemembered: a window whose StoreEdges fails must
// not enter the dedup set. The runtime finalizes a store filter even
// after Process failed, so a failed window recorded as applied would be
// checkpointed and then skipped as a duplicate when it is re-shipped,
// losing its edges.
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
	failing := &failNthStore{Graph: db, Checkpointer: db.(graphdb.Checkpointer), n: 2}
	sf := &storeFilter{cfg: Config{Durable: true}, db: failing, stats: &Stats{}}
	if err := sf.Init(nil); err != nil {
		t.Fatal(err)
	}
	if err := sf.apply(w1); err != nil {
		t.Fatal(err)
	}
	if err := sf.apply(w2); err == nil {
		t.Fatal("second StoreEdges did not fail")
	}
	if err := sf.Finalize(nil); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2 := open()
	defer db2.Close()
	stats := &Stats{}
	sf2 := &storeFilter{cfg: Config{Durable: true}, db: db2, stats: stats}
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
	if got := stats.DupBlocks.Load(); got != 1 {
		t.Errorf("DupBlocks = %d, want 1 (only w1 was applied)", got)
	}
	if got := stats.EdgesStored.Load(); got != 1 {
		t.Errorf("EdgesStored = %d, want 1 (w2 re-applied)", got)
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
