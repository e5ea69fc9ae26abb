package ingest

import (
	"reflect"
	"testing"

	"mssg/internal/graph"
	"mssg/internal/graphdb"
	"mssg/internal/graphdb/hashdb"
)

// decodeWindow parses a whole window payload: its id and its edges.
func decodeWindow(b []byte) (frontend uint32, seq uint64, edges []graph.Edge, err error) {
	if frontend, seq, err = windowID(b); err != nil {
		return 0, 0, nil, err
	}
	return frontend, seq, appendEdges([]graph.Edge{}, b), nil
}

func TestWindowCodecRoundTrip(t *testing.T) {
	edges := []graph.Edge{{Src: 3, Dst: 9}, {Src: 9, Dst: 3}, {Src: 7, Dst: graph.MaxVertexID}}
	fe, seq, got, err := decodeWindow(encodeWindow(5, 12345, edges))
	if err != nil {
		t.Fatal(err)
	}
	if fe != 5 || seq != 12345 {
		t.Fatalf("header round trip = (%d, %d), want (5, 12345)", fe, seq)
	}
	if !reflect.DeepEqual(got, edges) {
		t.Fatalf("edges round trip = %v", got)
	}
	if _, _, _, err := decodeWindow([]byte{1, 2, 3}); err == nil {
		t.Fatal("short window accepted")
	}
	if _, _, _, err := decodeWindow(make([]byte, windowHeaderBytes+5)); err == nil {
		t.Fatal("misaligned window body accepted")
	}
}

func TestWindowKeyDistinct(t *testing.T) {
	seen := map[uint64]bool{}
	for fe := uint32(0); fe < 8; fe++ {
		for seq := uint64(1); seq <= 100; seq++ {
			k := windowKey(fe, seq)
			if seen[k] {
				t.Fatalf("windowKey(%d, %d) collides", fe, seq)
			}
			seen[k] = true
		}
	}
}

// TestStoreFilterDedupsReshippedWindows is the store-side half of the
// ingest retry protocol: applying the same window twice (a front-end
// re-ship after an ambiguous send failure, or a fabric duplicate) must
// not double-count EdgesStored or duplicate adjacency.
func TestStoreFilterDedupsReshippedWindows(t *testing.T) {
	db := hashdb.New()
	defer db.Close()
	stats := &Stats{}
	sf := &storeFilter{db: db, stats: stats}
	if err := sf.Init(nil); err != nil {
		t.Fatal(err)
	}

	w1 := encodeWindow(0, 1, []graph.Edge{{Src: 1, Dst: 2}, {Src: 1, Dst: 3}})
	w2 := encodeWindow(0, 2, []graph.Edge{{Src: 2, Dst: 1}})
	// Same seq from a DIFFERENT front-end is a distinct window, not a dup.
	w3 := encodeWindow(1, 1, []graph.Edge{{Src: 3, Dst: 1}})

	for _, w := range [][]byte{w1, w1, w2, w3, w1, w2} {
		if err := sf.apply(w); err != nil {
			t.Fatal(err)
		}
	}
	if err := sf.Finalize(nil); err != nil {
		t.Fatal(err)
	}

	if got := stats.EdgesStored.Load(); got != 4 {
		t.Errorf("EdgesStored = %d, want 4 (re-shipped windows double-counted)", got)
	}
	if got := stats.DupBlocks.Load(); got != 3 {
		t.Errorf("DupBlocks = %d, want 3", got)
	}
	deg, err := graphdb.Degree(db, 1)
	if err != nil {
		t.Fatal(err)
	}
	if deg != 2 {
		t.Errorf("Degree(1) = %d, want 2 (duplicate adjacency stored)", deg)
	}
	adj := graph.NewAdjList(8)
	if err := db.AdjacencyUsingMetadata(1, adj, 0, graphdb.MetaIgnore); err != nil {
		t.Fatal(err)
	}
	if got := adj.IDs(); len(got) != 2 {
		t.Errorf("Adjacency(1) = %v, want exactly {2, 3}", got)
	}
}
