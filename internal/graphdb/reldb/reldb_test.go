package reldb

import (
	"bytes"
	"reflect"
	"sort"
	"testing"

	"mssg/internal/graph"
	"mssg/internal/graphdb"
)

// chunkCap is the shared chunk layout's capacity (graphdb/chunk.go).
const chunkCap = graphdb.ChunkCap

func TestStatementRoundTrip(t *testing.T) {
	blob := []byte{1, 2, 3, 0xFF, 0}
	text := renderInsert(42, 7, blob)
	st, err := parseStatement(text)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if st.kind != stmtInsert || st.vertex != 42 || st.chunk != 7 || !bytes.Equal(st.blob, blob) {
		t.Fatalf("parsed %+v", st)
	}

	sel, err := parseStatement(renderSelect(123))
	if err != nil {
		t.Fatalf("parse select: %v", err)
	}
	if sel.kind != stmtSelect || sel.vertex != 123 {
		t.Fatalf("parsed %+v", sel)
	}
}

func TestStatementSyntaxErrors(t *testing.T) {
	bad := []string{
		"",
		"DROP TABLE adjacency",
		"REPLACE INTO adjacency VALUES",
		"REPLACE INTO adjacency (src, chunk, neighbors) VALUES (x, 1, x'00')",
		"REPLACE INTO adjacency (src, chunk, neighbors) VALUES (1, y, x'00')",
		"REPLACE INTO adjacency (src, chunk, neighbors) VALUES (1, 1, x'zz')",
		"SELECT chunk, neighbors FROM adjacency WHERE src = abc ORDER BY chunk",
	}
	for _, s := range bad {
		if _, err := parseStatement(s); err == nil {
			t.Errorf("statement %q accepted", s)
		}
	}
}

func TestResultRowRoundTrip(t *testing.T) {
	chunk, blob, err := parseResultRow(renderResultRow(9, []byte{0xAA, 0xBB}))
	if err != nil {
		t.Fatal(err)
	}
	if chunk != 9 || !bytes.Equal(blob, []byte{0xAA, 0xBB}) {
		t.Fatalf("round trip = %d %v", chunk, blob)
	}
	if _, _, err := parseResultRow("no-tab"); err == nil {
		t.Fatal("malformed result row accepted")
	}
}

func TestHeapInsertRead(t *testing.T) {
	d := openTest(t)
	ref, err := d.heap.insert(row{vertex: 5, chunk: 1, blob: []byte("abc")})
	if err != nil {
		t.Fatal(err)
	}
	r, err := d.heap.read(ref)
	if err != nil {
		t.Fatal(err)
	}
	if r.vertex != 5 || r.chunk != 1 || string(r.blob) != "abc" {
		t.Fatalf("read back %+v", r)
	}
	if _, err := d.heap.read(rowRef{page: 0, slot: 99}); err == nil {
		t.Fatal("out-of-range slot accepted")
	}
}

func TestHeapPageOverflowAllocatesNewPage(t *testing.T) {
	d := openTest(t)
	big := make([]byte, 8000)
	var refs []rowRef
	for i := 0; i < 5; i++ {
		ref, err := d.heap.insert(row{vertex: int64(i), chunk: 1, blob: big})
		if err != nil {
			t.Fatal(err)
		}
		refs = append(refs, ref)
	}
	if d.heap.numPages < 3 {
		t.Fatalf("numPages = %d, want >= 3 for 5x8KB rows in 16KB pages", d.heap.numPages)
	}
	for i, ref := range refs {
		r, err := d.heap.read(ref)
		if err != nil || r.vertex != int64(i) {
			t.Fatalf("row %d: %+v %v", i, r, err)
		}
	}
}

func openTest(t *testing.T) *DB {
	t.Helper()
	d, err := Open(graphdb.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

func TestChunkSplitAcrossRows(t *testing.T) {
	// Degree > chunkCap must span multiple BLOB rows (Fig 4.3's second
	// column bookkeeping).
	d := openTest(t)
	n := chunkCap + 500
	edges := make([]graph.Edge, n)
	want := make([]graph.VertexID, n)
	for i := 0; i < n; i++ {
		want[i] = graph.VertexID(10 + i)
		edges[i] = graph.Edge{Src: 1, Dst: want[i]}
	}
	if err := d.StoreEdges(edges); err != nil {
		t.Fatal(err)
	}
	tailChunk, tailCount, err := d.readHead(1)
	if err != nil {
		t.Fatal(err)
	}
	if tailChunk != 2 || tailCount != 500 {
		t.Fatalf("head = chunk %d count %d, want 2/500", tailChunk, tailCount)
	}
	out := graph.NewAdjList(n)
	if err := graphdb.Adjacency(d, 1, out); err != nil {
		t.Fatal(err)
	}
	got := append([]graph.VertexID(nil), out.IDs()...)
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("adjacency mismatch: %d ids, want %d", len(got), len(want))
	}
	if d.Statements() == 0 {
		t.Fatal("no SQL statements recorded")
	}
}

func TestWALGrowsWithWrites(t *testing.T) {
	d := openTest(t)
	before := d.log.Seq()
	if err := d.StoreEdges([]graph.Edge{{Src: 1, Dst: 2}, {Src: 3, Dst: 4}}); err != nil {
		t.Fatal(err)
	}
	if d.log.Seq() <= before {
		t.Fatal("WAL did not grow")
	}
}
