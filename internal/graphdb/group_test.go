package graphdb

import (
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"mssg/internal/graph"
)

// GroupBySource must visit sources in ascending order, each once, with
// its destinations in arrival order, whatever bytes the sources span, and
// leave its input unmodified.
func TestGroupBySource(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, top := range []int64{1, 200, 1 << 20, int64(graph.MaxVertexID)} {
		edges := make([]graph.Edge, 5000)
		for i := range edges {
			// Dst records arrival order, so stability is checkable.
			edges[i] = graph.Edge{Src: graph.VertexID(r.Int63n(top)), Dst: graph.VertexID(i)}
		}
		edges[0].Src = graph.VertexID(top - 1)
		input := slices.Clone(edges)
		want := make(map[graph.VertexID][]graph.VertexID)
		for _, e := range edges {
			want[e.Src] = append(want[e.Src], e.Dst)
		}
		got := make(map[graph.VertexID][]graph.VertexID)
		last := graph.VertexID(-1)
		err := GroupBySource(edges, func(src graph.VertexID, dsts []graph.VertexID) error {
			if src <= last {
				t.Fatalf("top %d: source %d after %d", top, src, last)
			}
			last = src
			got[src] = slices.Clone(dsts)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("top %d: groups differ from arrival-order grouping", top)
		}
		if !slices.Equal(edges, input) {
			t.Fatalf("top %d: GroupBySource modified its input", top)
		}
	}

	if err := GroupBySource(nil, func(graph.VertexID, []graph.VertexID) error {
		t.Fatal("fn called for an empty batch")
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	stop := errors.New("stop")
	calls := 0
	err := GroupBySource([]graph.Edge{{Src: 2, Dst: 1}, {Src: 1, Dst: 2}}, func(graph.VertexID, []graph.VertexID) error {
		calls++
		return stop
	})
	if !errors.Is(err, stop) || calls != 1 {
		t.Fatalf("err = %v after %d calls, want stop after 1", err, calls)
	}
}
