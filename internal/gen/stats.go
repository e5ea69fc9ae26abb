package gen

import (
	"fmt"
	"io"
	"sort"

	"mssg/internal/graph"
)

// Stats summarizes a graph the way Table 5.1 of the paper does, plus a few
// extra fields used by the experiment reports.
type Stats struct {
	Name      string
	Vertices  int64 // vertices with degree >= 1
	UndEdges  int64 // undirected edge count (each input edge counted once)
	MinDegree int64
	MaxDegree int64
	AvgDegree float64
	// MaxDegreeVertex is the hub (useful for picking query endpoints).
	MaxDegreeVertex graph.VertexID
}

// String renders one Table 5.1-style row.
func (s Stats) String() string {
	return fmt.Sprintf("%-10s %12d %14d %6d %10d %8.2f",
		s.Name, s.Vertices, s.UndEdges, s.MinDegree, s.MaxDegree, s.AvgDegree)
}

// StatsHeader is the column header matching Stats.String.
const StatsHeader = "Graph         Vertices      Und.Edges    Min       Max      Avg"

// ComputeStats drains an edge stream and computes degree statistics.
// numVertices bounds the ID space (degrees are tracked in a dense array).
// Each input edge contributes degree to both endpoints, i.e. edges are
// treated as undirected, matching the paper's accounting.
func ComputeStats(name string, r graph.EdgeReader, numVertices int64) (Stats, error) {
	deg := make([]int64, numVertices)
	var edges int64
	for {
		e, err := r.ReadEdge()
		if err == io.EOF {
			break
		}
		if err != nil {
			return Stats{}, err
		}
		if int64(e.Src) >= numVertices || int64(e.Dst) >= numVertices {
			return Stats{}, fmt.Errorf("gen: edge %v outside vertex space %d", e, numVertices)
		}
		deg[e.Src]++
		deg[e.Dst]++
		edges++
	}
	return StatsFromDegrees(name, deg, edges), nil
}

// StatsFromDegrees summarizes a per-vertex degree array (indexed by
// vertex ID, each undirected edge counted at both endpoints) of a graph
// with edges undirected edges.
func StatsFromDegrees(name string, deg []int64, edges int64) Stats {
	s := Stats{Name: name, UndEdges: edges, MinDegree: -1}
	for v, d := range deg {
		if d == 0 {
			continue
		}
		s.Vertices++
		if s.MinDegree < 0 || d < s.MinDegree {
			s.MinDegree = d
		}
		if d > s.MaxDegree {
			s.MaxDegree = d
			s.MaxDegreeVertex = graph.VertexID(v)
		}
	}
	if s.MinDegree < 0 {
		s.MinDegree = 0
	}
	if s.Vertices > 0 {
		s.AvgDegree = 2 * float64(edges) / float64(s.Vertices)
	}
	return s
}

// DegreeHistogram buckets vertex degrees into powers of two; used by tests
// to verify the generated distribution is heavy-tailed (power-law-like).
func DegreeHistogram(edges []graph.Edge, numVertices int64) map[int]int64 {
	deg := make([]int64, numVertices)
	for _, e := range edges {
		deg[e.Src]++
		deg[e.Dst]++
	}
	hist := make(map[int]int64)
	for _, d := range deg {
		if d == 0 {
			continue
		}
		bucket := 0
		for dd := d; dd > 1; dd >>= 1 {
			bucket++
		}
		hist[bucket]++
	}
	return hist
}

// RandomQueryPairs picks n (source, destination) vertex pairs with both
// endpoints guaranteed to have degree >= 1 in the given edge list, as the
// paper's "100 random BFS queries" do. The same seed yields the same
// pairs.
func RandomQueryPairs(edges []graph.Edge, numVertices int64, n int, seed int64) [][2]graph.VertexID {
	present := make(map[graph.VertexID]bool)
	for _, e := range edges {
		present[e.Src] = true
		present[e.Dst] = true
	}
	ids := make([]graph.VertexID, 0, len(present))
	for v := range present {
		ids = append(ids, v)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	rng := NewRNG(seed)
	pairs := make([][2]graph.VertexID, 0, n)
	for len(pairs) < n {
		s := ids[rng.Int63n(int64(len(ids)))]
		d := ids[rng.Int63n(int64(len(ids)))]
		if s == d {
			continue
		}
		pairs = append(pairs, [2]graph.VertexID{s, d})
	}
	return pairs
}
