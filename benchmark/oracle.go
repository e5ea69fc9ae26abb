package main

import (
	"sort"

	"mssg"
	"mssg/internal/gen"
)

// oracle is the serial in-memory reference every answer is checked
// against: the generated edge list as an undirected CSR adjacency (what
// AddReverse ingestion stores), with a level-synchronous BFS over it.
type oracle struct {
	vertices int64
	offsets  []int64  // offsets[v]..offsets[v+1] index nbrs
	nbrs     []uint32 // neighbour ids, in ingestion order per vertex
	records  int64    // directed records an AddReverse ingest stores

	// mark[v] == epoch means v was reached by the current search; bumping
	// epoch resets the set without touching the array.
	mark  []uint32
	epoch uint32
	cur   []uint32
	next  []uint32
}

// newOracle builds the reference graph of edges over vertices 0..n-1.
func newOracle(edges []mssg.Edge, n int64) *oracle {
	o := &oracle{vertices: n, offsets: make([]int64, n+1), mark: make([]uint32, n)}
	for _, e := range edges {
		o.offsets[e.Src+1]++
		if e.Src != e.Dst {
			o.offsets[e.Dst+1]++
		}
	}
	for v := int64(0); v < n; v++ {
		o.offsets[v+1] += o.offsets[v]
	}
	o.records = o.offsets[n]
	o.nbrs = make([]uint32, o.records)
	fill := append([]int64(nil), o.offsets[:n]...)
	for _, e := range edges {
		o.nbrs[fill[e.Src]] = uint32(e.Dst)
		fill[e.Src]++
		if e.Src != e.Dst {
			o.nbrs[fill[e.Dst]] = uint32(e.Src)
			fill[e.Dst]++
		}
	}
	return o
}

func (o *oracle) degree(v mssg.VertexID) int64 {
	if int64(v) >= o.vertices {
		return 0
	}
	return o.offsets[v+1] - o.offsets[v]
}

func (o *oracle) neighbors(v mssg.VertexID) []uint32 {
	if int64(v) >= o.vertices {
		return nil
	}
	return o.nbrs[o.offsets[v]:o.offsets[v+1]]
}

func (o *oracle) reset() {
	o.epoch++
	if o.epoch == 0 { // wrapped: stale marks could alias
		clear(o.mark)
		o.epoch = 1
	}
}

// expand replaces the current fringe with the unmarked neighbours of its
// vertices, marks them, and returns the adjacency records it scanned.
func (o *oracle) expand() (scanned int64) {
	o.next = o.next[:0]
	for _, v := range o.cur {
		nb := o.nbrs[o.offsets[v]:o.offsets[v+1]]
		scanned += int64(len(nb))
		for _, u := range nb {
			if o.mark[u] != o.epoch {
				o.mark[u] = o.epoch
				o.next = append(o.next, u)
			}
		}
	}
	o.cur, o.next = o.next, o.cur
	return scanned
}

// bfs answers a source→dest search the way the level-synchronous
// parallel BFS defines it: pathLen is the level dest is first reached at
// (-1 if never), and work is the adjacency records scanned by every
// level expanded up to and including the one that reached it.
func (o *oracle) bfs(src, dst mssg.VertexID) (found bool, pathLen int32, work int64) {
	if src == dst {
		return true, 0, 0
	}
	if int64(src) >= o.vertices {
		return false, -1, 0
	}
	o.reset()
	o.mark[src] = o.epoch
	o.cur = append(o.cur[:0], uint32(src))
	for level := int32(1); len(o.cur) > 0; level++ {
		work += o.expand()
		if int64(dst) < o.vertices && o.mark[dst] == o.epoch {
			return true, level, work
		}
	}
	return false, -1, work
}

// khop counts the distinct vertices within k hops of src (src excluded)
// and the adjacency records scanned to find them.
func (o *oracle) khop(src mssg.VertexID, k int) (total, work int64) {
	if int64(src) >= o.vertices {
		return 0, 0
	}
	o.reset()
	o.mark[src] = o.epoch
	o.cur = append(o.cur[:0], uint32(src))
	for level := 0; level < k && len(o.cur) > 0; level++ {
		work += o.expand()
		total += int64(len(o.cur))
	}
	return total, work
}

// sameAdjacency reports whether got is v's neighbour multiset.
func (o *oracle) sameAdjacency(v mssg.VertexID, got []mssg.VertexID) bool {
	want := o.neighbors(v)
	if len(got) != len(want) {
		return false
	}
	a := make([]uint32, len(got))
	for i, u := range got {
		a[i] = uint32(u)
	}
	b := append([]uint32(nil), want...)
	sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// bfsQuery is one curated search with its expected answer.
type bfsQuery struct {
	Src, Dst mssg.VertexID
	Found    bool
	PathLen  int32
	Work     int64 // oracle adjacency records scanned
}

// ladderBins is the number of equal work ranges a query group spans.
const ladderBins = 10

// curateLadder turns seeded random pairs into a work ladder: groups of
// ladderBins searches, the i-th of each group scanning between i/10 and
// (i+1)/10 of the graph's records, from neighbourhood look-ups to sweeps
// of the whole graph. BFS cost on this graph is spread over three orders
// of magnitude and is set almost entirely by that share, so a plain
// random sample of a few hundred pairs moves the median by ±15 % from one
// seed to the next; with the same number of searches in every range each
// seed yields different pairs of the same difficulty, and any whole
// number of groups is a balanced sample. (LDBC SNB curates its query
// parameters for the same reason.)
func curateLadder(o *oracle, edges []mssg.Edge, groups int, seed int64) [][]bfsQuery {
	span := float64(o.records)
	binOf := func(work int64) int {
		b := int(float64(work) * ladderBins / span)
		if b >= ladderBins {
			b = ladderBins - 1
		}
		return b
	}
	// The rarest range holds about one random pair in a hundred.
	maxCand := 150 * groups
	cand := gen.RandomQueryPairs(edges, o.vertices, maxCand, seed)
	bins := make([][]bfsQuery, ladderBins)
	var spare []bfsQuery
	full := 0
	for _, p := range cand {
		if full == ladderBins {
			break
		}
		found, pl, work := o.bfs(p[0], p[1])
		q := bfsQuery{Src: p[0], Dst: p[1], Found: found, PathLen: pl, Work: work}
		b := binOf(work)
		if len(bins[b]) < groups {
			bins[b] = append(bins[b], q)
			if len(bins[b]) == groups {
				full++
			}
		} else {
			spare = append(spare, q)
		}
	}
	// A range the candidates could not fill (tiny smoke-test graphs) takes
	// the spare searches nearest to its centre.
	for b := range bins {
		centre := (float64(b) + 0.5) / ladderBins * span
		for len(bins[b]) < groups && len(spare) > 0 {
			best := 0
			for i, q := range spare {
				if abs(float64(q.Work)-centre) < abs(float64(spare[best].Work)-centre) {
					best = i
				}
			}
			bins[b] = append(bins[b], spare[best])
			spare = append(spare[:best], spare[best+1:]...)
		}
	}
	out := make([][]bfsQuery, 0, groups)
	for g := 0; g < groups; g++ {
		var grp []bfsQuery
		for b := range bins {
			if g < len(bins[b]) {
				grp = append(grp, bins[b][g])
			}
		}
		if len(grp) > 0 {
			out = append(out, grp)
		}
	}
	return out
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// hubNeighbours draws up to n distinct neighbours of the generator's hub
// (vertex 0, adjacent to a fifth of the graph) in seeded order. They are
// serve-mixed's 2-hop sources: the second hop from any of them scans the
// hub's whole adjacency, so every request does comparable work, where a
// 2-hop from an ordinary vertex scans a few hundred records and its
// latency is all scheduling jitter.
func hubNeighbours(o *oracle, n int, rng *gen.RNG) []mssg.VertexID {
	nb := o.neighbors(0)
	var out []mssg.VertexID
	for _, i := range rng.Perm(len(nb)) {
		if len(out) == n {
			break
		}
		out = append(out, mssg.VertexID(nb[i]))
	}
	return out
}

// sweeps returns n single-search groups, each from a seeded random vertex
// to a vertex that does not exist: the search expands the source's whole
// component, reading back every adjacency list in it. They are
// ingest-stream's read-back.
func sweeps(o *oracle, n int, rng *gen.RNG) [][]bfsQuery {
	var out [][]bfsQuery
	for len(out) < n {
		q := bfsQuery{Src: mssg.VertexID(rng.Int63n(o.vertices)), Dst: mssg.VertexID(o.vertices)}
		if o.degree(q.Src) == 0 {
			continue
		}
		q.Found, q.PathLen, q.Work = o.bfs(q.Src, q.Dst)
		out = append(out, []bfsQuery{q})
	}
	return out
}

// curateBand returns up to n seeded random pairs whose search scans
// between lo and hi of the graph's records: serve-mixed's batch tenant
// searches of one size, so the interactive tenant competes with the same
// background load at every instant of a round.
func curateBand(o *oracle, edges []mssg.Edge, n int, seed int64, lo, hi float64) []bfsQuery {
	var out []bfsQuery
	for _, p := range gen.RandomQueryPairs(edges, o.vertices, 20*n, seed) {
		if len(out) == n {
			break
		}
		found, pl, work := o.bfs(p[0], p[1])
		if w := float64(work) / float64(o.records); w >= lo && w < hi {
			out = append(out, bfsQuery{Src: p[0], Dst: p[1], Found: found, PathLen: pl, Work: work})
		}
	}
	return out
}
