package query

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"mssg/internal/cluster"
	"mssg/internal/gen"
	"mssg/internal/graph"
	"mssg/internal/graphdb"
	"mssg/internal/graphdb/grdb"
	"mssg/internal/graphdb/hashdb"
	"mssg/internal/ingest"
)

// Differential test for the traversal kernel: one scale-free graph on a
// 4-node in-proc fabric, every combination of exchange discipline,
// ownership, worker count, store and roster the front-ends can express,
// each compared with the graph-theoretic answer and with the simplest
// cell of its layout (level-synchronous, one worker, hashdb). The work counters of the serial cells are additionally
// pinned to the values the four pre-kernel loops produced.

// kernelLayout is one way the edges sit on the back-ends plus the
// routing configuration that matches it.
type kernelLayout struct {
	name       string
	ownership  Ownership
	ownerOf    func(graph.VertexID) cluster.NodeID
	replicasOf func(graph.VertexID) []cluster.NodeID
	active     []cluster.NodeID
	// place lists the nodes storing the seq-th directed record d.
	place func(d graph.Edge, seq int) []cluster.NodeID
}

// kernelWork is the deterministic work a serial cell does, summed over
// the fixed query set.
type kernelWork struct{ edges, sent, visited int64 }

// kernelBaseline holds the EdgesTraversed / FringeSent / VerticesVisited
// sums the serial cells produced on the commit before the kernel
// (bfsLevelSync, bfsPipelined, khopNode). Pipelined broadcast is absent:
// its FringeSent depends on message timing. k-hop reports edges only.
var kernelBaseline = map[string]kernelWork{
	"known/full/levelsync":     {edges: 10040, sent: 4563, visited: 7724},
	"known/full/pipelined":     {edges: 10040, sent: 4563, visited: 7724},
	"known/full/khop":          {edges: 9370},
	"broadcast/full/levelsync": {edges: 10040, sent: 13032, visited: 12644},
	"broadcast/full/khop":      {edges: 9370},
	"known/excl/levelsync":     {edges: 10040, sent: 3632, visited: 6793},
	"known/excl/pipelined":     {edges: 10040, sent: 3632, visited: 6793},
	"known/excl/khop":          {edges: 6366},
	"broadcast/excl/levelsync": {edges: 15076, sent: 11844, visited: 9483},
	"broadcast/excl/khop":      {edges: 9541},
}

func loadLayout(t *testing.T, edges []graph.Edge, p int, l kernelLayout, useGrdb bool) []graphdb.Graph {
	t.Helper()
	dbs := make([]graphdb.Graph, p)
	for i := range dbs {
		if !useGrdb {
			dbs[i] = hashdb.New()
			continue
		}
		d, err := grdb.Open(graphdb.Options{Dir: t.TempDir(), Levels: grdbLevels(), MaxFileBytes: 4096})
		if err != nil {
			t.Fatalf("grdb.Open node %d: %v", i, err)
		}
		dbs[i] = d
		t.Cleanup(func() { d.Close() })
	}
	seq := 0
	for _, e := range edges {
		for _, d := range []graph.Edge{e, e.Reverse()} {
			for _, n := range l.place(d, seq) {
				if err := dbs[n].StoreEdges([]graph.Edge{d}); err != nil {
					t.Fatalf("StoreEdges: %v", err)
				}
			}
			seq++
		}
	}
	for _, d := range dbs {
		if err := d.Flush(); err != nil {
			t.Fatalf("Flush: %v", err)
		}
	}
	return dbs
}

func TestKernelDifferentialMatrix(t *testing.T) {
	const p = 4
	edges, err := gen.Generate(gen.Config{Name: "kern", Vertices: 700, M: 2, HubFraction: 0.15, Seed: 1601})
	if err != nil {
		t.Fatal(err)
	}
	rv := ingest.NewRendezvous(p, 2, 0)
	excl := without(p, 2)
	layouts := []kernelLayout{
		{name: "known/full",
			place: func(d graph.Edge, _ int) []cluster.NodeID { return []cluster.NodeID{cluster.Owner(int64(d.Src), p)} }},
		{name: "broadcast/full", ownership: BroadcastFringe,
			place: func(_ graph.Edge, seq int) []cluster.NodeID { return []cluster.NodeID{cluster.NodeID(seq % p)} }},
		{name: "known/excl", ownerOf: rv.OwnerOf, replicasOf: rv.Replicas, active: excl,
			place: func(d graph.Edge, _ int) []cluster.NodeID { return rv.Replicas(d.Src) }},
		// Every record on two consecutive nodes, so any single exclusion
		// still leaves the scattered graph complete.
		{name: "broadcast/excl", ownership: BroadcastFringe, active: excl,
			place: func(_ graph.Edge, seq int) []cluster.NodeID {
				return []cluster.NodeID{cluster.NodeID(seq % p), cluster.NodeID((seq + 1) % p)}
			}},
	}
	pairs := [][2]graph.VertexID{{0, 1}, {0, 333}, {0, 699}, {17, 450}, {17, 612}, {17, 4242 /* absent */}}
	dists := map[graph.VertexID]map[graph.VertexID]int32{0: refDist(edges, 0), 17: refDist(edges, 17)}

	for _, l := range layouts {
		roster := p
		if l.active != nil {
			roster = len(l.active)
		}
		// The layout's reference results, filled by its first cell.
		var refBFS []BFSResult
		var refKHop []KHopResult
		for _, useGrdb := range []bool{false, true} {
			store := "hashdb"
			if useGrdb {
				// Named for the prefetch these cells once ran with, so
				// their recorded ids stay stable.
				store = "grdb+prefetch"
			}
			dbs := loadLayout(t, edges, p, l, useGrdb)
			f := cluster.NewInProc(p, 0)
			for _, pipelined := range []bool{false, true} {
				for _, workers := range []int{1, 4} {
					disc := "levelsync"
					if pipelined {
						disc = "pipelined"
					}
					t.Run(fmt.Sprintf("%s/%s/%s/w%d", l.name, store, disc, workers), func(t *testing.T) {
						var work kernelWork
						for i, pr := range pairs {
							got, err := ParallelBFS(context.Background(), f, dbs, BFSConfig{
								Source: pr[0], Dest: pr[1],
								Routing:   Routing{Ownership: l.ownership, OwnerOf: l.ownerOf, ReplicasOf: l.replicasOf, ActiveNodes: l.active},
								Pipelined: pipelined, Threshold: 8, Workers: workers,
							})
							if err != nil {
								t.Fatalf("BFS %d->%d: %v", pr[0], pr[1], err)
							}
							checkBFSAgainstDist(t, got, dists[pr[0]], pr[1], l.ownership, roster)
							work.edges += got.EdgesTraversed
							work.sent += got.FringeSent
							work.visited += got.VerticesVisited
							blankTimings(&got)
							if len(refBFS) == i {
								refBFS = append(refBFS, got)
								continue
							}
							want := refBFS[i]
							if pipelined {
								// Mid-level arrivals are marked before local
								// expansion re-discovers them, which suppresses
								// the re-broadcast (broadcast ownership) and the
								// receiver's own replica-read tally (partial
								// rosters); everything else is a function of the
								// level sets.
								if l.ownership == BroadcastFringe {
									got.FringeSent, want.FringeSent = 0, 0
								}
								got.ReplicaReads, want.ReplicaReads = 0, 0
								want.LevelStats = append([]LevelStat(nil), want.LevelStats...)
								for j := range got.LevelStats {
									got.LevelStats[j].ReplicaReads = 0
								}
								for j := range want.LevelStats {
									want.LevelStats[j].ReplicaReads = 0
								}
							}
							if !reflect.DeepEqual(got, want) {
								t.Fatalf("BFS %d->%d diverged from the layout reference:\ngot  %+v\nwant %+v", pr[0], pr[1], got, want)
							}
						}
						if workers == 1 && !(pipelined && l.ownership == BroadcastFringe) {
							key := l.name + "/" + disc
							if want := kernelBaseline[key]; work != want {
								t.Errorf("%s: serial work %+v, parent commit recorded %+v", key, work, want)
							}
						}
					})
				}
			}

			// k-hop and component have no discipline or worker knob: one
			// cell per (layout, store).
			t.Run(fmt.Sprintf("%s/%s/khop", l.name, store), func(t *testing.T) {
				var work kernelWork
				for k := 1; k <= 4; k++ {
					got, err := ParallelKHop(context.Background(), f, dbs, KHopConfig{
						Source: 0, K: k,
						Routing: Routing{Ownership: l.ownership, OwnerOf: l.ownerOf, ReplicasOf: l.replicasOf, ActiveNodes: l.active},
					})
					if err != nil {
						t.Fatalf("k-hop k=%d: %v", k, err)
					}
					var total int64
					for lvl := 1; lvl <= k; lvl++ {
						var n int64
						for _, d := range dists[0] {
							if int(d) == lvl {
								n++
							}
						}
						if got.PerLevel[lvl-1] != n {
							t.Fatalf("k=%d level %d: %d vertices, reference BFS has %d", k, lvl, got.PerLevel[lvl-1], n)
						}
						total += n
					}
					if got.Total != total || got.Coverage != 1 || got.Dropped != 0 {
						t.Fatalf("k=%d: total %d coverage %v dropped %d, want %d/1/0", k, got.Total, got.Coverage, got.Dropped, total)
					}
					work.edges += got.EdgesTraversed
					if len(refKHop) < k {
						refKHop = append(refKHop, got)
					} else if !reflect.DeepEqual(got, refKHop[k-1]) {
						t.Fatalf("k=%d diverged from the layout reference:\ngot  %+v\nwant %+v", k, got, refKHop[k-1])
					}
				}
				if l.active == nil {
					// ParallelComponent takes no roster, so it runs on the
					// full-roster layouts only.
					comp, err := ParallelComponent(context.Background(), direct{f, dbs}, 0, l.ownership)
					if err != nil {
						t.Fatal(err)
					}
					var ecc int32
					for _, d := range dists[0] {
						if d > ecc {
							ecc = d
						}
					}
					if comp.Size != int64(len(dists[0])) || comp.Eccentricity != ecc {
						t.Fatalf("component size %d ecc %d, reference BFS has %d/%d", comp.Size, comp.Eccentricity, len(dists[0]), ecc)
					}
					work.edges += comp.EdgesTraversed
				}
				key := l.name + "/khop"
				if want := kernelBaseline[key]; work != want {
					t.Errorf("%s: serial work %+v, parent commit recorded %+v", key, work, want)
				}
			})
			f.Close()
		}
	}
}

// checkBFSAgainstDist checks one BFS result against single-source
// distances from a plain in-memory BFS.
func checkBFSAgainstDist(t *testing.T, got BFSResult, dist map[graph.VertexID]int32, dest graph.VertexID, own Ownership, roster int) {
	t.Helper()
	want, reachable := dist[dest]
	if got.Found != reachable || (reachable && got.PathLength != want) {
		t.Fatalf("dest %d: got (%v,%d), reference BFS has (%v,%d)", dest, got.Found, got.PathLength, reachable, want)
	}
	var ecc int32
	atDist := make(map[int32]int64)
	for _, d := range dist {
		atDist[d]++
		if d > ecc {
			ecc = d
		}
	}
	// An unsuccessful search runs one last level that expands the deepest
	// vertices and discovers nothing.
	wantLevels := ecc + 1
	if reachable {
		wantLevels = want
	}
	if got.Levels != wantLevels || int32(len(got.LevelStats)) != wantLevels {
		t.Fatalf("dest %d: %d levels (%d stats), want %d", dest, got.Levels, len(got.LevelStats), wantLevels)
	}
	// Under broadcast ownership every roster node holds the whole fringe.
	copies := int64(1)
	if own == BroadcastFringe {
		copies = int64(roster)
	}
	for i, ls := range got.LevelStats {
		if ls.Level != int32(i)+1 || ls.Fringe != copies*atDist[int32(i)] {
			t.Fatalf("dest %d level %d: stat %+v, want fringe %d", dest, i+1, ls, copies*atDist[int32(i)])
		}
	}
	if got.Coverage != 1 || got.FringeDropped != 0 {
		t.Fatalf("dest %d: coverage %v dropped %d on a fully replicated layout", dest, got.Coverage, got.FringeDropped)
	}
}

// TestAbsorbRejectsMalformedFrames: a fringe frame comes off the wire,
// and the TCP fabric delivers zero-length payloads, so an empty or
// unknown frame must be an error for the query, not a panic of the node
// goroutine.
func TestAbsorbRejectsMalformedFrames(t *testing.T) {
	for _, p := range [][]byte{nil, {}, {0xff}} {
		if err := (&kernel{}).absorb(p); err == nil {
			t.Errorf("absorb(%x) accepted", p)
		}
	}
}
