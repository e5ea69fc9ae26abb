package query

import (
	"context"
	"slices"
	"sync/atomic"
	"testing"

	"mssg/internal/cluster"
	"mssg/internal/graph"
	"mssg/internal/ingest"
)

// collCountingFabric counts the sends its endpoints make on a query's
// collective channels (namespace offsets 1 and 2, see queryChannels).
type collCountingFabric struct {
	cluster.Fabric
	sends atomic.Int64
}

func (f *collCountingFabric) Endpoint(n cluster.NodeID) cluster.Endpoint {
	return &collCountingEndpoint{Endpoint: f.Fabric.Endpoint(n), f: f}
}

type collCountingEndpoint struct {
	cluster.Endpoint
	f *collCountingFabric
}

func (e *collCountingEndpoint) count(ch cluster.ChannelID, sends int) {
	if off := int(ch) % cluster.NamespaceWidth; off == 1 || off == 2 {
		e.f.sends.Add(int64(sends))
	}
}

func (e *collCountingEndpoint) Send(to cluster.NodeID, ch cluster.ChannelID, p []byte) error {
	e.count(ch, 1)
	return e.Endpoint.Send(to, ch, p)
}

func (e *collCountingEndpoint) Broadcast(ch cluster.ChannelID, p []byte) error {
	e.count(ch, e.Nodes()-1)
	return e.Endpoint.Broadcast(ch, p)
}

// TestLevelBarrierSchedule pins the level barrier at one coordinator
// round per level — 2(r-1) collective sends on an r-node roster — for
// BFS and k-hop, on the full roster and on a partial one.
func TestLevelBarrierSchedule(t *testing.T) {
	qc, err := leaseChannels()
	if err != nil {
		t.Fatal(err)
	}
	qc.ns.Release()
	if int(qc.collUp)%cluster.NamespaceWidth != 1 || int(qc.collDn)%cluster.NamespaceWidth != 2 {
		t.Fatalf("collective channels %d,%d are not namespace offsets 1,2", qc.collUp, qc.collDn)
	}
	const p, n, hops = 4, 12, 5
	rv := ingest.NewRendezvous(p, 2, 0)
	routing := Routing{OwnerOf: rv.OwnerOf, ReplicasOf: rv.Replicas}
	for _, active := range [][]cluster.NodeID{nil, without(p, 2)} {
		routing.ActiveNodes = active
		r := int64(p)
		if active != nil {
			r = int64(len(active))
		}
		for _, pipelined := range []bool{false, true} {
			f := &collCountingFabric{Fabric: cluster.NewInProc(p, 0)}
			dbs := replicate(t, chainEdges(n), rv, p)
			res, err := ParallelBFS(context.Background(), f, dbs, BFSConfig{
				Source: 0, Dest: n, Pipelined: pipelined, Threshold: 1, Routing: routing,
			})
			if err != nil || !res.Found || res.PathLength != n {
				t.Fatalf("roster %v pipelined=%v: res=%+v err=%v", active, pipelined, res, err)
			}
			if got, want := f.sends.Load(), 2*(r-1)*n; got != want {
				t.Errorf("roster %v pipelined=%v BFS: %d collective sends, want %d", active, pipelined, got, want)
			}
			f.sends.Store(0)
			kres, err := ParallelKHop(context.Background(), f, dbs, KHopConfig{Source: 0, K: hops, Routing: routing})
			if err != nil || kres.Total != hops {
				t.Fatalf("roster %v: k-hop res=%+v err=%v", active, kres, err)
			}
			if got, want := f.sends.Load(), 2*(r-1)*hops; got != want {
				t.Errorf("roster %v: k-hop made %d collective sends, want %d", active, got, want)
			}
			f.Close()
		}
	}
}

// TestFoundBeatsDrops: a level that both scans the destination and drops
// a vertex with no live replica ends the search as found, without
// AllowPartial — a dropped vertex could only have led to longer paths.
func TestFoundBeatsDrops(t *testing.T) {
	const p = 4
	rv := ingest.NewRendezvous(p, 2, 0)
	var dead []cluster.NodeID
	live := func(v graph.VertexID) bool {
		return slices.ContainsFunc(rv.Replicas(v), func(n cluster.NodeID) bool { return !slices.Contains(dead, n) })
	}
	cut := graph.VertexID(1)
	for ; ; cut++ {
		dead = append(dead[:0], rv.Replicas(cut)...)
		slices.Sort(dead)
		if live(0) {
			break
		}
	}
	dest := cut + 1
	for !live(dest) {
		dest++
	}
	f := cluster.NewInProc(p, 0)
	defer f.Close()
	dbs := replicate(t, []graph.Edge{{Src: 0, Dst: cut}, {Src: 0, Dst: dest}}, rv, p)
	res, err := ParallelBFS(context.Background(), f, dbs, BFSConfig{
		Source: 0, Dest: dest,
		Routing: Routing{OwnerOf: rv.OwnerOf, ReplicasOf: rv.Replicas, ActiveNodes: without(p, dead...)},
	})
	if err != nil || !res.Found || res.PathLength != 1 {
		t.Fatalf("res=%+v err=%v, want found at level 1 with no error", res, err)
	}
	if res.FringeDropped != 1 {
		t.Fatalf("FringeDropped = %d, want 1 (vertex %d, replicas %v excluded)", res.FringeDropped, cut, dead)
	}
}
