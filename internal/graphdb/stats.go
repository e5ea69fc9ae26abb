package graphdb

import (
	"sync/atomic"
	"time"

	"mssg/internal/obs"
)

// StatCounters is the concurrency-safe accumulator every backend embeds
// behind its Stats() method. Adjacency retrievals are readers under the
// package concurrency contract yet still need to count work, so the
// counters are atomics rather than fields guarded by the (nonexistent)
// reader lock.
type StatCounters struct {
	edgesStored       atomic.Int64
	adjacencyCalls    atomic.Int64
	neighborsReturned atomic.Int64

	// Latency histograms, nil until EnableLatency. atomic.Pointer so a
	// disabled instance pays one pointer load (and skips the clock reads
	// entirely via OpStart's zero return).
	adjacencyNs atomic.Pointer[obs.Histogram]
	storeNs     atomic.Pointer[obs.Histogram]
}

// AddEdgesStored credits n edges accepted by StoreEdges.
func (c *StatCounters) AddEdgesStored(n int64) { c.edgesStored.Add(n) }

// EdgesStored returns the current stored-edge count.
func (c *StatCounters) EdgesStored() int64 { return c.edgesStored.Load() }

// AddAdjacencyCall counts one adjacency-list retrieval.
func (c *StatCounters) AddAdjacencyCall() { c.adjacencyCalls.Add(1) }

// AddAdjacencyCalls counts n retrievals answered in one batch pass.
func (c *StatCounters) AddAdjacencyCalls(n int64) { c.adjacencyCalls.Add(n) }

// AddNeighborsReturned credits n neighbours produced by retrievals.
func (c *StatCounters) AddNeighborsReturned(n int64) { c.neighborsReturned.Add(n) }

// EnableLatency turns on per-operation latency histograms, recorded as
// graphdb.<backend>.adjacency_ns and graphdb.<backend>.store_ns in reg.
// Backends call it from Open when Options.Metrics is set; it is a no-op
// with a nil registry.
func (c *StatCounters) EnableLatency(reg *obs.Registry, backend string) {
	if reg == nil {
		return
	}
	c.adjacencyNs.Store(reg.Histogram("graphdb." + backend + ".adjacency_ns"))
	c.storeNs.Store(reg.Histogram("graphdb." + backend + ".store_ns"))
}

// OpStart returns the operation start timestamp for ObserveAdjacency /
// ObserveStore, or 0 when latency metrics are disabled — so the disabled
// path never reads the clock.
func (c *StatCounters) OpStart() int64 {
	if c.adjacencyNs.Load() == nil {
		return 0
	}
	return time.Now().UnixNano()
}

// ObserveAdjacency records one adjacency retrieval's latency. start is
// OpStart's return; 0 (metrics disabled) is ignored.
func (c *StatCounters) ObserveAdjacency(start int64) {
	if start != 0 {
		if h := c.adjacencyNs.Load(); h != nil {
			h.Observe(time.Now().UnixNano() - start)
		}
	}
}

// ObserveStore records one StoreEdges call's latency.
func (c *StatCounters) ObserveStore(start int64) {
	if start != 0 {
		if h := c.storeNs.Load(); h != nil {
			h.Observe(time.Now().UnixNano() - start)
		}
	}
}

// Snapshot returns the counters as a plain Stats value. Each field is
// read atomically; the triple is not a single consistent cut, which is
// fine for the monotonic operation counts Stats reports.
func (c *StatCounters) Snapshot() Stats {
	return Stats{
		EdgesStored:       c.edgesStored.Load(),
		AdjacencyCalls:    c.adjacencyCalls.Load(),
		NeighborsReturned: c.neighborsReturned.Load(),
	}
}
