package graphdb

import (
	"testing"

	"mssg/internal/obs"
)

func TestLatencyMetricsGated(t *testing.T) {
	var c StatCounters
	// Disabled: OpStart returns 0 and observations are dropped.
	if c.OpStart() != 0 {
		t.Fatal("OpStart should return 0 when metrics are disabled")
	}
	c.ObserveAdjacency(0)
	c.ObserveStore(0)

	reg := obs.NewRegistry()
	c.EnableLatency(reg, "testdb")
	start := c.OpStart()
	if start == 0 {
		t.Fatal("OpStart should return a timestamp once enabled")
	}
	c.ObserveAdjacency(start)
	c.ObserveStore(c.OpStart())
	s := reg.Snapshot()
	if s.Histograms["graphdb.testdb.adjacency_ns"].Count != 1 {
		t.Fatalf("adjacency_ns = %+v", s.Histograms["graphdb.testdb.adjacency_ns"])
	}
	if s.Histograms["graphdb.testdb.store_ns"].Count != 1 {
		t.Fatalf("store_ns = %+v", s.Histograms["graphdb.testdb.store_ns"])
	}
}
