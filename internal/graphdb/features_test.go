package graphdb_test

import (
	"reflect"
	"testing"

	"mssg/internal/graphdb"
)

// TestFeatureMatrix pins, for each back-end, exactly which of the
// optional interfaces it implements. The query and ingest paths take
// their branches by type assertion, so a capability gained by accident
// (say, promoted from the embedded graphdb.Base) changes behaviour as
// surely as one lost.
func TestFeatureMatrix(t *testing.T) {
	caps := []struct {
		name string
		has  func(graphdb.Graph) bool
	}{
		{"BatchGraph", func(g graphdb.Graph) bool { _, ok := g.(graphdb.BatchGraph); return ok }},
		{"Prefetcher", func(g graphdb.Graph) bool { _, ok := g.(graphdb.Prefetcher); return ok }},
		{"AsyncPrefetcher", func(g graphdb.Graph) bool { _, ok := g.(graphdb.AsyncPrefetcher); return ok }},
		{"Checkpointer", func(g graphdb.Graph) bool { _, ok := g.(graphdb.Checkpointer); return ok }},
		{"VertexScanner", func(g graphdb.Graph) bool { _, ok := g.(graphdb.VertexScanner); return ok }},
		{"GenerationReader", func(g graphdb.Graph) bool { _, ok := g.(graphdb.GenerationReader); return ok }},
		{"IOCounters", func(g graphdb.Graph) bool { _, ok := g.(graphdb.IOCounters); return ok }},
		{"CacheStats", func(g graphdb.Graph) bool { _, ok := g.(graphdb.CacheStats); return ok }},
		{"DegreeReader", func(g graphdb.Graph) bool { _, ok := g.(graphdb.DegreeReader); return ok }},
		{"MetadataResetter", func(g graphdb.Graph) bool { _, ok := g.(graphdb.MetadataResetter); return ok }},
	}
	want := map[string][]string{
		"array":   {"MetadataResetter"},
		"hashmap": {"VertexScanner", "MetadataResetter"},
		"stream":  {"BatchGraph", "IOCounters", "MetadataResetter"},
		"bdb":     {"IOCounters", "CacheStats", "MetadataResetter"},
		"mysql":   {"IOCounters", "CacheStats", "MetadataResetter"},
		"grdb": {"Prefetcher", "AsyncPrefetcher", "Checkpointer", "VertexScanner", "GenerationReader",
			"IOCounters", "CacheStats", "DegreeReader", "MetadataResetter"},
	}
	for _, name := range allBackends() {
		g := openBackend(t, name)
		var got []string
		for _, c := range caps {
			if c.has(g) {
				got = append(got, c.name)
			}
		}
		if !reflect.DeepEqual(got, want[name]) {
			t.Errorf("%s implements %v, want %v", name, got, want[name])
		}
	}
}
