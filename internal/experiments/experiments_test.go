package experiments

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

func tinyParams(t *testing.T) *Params {
	t.Helper()
	return &Params{Scale: 0.0005, Queries: 4, Dir: t.TempDir()}
}

func TestAllExperimentsRegistered(t *testing.T) {
	ids := []string{"table5.1", "fig5.1", "fig5.2", "fig5.3", "fig5.4",
		"fig5.5", "fig5.6", "fig5.7", "fig5.8", "fig5.9",
		"io", "migration"}
	all := All()
	if len(all) != len(ids) {
		t.Fatalf("All() has %d experiments, want %d", len(all), len(ids))
	}
	for i, id := range ids {
		if all[i].ID != id {
			t.Errorf("experiment %d = %s, want %s", i, all[i].ID, id)
		}
		if _, ok := ByID(id); !ok {
			t.Errorf("ByID(%s) failed", id)
		}
	}
	if _, ok := ByID("fig9.9"); ok {
		t.Error("ByID accepted unknown id")
	}
}

func TestTable51Smoke(t *testing.T) {
	p := tinyParams(t)
	tab, err := Table51(p)
	if err != nil {
		t.Fatalf("Table51: %v", err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("Table51 has %d rows, want 3", len(tab.Rows))
	}
	s := tab.String()
	for _, want := range []string{"PubMed-S'", "PubMed-L'", "Syn'", "table5.1"} {
		if !strings.Contains(s, want) {
			t.Errorf("rendered table missing %q:\n%s", want, s)
		}
	}
}

func TestFig51Smoke(t *testing.T) {
	p := tinyParams(t)
	tab, err := Fig51(p)
	if err != nil {
		t.Fatalf("Fig51: %v", err)
	}
	if len(tab.Rows) == 0 {
		t.Fatal("Fig51 produced no rows")
	}
	if len(tab.Header) != 3 {
		t.Fatalf("Fig51 header = %v", tab.Header)
	}
}

func TestFig53Smoke(t *testing.T) {
	p := tinyParams(t)
	tab, err := Fig53(p)
	if err != nil {
		t.Fatalf("Fig53: %v", err)
	}
	if len(tab.Rows) != len(fiveDBsSmall) {
		t.Fatalf("Fig53 rows = %d, want %d", len(tab.Rows), len(fiveDBsSmall))
	}
	// Every cell must parse as a positive duration in seconds.
	for _, row := range tab.Rows {
		for _, cell := range row[1:] {
			if !strings.Contains(cell, ".") {
				t.Fatalf("cell %q does not look like seconds", cell)
			}
		}
	}
}

func TestIOEngineSmoke(t *testing.T) {
	// Global lever flags must not leak into the ablation's own sweep:
	// the baseline row of an -compress run has to stay a baseline.
	p := tinyParams(t)
	p.Compress = true
	tab, err := IOEngine(p)
	if err != nil {
		t.Fatalf("IOEngine: %v", err)
	}
	if len(tab.Rows) != len(ioConfigs()) {
		t.Fatalf("io rows = %d, want %d", len(tab.Rows), len(ioConfigs()))
	}
	for _, row := range tab.Rows {
		if len(row) != len(tab.Header) {
			t.Fatalf("row %v does not match header %v", row, tab.Header)
		}
	}
	// Compression must show up in the byte counter: the compress row
	// reads fewer MB than baseline at identical workload.
	var mb = func(row []string) float64 {
		var f float64
		fmt.Sscanf(row[5], "%f", &f)
		return f
	}
	if mb(tab.Rows[1]) >= mb(tab.Rows[0]) {
		t.Errorf("compress read %v MB, baseline %v MB — expected fewer", mb(tab.Rows[1]), mb(tab.Rows[0]))
	}
}

func TestMigrationSmoke(t *testing.T) {
	p := tinyParams(t)
	tab, err := Migration(p)
	if err != nil {
		t.Fatalf("Migration: %v", err)
	}
	if len(tab.Rows) != 3 {
		t.Fatalf("migration rows = %d, want 3", len(tab.Rows))
	}
	for _, row := range tab.Rows {
		if len(row) != len(tab.Header) {
			t.Fatalf("row %v does not match header %v", row, tab.Header)
		}
	}
	// The topology change must actually commit: epoch advances between
	// the before and after rows, and stays put during the migration.
	if tab.Rows[0][1] != tab.Rows[1][1] {
		t.Errorf("during-migration row routed at epoch %s, want the pre-commit epoch %s", tab.Rows[1][1], tab.Rows[0][1])
	}
	if tab.Rows[0][1] == tab.Rows[2][1] {
		t.Errorf("epoch did not advance: before %s, after %s", tab.Rows[0][1], tab.Rows[2][1])
	}
}

func TestTableRendering(t *testing.T) {
	tab := &Table{
		ID:     "x",
		Title:  "test",
		Header: []string{"A", "LongColumn"},
		Rows:   [][]string{{"1", "2"}, {"333333", "4"}},
		Notes:  []string{"a note"},
	}
	s := tab.String()
	lines := strings.Split(strings.TrimSpace(s), "\n")
	if len(lines) != 5 {
		t.Fatalf("rendered %d lines, want 5:\n%s", len(lines), s)
	}
	if !strings.HasPrefix(lines[4], "# ") {
		t.Fatalf("note not rendered: %q", lines[4])
	}
}

func TestParamsDefaults(t *testing.T) {
	p := &Params{}
	if p.scale() != DefaultScale {
		t.Errorf("default scale = %v", p.scale())
	}
	if p.queries() != 30 {
		t.Errorf("default queries = %d", p.queries())
	}
	if p.synScale() >= p.scale() {
		t.Errorf("syn scale %v not smaller than base %v", p.synScale(), p.scale())
	}
	// logf must not panic without a sink.
	p.logf("ignored %d", 1)
}

func TestOOCOptions(t *testing.T) {
	o := oocOptions()
	if o.CacheBytes != SimCacheBytes || o.SimReadLatency != SimLatency {
		t.Fatalf("oocOptions = %+v", o)
	}
	if SimLatency < 10*time.Microsecond || SimLatency > time.Millisecond {
		t.Fatalf("SimLatency %v outside sane range", SimLatency)
	}
}
