package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mssg"
	"mssg/internal/graphdb"
	"mssg/internal/graphdb/grdb"
)

// smokeOptions is the smallest configuration that still runs every phase
// of a workload: a 3,751-vertex graph, one query group, fixed work.
func smokeOptions(t *testing.T, workload string, trace bool) options {
	return options{Workload: workload, Seed: 1, Seconds: 0.2, Trace: trace, Scale: 0.001, Groups: 1, OutDir: t.TempDir()}
}

func runSmoke(t *testing.T, workload string, trace bool) *result {
	t.Helper()
	w, ok := findWorkload(workload)
	if !ok {
		t.Fatalf("no workload %q", workload)
	}
	res, err := execute(w, smokeOptions(t, workload, trace))
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return res
}

// TestSmokeAllWorkloads runs the four workloads untraced and traced and
// checks the result carries the whole catalogue, no failures, provenance.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res := runSmoke(t, w.Name, trace)
			if res.Failed != 0 || !res.Correct || res.ErrorRate != 0 {
				t.Errorf("%s trace=%v: %d of %d operations failed: %v", w.Name, trace, res.Failed, res.Attempted, res.Notes)
			}
			if res.Attempted < 1 {
				t.Errorf("%s: nothing attempted", w.Name)
			}
			for _, d := range endToEnd {
				v, ok := res.EndToEnd[d.Name]
				if !ok || v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) || v.Value <= 0 {
					t.Errorf("%s trace=%v: end-to-end %s = %+v, want a positive finite value in %s", w.Name, trace, d.Name, v, d.Unit)
				}
			}
			if trace {
				for _, d := range perLayer {
					v, ok := res.PerLayer[d.Name]
					if !ok || v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
						t.Errorf("%s: per-layer %s = %+v, want a finite value in %s", w.Name, d.Name, v, d.Unit)
					}
				}
				if len(res.LayerTable) == 0 {
					t.Errorf("%s: traced run has no layer table", w.Name)
				}
				var share float64
				for _, row := range res.LayerTable {
					share += row.ShareP
				}
				if math.Abs(share-1) > 1e-6 {
					t.Errorf("%s: layer table shares sum to %g, want 1", w.Name, share)
				}
				files, _ := filepath.Glob(filepath.Join(res.Options.OutDir, "trace-*.json"))
				if len(files) != 1 {
					t.Errorf("%s: want one span file, found %v", w.Name, files)
				}
			}
			p := res.Provenance
			if p.GitCommit == "" || p.GoVersion == "" || p.NumCPU < 1 || p.GOMAXPROCS < 1 || p.Time.IsZero() {
				t.Errorf("%s: incomplete provenance %+v", w.Name, p)
			}
			if res.Options.Seed != 1 || res.Options.Scale != 0.001 || len(res.Ops) == 0 {
				t.Errorf("%s: result lacks seed, scale or op counts: %+v %v", w.Name, res.Options, res.Ops)
			}
		}
	}
}

// TestLayerShape checks the qualitative predictions the layer metrics are
// meant to show, which hold at any scale.
func TestLayerShape(t *testing.T) {
	for _, w := range workloads {
		res := runSmoke(t, w.Name, true)
		wait := res.PerLayer["engine.queue_wait_s"].Value
		if serve := w.Name == "serve-mixed"; (wait > 0) != serve {
			t.Errorf("%s: engine.queue_wait_s = %g; want > 0 only on serve-mixed", w.Name, wait)
		}
		if w.Name == "search-mem" {
			if reads := res.PerLayer["blockio.block_reads"].Value; reads != 0 {
				t.Errorf("search-mem read %g blocks after warm-up, want 0", reads)
			}
		}
		if mm := res.PerLayer["cache.mirror_mismatch"].Value; mm != 0 {
			t.Logf("%s: cache mirror and CacheStats disagree by %g", w.Name, mm)
		}
	}
}

// TestTracedMatchesUntraced: the wrappers must not change what the
// program does, so answers and exact counts agree between the two runs.
func TestTracedMatchesUntraced(t *testing.T) {
	for _, name := range []string{"ingest-stream", "search-ooc", "search-mem"} {
		plain, traced := runSmoke(t, name, false), runSmoke(t, name, true)
		if len(plain.Exact) == 0 {
			t.Errorf("%s reports no exact counts", name)
		}
		for k, v := range plain.Exact {
			if traced.Exact[k] != v {
				t.Errorf("%s: %s is %d untraced, %d traced", name, k, v, traced.Exact[k])
			}
		}
		if plain.Attempted != traced.Attempted || traced.Failed != 0 {
			t.Errorf("%s: attempted %d untraced vs %d traced (%d failed)", name, plain.Attempted, traced.Attempted, traced.Failed)
		}
	}
}

// TestWrapperCapabilities: the graph wrapper implements exactly the
// optional interfaces the raw *grdb.DB does, so the type assertions in
// query and ingest take the same branches traced and untraced.
func TestWrapperCapabilities(t *testing.T) {
	raw, err := grdb.Open(graphdb.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	var plain graphdb.Graph = raw
	var wrapped graphdb.Graph = &tracedGraph{DB: raw, agg: &nodeAgg{}}
	caps := map[string]func(graphdb.Graph) bool{
		"BatchGraph":       func(g graphdb.Graph) bool { _, ok := g.(graphdb.BatchGraph); return ok },
		"Prefetcher":       func(g graphdb.Graph) bool { _, ok := g.(graphdb.Prefetcher); return ok },
		"AsyncPrefetcher":  func(g graphdb.Graph) bool { _, ok := g.(graphdb.AsyncPrefetcher); return ok },
		"Checkpointer":     func(g graphdb.Graph) bool { _, ok := g.(graphdb.Checkpointer); return ok },
		"VertexScanner":    func(g graphdb.Graph) bool { _, ok := g.(graphdb.VertexScanner); return ok },
		"GenerationReader": func(g graphdb.Graph) bool { _, ok := g.(graphdb.GenerationReader); return ok },
		"IOCounters":       func(g graphdb.Graph) bool { _, ok := g.(graphdb.IOCounters); return ok },
		"CacheStats":       func(g graphdb.Graph) bool { _, ok := g.(graphdb.CacheStats); return ok },
		"DegreeReader":     func(g graphdb.Graph) bool { _, ok := g.(graphdb.DegreeReader); return ok },
		"MetadataResetter": func(g graphdb.Graph) bool { _, ok := g.(graphdb.MetadataResetter); return ok },
	}
	for name, has := range caps {
		if has(plain) != has(wrapped) {
			t.Errorf("%s: raw grDB %v, wrapper %v", name, has(plain), has(wrapped))
		}
	}
	if caps["BatchGraph"](wrapped) {
		t.Error("wrapper must not add BatchGraph: parallel expansion would fall back to serial")
	}
	for _, name := range []string{"Prefetcher", "AsyncPrefetcher", "Checkpointer", "VertexScanner", "GenerationReader", "IOCounters", "CacheStats", "DegreeReader"} {
		if !caps[name](wrapped) {
			t.Errorf("wrapper lost %s", name)
		}
	}
}

func TestOracle(t *testing.T) {
	// 0-1-2-3 path with a 1-4 spur and a self-loop on 2; vertex 5 isolated.
	edges := []mssg.Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}, {Src: 2, Dst: 3}, {Src: 1, Dst: 4}, {Src: 2, Dst: 2}}
	o := newOracle(edges, 6)
	if o.records != 9 {
		t.Errorf("records = %d, want 9 (4 edges both ways + 1 self-loop)", o.records)
	}
	if found, pl, work := o.bfs(0, 3); !found || pl != 3 || work != 1+3+3+1 {
		t.Errorf("bfs(0,3) = %v %d %d, want true 3 8", found, pl, work)
	}
	if found, pl, _ := o.bfs(0, 5); found || pl != -1 {
		t.Errorf("bfs(0,5) = %v %d, want unreachable", found, pl)
	}
	if found, pl, _ := o.bfs(4, 4); !found || pl != 0 {
		t.Errorf("bfs(4,4) = %v %d, want true 0", found, pl)
	}
	if total, _ := o.khop(0, 2); total != 3 {
		t.Errorf("khop(0,2) = %d, want 3 (1; 2 and 4)", total)
	}
	if !o.sameAdjacency(1, []mssg.VertexID{4, 0, 2}) || o.sameAdjacency(1, []mssg.VertexID{0, 2}) {
		t.Error("sameAdjacency must compare multisets")
	}
}

func TestCurateLadderIsBalanced(t *testing.T) {
	edges, err := mssg.Generate(mssg.PubMedS(0.002))
	if err != nil {
		t.Fatal(err)
	}
	o := newOracle(edges, mssg.PubMedS(0.002).Vertices)
	groups := curateLadder(o, edges, 3, 1)
	if len(groups) != 3 {
		t.Fatalf("got %d groups, want 3", len(groups))
	}
	for g, grp := range groups {
		if len(grp) != ladderBins {
			t.Errorf("group %d has %d searches, want %d", g, len(grp), ladderBins)
		}
		for _, q := range grp {
			if found, pl, work := o.bfs(q.Src, q.Dst); found != q.Found || pl != q.PathLen || work != q.Work {
				t.Errorf("curated answer for %d→%d is stale", q.Src, q.Dst)
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %g %g %g, want 3.5 13.5 31", q1, q2, q3)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{"x_ms", "ms", "lower", 0.10}
	higher := metricDef{"x_per_s", "1/s", "higher", 0.10}
	base := []float64{100, 101, 99, 100, 102}
	cases := []struct {
		def  metricDef
		cand []float64
		want string
	}{
		{lower, []float64{100, 100, 101, 99, 100}, "unchanged"},
		{lower, []float64{120, 121, 119, 120, 122}, "REGRESSED"},
		{lower, []float64{80, 81, 79, 80, 82}, "improved"},
		{higher, []float64{80, 81, 79, 80, 82}, "REGRESSED"},
		{higher, []float64{120, 121, 119, 120, 122}, "improved"},
		{lower, []float64{60, 140, 100, 90, 130}, "unresolved"},
	}
	for _, c := range cases {
		if got, _, _ := verdict(c.def, base, c.cand); got != c.want {
			t.Errorf("%s %v: verdict %s, want %s", c.def.Name, c.cand, got, c.want)
		}
	}
}

// TestCompareSets writes two sets of results and compares them.
func TestCompareSets(t *testing.T) {
	write := func(dir string, seed int64, scale float64) {
		res := result{Workload: "search-ooc", Options: options{Seed: seed}, EndToEnd: metrics{}, Exact: map[string]int64{"group1.block_reads": 7}}
		for _, d := range endToEnd {
			v := 100 * scale
			if d.Better == "higher" {
				v = 100 / scale
			}
			res.EndToEnd[d.Name] = value{v + float64(seed)/10, d.Unit}
		}
		b, _ := json.Marshal(res)
		if err := os.WriteFile(filepath.Join(dir, "result-search-ooc-seed"+string(rune('0'+seed))+"-trace0.json"), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	base, same, slow := t.TempDir(), t.TempDir(), t.TempDir()
	for seed := int64(1); seed <= 5; seed++ {
		write(base, seed, 1)
		write(same, seed, 1)
		write(slow, seed, 1.5)
	}
	var out bytes.Buffer
	if ok, err := compareSets(&out, base, same); err != nil || !ok {
		t.Errorf("identical sets: ok=%v err=%v\n%s", ok, err, out.String())
	}
	out.Reset()
	if ok, err := compareSets(&out, base, slow); err != nil || ok || !strings.Contains(out.String(), "REGRESSED") {
		t.Errorf("50%% slower set: ok=%v err=%v\n%s", ok, err, out.String())
	}
}

// TestCatalogueMatchesBenchmarkJSON keeps BENCHMARK.json at the root of
// the repository in step with the catalogue and the workload list.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark directory")
	}
	var spec struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if spec.Workloads[i].Name != w.Name || spec.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json %+v, benchmark %s: %s", i, spec.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("%s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	if len(spec.EndToEnd) != len(endToEnd) || len(spec.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the catalogue %d+%d", len(spec.EndToEnd), len(spec.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		if s := spec.EndToEnd[i]; s.Name != d.Name || s.Unit != d.Unit || s.Better != d.Better || s.Bound != d.Bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, catalogue %+v", i, s, d)
		}
	}
	for i, d := range perLayer {
		if s := spec.PerLayer[i]; s.Name != d.Name || s.Unit != d.Unit || s.Better != d.Better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, catalogue %+v", i, s, d)
		}
	}
}
