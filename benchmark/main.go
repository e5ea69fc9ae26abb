// Command benchmark is MSSG's benchmark spine: four pinned workloads run
// through the public API, every answer checked against a serial oracle,
// end-to-end metrics from an untraced run and per-layer attribution from a
// separate traced run that wraps the layers from outside. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// provenance says what produced a result.
type provenance struct {
	GitCommit  string    `json:"git_commit"`
	GitDirty   bool      `json:"git_dirty"`
	GoVersion  string    `json:"go_version"`
	NumCPU     int       `json:"nproc"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	Time       time.Time `json:"time"`
}

// layerRow is one line of the traced run's layer table.
type layerRow struct {
	Layer  string  `json:"layer"`
	BusyS  float64 `json:"busy_s"`
	ShareP float64 `json:"share_of_node_time"`
}

// result is the JSON one run writes.
type result struct {
	Workload   string           `json:"workload"`
	Why        string           `json:"why"`
	Options    options          `json:"options"`
	Provenance provenance       `json:"provenance"`
	Correct    bool             `json:"correct"`
	Attempted  int64            `json:"attempted"`
	Failed     int64            `json:"failed"`
	ErrorRate  float64          `json:"error_rate"`
	EndToEnd   metrics          `json:"end_to_end"`
	PerLayer   metrics          `json:"per_layer,omitempty"`
	LayerTable []layerRow       `json:"layer_table,omitempty"`
	Exact      map[string]int64 `json:"exact_counts"`
	Ops        map[string]int64 `json:"op_counts"`
	Notes      []string         `json:"notes,omitempty"`
}

func main() {
	var opt options
	var trace int
	var all bool
	var compare bool
	flag.StringVar(&opt.Workload, "workload", "", "workload to run: ingest-stream, search-ooc, search-mem or serve-mixed")
	flag.Int64Var(&opt.Seed, "seed", 1, "perturbs the graph generator's seed and the query draws")
	flag.Float64Var(&opt.Seconds, "seconds", 15, "how long the measured phase runs")
	flag.IntVar(&trace, "trace", 0, "1: traced run (per-layer metrics, layer table, spans); 0: untraced run (end-to-end metrics)")
	flag.Float64Var(&opt.Scale, "scale", 0, "override every workload's generator scale (0 = pinned scales)")
	flag.IntVar(&opt.Groups, "groups", 0, "run exactly this many query groups instead of measuring for -seconds, so counts repeat exactly")
	flag.StringVar(&opt.OutDir, "out", "", "directory for results, traces and scratch databases (default $MSSG_BENCH_OUT, else benchmark/out)")
	flag.BoolVar(&all, "all", false, "run every workload, untraced then traced, each in its own process")
	flag.BoolVar(&compare, "compare", false, "compare two sets of result files: -compare BASE CANDIDATE (files, directories or comma lists)")
	flag.Parse()
	opt.Trace = trace != 0
	if opt.OutDir == "" {
		opt.OutDir = defaultOutDir()
	}

	switch {
	case compare:
		if flag.NArg() != 2 {
			fatal("usage: -compare BASE CANDIDATE")
		}
		ok, err := compareSets(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal("%v", err)
		}
		if !ok {
			os.Exit(1)
		}
	case all:
		os.Exit(runAll(opt))
	default:
		w, ok := findWorkload(opt.Workload)
		if !ok {
			fatal("unknown workload %q; have %s", opt.Workload, workloadNames())
		}
		res, err := execute(w, opt)
		if err != nil {
			fatal("%s: %v", w.Name, err)
		}
		report(res)
		if !res.Correct {
			os.Exit(1)
		}
	}
}

func fatal(format string, a ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", a...)
	os.Exit(2)
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.Name)
	}
	return strings.Join(names, ", ")
}

func defaultOutDir() string {
	if d := os.Getenv("MSSG_BENCH_OUT"); d != "" {
		return d
	}
	if _, err := os.Stat("benchmark"); err == nil {
		return filepath.Join("benchmark", "out")
	}
	return "out"
}

// execute runs one workload and writes its result (and, traced, its spans)
// under opt.OutDir.
func execute(w workloadSpec, opt options) (*result, error) {
	r, err := newRun(opt)
	if err != nil {
		return nil, err
	}
	defer r.cleanup()
	// An interrupted run must not leave its databases behind.
	sig := make(chan os.Signal, 1)
	finished := make(chan struct{})
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		select {
		case <-sig:
			r.cleanup()
			os.Exit(130)
		case <-finished:
		}
	}()
	defer func() {
		signal.Stop(sig)
		close(finished)
	}()
	if err := w.run(r); err != nil {
		return nil, err
	}
	res := &result{
		Workload:   w.Name,
		Why:        w.Why,
		Options:    opt,
		Provenance: readProvenance(),
		Correct:    r.failed == 0,
		Attempted:  r.attempted,
		Failed:     r.failed,
		ErrorRate:  ratio(float64(r.failed), float64(r.attempted)),
		EndToEnd:   r.m.filled(endToEnd),
		Exact:      r.exact,
		Ops:        r.ops,
		Notes:      r.notes,
	}
	tag := fmt.Sprintf("%s-seed%d-trace%d", w.Name, opt.Seed, b2i(opt.Trace))
	if r.tr != nil {
		res.PerLayer = r.m.filled(perLayer)
		res.LayerTable = r.layerTable()
		if err := r.tr.writeSpans(filepath.Join(opt.OutDir, "trace-"+tag+".json"), w.Name); err != nil {
			return nil, err
		}
	}
	b, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return nil, err
	}
	return res, os.WriteFile(filepath.Join(opt.OutDir, "result-"+tag+".json"), b, 0o644)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// layerTable lists where the node goroutines' time went. The rows sum to
// the node time the traced operations cover.
func (r *run) layerTable() []layerRow {
	t := r.tr.totals
	c := t.calls
	rows := []struct {
		name string
		ns   int64
	}{
		{"ingest (store-node self)", t.ingestNodeNs - t.ingestChildNs},
		{"cluster send (queries)", t.querySendNs},
		{"cluster recv wait", c.Recv.Ns},
		{"query (kernel self)", t.queryNodeNs - t.queryChildNs},
		{"graphdb (self: chains, cache, blockio)", c.dbNs() - c.vfsNs()},
		{"storage/vfs", c.vfsNs()},
		{"residual (outside every layer's spans)", t.residualNs},
	}
	var out []layerRow
	for _, row := range rows {
		out = append(out, layerRow{row.name, float64(row.ns) / 1e9, ratio(float64(row.ns), float64(t.nodeTimeNs))})
	}
	return out
}

// report prints every metric by name with its unit and, last, the one-line
// JSON object the driver reads.
func report(res *result) {
	fmt.Printf("workload %s  seed %d  seconds %g  trace %d\n", res.Workload, res.Options.Seed, res.Options.Seconds, b2i(res.Options.Trace))
	fmt.Printf("  attempted %d  failed %d  error_rate %g\n", res.Attempted, res.Failed, res.ErrorRate)
	for _, n := range res.Notes {
		fmt.Printf("  FAILED: %s\n", n)
	}
	printMetrics := func(title string, defs []metricDef, m metrics) {
		fmt.Println(title)
		for _, d := range defs {
			fmt.Printf("  %-32s %16.6g %s\n", d.Name, m[d.Name].Value, d.Unit)
		}
	}
	printMetrics("end-to-end", endToEnd, res.EndToEnd)
	driver := res.EndToEnd
	if res.Options.Trace {
		fmt.Println("layer table (busy seconds summed over node goroutines)")
		for _, row := range res.LayerTable {
			fmt.Printf("  %-40s %10.3f s %6.1f %%\n", row.Layer, row.BusyS, 100*row.ShareP)
		}
		printMetrics("per-layer", perLayer, res.PerLayer)
		driver = res.PerLayer
	}
	keys := make([]string, 0, len(res.Exact))
	for k := range res.Exact {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Println("exact counts")
	for _, k := range keys {
		fmt.Printf("  %-32s %16d\n", k, res.Exact[k])
	}
	line, _ := json.Marshal(struct {
		Correct   bool    `json:"correct"`
		Attempted int64   `json:"attempted"`
		Failed    int64   `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, driver})
	fmt.Println(string(line))
}

// runAll runs every workload untraced and then traced, one process each
// (so no run inherits another's heap, caches or registry state).
func runAll(opt options) int {
	self, err := os.Executable()
	if err != nil {
		fatal("%v", err)
	}
	code := 0
	for _, w := range workloads {
		for trace := 0; trace <= 1; trace++ {
			cmd := exec.Command(self,
				"-workload", w.Name, "-seed", fmt.Sprint(opt.Seed), "-seconds", fmt.Sprint(opt.Seconds),
				"-trace", fmt.Sprint(trace), "-scale", fmt.Sprint(opt.Scale), "-groups", fmt.Sprint(opt.Groups),
				"-out", opt.OutDir)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "benchmark: %s (trace %d): %v\n", w.Name, trace, err)
				code = 1
			}
		}
	}
	return code
}

// readProvenance identifies the build: the commit from the binary's VCS
// stamp, or from git when the stamp is absent (go run outside a work tree
// leaves both unknown).
func readProvenance() provenance {
	p := provenance{
		GitCommit: "unknown", GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Time: time.Now().UTC(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				p.GitCommit = s.Value
			case "vcs.modified":
				p.GitDirty = s.Value == "true"
			}
		}
	}
	if p.GitCommit == "unknown" {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			p.GitCommit = strings.TrimSpace(string(out))
			st, _ := exec.Command("git", "status", "--porcelain").Output()
			p.GitDirty = len(st) > 0
		}
	}
	return p
}
