// Package experiments regenerates every table and figure of the paper's
// evaluation (chapter 5) on the simulated cluster. Each experiment
// returns a Table of rows; cmd/mssg-bench prints them and the root
// bench_test.go wraps them as testing.B benchmarks.
//
// Scale: the paper's graphs had up to 10^9 edges on a 64-node cluster.
// Experiments here take a scale factor (fraction of the paper's vertex
// counts); the shipped defaults complete on one machine in minutes while
// preserving the comparisons' shape — who wins, by roughly what factor,
// and where the crossovers fall. EXPERIMENTS.md records paper-vs-measured
// for every experiment.
package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"mssg/internal/cluster"
	"mssg/internal/core"
	"mssg/internal/graph"
	"mssg/internal/graphdb"
	_ "mssg/internal/graphdb/all"
	"mssg/internal/ingest"
	"mssg/internal/obs"
	"mssg/internal/query"
)

// Table is one experiment's result in printable form.
type Table struct {
	// ID is the paper artifact this reproduces ("table5.1", "fig5.4"...).
	ID string
	// Title describes the experiment.
	Title string
	// Header names the columns.
	Header []string
	// Rows are the data, already formatted.
	Rows [][]string
	// Notes records interpretation guidance (expected shape).
	Notes []string
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	line(t.Header)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "# %s\n", n)
	}
	return sb.String()
}

// Params tunes all experiments.
type Params struct {
	// Scale is the fraction of the paper's vertex counts (default
	// DefaultScale).
	Scale float64
	// Queries is the number of random BFS queries per search experiment
	// (paper: 100; default 30).
	Queries int
	// Dir is the scratch directory for out-of-core databases; required.
	Dir string
	// Workers is passed through to query.BFSConfig.Workers for every
	// search experiment (0 = GOMAXPROCS, 1 = the paper's serial
	// expansion).
	Workers int
	// FaultSeed, when non-zero, runs every experiment over a
	// fault-injecting fabric (1% drops, 0.2% duplicates, 1% delays)
	// masked by the reliable delivery layer — a robustness soak with the
	// same measured comparisons.
	FaultSeed int64
	// Deadline bounds each ingestion run (0 = none); deadline overruns
	// and dead back-ends then abort the experiment instead of hanging it.
	Deadline time.Duration
	// Metrics enables per-operation latency histograms and cache counter
	// mirrors in every engine built by the experiments, recorded in
	// obs.Default(). Off by default: the per-op clock reads distort the
	// finest-grained comparisons.
	Metrics bool
	// Verbose, if set, receives progress lines.
	Verbose func(format string, args ...any)
}

// DefaultScale keeps a full experiment sweep around minutes on one
// machine: PubMed-S' ≈ 15 K vertices / 120 K edges, PubMed-L' ≈ 53 K
// vertices / 530 K edges, Syn' ≈ 100 K vertices / 1 M edges.
const DefaultScale = 0.004

func (p *Params) scale() float64 {
	if p.Scale <= 0 {
		return DefaultScale
	}
	return p.Scale
}

func (p *Params) queries() int {
	if p.Queries <= 0 {
		return 30
	}
	return p.Queries
}

func (p *Params) logf(format string, args ...any) {
	if p.Verbose != nil {
		p.Verbose(format, args...)
	}
}

// synScale converts the shared scale to the Syn' graph: Syn-2B is ~27×
// PubMed-S in vertices; scaling it identically would dwarf the rest of
// the sweep, so Syn' uses a quarter of the common scale.
func (p *Params) synScale() float64 { return p.scale() / 4 }

// Simulated disk model shared by every out-of-core run: the block files
// of a scaled-down experiment sit in the OS page cache, so a per-block
// device latency and a cache budget sized against the scaled working set
// stand in for the paper's SATA disks and cache:data ratio (DESIGN.md
// §2). In-memory backends ("array", "hashmap") ignore these options.
const (
	// SimLatency is charged per random block access (and per 256 KB of
	// sequential transfer in StreamDB) — a compressed stand-in for a
	// 2006-era disk access. (Compressed: the real ~8 ms seek scaled by
	// roughly the same factor as the graphs, so that I/O remains the
	// dominant cost without dominating wall-clock.)
	SimLatency = 25 * time.Microsecond
	// SimCacheBytes is the per-node block-cache budget, chosen so the
	// per-node working set fits at high back-end counts but spills at
	// low ones — the same cache:data tension the paper's cluster had.
	SimCacheBytes = 2 << 20
)

// oocOptions returns the standard out-of-core tuning for experiments.
func oocOptions() graphdb.Options {
	return graphdb.Options{
		CacheBytes:      SimCacheBytes,
		SimReadLatency:  SimLatency,
		SimWriteLatency: SimLatency,
	}
}

// fiveDBsSmall are the Figure 5.3/5.4 competitors (PubMed-S).
var fiveDBsSmall = []string{"array", "hashmap", "mysql", "bdb", "grdb"}

// fiveDBsLarge are the Figure 5.5–5.7 competitors (PubMed-L; the paper
// drops MySQL and adds StreamDB at this scale).
var fiveDBsLarge = []string{"array", "hashmap", "bdb", "grdb", "stream"}

// buildEngine creates an engine over a fresh subdirectory.
func buildEngine(p *Params, label, backend string, backends, frontends int, opts graphdb.Options) (*core.Engine, error) {
	cfg := core.Config{
		Backends:  backends,
		FrontEnds: frontends,
		Backend:   backend,
		Dir:       fmt.Sprintf("%s/%s", p.Dir, label),
		DBOptions: opts,
		Ingest:    ingest.Config{AddReverse: true},
	}
	if p.FaultSeed != 0 {
		plan := cluster.SoakPlan(p.FaultSeed, 0.01)
		cfg.Fault = &plan
		cfg.Reliable = true
	}
	if p.Deadline > 0 {
		cfg.IngestDeadline = p.Deadline
	}
	if p.Metrics {
		cfg.DBOptions.Metrics = obs.Default()
	}
	return core.New(cfg)
}

// ingestDuration runs one ingestion and returns the wall time.
func ingestDuration(e *core.Engine, edges []graph.Edge) (time.Duration, error) {
	start := time.Now()
	if _, err := e.IngestEdges(edges); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// queryStats is one search run's measurements, bucketed by path length.
type queryStats struct {
	totalTime  time.Duration
	totalEdges int64
	byLength   map[int32][]time.Duration
}

// runQueries executes the random query workload against an engine.
func runQueries(e *core.Engine, pairs [][2]graph.VertexID, cfg query.BFSConfig) (*queryStats, error) {
	qs := &queryStats{byLength: make(map[int32][]time.Duration)}
	for _, pr := range pairs {
		cfg.Source, cfg.Dest = pr[0], pr[1]
		start := time.Now()
		res, err := e.BFS(cfg)
		if err != nil {
			return nil, err
		}
		el := time.Since(start)
		qs.totalTime += el
		qs.totalEdges += res.EdgesTraversed
		if res.Found {
			qs.byLength[res.PathLength] = append(qs.byLength[res.PathLength], el)
		}
	}
	return qs, nil
}

// avg returns the mean duration.
func avg(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return sum / time.Duration(len(ds))
}

// pathLengths returns the sorted union of bucket keys across runs.
func pathLengths(runs ...*queryStats) []int32 {
	seen := make(map[int32]bool)
	for _, r := range runs {
		for l := range r.byLength {
			seen[l] = true
		}
	}
	out := make([]int32, 0, len(seen))
	for l := range seen {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d.Microseconds())/1000)
}

func seconds(d time.Duration) string {
	return fmt.Sprintf("%.3f", d.Seconds())
}

// edgesPerSec formats aggregate search throughput.
func edgesPerSec(edges int64, d time.Duration) string {
	if d <= 0 {
		return "0"
	}
	return fmt.Sprintf("%.0f", float64(edges)/d.Seconds())
}

// Experiment is a named, runnable experiment.
type Experiment struct {
	ID   string
	Desc string
	Run  func(p *Params) (*Table, error)
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"table5.1", "graph statistics", Table51},
		{"fig5.1", "in-memory search, PubMed-S'", Fig51},
		{"fig5.2", "cache effect on BerkeleyDB/grDB, PubMed-S'", Fig52},
		{"fig5.3", "ingestion, PubMed-S', 1 vs 4 front-ends", Fig53},
		{"fig5.4", "search, PubMed-S', five DBs", Fig54},
		{"fig5.5", "ingestion, PubMed-L', varying back-ends", Fig55},
		{"fig5.6", "search time, PubMed-L', varying back-ends", Fig56},
		{"fig5.7", "search edges/s, PubMed-L', varying back-ends", Fig57},
		{"fig5.8", "search time, Syn', grDB, visited in-mem vs external", Fig58},
		{"fig5.9", "search edges/s, Syn', grDB", Fig59},
		{"migration", "BFS latency during live shard migration vs quiescent, hashmap", Migration},
	}
}

// ByID finds one experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
