package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"mssg/internal/experiments"
	"mssg/internal/obs"
)

// report is the machine-readable counterpart of the printed tables: the
// experiment results plus the observability registry's view of the run
// (ingest throughput, per-level BFS latency percentiles, cache hit
// rates). It is written as BENCH_<timestamp>.json (or a caller-chosen
// path) so sweeps can be diffed and plotted without scraping text.
type report struct {
	Generated   string             `json:"generated"`
	Provenance  provenanceInfo     `json:"provenance"`
	Scale       float64            `json:"scale"`
	Queries     int                `json:"queries"`
	Workers     int                `json:"workers"`
	Interrupted bool               `json:"interrupted,omitempty"`
	Experiments []experimentResult `json:"experiments"`
	Ingest      ingestSummary      `json:"ingest"`
	BFS         bfsSummary         `json:"bfs"`
	Engine      engineSummary      `json:"engine"`
	Cache       cacheSummary       `json:"cache"`
	ResultCache resultCacheSummary `json:"result_cache"`
	Metrics     obs.Snapshot       `json:"metrics"`
}

// provenanceInfo pins what produced a BENCH json, so two sweeps can be
// compared knowing they ran the same code against the same shape of
// cluster: the VCS commit, the toolchain, the committed placement epoch
// at the end of the run, and the effective workload configuration.
type provenanceInfo struct {
	GitCommit      string      `json:"git_commit,omitempty"`
	GitDirty       bool        `json:"git_dirty,omitempty"`
	GoVersion      string      `json:"go_version"`
	PlacementEpoch int64       `json:"placement_epoch"`
	Config         benchConfig `json:"config"`
}

// benchConfig is the effective experiment configuration (flag values
// after defaulting).
type benchConfig struct {
	Scale       float64 `json:"scale"`
	Queries     int     `json:"queries"`
	Workers     int     `json:"workers"`
	Concurrency int     `json:"concurrency"`
	Prefetch    bool    `json:"prefetch,omitempty"`
	Compress    bool    `json:"compress,omitempty"`
	FaultSeed   int64   `json:"fault_seed,omitempty"`
	// Tenants lists the tenant names that submitted queries during the
	// run (scraped from the query.tenant.* metric family).
	Tenants []string `json:"tenants,omitempty"`
}

type experimentResult struct {
	ID        string     `json:"id"`
	Title     string     `json:"title"`
	Header    []string   `json:"header"`
	Rows      [][]string `json:"rows"`
	Notes     []string   `json:"notes,omitempty"`
	ElapsedMs int64      `json:"elapsed_ms"`
}

type ingestSummary struct {
	Runs           int64            `json:"runs"`
	EdgesRouted    int64            `json:"edges_routed"`
	WindowsApplied int64            `json:"windows_applied"`
	TotalNs        int64            `json:"total_ns"`
	EdgesPerSec    float64          `json:"edges_per_sec"`
	RunNs          obs.HistSnapshot `json:"run_ns"`
	WindowBuildNs  obs.HistSnapshot `json:"window_build_ns"`
	DeclusterSkewX int64            `json:"decluster_skew_x1000"`
}

type bfsSummary struct {
	Runs            int64                       `json:"runs"`
	PartialCoverage int64                       `json:"partial_coverage"`
	FringeSize      obs.HistSnapshot            `json:"fringe_size"`
	ExpandNs        obs.HistSnapshot            `json:"expand_ns"`
	Levels          map[string]obs.HistSnapshot `json:"levels,omitempty"`
}

// engineSummary aggregates the resident query scheduler's admission
// counters and latency: QPS here is total completed queries over total
// submit-to-finish time actually spent in queries (concurrency already
// folded in by the overlap), and the percentiles come straight from the
// query.engine.query_ns histogram.
type engineSummary struct {
	Admitted  int64            `json:"admitted"`
	Rejected  int64            `json:"rejected"`
	Completed int64            `json:"completed"`
	Cancelled int64            `json:"cancelled"`
	Failed    int64            `json:"failed"`
	CacheHits int64            `json:"cache_hits"`
	QPS       float64          `json:"qps"`
	QueryNs   obs.HistSnapshot `json:"query_ns"`
	ExecNs    obs.HistSnapshot `json:"exec_ns"`
	// QueueWaitNs is admission-to-execution delay, excluded from each
	// query's deadline budget; its growth under load is pure scheduler
	// backpressure.
	QueueWaitNs obs.HistSnapshot `json:"queue_wait_ns"`
	// Tenants breaks the scheduler down per tenant (query.tenant.<t>.*):
	// per-tenant percentiles come from each tenant's query_ns histogram.
	Tenants map[string]tenantSummary `json:"tenants,omitempty"`
}

// tenantSummary is one tenant's serving view in the BENCH json.
type tenantSummary struct {
	Admitted    int64            `json:"admitted"`
	Rejected    int64            `json:"rejected"`
	Completed   int64            `json:"completed"`
	CacheHits   int64            `json:"cache_hits"`
	QueryNs     obs.HistSnapshot `json:"query_ns"`
	QueueWaitNs obs.HistSnapshot `json:"queue_wait_ns"`
}

type cacheSummary struct {
	Hits    int64   `json:"hits"`
	Misses  int64   `json:"misses"`
	HitRate float64 `json:"hit_rate"`
}

// resultCacheSummary aggregates the serving tier's epoch-keyed result
// cache (qcache.*) — distinct from the block-level cacheSummary.
type resultCacheSummary struct {
	Hits          int64   `json:"hits"`
	Misses        int64   `json:"misses"`
	Evictions     int64   `json:"evictions"`
	Invalidations int64   `json:"invalidations"`
	HitRate       float64 `json:"hit_rate"`
}

// buildReport assembles the report from the finished experiments and the
// process-wide registry.
func buildReport(p *experiments.Params, results []experimentResult, interrupted bool) *report {
	snap := obs.Default().Snapshot()

	var ing ingestSummary
	ing.RunNs = snap.Histograms["ingest.run_ns"]
	ing.WindowBuildNs = snap.Histograms["ingest.window_build_ns"]
	ing.Runs = ing.RunNs.Count
	ing.TotalNs = ing.RunNs.Sum
	ing.WindowsApplied = snap.Counters["ingest.windows_applied"]
	ing.DeclusterSkewX = snap.Counters["ingest.decluster_skew_x1000"]
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "ingest.dest_") && strings.HasSuffix(name, ".edges") {
			ing.EdgesRouted += v
		}
	}
	if ing.TotalNs > 0 {
		ing.EdgesPerSec = float64(ing.EdgesRouted) / (float64(ing.TotalNs) / 1e9)
	}

	bfs := bfsSummary{
		Runs:            snap.Counters["query.bfs.runs"],
		PartialCoverage: snap.Counters["query.bfs.partial_coverage"],
		FringeSize:      snap.Histograms["query.bfs.fringe_size"],
		ExpandNs:        snap.Histograms["query.bfs.level_expand_ns"],
	}
	levelNames := make([]string, 0, 16)
	for name := range snap.Histograms {
		if strings.HasPrefix(name, "query.bfs.level_") && strings.HasSuffix(name, ".expand_ns") {
			levelNames = append(levelNames, name)
		}
	}
	sort.Strings(levelNames)
	if len(levelNames) > 0 {
		bfs.Levels = make(map[string]obs.HistSnapshot, len(levelNames))
		for _, name := range levelNames {
			bfs.Levels[name] = snap.Histograms[name]
		}
	}

	eng := engineSummary{
		Admitted:  snap.Counters["query.engine.admitted"],
		Rejected:  snap.Counters["query.engine.rejected"],
		Completed: snap.Counters["query.engine.completed"],
		Cancelled: snap.Counters["query.engine.cancelled"],
		Failed:    snap.Counters["query.engine.failed"],
		CacheHits: snap.Counters["query.engine.cache_hits"],
		QueryNs:   snap.Histograms["query.engine.query_ns"],
		ExecNs:    snap.Histograms["query.engine.exec_ns"],

		QueueWaitNs: snap.Histograms["query.engine.queue_wait_ns"],
	}
	if eng.ExecNs.Sum > 0 {
		eng.QPS = float64(eng.Completed) / (float64(eng.ExecNs.Sum) / 1e9)
	}
	var tenantNames []string
	for name := range snap.Counters {
		if t, ok := strings.CutPrefix(name, "query.tenant."); ok {
			if t, ok = strings.CutSuffix(t, ".admitted"); ok {
				tenantNames = append(tenantNames, t)
			}
		}
	}
	sort.Strings(tenantNames)
	if len(tenantNames) > 0 {
		eng.Tenants = make(map[string]tenantSummary, len(tenantNames))
		for _, t := range tenantNames {
			p := "query.tenant." + t + "."
			eng.Tenants[t] = tenantSummary{
				Admitted:    snap.Counters[p+"admitted"],
				Rejected:    snap.Counters[p+"rejected"],
				Completed:   snap.Counters[p+"completed"],
				CacheHits:   snap.Counters[p+"cache_hits"],
				QueryNs:     snap.Histograms[p+"query_ns"],
				QueueWaitNs: snap.Histograms[p+"queue_wait_ns"],
			}
		}
	}

	var ca cacheSummary
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "cache.") {
			switch {
			case strings.HasSuffix(name, ".hits"):
				ca.Hits += v
			case strings.HasSuffix(name, ".misses"):
				ca.Misses += v
			}
		}
	}
	if total := ca.Hits + ca.Misses; total > 0 {
		ca.HitRate = float64(ca.Hits) / float64(total)
	}

	rc := resultCacheSummary{
		Hits:          snap.Counters["qcache.hits"],
		Misses:        snap.Counters["qcache.misses"],
		Evictions:     snap.Counters["qcache.evictions"],
		Invalidations: snap.Counters["qcache.invalidations"],
	}
	if total := rc.Hits + rc.Misses; total > 0 {
		rc.HitRate = float64(rc.Hits) / float64(total)
	}

	commit, dirty := gitCommit()
	prov := provenanceInfo{
		GitCommit:      commit,
		GitDirty:       dirty,
		GoVersion:      runtime.Version(),
		PlacementEpoch: snap.Gauges["placement.epoch"],
		Config: benchConfig{
			Scale:       p.Scale,
			Queries:     p.Queries,
			Workers:     p.Workers,
			Concurrency: p.Concurrency,
			Prefetch:    p.Prefetch,
			Compress:    p.Compress,
			FaultSeed:   p.FaultSeed,
			Tenants:     tenantNames,
		},
	}

	return &report{
		Generated:   time.Now().UTC().Format(time.RFC3339),
		Provenance:  prov,
		Scale:       p.Scale,
		Queries:     p.Queries,
		Workers:     p.Workers,
		Interrupted: interrupted,
		Experiments: results,
		Ingest:      ing,
		BFS:         bfs,
		Engine:      eng,
		Cache:       ca,
		ResultCache: rc,
		Metrics:     snap,
	}
}

// gitCommit resolves the VCS revision this binary was built from:
// preferring the stamp the Go toolchain embeds at build time, falling
// back to asking git directly (the `go run` path, where the main module
// is built without VCS stamping).
func gitCommit() (commit string, dirty bool) {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
	}
	if commit == "" {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			commit = strings.TrimSpace(string(out))
			if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil {
				dirty = len(st) > 0
			}
		}
	}
	return commit, dirty
}

// writeReport marshals the report to path. "auto" picks a timestamped
// BENCH_*.json name in the working directory.
func writeReport(r *report, path string) (string, error) {
	if path == "auto" {
		path = fmt.Sprintf("BENCH_%s.json", time.Now().UTC().Format("20060102T150405Z"))
	}
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", err
	}
	b = append(b, '\n')
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return "", err
	}
	return path, nil
}
