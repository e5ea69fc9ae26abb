package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"mssg"
	"mssg/internal/graphdb"
	"mssg/internal/obs"
	"mssg/internal/query"
)

// options are the command-line settings of one run.
type options struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	// Scale, when positive, overrides every workload's generator scale
	// (the smoke test runs at 0.001).
	Scale float64 `json:"scale_override"`
	// Groups, when positive, fixes the number of query groups (or the
	// requests per tenant and round) instead of measuring for Seconds, so
	// the program's counts repeat exactly.
	Groups int    `json:"groups_override"`
	OutDir string `json:"-"`
}

// run is the state of one workload run.
type run struct {
	opt     options
	tr      *tracer // nil when untraced
	workDir string
	m       metrics
	// exact holds counts that must repeat bit-for-bit for a given seed.
	exact     map[string]int64
	ops       map[string]int64
	attempted int64
	failed    int64
	notes     []string

	genTime time.Duration
	obs0    obs.Snapshot
	priv0   obs.Snapshot
	prog0   progCounters
	wall0   time.Time
	cpu0    time.Duration
	gc0     uint64
}

func newRun(opt options) (*run, error) {
	r := &run{opt: opt, m: metrics{}, exact: map[string]int64{}, ops: map[string]int64{}}
	if opt.Trace {
		r.tr = newTracer(backends)
	}
	if err := os.MkdirAll(opt.OutDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(opt.OutDir, "work-")
	if err != nil {
		return nil, err
	}
	r.workDir = dir
	return r, nil
}

func (r *run) cleanup() { os.RemoveAll(r.workDir) }

func (r *run) fail(format string, a ...any) {
	r.failed++
	if len(r.notes) < 20 {
		r.notes = append(r.notes, fmt.Sprintf(format, a...))
	}
}

func (r *run) scale(pinned float64) float64 {
	if r.opt.Scale > 0 {
		return r.opt.Scale
	}
	return pinned
}

func (r *run) config(dir string, cacheBytes int64) mssg.Config {
	return mssg.Config{
		Backends:  backends,
		FrontEnds: frontEnds,
		Backend:   "grdb",
		Dir:       dir,
		DBOptions: mssg.DBOptions{CacheBytes: cacheBytes},
		Ingest:    mssg.IngestConfig{AddReverse: true},
	}
}

// open builds the engine under test: the public one, or in a traced run
// the same engine assembled over the timing wrappers.
func (r *run) open(dir string, cacheBytes int64) (engine, error) {
	if r.tr != nil {
		return newTracedEngine(r.config(dir, cacheBytes), r.tr)
	}
	return mssg.New(r.config(dir, cacheBytes))
}

// generate materializes the workload's graph; the seed perturbs the
// generator's own seed, so each seed is a different graph of one family.
func (r *run) generate(scale float64) ([]mssg.Edge, int64, error) {
	cfg := mssg.PubMedS(r.scale(scale))
	cfg.Seed += r.opt.Seed
	start := time.Now()
	edges, err := mssg.Generate(cfg)
	r.genTime = time.Since(start)
	return edges, cfg.Vertices, err
}

// setUp runs build setupReps times in fresh directories, keeps the last
// result and records the median wall time as setup_s.
func setUp[S any](r *run, build func(dir string) (S, error), discard func(S)) (S, error) {
	var kept S
	var times []float64
	for i := 0; i < setupReps; i++ {
		dir := filepath.Join(r.workDir, fmt.Sprintf("db%d", i))
		start := time.Now()
		s, err := build(dir)
		if err != nil {
			return kept, err
		}
		times = append(times, time.Since(start).Seconds())
		if i < setupReps-1 {
			discard(s)
			os.RemoveAll(dir)
		} else {
			kept = s
		}
	}
	r.m.set("setup_s", median(times))
	return kept, nil
}

// --- counters the program exposes -----------------------------------------

type progCounters struct {
	BlockReads, BlockWrites, BytesRead, BytesWritten int64
	CacheHits, CacheMisses                           int64
	EdgesStored                                      int64
}

func readCounters(dbs []graphdb.Graph) progCounters {
	var c progCounters
	for _, db := range dbs {
		if io, ok := db.(graphdb.IOCounters); ok {
			r, w := io.IOCounters()
			c.BlockReads, c.BlockWrites = c.BlockReads+r, c.BlockWrites+w
		}
		if io, ok := db.(interface{ IOBytes() (int64, int64) }); ok {
			r, w := io.IOBytes()
			c.BytesRead, c.BytesWritten = c.BytesRead+r, c.BytesWritten+w
		}
		if cs, ok := db.(graphdb.CacheStats); ok {
			h, m := cs.CacheStats()
			c.CacheHits, c.CacheMisses = c.CacheHits+h, c.CacheMisses+m
		}
		c.EdgesStored += db.Stats().EdgesStored
	}
	return c
}

func (c progCounters) sub(o progCounters) progCounters {
	return progCounters{
		c.BlockReads - o.BlockReads, c.BlockWrites - o.BlockWrites,
		c.BytesRead - o.BytesRead, c.BytesWritten - o.BytesWritten,
		c.CacheHits - o.CacheHits, c.CacheMisses - o.CacheMisses,
		c.EdgesStored - o.EdgesStored,
	}
}

// rusage returns the process's CPU time so far and its peak resident set.
func rusage() (cpu time.Duration, peakRSSMB float64) {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// beginMeasured marks the start of the measured phase: every count the
// layer metrics report is a delta from here.
func (r *run) beginMeasured(eng engine) {
	r.obs0 = obs.Default().Snapshot()
	if r.tr != nil {
		r.priv0 = r.tr.reg.Snapshot()
	}
	r.prog0 = readCounters(eng.Databases())
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.gc0 = ms.PauseTotalNs
	r.cpu0, _ = rusage()
	r.wall0 = time.Now()
}

// segment is the unit the end-to-end query metrics are computed over: one
// query group or one traffic round. Every segment is a balanced sample of
// the workload's requests, so its percentiles and rates are comparable
// with any other's, and a run reports the median over its segments, which
// a garbage-collection cycle or a noisy neighbour slowing a few of them
// does not move.
type segment struct {
	latencies        []float64 // ms, foreground request class
	edges, completed int64
	blockReads       int64
	wall             time.Duration
}

// queryTotals sums what measured queries report about themselves.
type queryTotals struct {
	count, levels, edges, visited, fringeSent int64
	expandNs, exchangeNs                      int64
	segments                                  []segment
}

// setQueryMetrics derives the end-to-end query metrics from the segments.
func (r *run) setQueryMetrics(segments []segment) {
	var p50, p95, edgesPerS, perS []float64
	for _, s := range segments {
		p50 = append(p50, median(s.latencies))
		p95 = append(p95, quantile(s.latencies, 0.95))
		edgesPerS = append(edgesPerS, ratio(float64(s.edges), s.wall.Seconds()))
		perS = append(perS, ratio(float64(s.completed), s.wall.Seconds()))
		r.ops["queries"] += s.completed
	}
	r.m.set("query_p50_ms", median(p50))
	r.m.set("query_p95_ms", median(p95))
	r.m.set("query_edges_per_s", median(edgesPerS))
	r.m.set("queries_per_s", median(perS))
	r.ops["segments"] = int64(len(segments))
}

func (q *queryTotals) addBFS(res query.BFSResult) {
	q.count++
	q.levels += int64(res.Levels)
	q.edges += res.EdgesTraversed
	q.visited += res.VerticesVisited
	q.fringeSent += res.FringeSent
	for _, l := range res.LevelStats {
		q.expandNs += l.ExpandNs
		q.exchangeNs += l.TotalNs - l.ExpandNs
	}
}

// endMeasured fills in every layer metric that comes from the program's
// own counters, the obs registries, the process, and (traced) the wrappers.
func (r *run) endMeasured(eng engine, qt *queryTotals, storedRecords int64) {
	wall := time.Since(r.wall0)
	m := r.m
	prog := readCounters(eng.Databases()).sub(r.prog0)
	now := obs.Default().Snapshot()
	counter := func(name string) float64 { return float64(now.Counters[name] - r.obs0.Counters[name]) }
	histSum := func(name string) float64 {
		return float64(now.Histograms[name].Sum-r.obs0.Histograms[name].Sum) / 1e9
	}

	m.set("ingest.windows", counter("ingest.windows_applied"))
	m.set("ingest.window_build_s", histSum("ingest.window_build_ns"))
	m.set("ingest.window_ship_s", histSum("ingest.window_ship_ns"))
	m.set("ingest.store_window_s", histSum("ingest.store_window_ns"))
	m.set("cluster.namespace_leases", counter("cluster.namespaces.leases"))

	m.set("query.count", float64(qt.count))
	m.set("query.levels", float64(qt.levels))
	m.set("query.edges_traversed", float64(qt.edges))
	m.set("query.vertices_visited", float64(qt.visited))
	m.set("query.fringe_sent", float64(qt.fringeSent))
	m.set("query.expand_s", float64(qt.expandNs)/1e9)
	m.set("query.exchange_s", float64(qt.exchangeNs)/1e9)
	m.set("query.visited_contention", counter("query.visited.contention"))

	m.set("engine.admitted", counter("query.engine.admitted"))
	m.set("engine.rejected", counter("query.engine.rejected"))
	m.set("engine.queue_wait_s", histSum("query.engine.queue_wait_ns"))
	m.set("engine.exec_s", histSum("query.engine.exec_ns"))
	m.set("engine.queue_wait_frac", ratio(m.get("engine.queue_wait_s"), m.get("engine.queue_wait_s")+m.get("engine.exec_s")))
	m.set("qcache.hits", counter("qcache.hits"))
	m.set("qcache.misses", counter("qcache.misses"))
	m.set("qcache.hit_rate", ratio(counter("qcache.hits"), counter("qcache.hits")+counter("qcache.misses")))
	m.set("qcache.invalidations", counter("qcache.invalidations"))

	m.set("cache.hits", float64(prog.CacheHits))
	m.set("cache.misses", float64(prog.CacheMisses))
	m.set("cache.hit_rate", ratio(float64(prog.CacheHits), float64(prog.CacheHits+prog.CacheMisses)))
	m.set("blockio.block_reads", float64(prog.BlockReads))
	m.set("blockio.block_writes", float64(prog.BlockWrites))
	m.set("blockio.bytes_read", float64(prog.BytesRead))
	m.set("blockio.bytes_written", float64(prog.BytesWritten))
	m.set("blockio.reads_per_kedge", ratio(float64(prog.BlockReads)*1000, float64(qt.edges)))
	m.set("blockio.write_amp", ratio(float64(prog.BytesWritten), 8*float64(storedRecords)))
	// The repo's io disk model, computed instead of slept: 25 µs per block
	// operation plus 100 ns per byte moved.
	m.set("disk.model_s", float64(prog.BlockReads+prog.BlockWrites)*25e-6+float64(prog.BytesRead+prog.BytesWritten)*100e-9)

	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	cpu, peakRSS := rusage()
	cpu -= r.cpu0
	m.set("gen.generate_s", r.genTime.Seconds())
	m.set("proc.cpu_s", cpu.Seconds())
	m.set("proc.cpu_util", ratio(cpu.Seconds(), wall.Seconds()*float64(runtime.NumCPU())))
	m.set("proc.peak_rss_mb", peakRSS)
	m.set("proc.heap_inuse_mb", float64(ms.HeapInuse)/(1<<20))
	m.set("proc.gc_pause_ms", float64(ms.PauseTotalNs-r.gc0)/1e6)

	if r.tr == nil {
		return
	}
	priv := r.tr.reg.Snapshot()
	mirror := func(name string) float64 { return float64(priv.Counters[name] - r.priv0.Counters[name]) }
	m.set("cache.evictions", mirror("cache.grdb.evictions"))
	m.set("cache.writebacks", mirror("cache.grdb.writebacks"))
	m.set("cache.mirror_mismatch", abs(mirror("cache.grdb.hits")-float64(prog.CacheHits))+
		abs(mirror("cache.grdb.misses")-float64(prog.CacheMisses)))

	t := r.tr.totals
	c := t.calls
	sec := func(ns int64) float64 { return float64(ns) / 1e9 }
	m.set("ingest.run_s", sec(t.ingestRunNs))
	m.set("ingest.store_node_self_s", sec(t.ingestNodeNs-t.ingestChildNs))
	m.set("cluster.msgs_sent", float64(c.Send.Calls))
	m.set("cluster.bytes_sent", float64(c.Send.Amount))
	m.set("cluster.send_s", sec(c.Send.Ns))
	m.set("cluster.recv_wait_s", sec(c.Recv.Ns))
	m.set("query.kernel_self_s", sec(t.queryNodeNs-t.queryChildNs))
	m.set("graphdb.store_calls", float64(c.DB[classStore].Calls))
	m.set("graphdb.store_edges", float64(c.DB[classStore].Amount))
	m.set("graphdb.store_s", sec(c.DB[classStore].Ns))
	m.set("graphdb.flush_calls", float64(c.DB[classFlush].Calls))
	m.set("graphdb.flush_s", sec(c.DB[classFlush].Ns))
	m.set("graphdb.adjacency_calls", float64(c.DB[classAdjacency].Calls))
	m.set("graphdb.neighbors", float64(c.DB[classAdjacency].Amount))
	m.set("graphdb.adjacency_s", sec(c.DB[classAdjacency].Ns))
	m.set("graphdb.adjacency_us_per_call", ratio(float64(c.DB[classAdjacency].Ns)/1e3, float64(c.DB[classAdjacency].Calls)))
	m.set("graphdb.self_s", sec(c.dbNs()-c.vfsNs()))
	var v [numVFS]aggSnap
	for cl := 0; cl < numClasses; cl++ {
		for k := range v {
			v[k] = v[k].plus(c.VFS[cl][k])
		}
	}
	m.set("vfs.read_calls", float64(v[vfsRead].Calls))
	m.set("vfs.read_bytes", float64(v[vfsRead].Amount))
	m.set("vfs.read_s", sec(v[vfsRead].Ns))
	m.set("vfs.write_calls", float64(v[vfsWrite].Calls))
	m.set("vfs.write_bytes", float64(v[vfsWrite].Amount))
	m.set("vfs.write_s", sec(v[vfsWrite].Ns))
	m.set("vfs.sync_calls", float64(v[vfsSync].Calls))
	m.set("vfs.sync_s", sec(v[vfsSync].Ns))
	m.set("layer.node_time_s", sec(t.nodeTimeNs))
	m.set("layer.residual_frac", ratio(float64(t.residualNs), float64(t.nodeTimeNs)))
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err == nil && info.Mode().IsRegular() {
			total += info.Size()
		}
		return err
	})
	return total, err
}

// directedRecords is what an AddReverse ingest of edges stores.
func directedRecords(edges []mssg.Edge) (n int64) {
	for _, e := range edges {
		n++
		if e.Src != e.Dst {
			n++
		}
	}
	return n
}
