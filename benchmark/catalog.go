package main

import (
	"math"
	"sort"
)

// metricDef is one catalogue entry. The catalogue is the single source of
// the names, units and directions BENCHMARK.json, the README and the
// compare tool use; TestCatalogueMatchesBenchmarkJSON keeps them in step.
type metricDef struct {
	Name   string
	Unit   string
	Better string  // "lower" or "higher"
	Bound  float64 // share of the baseline median it may worsen by; 0 = not gated
}

// endToEnd lists what a user of the system sees. Every workload reports
// every one of them (see README.md for what each means per workload).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ingest_edges_per_s", "1/s", "higher", 0.25},
	{"disk_bytes_per_edge", "B", "lower", 0.02},
	{"query_p50_ms", "ms", "lower", 0.25},
	{"query_p95_ms", "ms", "lower", 0.25},
	{"query_edges_per_s", "1/s", "higher", 0.25},
	{"queries_per_s", "1/s", "higher", 0.25},
}

// perLayer lists the single-layer metrics of a traced run, grouped by the
// module they describe. They carry no bound.
var perLayer = []metricDef{
	// ingest (obs registry count/sum deltas; rates from batch timings)
	{"ingest.windows", "count", "lower", 0},
	{"ingest.window_build_s", "s", "lower", 0},
	{"ingest.window_ship_s", "s", "lower", 0},
	{"ingest.store_window_s", "s", "lower", 0},
	{"ingest.run_s", "s", "lower", 0},
	{"ingest.store_node_self_s", "s", "lower", 0},
	{"ingest.rate_first_quarter", "1/s", "higher", 0},
	{"ingest.rate_last_quarter", "1/s", "higher", 0},
	// cluster (fabric wrapper; datacutter streams ride it)
	{"cluster.msgs_sent", "count", "lower", 0},
	{"cluster.bytes_sent", "B", "lower", 0},
	{"cluster.send_s", "s", "lower", 0},
	{"cluster.recv_wait_s", "s", "lower", 0},
	{"cluster.namespace_leases", "count", "lower", 0},
	{"cluster.inproc_rtt_us", "us", "lower", 0},
	{"cluster.inproc_mb_per_s", "MB/s", "higher", 0},
	// query (BFSResult / KHopResult fields and LevelStats)
	{"query.count", "count", "higher", 0},
	{"query.levels", "count", "lower", 0},
	{"query.edges_traversed", "count", "lower", 0},
	{"query.vertices_visited", "count", "lower", 0},
	{"query.fringe_sent", "count", "lower", 0},
	{"query.expand_s", "s", "lower", 0},
	{"query.exchange_s", "s", "lower", 0},
	{"query.kernel_self_s", "s", "lower", 0},
	{"query.visited_contention", "count", "lower", 0},
	// query.Engine / qcache
	{"engine.admitted", "count", "higher", 0},
	{"engine.rejected", "count", "lower", 0},
	{"engine.queue_wait_s", "s", "lower", 0},
	{"engine.exec_s", "s", "lower", 0},
	{"engine.queue_wait_frac", "ratio", "lower", 0},
	{"engine.khop_p50_ms", "ms", "lower", 0},
	{"engine.khop_p95_ms", "ms", "lower", 0},
	{"qcache.hits", "count", "higher", 0},
	{"qcache.misses", "count", "lower", 0},
	{"qcache.hit_rate", "ratio", "higher", 0},
	{"qcache.invalidations", "count", "lower", 0},
	// graphdb (graph wrapper)
	{"graphdb.store_calls", "count", "lower", 0},
	{"graphdb.store_edges", "count", "lower", 0},
	{"graphdb.store_s", "s", "lower", 0},
	{"graphdb.flush_calls", "count", "lower", 0},
	{"graphdb.flush_s", "s", "lower", 0},
	{"graphdb.adjacency_calls", "count", "lower", 0},
	{"graphdb.neighbors", "count", "lower", 0},
	{"graphdb.adjacency_s", "s", "lower", 0},
	{"graphdb.adjacency_us_per_call", "us", "lower", 0},
	{"graphdb.self_s", "s", "lower", 0},
	// storage/cache (CacheStats, Options.Metrics mirror, unit costs)
	{"cache.hits", "count", "higher", 0},
	{"cache.misses", "count", "lower", 0},
	{"cache.hit_rate", "ratio", "higher", 0},
	{"cache.evictions", "count", "lower", 0},
	{"cache.writebacks", "count", "lower", 0},
	{"cache.mirror_mismatch", "count", "lower", 0},
	{"cache.get_hit_ns", "ns", "lower", 0},
	{"cache.get_miss_us", "us", "lower", 0},
	// storage/blockio (IOCounters, IOBytes, unit costs)
	{"blockio.block_reads", "count", "lower", 0},
	{"blockio.block_writes", "count", "lower", 0},
	{"blockio.bytes_read", "B", "lower", 0},
	{"blockio.bytes_written", "B", "lower", 0},
	{"blockio.reads_per_kedge", "ratio", "lower", 0},
	{"blockio.write_amp", "ratio", "lower", 0},
	{"disk.model_s", "s", "lower", 0},
	{"blockio.read_block_us", "us", "lower", 0},
	{"blockio.write_block_us", "us", "lower", 0},
	// storage/compress (off in every workload: unit costs only)
	{"compress.encode_mb_per_s", "MB/s", "higher", 0},
	{"compress.decode_mb_per_s", "MB/s", "higher", 0},
	{"compress.ratio", "ratio", "higher", 0},
	// storage/vfs (timing FS)
	{"vfs.read_calls", "count", "lower", 0},
	{"vfs.read_bytes", "B", "lower", 0},
	{"vfs.read_s", "s", "lower", 0},
	{"vfs.write_calls", "count", "lower", 0},
	{"vfs.write_bytes", "B", "lower", 0},
	{"vfs.write_s", "s", "lower", 0},
	{"vfs.sync_calls", "count", "lower", 0},
	{"vfs.sync_s", "s", "lower", 0},
	// process and the trace itself
	{"gen.generate_s", "s", "lower", 0},
	{"proc.cpu_s", "s", "lower", 0},
	{"proc.cpu_util", "ratio", "higher", 0},
	{"proc.peak_rss_mb", "MB", "lower", 0},
	{"proc.heap_inuse_mb", "MB", "lower", 0},
	{"proc.gc_pause_ms", "ms", "lower", 0},
	{"layer.node_time_s", "s", "lower", 0},
	{"layer.residual_frac", "ratio", "lower", 0},
	{"trace.overhead_frac", "ratio", "lower", 0},
}

func findMetric(name string) (metricDef, bool) {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range list {
			if m.Name == name {
				return m, true
			}
		}
	}
	return metricDef{}, false
}

// value is one reported number with its unit.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics maps catalogue names to measured values.
type metrics map[string]value

// set records v under a catalogue name; an unknown name is a bug in the
// benchmark, not an input error.
func (m metrics) set(name string, v float64) {
	def, ok := findMetric(name)
	if !ok {
		panic("benchmark: metric " + name + " is not in the catalogue")
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	m[name] = value{Value: v, Unit: def.Unit}
}

func (m metrics) get(name string) float64 { return m[name].Value }

// filled returns every metric of defs, with 0 for those the workload
// does not exercise, so each run reports the whole catalogue.
func (m metrics) filled(defs []metricDef) metrics {
	out := make(metrics, len(defs))
	for _, d := range defs {
		out[d.Name] = value{Value: m[d.Name].Value, Unit: d.Unit}
	}
	return out
}

// quantile returns the q-quantile (0..1) of xs by the nearest-rank rule:
// the smallest sample with at least q of the samples at or below it.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
