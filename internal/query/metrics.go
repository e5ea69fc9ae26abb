package query

import (
	"sync"

	"mssg/internal/obs"
)

// queryMetrics is the pre-resolved metric set of the query service,
// built once per process (see internal/obs package doc: hot paths never
// touch the registry).
type queryMetrics struct {
	runs       *obs.Counter   // query.bfs.runs
	partial    *obs.Counter   // query.bfs.partial_coverage
	fringe     *obs.Histogram // query.bfs.fringe_size (per node per level)
	expand     *obs.Histogram // query.bfs.level_expand_ns
	exchange   *obs.Histogram // query.bfs.level_exchange_ns
	contention *obs.Counter   // query.visited.contention (striped-lock waits)

	// Failover accounting (replicated deployments).
	foRetries        *obs.Counter // query.failover.retries
	foReplicaReads   *obs.Counter // query.failover.replica_reads
	foDropped        *obs.Counter // query.failover.dropped
	foPartialAllowed *obs.Counter // query.failover.partial_allowed
}

var (
	qmOnce sync.Once
	qmVal  *queryMetrics
)

func qm() *queryMetrics {
	qmOnce.Do(func() {
		r := obs.Default()
		qmVal = &queryMetrics{
			runs:       r.Counter("query.bfs.runs"),
			partial:    r.Counter("query.bfs.partial_coverage"),
			fringe:     r.Histogram("query.bfs.fringe_size"),
			expand:     r.Histogram("query.bfs.level_expand_ns"),
			exchange:   r.Histogram("query.bfs.level_exchange_ns"),
			contention: r.Counter("query.visited.contention"),

			foRetries:        r.Counter("query.failover.retries"),
			foReplicaReads:   r.Counter("query.failover.replica_reads"),
			foDropped:        r.Counter("query.failover.dropped"),
			foPartialAllowed: r.Counter("query.failover.partial_allowed"),
		}
	})
	return qmVal
}

// engineMetrics is the pre-resolved metric set of the resident query
// engine: admission counters, live occupancy gauges, and end-to-end vs
// execution-only latency.
type engineMetrics struct {
	admitted  *obs.Counter   // query.engine.admitted
	rejected  *obs.Counter   // query.engine.rejected
	cancelled *obs.Counter   // query.engine.cancelled
	completed *obs.Counter   // query.engine.completed
	failed    *obs.Counter   // query.engine.failed
	cacheHits *obs.Counter   // query.engine.cache_hits
	inFlight  *obs.Gauge     // query.engine.in_flight
	queued    *obs.Gauge     // query.engine.queued
	queryNs   *obs.Histogram // query.engine.query_ns (submit → finish)
	execNs    *obs.Histogram // query.engine.exec_ns (start → finish)
	// queueWaitNs is the admission-to-execution delay. It is recorded
	// separately from execNs because the deadline budget explicitly
	// excludes it: under saturation queueWaitNs grows while execNs stays
	// flat, which is the signature that distinguishes "scheduler is
	// backed up" from "queries got slow".
	queueWaitNs *obs.Histogram // query.engine.queue_wait_ns
}

var (
	emOnce sync.Once
	emVal  *engineMetrics
)

func em() *engineMetrics {
	emOnce.Do(func() {
		r := obs.Default()
		emVal = &engineMetrics{
			admitted:  r.Counter("query.engine.admitted"),
			rejected:  r.Counter("query.engine.rejected"),
			cancelled: r.Counter("query.engine.cancelled"),
			completed: r.Counter("query.engine.completed"),
			failed:    r.Counter("query.engine.failed"),
			cacheHits: r.Counter("query.engine.cache_hits"),
			inFlight:  r.Gauge("query.engine.in_flight"),
			queued:    r.Gauge("query.engine.queued"),
			queryNs:   r.Histogram("query.engine.query_ns"),
			execNs:    r.Histogram("query.engine.exec_ns"),

			queueWaitNs: r.Histogram("query.engine.queue_wait_ns"),
		}
	})
	return emVal
}

// tenantMetrics is one tenant's labelled metric family,
// query.tenant.<name>.*: the per-tenant view of the engine-wide
// counters plus the latency histograms /metrics reports per tenant
// (p50/p95/p99 come from the Histogram snapshot).
type tenantMetrics struct {
	admitted  *obs.Counter   // query.tenant.<t>.admitted
	rejected  *obs.Counter   // query.tenant.<t>.rejected
	cancelled *obs.Counter   // query.tenant.<t>.cancelled
	completed *obs.Counter   // query.tenant.<t>.completed
	failed    *obs.Counter   // query.tenant.<t>.failed
	cacheHits *obs.Counter   // query.tenant.<t>.cache_hits
	inFlight  *obs.Gauge     // query.tenant.<t>.in_flight
	queued    *obs.Gauge     // query.tenant.<t>.queued
	queryNs   *obs.Histogram // query.tenant.<t>.query_ns
	execNs    *obs.Histogram // query.tenant.<t>.exec_ns

	queueWaitNs *obs.Histogram // query.tenant.<t>.queue_wait_ns
}

var (
	tmMu  sync.Mutex
	tmVal = make(map[string]*tenantMetrics)
)

// tm resolves tenant's metric family, caching per name. Tenant names are
// validated at admission (validTenant), so the family's cardinality is
// bounded by the set of configured tenants, not by request content.
func tm(tenant string) *tenantMetrics {
	tmMu.Lock()
	defer tmMu.Unlock()
	if m, ok := tmVal[tenant]; ok {
		return m
	}
	r := obs.Default()
	p := "query.tenant." + tenant + "."
	m := &tenantMetrics{
		admitted:  r.Counter(p + "admitted"),
		rejected:  r.Counter(p + "rejected"),
		cancelled: r.Counter(p + "cancelled"),
		completed: r.Counter(p + "completed"),
		failed:    r.Counter(p + "failed"),
		cacheHits: r.Counter(p + "cache_hits"),
		inFlight:  r.Gauge(p + "in_flight"),
		queued:    r.Gauge(p + "queued"),
		queryNs:   r.Histogram(p + "query_ns"),
		execNs:    r.Histogram(p + "exec_ns"),

		queueWaitNs: r.Histogram(p + "queue_wait_ns"),
	}
	tmVal[tenant] = m
	return m
}
