package main

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"mssg"
	"mssg/internal/gen"
	"mssg/internal/graphdb"
	"mssg/internal/query"
)

// Fixed configuration of every workload (README.md "Fixed configuration").
const (
	backends  = 4
	frontEnds = 2
	// setupReps is how many times a run sets up, to report the median.
	setupReps = 3

	// Generator scales (fraction of the paper's PubMed-S vertex count).
	scaleStream = 0.2  // 750,384 vertices, ≈10.8 M directed records
	scaleSearch = 0.05 // 187,596 vertices, ≈2.70 M directed records

	cacheStream = 2 << 20   // per node; ≈1:50 of the final database
	cacheOOC    = 1 << 20   // per node; ≈1:25 of the database
	cacheMem    = 256 << 20 // per node; everything resident

	streamBatches = 20
	// probeSweeps is the least number of read-back sweeps ingest-stream runs.
	probeSweeps = 2
	// searchGroups is the curated list's length; a run wraps around it.
	searchGroups = 8

	serveRounds     = 5
	serveInitialPct = 90 // ingested in set-up
	serveStepPct    = 2  // ingested at the start of each round
	// Queries each tenant's client keeps in flight: six against two engine
	// slots. With more than two from the interactive tenant, half of its
	// requests queue behind its own and the median lands mid-slope between
	// "ran at once" and "waited for a search", where it is unmeasurable.
	interactiveOutstanding = 2
	batchOutstanding       = 4
	serveReissueProb       = 0.3
	serveKHop              = 2
)

type workloadSpec struct {
	Name string
	Why  string
	run  func(*run) error
}

var workloads = []workloadSpec{
	{"ingest-stream", "write path alone: 20 commits grow the graph from cache-resident to 50x the block cache, then a short read-back; query layers idle during the load", (*run).ingestStream},
	{"search-ooc", "the paper's headline case: BFS with a 1:25 block cache, so adjacency reads miss and graphdb, blockio and vfs dominate", (*run).searchOOC},
	{"search-mem", "same graph and searches with everything cached: storage does nothing, so the query kernel, fringe exchange and barriers dominate", (*run).searchMem},
	{"serve-mixed", "resident query.Engine, two tenants, result cache, with ingest commits between traffic rounds: scheduling, qcache and read-after-write on shared storage", (*run).serveMixed},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// runGroups measures whole query groups through eng.BFS, checking every
// answer, until at least minGroups are done and seconds have passed (or
// exactly opt.Groups groups, when set); it wraps around the list. Each
// group becomes one segment of qt.
func (r *run) runGroups(eng engine, groups [][]bfsQuery, seconds float64, minGroups int, qt *queryTotals) {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for g := 0; ; g++ {
		if r.opt.Groups > 0 {
			if g >= r.opt.Groups {
				return
			}
		} else if g >= minGroups && !time.Now().Before(deadline) {
			return
		}
		var seg segment
		reads := readCounters(eng.Databases()).BlockReads
		for _, q := range groups[g%len(groups)] {
			op := r.tr.begin("bfs")
			start := time.Now()
			res, err := eng.BFS(mssg.BFSConfig{Source: q.Src, Dest: q.Dst, Workers: 1})
			lat := time.Since(start)
			op.endBFS(res.LevelStats)
			seg.wall += lat
			r.attempted++
			if err != nil {
				r.fail("BFS %d→%d: %v", q.Src, q.Dst, err)
				continue
			}
			if res.Found != q.Found || res.PathLength != q.PathLen {
				r.fail("BFS %d→%d: got found=%v len=%d, oracle found=%v len=%d", q.Src, q.Dst, res.Found, res.PathLength, q.Found, q.PathLen)
				continue
			}
			qt.addBFS(res)
			seg.latencies = append(seg.latencies, float64(lat)/1e6)
			seg.edges += res.EdgesTraversed
			seg.completed++
		}
		seg.blockReads = readCounters(eng.Databases()).BlockReads - reads
		qt.segments = append(qt.segments, seg)
	}
}

// timeGroup runs one group unchecked and returns its summed latency: the
// untraced reference a traced run's first group is compared with.
func timeGroup(eng engine, group []bfsQuery) (time.Duration, error) {
	var busy time.Duration
	for _, q := range group {
		start := time.Now()
		if _, err := eng.BFS(mssg.BFSConfig{Source: q.Src, Dest: q.Dst, Workers: 1}); err != nil {
			return 0, err
		}
		busy += time.Since(start)
	}
	return busy, nil
}

// ingestBatch stores one batch as one commit, traced as one operation,
// and checks the stored count against the oracle's.
func (r *run) ingestBatch(eng engine, what string, batch []mssg.Edge) (records int64, wall time.Duration, err error) {
	op := r.tr.begin("ingest.batch")
	start := time.Now()
	st, err := eng.IngestEdges(batch)
	wall = time.Since(start)
	if te, ok := eng.(*tracedEngine); ok {
		op.endIngest(te.lastRun)
	}
	r.attempted++
	if err != nil {
		return 0, wall, fmt.Errorf("%s: %w", what, err)
	}
	records = directedRecords(batch)
	if got := st.EdgesStored.Load(); got != records {
		r.fail("%s stored %d records, oracle expects %d", what, got, records)
	}
	return records, wall, nil
}

// --- ingest-stream ----------------------------------------------------------

func (r *run) ingestStream() error {
	type state struct {
		edges []mssg.Edge
		n     int64
		eng   engine
		dir   string
	}
	st, err := setUp(r, func(dir string) (state, error) {
		edges, n, err := r.generate(scaleStream)
		if err != nil {
			return state{}, err
		}
		eng, err := r.open(dir, cacheStream)
		return state{edges, n, eng, dir}, err
	}, func(s state) { s.eng.Close() })
	if err != nil {
		return err
	}
	defer func() { st.eng.Close() }()
	o := newOracle(st.edges, st.n)
	probe := sweeps(o, 2*probeSweeps, gen.NewRNG(r.opt.Seed^0x73776565))
	batchOf := func(b int) []mssg.Edge {
		return st.edges[len(st.edges)*b/streamBatches : len(st.edges)*(b+1)/streamBatches]
	}

	// Measured: the stream, in equal batches, each one commit.
	r.beginMeasured(st.eng)
	var stored int64
	var ingestWall time.Duration
	var batchWall []time.Duration
	var batchRecords []int64
	for b := 0; b < streamBatches; b++ {
		records, wall, err := r.ingestBatch(st.eng, fmt.Sprintf("batch %d", b), batchOf(b))
		if err != nil {
			return err
		}
		stored += records
		ingestWall += wall
		batchWall, batchRecords = append(batchWall, wall), append(batchRecords, records)
	}
	r.ops["ingest_batches"] = streamBatches
	r.ops["records_stored"] = stored
	r.m.set("ingest_edges_per_s", float64(stored)/ingestWall.Seconds())
	quarter := streamBatches / 4
	r.m.set("ingest.rate_first_quarter", rate(batchRecords[:quarter], batchWall[:quarter]))
	r.m.set("ingest.rate_last_quarter", rate(batchRecords[streamBatches-quarter:], batchWall[streamBatches-quarter:]))

	// Correctness of the load: the stored total and sampled adjacency.
	r.attempted++
	if got := readCounters(st.eng.Databases()).EdgesStored; got != o.records {
		r.fail("databases hold %d records, oracle expects %d", got, o.records)
	}
	r.checkAdjacency(st.eng, o, 1000)
	r.exact["records_stored"] = stored

	// Read-back: whole-graph sweeps over the cache as the load left it, for
	// whatever is left of the run's seconds (at least probeSweeps).
	var qt queryTotals
	r.runGroups(st.eng, probe, r.opt.Seconds-ingestWall.Seconds(), probeSweeps, &qt)
	r.setQueryMetrics(qt.segments)
	r.endMeasured(st.eng, &qt, stored)

	bytes, err := dirBytes(st.dir)
	if err != nil {
		return err
	}
	r.m.set("disk_bytes_per_edge", float64(bytes)/float64(stored))
	r.exact["disk_bytes"] = bytes

	if r.tr != nil {
		// Overhead reference: the first quarter of the stream again,
		// untraced, into a fresh database.
		ref, err := mssg.New(r.config(filepath.Join(r.workDir, "ref"), cacheStream))
		if err != nil {
			return err
		}
		start := time.Now()
		for b := 0; b < quarter && err == nil; b++ {
			_, err = ref.IngestEdges(batchOf(b))
		}
		untraced := time.Since(start)
		ref.Close()
		if err != nil {
			return err
		}
		var traced time.Duration
		for _, w := range batchWall[:quarter] {
			traced += w
		}
		r.m.set("trace.overhead_frac", traced.Seconds()/untraced.Seconds()-1)
	}
	return r.microbench(st.dir)
}

func rate(records []int64, wall []time.Duration) float64 {
	var n int64
	var w time.Duration
	for i := range records {
		n += records[i]
		w += wall[i]
	}
	return ratio(float64(n), w.Seconds())
}

// checkAdjacency compares the stored adjacency of n seeded sample
// vertices with the oracle's.
func (r *run) checkAdjacency(eng engine, o *oracle, n int) {
	rng := gen.NewRNG(r.opt.Seed ^ 0x5eed)
	dbs := eng.Databases()
	out := mssg.AdjList{}
	for i := 0; i < n; i++ {
		v := mssg.VertexID(rng.Int63n(o.vertices))
		out.Reset()
		r.attempted++
		// default declustering: vertex v lives on node v mod p
		if err := graphdb.Adjacency(dbs[int(v)%len(dbs)], v, &out); err != nil {
			r.fail("adjacency of %d: %v", v, err)
		} else if !o.sameAdjacency(v, out.IDs()) {
			r.fail("adjacency of %d differs from the oracle (%d stored, %d expected)", v, out.Len(), o.degree(v))
		}
	}
}

// --- search-ooc / search-mem -----------------------------------------------

// loaded is a generated graph whose first part is ingested and reopened.
type loaded struct {
	edges   []mssg.Edge
	n       int64
	records int64 // stored by the set-up ingest
	eng     engine
	dir     string
	rate    float64 // set-up ingest, records/s
}

// loadGraph is the set-up of the query workloads: generate, ingest the
// first pct percent into an empty database with one commit, close it,
// reopen it.
func (r *run) loadGraph(dir string, cacheBytes int64, pct int) (loaded, error) {
	edges, n, err := r.generate(scaleSearch)
	if err != nil {
		return loaded{}, err
	}
	if pct < 100 {
		// The generator emits the hub's edges last; shuffled, every prefix
		// and every later increment is a uniform sample of the graph, so
		// the rounds of serve-mixed all serve the same kind of graph.
		rng := gen.NewRNG(r.opt.Seed ^ 0x73687566)
		for i := len(edges) - 1; i > 0; i-- {
			j := rng.Int63n(int64(i + 1))
			edges[i], edges[j] = edges[j], edges[i]
		}
	}
	eng, err := r.open(dir, cacheBytes)
	if err != nil {
		return loaded{}, err
	}
	initial := edges[:len(edges)*pct/100]
	start := time.Now()
	st, err := eng.IngestEdges(initial)
	wall := time.Since(start)
	r.attempted++
	if err == nil {
		err = eng.Close()
	} else {
		eng.Close()
	}
	if err != nil {
		return loaded{}, err
	}
	records := directedRecords(initial)
	if got := st.EdgesStored.Load(); got != records {
		r.fail("set-up ingest stored %d records, oracle expects %d", got, records)
	}
	if eng, err = r.open(dir, cacheBytes); err != nil {
		return loaded{}, err
	}
	return loaded{edges, n, records, eng, dir, float64(records) / wall.Seconds()}, nil
}

func (r *run) searchOOC() error { return r.search(cacheOOC, false) }
func (r *run) searchMem() error { return r.search(cacheMem, true) }

func (r *run) search(cacheBytes int64, resident bool) error {
	var rates []float64
	st, err := setUp(r, func(dir string) (loaded, error) {
		s, err := r.loadGraph(dir, cacheBytes, 100)
		rates = append(rates, s.rate)
		return s, err
	}, func(s loaded) { s.eng.Close() })
	if err != nil {
		return err
	}
	defer func() { st.eng.Close() }()
	r.m.set("ingest_edges_per_s", median(rates))
	bytes, err := dirBytes(st.dir)
	if err != nil {
		return err
	}
	r.m.set("disk_bytes_per_edge", float64(bytes)/float64(st.records))
	r.exact["disk_bytes"] = bytes
	r.exact["records_stored"] = st.records

	o := newOracle(st.edges, st.n)
	groups := curateLadder(o, st.edges, searchGroups, r.opt.Seed)
	if len(groups) == 0 {
		return errors.New("no query pairs could be curated")
	}
	if err := warmUp(st.eng, groups[0], st.n, resident); err != nil {
		return err
	}

	r.beginMeasured(st.eng)
	var qt queryTotals
	r.runGroups(st.eng, groups, r.opt.Seconds, 1, &qt)
	r.setQueryMetrics(qt.segments)
	r.endMeasured(st.eng, &qt, 0)
	// The first group traverses the same edges on every run of a seed. Its
	// block reads repeat only to about ±0.5 %: the two front-ends race, so
	// windows reach a store in a different order and chains land in
	// different sub-blocks from one load to the next.
	r.exact["group1.edges_traversed"] = qt.segments[0].edges
	r.ops["group1_block_reads"] = qt.segments[0].blockReads

	if r.tr != nil {
		// Overhead reference: the same warm-up and first group on the
		// public engine over the same database.
		st.eng.Close()
		ref, err := mssg.New(r.config(st.dir, cacheBytes))
		if err != nil {
			return err
		}
		st.eng = ref
		if err := warmUp(ref, groups[0], st.n, resident); err != nil {
			return err
		}
		untraced, err := timeGroup(ref, groups[0])
		if err != nil {
			return err
		}
		r.m.set("trace.overhead_frac", qt.segments[0].wall.Seconds()/untraced.Seconds()-1)
	}
	return r.microbench(st.dir)
}

// warmUp brings the engine to its steady state before timing: with a
// resident cache, one search for a vertex that does not exist sweeps the
// whole component and so loads every adjacency block; then one unmeasured
// pass over the first group, which also warms the query layer's pools.
func warmUp(eng engine, group []bfsQuery, vertices int64, resident bool) error {
	if resident {
		if _, err := eng.BFS(mssg.BFSConfig{Source: 0, Dest: mssg.VertexID(vertices), Workers: 1}); err != nil {
			return err
		}
	}
	_, err := timeGroup(eng, group)
	return err
}

// --- serve-mixed -------------------------------------------------------------

// served is one completed engine query, kept for checking after the round.
type served struct {
	q    *query.Query
	khop bool
	src  mssg.VertexID // k-hop source
	bfs  bfsQuery
}

var serveEngineConfig = mssg.QueryEngineConfig{
	MaxInFlight: 2,
	CacheBytes:  8 << 20,
	Tenants: map[string]query.TenantConfig{
		"interactive": {Weight: 3},
		"batch":       {Weight: 1, MaxInFlight: 1},
	},
}

func (r *run) serveMixed() error {
	st, err := setUp(r, func(dir string) (loaded, error) {
		return r.loadGraph(dir, cacheOOC, serveInitialPct)
	}, func(s loaded) { s.eng.Close() })
	if err != nil {
		return err
	}
	defer func() { st.eng.Close() }()

	hi := len(st.edges) * serveInitialPct / 100
	o := newOracle(st.edges[:hi], st.n)
	// The batch tenant works through this list across the rounds and wraps
	// around it; a round gets through a third of it, so no pair repeats
	// within one generation of the result cache.
	pairs := curateBand(o, st.edges[:hi], 60, r.opt.Seed, 0.2, 0.3)
	rng := gen.NewRNG(r.opt.Seed ^ 0x6b686f70)
	sources := hubNeighbours(o, 3000*serveRounds, rng)
	if len(pairs) == 0 || len(sources) == 0 {
		return errors.New("no queries could be curated")
	}
	qe, err := st.eng.NewQueryEngine(serveEngineConfig)
	if err != nil {
		return err
	}
	defer func() { qe.Close() }()

	r.beginMeasured(st.eng)
	var (
		qt       queryTotals
		khopLat  []float64 // interactive tenant, ms, cache hits included
		rates    []float64
		ingested int64
		nextPair int // the batch tenant works through its pairs across rounds
		// execution time and edges of every executed query, for the
		// traced run's overhead figure
		tracedNs, tracedEdges int64
	)
	for round := 0; round < serveRounds; round++ {
		// Commit the next increment with the engine quiesced (the graphdb
		// contract forbids readers overlapping mutators).
		lo := hi
		hi = len(st.edges) * (serveInitialPct + serveStepPct*(round+1)) / 100
		records, wall, err := r.ingestBatch(st.eng, fmt.Sprintf("round %d increment", round), st.edges[lo:hi])
		if err != nil {
			return err
		}
		ingested += records
		rates = append(rates, float64(records)/wall.Seconds())
		o = newOracle(st.edges[:hi], st.n)

		// Closed-loop traffic for a fifth of the seconds.
		fresh := sources[len(sources)*round/serveRounds : len(sources)*(round+1)/serveRounds]
		op := r.tr.begin("serve.round")
		start := time.Now()
		done, stopped := r.traffic(st.eng, qe, fresh, pairs, nextPair, rng, r.opt.Seconds/serveRounds)
		// Rates count what finished while both clients were submitting;
		// the drain after it (four queued searches, no k-hops) is not
		// steady state.
		seg := segment{wall: stopped.Sub(start)}
		execNs, execEdges := executed(done)
		op.endTraffic(execNs)
		tracedNs, tracedEdges = tracedNs+execNs, tracedEdges+execEdges

		// Check every answer against the oracle as of this round's commit.
		for _, s := range done {
			r.attempted++
			res, err := s.q.Wait()
			if err != nil {
				r.fail("round %d %s: %v", round, s.q.Label, err)
				continue
			}
			lat := float64(s.q.Finished.Sub(s.q.Submitted)) / 1e6
			var edges int64
			if s.khop {
				kr := res.(mssg.KHopResult)
				if total, _ := o.khop(s.src, serveKHop); kr.Total != total {
					r.fail("round %d khop %d: got %d, oracle %d", round, s.src, kr.Total, total)
					continue
				}
				khopLat = append(khopLat, lat)
				edges = kr.EdgesTraversed
			} else {
				br := res.(mssg.BFSResult)
				found, pl, _ := o.bfs(s.bfs.Src, s.bfs.Dst)
				if br.Found != found || br.PathLength != pl {
					r.fail("round %d BFS %d→%d: got found=%v len=%d, oracle found=%v len=%d", round, s.bfs.Src, s.bfs.Dst, br.Found, br.PathLength, found, pl)
					continue
				}
				seg.latencies = append(seg.latencies, lat)
				edges = br.EdgesTraversed
				nextPair++
				if !s.q.CacheHit {
					qt.addBFS(br)
				}
			}
			if !s.q.Finished.After(stopped) {
				seg.completed++
				if !s.q.CacheHit { // a hit traverses nothing
					seg.edges += edges
				}
			}
		}
		qt.segments = append(qt.segments, seg)
		r.ops["bfs_queries"] += int64(len(seg.latencies))
	}
	// qt.edges and qt.count cover both tenants' executed queries.
	qt.edges, qt.count = 0, 0
	for _, s := range qt.segments {
		qt.edges += s.edges
		qt.count += s.completed
	}
	r.m.set("ingest_edges_per_s", median(rates))
	r.setQueryMetrics(qt.segments)
	r.m.set("engine.khop_p50_ms", median(khopLat))
	r.m.set("engine.khop_p95_ms", quantile(khopLat, 0.95))
	r.ops["serve_rounds"] = serveRounds
	r.ops["khop_queries"] = int64(len(khopLat))
	r.ops["records_stored"] = st.records + ingested
	r.endMeasured(st.eng, &qt, ingested)

	bytes, err := dirBytes(st.dir)
	if err != nil {
		return err
	}
	r.m.set("disk_bytes_per_edge", float64(bytes)/float64(st.records+ingested))
	r.exact["disk_bytes"] = bytes
	r.exact["records_stored"] = st.records + ingested

	if r.tr != nil {
		// Overhead reference: one more round of traffic on the public
		// engine over the same database. Throughput and latency of a round
		// depend on which queries happened to overlap, so the comparison is
		// by execution time per traversed edge, over both tenants.
		qe.Close()
		st.eng.Close()
		ref, err := mssg.New(r.config(st.dir, cacheOOC))
		if err != nil {
			return err
		}
		st.eng = ref
		if qe, err = ref.NewQueryEngine(serveEngineConfig); err != nil {
			return err
		}
		refDone, _ := r.traffic(ref, qe, sources[:len(sources)/serveRounds], pairs, 0, rng, r.opt.Seconds/serveRounds)
		ns, edges := executed(refDone)
		r.m.set("trace.overhead_frac", ratio(float64(tracedNs), float64(tracedEdges))/ratio(float64(ns), float64(edges))-1)
	}
	return r.microbench(st.dir)
}

// executed sums the execution time (Started→Finished) and traversed edges
// of the queries that ran rather than hit the result cache.
func executed(done []served) (ns, edges int64) {
	for _, s := range done {
		if s.q.CacheHit || s.q.Err != nil {
			continue
		}
		ns += int64(s.q.Finished.Sub(s.q.Started))
		switch res := s.q.Result.(type) {
		case mssg.KHopResult:
			edges += res.EdgesTraversed
		case mssg.BFSResult:
			edges += res.EdgesTraversed
		}
	}
	return ns, edges
}

// traffic runs one closed-loop round and returns the completed queries and
// when the clients stopped submitting. There is one client goroutine per
// tenant, keeping interactiveOutstanding or batchOutstanding queries in
// flight and waiting for its oldest before submitting the next: six
// outstanding against two engine slots, so the tenant queues and the
// deficit round-robin are on the blocking path. "interactive" asks for the
// 2-hop neighbourhood of a source: by a seeded draw it re-issues a source
// already used this round with probability serveReissueProb (so the result
// cache's hit rate is about that, whatever the speed) and otherwise takes a
// fresh one. "batch" searches the curated pairs in order from firstPair.
// Clients stop submitting after seconds (or, with opt.Groups, after that
// many groups of ten requests each) and then drain.
func (r *run) traffic(eng engine, qe *query.Engine, fresh []mssg.VertexID, pairs []bfsQuery, firstPair int, rng *gen.RNG, seconds float64) (done []served, stopped time.Time) {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	limit := r.opt.Groups * ladderBins
	more := func(issued int) bool {
		if limit > 0 {
			return issued < limit
		}
		return time.Now().Before(deadline)
	}
	// Drawn up front, so the request sequence depends on the seed alone.
	type draw struct {
		reissue bool
		pick    int64
	}
	draws := make([]draw, len(fresh))
	for i := range draws {
		draws[i] = draw{rng.Float64() < serveReissueProb, rng.Int63n(1 << 30)}
	}

	var wg sync.WaitGroup
	var mu sync.Mutex
	client := func(outstanding int, next func(i int) (served, error)) {
		defer wg.Done()
		var flight, mine []served
		var rejected []error
		for i := 0; more(i); i++ {
			s, err := next(i)
			if err != nil { // refused (ErrRejected) or failed at submission
				rejected = append(rejected, err)
				continue
			}
			flight = append(flight, s)
			if len(flight) == outstanding {
				<-flight[0].q.Done()
				mine, flight = append(mine, flight[0]), flight[1:]
			}
		}
		for _, s := range flight {
			<-s.q.Done()
			mine = append(mine, s)
		}
		mu.Lock()
		done = append(done, mine...)
		for _, err := range rejected {
			r.attempted++
			r.fail("submit: %v", err)
		}
		mu.Unlock()
	}
	ctx := context.Background()
	used := 0 // fresh sources consumed; the interactive client's alone
	wg.Add(2)
	go client(interactiveOutstanding, func(i int) (served, error) {
		// Past the end of the curated sources every request is a re-issue.
		d := draws[i%len(draws)]
		var src mssg.VertexID
		if used == len(fresh) || d.reissue && used > 0 {
			src = fresh[d.pick%int64(used)]
		} else {
			src = fresh[used]
			used++
		}
		q, err := qe.KHopAs(ctx, "interactive", mssg.KHopConfig{Source: src, K: serveKHop})
		return served{q: q, khop: true, src: src}, err
	})
	go client(batchOutstanding, func(i int) (served, error) {
		p := pairs[(firstPair+i)%len(pairs)]
		q, err := eng.SubmitBFSAs(ctx, qe, "batch", mssg.BFSConfig{Source: p.Src, Dest: p.Dst, Workers: 1})
		return served{q: q, bfs: p}, err
	})
	wg.Wait()
	if limit > 0 { // fixed work: the window runs to the last completion
		return done, time.Now()
	}
	return done, deadline
}
