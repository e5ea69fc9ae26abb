// Command mssg-query runs parallel out-of-core BFS queries against a
// database previously built by mssg-ingest. The -backend/-backends flags
// must match the ingestion run (the working directory holds one database
// per back-end node).
//
// Example:
//
//	mssg-query -dir /tmp/db -backend grdb -backends 8 -source 0 -dest 42
//	mssg-query -dir /tmp/db -backend grdb -backends 8 -random 100 -maxvertex 15000
//
// With -serve it becomes a resident query service: it reads one query
// per line from stdin, runs them concurrently through the admission-
// controlled scheduler, and prints each result as it completes:
//
//	printf 'bfs 0 42\nkhop 0 3\ncomponent 7\n' |
//	    mssg-query -dir /tmp/db -backends 8 -serve -max-inflight 4
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"mssg/internal/cluster"
	"mssg/internal/core"
	"mssg/internal/gen"
	"mssg/internal/graph"
	"mssg/internal/graphdb"
	_ "mssg/internal/graphdb/all"
	"mssg/internal/ingest"
	"mssg/internal/obs"
	"mssg/internal/query"
)

// Exit statuses: 1 = operational error, 2 = usage, 3 = partial coverage
// (every replica of a required shard was unreachable — the answer is
// missing or, under -allow-partial, a lower bound).
const exitPartial = 3

func main() {
	dir := flag.String("dir", "", "database working directory (required)")
	backend := flag.String("backend", "grdb", "GraphDB backend used at ingestion")
	backends := flag.Int("backends", 8, "number of back-end nodes used at ingestion")
	source := flag.Int64("source", -1, "source vertex")
	dest := flag.Int64("dest", -1, "destination vertex")
	random := flag.Int("random", 0, "instead of -source/-dest, run this many random queries")
	maxVertex := flag.Int64("maxvertex", 0, "vertex id bound for -random")
	seed := flag.Int64("seed", 4242, "seed for -random")
	pipelined := flag.Bool("pipelined", false, "use the pipelined BFS (Algorithm 2)")
	threshold := flag.Int("threshold", 1024, "pipelined fringe chunk threshold")
	broadcast := flag.Bool("broadcast", false, "broadcast fringes (for edge-granularity databases)")
	prefetch := flag.Bool("prefetch", false, "warm the block cache per level with offset-sorted prefetch (grDB)")
	workers := flag.Int("workers", 0, "fringe-expansion goroutines per back-end node (0 = GOMAXPROCS, 1 = serial)")
	showPath := flag.Bool("path", false, "also reconstruct and print the shortest path")
	extVisited := flag.String("extvisited", "", "directory for an external-memory visited structure (default: in-memory)")
	khop := flag.Int("khop", 0, "instead of a path query, count vertices within k hops of -source")
	component := flag.Bool("component", false, "instead of a path query, measure -source's connected component")
	listAnalyses := flag.Bool("list-analyses", false, "list registered Query Service analyses and exit")
	serve := flag.Bool("serve", false, "read queries from stdin and run them concurrently (one per line: 'bfs S D', 'khop S K', 'component S', or '<analysis> key=value ...')")
	maxInflight := flag.Int("max-inflight", 4, "serve mode: concurrently executing queries")
	queueDepth := flag.Int("queue-depth", 16, "serve mode: admitted-but-not-running queries before rejection (per tenant)")
	queryTimeout := flag.Duration("query-timeout", 0, "serve mode: per-query deadline, starting when the query begins executing (0 = none)")
	tenantSpec := flag.String("tenants", "",
		"serve mode: per-tenant fair-share weights as 'name:weight,...' (e.g. 'alice:4,bob:1'); prefix a query line with @name to submit as that tenant, unprefixed lines use the 'default' tenant")
	tenantInflight := flag.Int("tenant-inflight", 0, "serve mode: per-tenant cap on concurrently executing queries (0 = no per-tenant cap)")
	tenantQueue := flag.Int("tenant-queue", 0, "serve mode: per-tenant queue depth (0 = inherit -queue-depth)")
	cacheMB := flag.Int64("cache-mb", 0,
		"serve mode: epoch-keyed result cache budget in MB; repeated identical queries against an unchanged graph are answered from the cache (0 = disabled)")
	deadList := flag.String("dead", "",
		"comma-separated back-end ids to treat as crashed: their databases are never read, so queries must fail over to surviving replicas (for failover drills)")
	allowPartial := flag.Bool("allow-partial", false,
		"when every replica of a required shard is dead, degrade to a best-effort answer with an explicit coverage fraction instead of failing (partial results exit with status 3)")
	compress := flag.Bool("compress", false,
		"the databases were ingested with delta-varint block compression (grDB; must match the ingest setting)")
	durability := flag.String("durability", "none",
		"crash safety mode the database was ingested with: none or full (must match, checksum sidecars are only kept under full)")
	verifyOnOpen := flag.Bool("verify-on-open", false,
		"run the backend's structural consistency check after recovery when opening each database")
	metricsAddr := flag.String("metrics-addr", "",
		"serve live /metrics, /trace and /debug/pprof on this address (e.g. :8080); also enables per-op backend latency histograms")
	flag.Parse()

	if *listAnalyses {
		for _, name := range query.Analyses() {
			a, _ := query.LookupAnalysis(name)
			fmt.Printf("%-10s %s\n", name, a.Describe())
		}
		return
	}

	if *dir == "" {
		fmt.Fprintln(os.Stderr, "mssg-query: -dir is required")
		flag.Usage()
		os.Exit(2)
	}
	durLevel, err := graphdb.ParseDurability(*durability)
	if err != nil {
		fatal(err)
	}
	cfg := core.Config{
		Backends: *backends,
		Backend:  *backend,
		Dir:      *dir,
		DBOptions: graphdb.Options{
			Durability: durLevel, VerifyOnOpen: *verifyOnOpen,
			Compress: *compress,
		},
	}
	cfg.AllowPartial = *allowPartial
	// A placement manifest (written by a rendezvous/replicated ingest)
	// reconstructs the exact ingest-time mapping: queries route fringes by
	// the recorded policy, restrict themselves to the committed member
	// roster, and fail over to replicas when a back-end dies. The holder
	// keeps the snapshot reloadable, so a long-lived -serve process picks
	// up a migration committed by another process.
	var holder *ingest.PlacementHolder
	if h, ok, err := ingest.OpenPlacementHolder(*dir); err != nil {
		fatal(err)
	} else if ok {
		pl := h.Placement()
		if pl.Backends > *backends {
			fatal(fmt.Errorf("placement manifest spans %d back-ends but -backends is %d", pl.Backends, *backends))
		}
		holder = h
		cfg.Placement = holder
		fmt.Fprintf(os.Stderr, "mssg-query: placement: %s over %d back-ends, %d-way replicated, epoch %d, members %v\n",
			pl.Policy, pl.Backends, pl.Replication, pl.Epoch, pl.Members())
		if p := h.Manifest().Pending; p != nil {
			fmt.Fprintf(os.Stderr, "mssg-query: warning: a migration to epoch %d is pending (begun but not committed); routing stays at epoch %d until it commits — resume or abort it with mssg-ingest\n",
				p.Epoch, pl.Epoch)
		}
	}
	var obsServer *obs.Server
	if *metricsAddr != "" {
		cfg.Metrics = obs.Default()
		s, err := obs.Serve(*metricsAddr, nil, nil)
		if err != nil {
			fatal(err)
		}
		obsServer = s
		fmt.Fprintf(os.Stderr, "mssg-query: metrics on http://%s/metrics\n", s.Addr())
	}
	defer obsServer.Close()
	eng, err := core.New(cfg)
	if err != nil {
		fatal(err)
	}
	defer eng.Close()

	// Graceful shutdown: drain the metrics server (a final scrape sees
	// the counters of every completed query) and release the databases.
	obs.OnSignal(func(sig os.Signal) {
		fmt.Fprintf(os.Stderr, "mssg-query: %v: shutting down\n", sig)
		obsServer.Close()
		eng.Close()
		os.Exit(130)
	})

	ownership := query.KnownMapping
	if *broadcast {
		ownership = query.BroadcastFringe
	}

	// -dead ids are validated against the committed placement's member
	// roster (or [0, backends) without a manifest): a typo'd or drained
	// node would silently drill the wrong failover scenario, so every
	// unknown id is collected and the run fails fast with the full list.
	var activeNodes []cluster.NodeID
	if *deadList != "" {
		members := make([]cluster.NodeID, 0, *backends)
		if holder != nil {
			members = holder.Placement().Members()
		} else {
			for i := 0; i < *backends; i++ {
				members = append(members, cluster.NodeID(i))
			}
		}
		isMember := func(n int) bool {
			for _, m := range members {
				if int(m) == n {
					return true
				}
			}
			return false
		}
		dead := map[int]bool{}
		var unknown []string
		for _, s := range strings.Split(*deadList, ",") {
			s = strings.TrimSpace(s)
			if n, err := strconv.Atoi(s); err == nil && isMember(n) {
				dead[n] = true
			} else {
				unknown = append(unknown, fmt.Sprintf("%q", s))
			}
		}
		if len(unknown) > 0 {
			fatal(fmt.Errorf("-dead: unknown back-end id(s) %s (placement members: %v)",
				strings.Join(unknown, ", "), members))
		}
		for _, m := range members {
			if !dead[int(m)] {
				activeNodes = append(activeNodes, m)
			}
		}
		if len(activeNodes) == 0 {
			fatal(fmt.Errorf("-dead: every member of %v is declared dead", members))
		}
		fmt.Fprintf(os.Stderr, "mssg-query: treating %d back-end(s) as crashed, querying %v\n",
			len(dead), activeNodes)
	}

	base := query.BFSConfig{
		Routing:   query.Routing{Ownership: ownership, ActiveNodes: activeNodes},
		Pipelined: *pipelined, Threshold: *threshold,
		Prefetch: *prefetch, Workers: *workers,
	}
	if *serve {
		tenants, err := parseTenantSpec(*tenantSpec, *tenantInflight, *tenantQueue)
		if err != nil {
			fatal(err)
		}
		runServe(eng, holder, query.EngineConfig{
			MaxInFlight:     *maxInflight,
			QueueDepth:      *queueDepth,
			DefaultDeadline: *queryTimeout,
			Tenants:         tenants,
			DefaultTenant:   query.TenantConfig{MaxInFlight: *tenantInflight, QueueDepth: *tenantQueue},
			CacheBytes:      *cacheMB << 20,
		}, base)
		return
	}
	var newVisited func(cluster.NodeID) (query.Visited, error)
	if *extVisited != "" {
		var seq atomic.Int64
		newVisited = func(n cluster.NodeID) (query.Visited, error) {
			q := seq.Add(1)
			return query.NewExtVisited(fmt.Sprintf("%s/q%d-n%d", *extVisited, q, n), 0)
		}
	}

	switch {
	case *khop > 0:
		if *source < 0 {
			fatal(fmt.Errorf("-khop needs -source"))
		}
		kh, err := eng.KHop(query.KHopConfig{
			Source: graph.VertexID(*source), K: *khop,
			Routing: base.Routing, Prefetch: base.Prefetch,
		})
		if err != nil {
			fatalQuery(err)
		}
		fmt.Printf("within %d hops of %d: %d vertices (per level: %v, %d edges traversed)\n",
			*khop, *source, kh.Total, kh.PerLevel, kh.EdgesTraversed)
		printFailover(kh.Failover)
		if kh.Coverage < 1 {
			fmt.Printf("partial: coverage %.2f (%d fringe vertices dropped; the count is a lower bound)\n",
				kh.Coverage, kh.Dropped)
			os.Exit(exitPartial)
		}
		return
	case *component:
		if *source < 0 {
			fatal(fmt.Errorf("-component needs -source"))
		}
		comp, err := query.ParallelComponent(context.Background(), eng, graph.VertexID(*source), ownership)
		if err != nil {
			fatalQuery(err)
		}
		fmt.Printf("component of %d: %d vertices, eccentricity %d (%d edges traversed)\n",
			*source, comp.Size, comp.Eccentricity, comp.EdgesTraversed)
		return
	}

	sawPartial := false
	runOne := func(s, d graph.VertexID) error {
		start := time.Now()
		cfg := base
		cfg.Source, cfg.Dest, cfg.NewVisited, cfg.ReturnPath = s, d, newVisited, *showPath
		res, err := eng.BFS(cfg)
		if err != nil {
			return err
		}
		el := time.Since(start)
		if res.Found {
			fmt.Printf("%d -> %d: path length %d (%d levels, %d edges traversed, %s, %.0f edges/s)\n",
				s, d, res.PathLength, res.Levels, res.EdgesTraversed,
				el.Round(time.Microsecond), float64(res.EdgesTraversed)/el.Seconds())
			if res.Path != nil {
				fmt.Printf("  path: %v\n", res.Path)
			}
		} else {
			fmt.Printf("%d -> %d: not connected (%d levels, %d edges traversed, %s)\n",
				s, d, res.Levels, res.EdgesTraversed, el.Round(time.Microsecond))
		}
		printFailover(res.Failover)
		if res.Coverage < 1 {
			fmt.Printf("  partial: coverage %.2f (%d fringe vertices dropped; treat the answer as a lower bound)\n",
				res.Coverage, res.FringeDropped)
			sawPartial = true
		}
		return nil
	}

	switch {
	case *random > 0:
		if *maxVertex <= 1 {
			fatal(fmt.Errorf("-random needs -maxvertex"))
		}
		rng := gen.NewRNG(*seed)
		for i := 0; i < *random; i++ {
			s := graph.VertexID(rng.Int63n(*maxVertex))
			d := graph.VertexID(rng.Int63n(*maxVertex))
			if s == d {
				continue
			}
			if err := runOne(s, d); err != nil {
				fatalQuery(err)
			}
		}
	case *source >= 0 && *dest >= 0:
		if err := runOne(graph.VertexID(*source), graph.VertexID(*dest)); err != nil {
			fatalQuery(err)
		}
	default:
		fmt.Fprintln(os.Stderr, "mssg-query: need -source and -dest, or -random with -maxvertex")
		os.Exit(2)
	}
	if sawPartial {
		os.Exit(exitPartial)
	}
}

// printFailover reports a query's failover accounting when it had any.
func printFailover(fo *query.FailoverStats) {
	if fo != nil && (fo.Retries > 0 || fo.ReplicaReads > 0) {
		fmt.Printf("  failover: %d retries, %d replica reads, suspected %v\n",
			fo.Retries, fo.ReplicaReads, fo.Suspected)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mssg-query:", err)
	os.Exit(1)
}

// fatalQuery distinguishes lost data from operational failure: a
// partial-coverage error (every replica of a shard unreachable) exits
// with status 3 and a one-line coverage summary, so drivers can tell
// "retry elsewhere / accept a lower bound" from "the query is broken".
func fatalQuery(err error) {
	if errors.Is(err, query.ErrPartialCoverage) {
		fmt.Fprintf(os.Stderr, "mssg-query: partial coverage: %s (rerun with -allow-partial for a best-effort answer)\n",
			strings.ReplaceAll(err.Error(), "\n", "; "))
		os.Exit(exitPartial)
	}
	fatal(err)
}

// runServe is the resident mode: queries stream in on stdin, run
// concurrently under the scheduler's admission control, and results
// print as they complete (tagged by query id, so interleaving is fine).
func runServe(eng *core.Engine, holder *ingest.PlacementHolder, ecfg query.EngineConfig, base query.BFSConfig) {
	qe, err := eng.NewQueryEngine(ecfg)
	if err != nil {
		fatal(err)
	}
	var out sync.Mutex
	// tag prefixes non-default tenants, so single-tenant output is
	// unchanged from earlier releases.
	tag := func(q *query.Query) string {
		if q.Tenant == query.DefaultTenantName {
			return q.Label
		}
		return "@" + q.Tenant + " " + q.Label
	}
	report := func(q *query.Query) {
		res, err := q.Wait()
		out.Lock()
		defer out.Unlock()
		latency := q.Finished.Sub(q.Submitted).Round(time.Microsecond)
		switch {
		case err != nil:
			fmt.Printf("[%d] %s: error: %v (%s)\n", q.ID, tag(q), err, latency)
		case q.CacheHit:
			fmt.Printf("[%d] %s: %s (cached)\n", q.ID, tag(q), formatResult(res))
		default:
			fmt.Printf("[%d] %s: %s (%s)\n", q.ID, tag(q), formatResult(res), latency)
		}
	}

	var wg sync.WaitGroup
	submit := func(line string) {
		q, err := parseAndSubmit(qe, base, line)
		if err != nil {
			out.Lock()
			fmt.Printf("? %q: %v\n", line, err)
			out.Unlock()
			return
		}
		if !q.CacheHit {
			out.Lock()
			fmt.Printf("[%d] %s: submitted\n", q.ID, tag(q))
			out.Unlock()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			report(q)
		}()
	}

	sc := bufio.NewScanner(os.Stdin)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		// A resident server outlives migrations committed by other
		// processes: re-read the manifest before admitting each query so a
		// stale roster never routes to drained nodes. A newer epoch swaps
		// in atomically; queries already in flight finish on the snapshot
		// they started with.
		if holder != nil {
			if changed, err := holder.Reload(); err != nil {
				out.Lock()
				fmt.Fprintf(os.Stderr, "mssg-query: placement reload: %v\n", err)
				out.Unlock()
			} else if changed {
				pl := holder.Placement()
				out.Lock()
				fmt.Fprintf(os.Stderr, "mssg-query: placement moved to epoch %d, members %v\n",
					pl.Epoch, pl.Members())
				out.Unlock()
			}
		}
		submit(line)
	}
	if err := sc.Err(); err != nil {
		fatal(err)
	}
	wg.Wait()
	if err := qe.Close(); err != nil {
		fatal(err)
	}
	st := qe.Stats()
	fmt.Fprintf(os.Stderr, "mssg-query: served %d queries (%d completed, %d cancelled, %d failed, %d rejected, %d cache hits)\n",
		st.Admitted, st.Completed, st.Cancelled, st.Failed, st.Rejected, st.CacheHits)
	if len(st.Tenants) > 1 {
		names := make([]string, 0, len(st.Tenants))
		for name := range st.Tenants {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			ts := st.Tenants[name]
			fmt.Fprintf(os.Stderr, "mssg-query:   tenant %-12s %d admitted, %d completed, %d rejected, %d cache hits\n",
				name, ts.Admitted, ts.Completed, ts.Rejected, ts.CacheHits)
		}
	}
}

// parseTenantSpec parses -tenants ("alice:4,bob:1") into per-tenant
// configs, applying the -tenant-inflight/-tenant-queue template to each
// listed tenant.
func parseTenantSpec(spec string, inflight, queue int) (map[string]query.TenantConfig, error) {
	if spec == "" {
		return nil, nil
	}
	tenants := make(map[string]query.TenantConfig)
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, ws, ok := strings.Cut(part, ":")
		if !ok {
			return nil, fmt.Errorf("-tenants: %q is not name:weight", part)
		}
		w, err := strconv.Atoi(ws)
		if err != nil || w < 1 {
			return nil, fmt.Errorf("-tenants: weight %q of tenant %q must be a positive integer", ws, name)
		}
		if _, dup := tenants[name]; dup {
			return nil, fmt.Errorf("-tenants: tenant %q listed twice", name)
		}
		tenants[name] = query.TenantConfig{Weight: w, MaxInFlight: inflight, QueueDepth: queue}
	}
	return tenants, nil
}

// parseAndSubmit turns one stdin line into a submitted query. An
// optional leading '@tenant' token selects the submitting tenant
// ("@alice bfs 0 42"); unprefixed lines run as the default tenant.
// The bfs shortcut carries the command line's BFS knobs; everything else
// goes through the analysis registry as key=value params. Every form runs
// with the core engine's routing and failover.
func parseAndSubmit(qe *query.Engine, base query.BFSConfig, line string) (*query.Query, error) {
	fields := strings.Fields(line)
	tenant := query.DefaultTenantName
	if strings.HasPrefix(fields[0], "@") {
		tenant = fields[0][1:]
		fields = fields[1:]
		if tenant == "" || len(fields) == 0 {
			return nil, fmt.Errorf("usage: @tenant <query...>")
		}
	}
	name, args := fields[0], fields[1:]
	switch name {
	case "bfs":
		if len(args) != 2 {
			return nil, fmt.Errorf("usage: bfs <source> <dest>")
		}
		var s, d int64
		if _, err := fmt.Sscanf(args[0]+" "+args[1], "%d %d", &s, &d); err != nil {
			return nil, err
		}
		cfg := base
		cfg.Source, cfg.Dest = graph.VertexID(s), graph.VertexID(d)
		return qe.BFSAs(context.Background(), tenant, cfg)
	case "khop":
		if len(args) != 2 {
			return nil, fmt.Errorf("usage: khop <source> <k>")
		}
		return qe.SubmitAs(context.Background(), tenant, "khop", map[string]string{
			"source": args[0], "k": args[1],
		})
	case "component":
		if len(args) != 1 {
			return nil, fmt.Errorf("usage: component <source>")
		}
		return qe.SubmitAs(context.Background(), tenant, "component", map[string]string{
			"source": args[0],
		})
	}
	params := make(map[string]string, len(args))
	for _, kv := range args {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("bad param %q (want key=value)", kv)
		}
		params[k] = v
	}
	return qe.SubmitAs(context.Background(), tenant, name, params)
}

func formatResult(res any) string {
	switch r := res.(type) {
	case query.BFSResult:
		if !r.Found {
			return fmt.Sprintf("not connected (%d levels, %d edges traversed)", r.Levels, r.EdgesTraversed)
		}
		s := fmt.Sprintf("path length %d (%d edges traversed)", r.PathLength, r.EdgesTraversed)
		if r.Path != nil {
			s += fmt.Sprintf(" path=%v", r.Path)
		}
		return s
	case query.KHopResult:
		return fmt.Sprintf("%d vertices within %d hops (per level: %v)", r.Total, len(r.PerLevel), r.PerLevel)
	case query.ComponentResult:
		return fmt.Sprintf("component of %d vertices, eccentricity %d", r.Size, r.Eccentricity)
	}
	return fmt.Sprintf("%+v", res)
}
