// Command mssg-ingest runs the Ingestion Service: it streams an edge
// list into a cluster of back-end GraphDB instances under a working
// directory, which mssg-query can then search.
//
// Example:
//
//	mssg-gen -preset pubmed-s -scale 0.004 -out g.txt
//	mssg-ingest -in g.txt -dir /tmp/db -backend grdb -backends 8 -frontends 2
//	mssg-query -dir /tmp/db -backend grdb -backends 8 -source 0 -dest 42
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"mssg/internal/cluster"
	"mssg/internal/core"
	"mssg/internal/graph"
	_ "mssg/internal/graphdb/all"
	"mssg/internal/graphdb/grdb"
	"mssg/internal/ingest"
	"mssg/internal/obs"
)

func main() {
	engineFlags := core.BindFlags(flag.CommandLine)
	in := flag.String("in", "", "input edge list (required)")
	format := flag.String("format", "ascii", "input format: ascii or binary")
	frontends := flag.Int("frontends", 1, "number of front-end ingestion filters")
	policy := flag.String("policy", "vertex-mod", "declustering policy: vertex-mod, edge-round-robin, or rendezvous")
	replication := flag.Int("replication", 1,
		"replicas per ingest window: each window is shipped to this many distinct back-ends via rendezvous placement (> 1 selects the rendezvous policy; mssg-query then fails over to replicas when a back-end dies)")
	placementSeed := flag.Uint64("placement-seed", 0, "rendezvous placement seed (recorded in the placement manifest)")
	join := flag.Int("join", -1,
		"elastic mode: live-migrate shards onto back-end N and commit a new placement epoch (requires an existing rendezvous placement manifest in -dir; queries keep running on the old epoch until the commit)")
	drain := flag.Int("drain", -1,
		"elastic mode: live-migrate back-end N's shards to the remaining members and commit a new placement epoch that excludes it")
	resumeMig := flag.Bool("resume-migration", false,
		"elastic mode: resume an interrupted migration from its durable checkpoint and commit it")
	abortMig := flag.Bool("abort-migration", false,
		"elastic mode: discard a pending (begun but uncommitted) migration; routing stays at the committed epoch")
	window := flag.Int("window", 4096, "ingestion window (edges per block)")
	reverse := flag.Bool("reverse", true, "store both edge orientations (undirected graph)")
	tcp := flag.Bool("tcp", false, "use the loopback-TCP fabric instead of in-process")
	faultSeed := flag.Int64("fault-seed", 0,
		"non-zero: inject deterministic faults (drops, duplicates, delays) seeded with this value")
	faultDrop := flag.Float64("fault-drop", 0.01, "fraction of messages dropped (requires -fault-seed)")
	faultCrash := flag.Int64("fault-crash", 0,
		"non-zero: crash back-end node 1 after this many outgoing sends (requires -fault-seed and -backends >= 2)")
	reliable := flag.Bool("reliable", false,
		"layer acked, deduplicated, checksummed delivery over the fabric (implied by -fault-seed)")
	deadline := flag.Duration("deadline", 0,
		"ingestion deadline (0 = none); a dead back-end or overrun aborts the run instead of hanging")
	defrag := flag.Bool("defrag", false, "run grDB chain defragmentation after ingestion (grdb backend only)")
	fsck := flag.Bool("fsck", false, "verify grDB storage invariants after ingestion (grdb backend only)")
	copyUp := flag.Bool("copyup", false, "use grDB's copy-up-on-overflow strategy instead of linking")
	flag.Parse()
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })

	elasticOps := 0
	for _, on := range []bool{*join >= 0, *drain >= 0, *resumeMig, *abortMig} {
		if on {
			elasticOps++
		}
	}
	if elasticOps > 1 {
		fatal(fmt.Errorf("-join, -drain, -resume-migration and -abort-migration are mutually exclusive"))
	}
	elastic := elasticOps == 1
	if engineFlags.Dir == "" || (!elastic && *in == "") {
		fmt.Fprintln(os.Stderr, "mssg-ingest: -in and -dir are required (elastic modes need only -dir)")
		flag.Usage()
		os.Exit(2)
	}
	if elastic && *in != "" {
		fatal(fmt.Errorf("-in is not used by elastic operations: they move data already ingested under -dir"))
	}
	if (*defrag || *fsck) && engineFlags.Backend != "grdb" {
		fmt.Fprintf(os.Stderr, "mssg-ingest: -defrag and -fsck need -backend grdb, not %q\n", engineFlags.Backend)
		os.Exit(2)
	}
	if _, err := ingest.PolicyByName(*policy); err != nil {
		fatal(err)
	}
	if *replication < 1 {
		fatal(fmt.Errorf("-replication must be >= 1, got %d", *replication))
	}
	// -replication upgrades the default policy to rendezvous; core.Config
	// rejects any other policy with replication.
	rendezvous := *policy == "rendezvous" || *policy == "hrw" || (*replication > 1 && *policy == "vertex-mod")

	cfg := engineFlags.Config
	cfg.FrontEnds = *frontends
	cfg.DBOptions.CopyUpOnOverflow = *copyUp
	cfg.Ingest = ingest.Config{
		WindowEdges:       *window,
		AddReverse:        *reverse,
		ReplicationFactor: *replication,
		Policy: func() ingest.Policy {
			if rendezvous {
				return ingest.NewRendezvous(cfg.Backends, *replication, *placementSeed)
			}
			p, _ := ingest.PolicyByName(*policy)
			return p
		},
	}
	if *tcp {
		cfg.Fabric = core.TCP
	}
	cfg.Reliable = *reliable
	cfg.IngestDeadline = *deadline
	if *faultSeed != 0 || *faultCrash > 0 || set["fault-drop"] {
		plan := cluster.SoakPlan(*faultSeed, *faultDrop)
		if *faultCrash > 0 {
			plan.Crashes = []cluster.Crash{{Node: 1, AfterSends: *faultCrash}}
		}
		cfg.Fault = &plan
		cfg.Reliable = true
	}

	// Elastic operations route by the durable placement manifest, not by
	// flags: the holder carries the committed epoch, and the fabric must
	// be wide enough to host every current member plus any join target.
	if elastic {
		h, ok, err := ingest.OpenPlacementHolder(cfg.Dir)
		if err != nil {
			fatal(fmt.Errorf("loading placement manifest: %w", err))
		}
		if !ok {
			fatal(fmt.Errorf("no placement manifest in %s: elastic operations need a directory ingested with -policy rendezvous or -replication > 1", cfg.Dir))
		}
		cfg.Placement = h
		if !set["backends"] {
			cfg.Backends = max(h.Placement().Backends, *join+1)
		}
		fmt.Fprintf(os.Stderr, "mssg-ingest: placement epoch %d, members %v over %d back-ends\n",
			h.Epoch(), h.Placement().Members(), h.Placement().Backends)
	}
	obsServer, err := obs.ServeFlag("mssg-ingest", engineFlags.MetricsAddr)
	if err != nil {
		fatal(err)
	}
	defer obsServer.Close()
	eng, err := core.New(cfg)
	if err != nil {
		fatal(err)
	}
	defer func() {
		if err := eng.Close(); err != nil {
			fatal(err)
		}
	}()

	// Graceful shutdown: report whatever the last completed run stored,
	// drain the metrics server, release the databases, then exit with the
	// conventional signal status.
	obs.OnSignal(func(sig os.Signal) {
		fmt.Fprintf(os.Stderr, "mssg-ingest: %v: shutting down\n", sig)
		if st := eng.LastIngestStats(); st != nil {
			fmt.Fprintf(os.Stderr, "mssg-ingest: last run: %d edges in, %d stored, %d blocks\n",
				st.EdgesIn.Load(), st.EdgesStored.Load(), st.Blocks.Load())
		}
		obsServer.Close()
		eng.Close()
		os.Exit(130)
	})

	if elastic {
		runElastic(eng, cfg.Placement, *join, *drain, *resumeMig, *abortMig, ingest.MigrationConfig{WindowEdges: *window})
		return
	}

	// Each front-end copy opens its own handle on the file and reads a
	// disjoint share of the stream (round-robin by edge index).
	start := time.Now()
	stats, err := eng.Ingest(func(copy int) (graph.EdgeReader, error) {
		f, err := os.Open(*in)
		if err != nil {
			return nil, err
		}
		r, err := graph.NewEdgeReader(*format, f)
		if err != nil {
			f.Close()
			return nil, err
		}
		return &strideReader{r: r, skip: *frontends, offset: copy}, nil
	})
	if err != nil {
		fatal(err)
	}
	elapsed := time.Since(start)

	// Record how the directory was declustered so mssg-query reconstructs
	// the exact mapping (and the replica directory) without re-deriving
	// flags. Written after the data so a failed ingest leaves no manifest.
	if rendezvous {
		pl := ingest.Placement{
			Policy: "rendezvous", Backends: cfg.Backends,
			Replication: *replication, Seed: *placementSeed,
		}
		if err := ingest.WritePlacementFile(cfg.Dir, pl); err != nil {
			fatal(fmt.Errorf("writing placement manifest: %w", err))
		}
	}

	replNote := ""
	if *replication > 1 {
		replNote = fmt.Sprintf(", %d-way replicated", *replication)
	}
	fmt.Printf("ingested %d edges (%d stored records, %d blocks) into %d %s back-ends%s in %s (%.0f edges/s)\n",
		stats.EdgesIn.Load(), stats.EdgesStored.Load(), stats.Blocks.Load(),
		cfg.Backends, cfg.Backend, replNote, elapsed.Round(time.Millisecond),
		float64(stats.EdgesIn.Load())/elapsed.Seconds())
	if r, d := stats.Retries.Load(), stats.DupBlocks.Load(); r > 0 || d > 0 {
		fmt.Printf("fault recovery: %d window re-ships, %d duplicate windows discarded\n", r, d)
	}

	if *defrag {
		start := time.Now()
		var rewritten int64
		for i, db := range eng.Databases() {
			n, err := db.(*grdb.DB).Defragment()
			if err != nil {
				fatal(fmt.Errorf("defragmenting node %d: %w", i, err))
			}
			rewritten += n
		}
		fmt.Printf("defragmented %d chains in %s\n", rewritten, time.Since(start).Round(time.Millisecond))
	}
	if *fsck {
		var vertices, edgeCount int64
		maxChain := 0
		for i, db := range eng.Databases() {
			rep, err := db.(*grdb.DB).Check()
			if err != nil {
				fatal(fmt.Errorf("fsck node %d: %w", i, err))
			}
			vertices += rep.Vertices
			edgeCount += rep.Edges
			if rep.MaxChain > maxChain {
				maxChain = rep.MaxChain
			}
		}
		fmt.Printf("fsck OK: %d vertices, %d stored records, max chain %d\n", vertices, edgeCount, maxChain)
	}
}

// runElastic executes one topology change against an already-ingested
// directory: join or drain a back-end, or resume/abort an interrupted
// migration. On success the placement manifest carries a new committed
// epoch; on failure the pending state and checkpoint stay on disk so the
// operation can be resumed or aborted later.
func runElastic(eng *core.Engine, holder *ingest.PlacementHolder, join, drain int, resumeMig, abortMig bool, mcfg ingest.MigrationConfig) {
	start := time.Now()
	var (
		stats ingest.MigrationStats
		verb  string
		err   error
	)
	switch {
	case abortMig:
		pending := holder.Manifest().Pending
		if err := eng.AbortMigration(); err != nil {
			fatal(fmt.Errorf("abort: %w", err))
		}
		if pending == nil {
			fmt.Println("no pending migration to abort")
			return
		}
		fmt.Printf("aborted pending migration to epoch %d; routing stays at epoch %d, members %v\n",
			pending.Epoch, holder.Epoch(), holder.Placement().Members())
		return
	case resumeMig:
		var resumed bool
		stats, resumed, err = eng.ResumeMigration(mcfg)
		if err == nil && !resumed {
			fmt.Println("no pending migration to resume")
			return
		}
		verb = "resumed migration"
	case join >= 0:
		stats, err = eng.Join(cluster.NodeID(join), mcfg)
		verb = fmt.Sprintf("joined back-end %d", join)
	case drain >= 0:
		stats, err = eng.Drain(cluster.NodeID(drain), mcfg)
		verb = fmt.Sprintf("drained back-end %d", drain)
	}
	if err != nil {
		if holder.Manifest().Pending != nil {
			err = fmt.Errorf("%w (the pending migration is kept: retry with -resume-migration or discard with -abort-migration)", err)
		}
		fatal(fmt.Errorf("%s: %w", verb, err))
	}
	pl := holder.Placement()
	fmt.Printf("%s: committed epoch %d, members %v\n", verb, holder.Epoch(), pl.Members())
	fmt.Printf("moved %d vertex-replicas (%d edges + %d catch-up) in %d windows (%d duplicates) in %s\n",
		stats.MovedVertices, stats.MovedEdges, stats.CatchupEdges,
		stats.Windows, stats.DupWindows, time.Since(start).Round(time.Millisecond))
}

// strideReader deals every skip-th edge to this front-end, starting at
// offset — a simple deterministic partition of one shared input file.
type strideReader struct {
	r      graph.EdgeReader
	skip   int
	offset int
	pos    int
}

func (s *strideReader) ReadEdge() (graph.Edge, error) {
	for {
		e, err := s.r.ReadEdge()
		if err != nil {
			return graph.Edge{}, err
		}
		mine := s.pos%s.skip == s.offset
		s.pos++
		if mine {
			return e, nil
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mssg-ingest:", err)
	os.Exit(1)
}
