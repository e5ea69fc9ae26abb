package experiments

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"mssg/internal/cluster"
	"mssg/internal/core"
	"mssg/internal/gen"
	"mssg/internal/ingest"
	"mssg/internal/query"
)

// Migration measures what a live topology change costs the queries that
// run through it. A 2-way replicated cluster answers the same BFS
// workload in three phases: quiescent at the initial epoch, concurrently
// with a live join migration (shards streaming onto the new back-end
// while routing still obeys the old epoch), and quiescent again at the
// committed epoch. The during-migration row prices the interference: migration
// reads compete with query reads on the source back-ends, and every
// window write races the search on the destination. Hashmap back-ends
// keep the comparison about the protocol, not disk I/O.
func Migration(p *Params) (*Table, error) {
	cfg := gen.PubMedS(p.scale())
	p.logf("generating %s (%d vertices)", cfg.Name, cfg.Vertices)
	edges, err := gen.Generate(cfg)
	if err != nil {
		return nil, err
	}
	pairs := gen.RandomQueryPairs(edges, cfg.Vertices, p.queries(), 4242)

	// Three members over a four-node fabric: node 3 is the idle spare
	// the migration brings in.
	const fabricNodes = 4
	const spare = cluster.NodeID(3)
	holder, err := ingest.NewPlacementHolder("", ingest.Manifest{Committed: ingest.Placement{
		Policy: "rendezvous", Backends: fabricNodes, Replication: 2, Seed: 5,
		Nodes: []cluster.NodeID{0, 1, 2},
	}})
	if err != nil {
		return nil, err
	}
	e, err := core.New(core.Config{
		Backends:  fabricNodes,
		FrontEnds: 1,
		Backend:   "hashmap",
		Dir:       fmt.Sprintf("%s/migration", p.Dir),
		Ingest:    ingest.Config{AddReverse: true},
		Placement: holder,
	})
	if err != nil {
		return nil, err
	}
	defer e.Close()
	if _, err := e.IngestEdges(edges); err != nil {
		return nil, err
	}

	runPhase := func(stop *atomic.Bool) (time.Duration, []time.Duration, error) {
		var lats []time.Duration
		start := time.Now()
		// One full replay minimum; with a stop flag, keep cycling so the
		// sample spans the whole migration, however long it runs.
		for i := 0; ; i++ {
			pr := pairs[i%len(pairs)]
			qs := time.Now()
			if _, err := e.BFSCtx(context.Background(), query.BFSConfig{
				Source: pr[0], Dest: pr[1], Workers: 1,
			}); err != nil {
				return 0, nil, err
			}
			lats = append(lats, time.Since(qs))
			if stop == nil && i+1 == len(pairs) {
				break
			}
			if stop != nil && stop.Load() && i+1 >= len(pairs) {
				break
			}
		}
		return time.Since(start), lats, nil
	}

	epochBefore := holder.Epoch()
	p.logf("migration: quiescent baseline at epoch %d", epochBefore)
	wallBefore, before, err := runPhase(nil)
	if err != nil {
		return nil, fmt.Errorf("quiescent baseline: %w", err)
	}

	// Small windows stretch the copy pass so the concurrent workload
	// genuinely overlaps it instead of sampling a near-instant blip.
	var (
		done     atomic.Bool
		stats    ingest.MigrationStats
		migErr   error
		migWall  time.Duration
		migStart = time.Now()
	)
	migDone := make(chan struct{})
	go func() {
		defer close(migDone)
		defer done.Store(true)
		stats, migErr = e.Join(spare, ingest.MigrationConfig{WindowEdges: 64})
		migWall = time.Since(migStart)
	}()
	wallDuring, during, err := runPhase(&done)
	<-migDone
	if err != nil {
		return nil, fmt.Errorf("during migration: %w", err)
	}
	if migErr != nil {
		return nil, fmt.Errorf("join migration: %w", migErr)
	}

	epochAfter := holder.Epoch()
	p.logf("migration: committed epoch %d, re-running quiescent", epochAfter)
	wallAfter, after, err := runPhase(nil)
	if err != nil {
		return nil, fmt.Errorf("quiescent after commit: %w", err)
	}

	t := &Table{
		ID: "migration",
		Title: fmt.Sprintf("BFS latency under live shard migration (join node %d), hashmap, %d nodes",
			spare, fabricNodes),
		Header: []string{"Phase", "Epoch", "Queries", "p50(ms)", "p95(ms)", "p99(ms)", "QPS"},
		Notes: []string{
			fmt.Sprintf("migration moved %d vertex-replicas / %d edges in %d windows over %s; routing flipped %d -> %d at commit",
				stats.MovedVertices, stats.MovedEdges, stats.Windows,
				migWall.Round(time.Millisecond), epochBefore, epochAfter),
			"during-migration queries route by the old epoch while windows stream to the new member;",
			"the gap vs the quiescent rows is the cost of sharing back-ends with the copy pass",
		},
	}
	row := func(phase string, epoch uint64, wall time.Duration, lats []time.Duration) {
		t.Rows = append(t.Rows, []string{
			phase,
			fmt.Sprintf("%d", epoch),
			fmt.Sprintf("%d", len(lats)),
			ms(percentile(lats, 50)),
			ms(percentile(lats, 95)),
			ms(percentile(lats, 99)),
			fmt.Sprintf("%.1f", float64(len(lats))/wall.Seconds()),
		})
	}
	row("quiescent (before)", epochBefore, wallBefore, before)
	row("during migration", epochBefore, wallDuring, during)
	row("quiescent (after)", epochAfter, wallAfter, after)
	return t, nil
}

// percentile returns the pth latency percentile (nearest-rank).
func percentile(lats []time.Duration, p int) time.Duration {
	if len(lats) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), lats...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	idx := (len(s)*p + 99) / 100
	if idx > 0 {
		idx--
	}
	return s[idx]
}
