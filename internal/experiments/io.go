package experiments

import (
	"fmt"
	"time"

	"mssg/internal/gen"
	"mssg/internal/graphdb"
	"mssg/internal/graphdb/grdb"
	"mssg/internal/query"
)

// IOEngine ablates the semi-external I/O engine (DESIGN.md §13) on the
// out-of-core grDB: asynchronous fringe prefetch and delta-varint block
// compression, alone and combined, against the plain configuration every
// other experiment uses.
//
// The disk model is deliberately harsher than oocOptions(): a smaller
// cache budget so the working set spills, and a per-byte transfer
// latency on top of the per-access seek so compression's byte savings
// show up in wall-clock, not just in the byte counters — the regime the
// engine is for.
const (
	ioBackends = 4
	// ioFrontEnds matters only for ingest fan-in; queries use one.
	ioFrontEnds = 2
	// ioCacheBytes is ~1/8 of oocOptions' budget: small enough that a
	// PubMed-S' partition does not fit, so steady-state queries do real
	// reads.
	ioCacheBytes = 256 << 10
	// ioTransferLatency charges per byte actually moved (DESIGN.md §2),
	// ≈ 25 µs per 256-byte block when uncompressed.
	ioTransferLatency = 100 * time.Nanosecond
)

// ioConfig is one ablation point.
type ioConfig struct {
	name     string
	prefetch bool
	compress bool
}

func ioConfigs() []ioConfig {
	return []ioConfig{
		{name: "baseline"},
		{name: "prefetch", prefetch: true},
		{name: "compress", compress: true},
		{name: "all", prefetch: true, compress: true},
	}
}

// ioSnapshot sums physical I/O counters across an engine's databases.
type ioSnapshot struct {
	blockReads, blockWrites int64
	bytesRead, bytesWritten int64
}

func snapshotIO(dbs []graphdb.Graph) ioSnapshot {
	var s ioSnapshot
	for _, db := range dbs {
		if c, ok := db.(graphdb.IOCounters); ok {
			r, w := c.IOCounters()
			s.blockReads += r
			s.blockWrites += w
		}
		if g, ok := db.(*grdb.DB); ok {
			br, bw := g.IOBytes()
			s.bytesRead += br
			s.bytesWritten += bw
		}
	}
	return s
}

func (s ioSnapshot) sub(prev ioSnapshot) ioSnapshot {
	return ioSnapshot{
		blockReads:   s.blockReads - prev.blockReads,
		blockWrites:  s.blockWrites - prev.blockWrites,
		bytesRead:    s.bytesRead - prev.bytesRead,
		bytesWritten: s.bytesWritten - prev.bytesWritten,
	}
}

// IOEngine runs the ablation table.
func IOEngine(p *Params) (*Table, error) {
	cfg := gen.PubMedS(p.scale())
	edges, err := gen.Generate(cfg)
	if err != nil {
		return nil, err
	}
	pairs := gen.RandomQueryPairs(edges, cfg.Vertices, p.queries(), 99)

	// The ablation axes are the experiment's own sweep; a copy with the
	// global -prefetch/-compress flags cleared keeps buildEngine from
	// contaminating the baseline rows.
	pIO := *p
	pIO.Prefetch, pIO.Compress = false, false

	t := &Table{
		ID:     "io",
		Title:  fmt.Sprintf("semi-external I/O engine ablation, PubMed-S' scale=%g, grDB b=%d", p.scale(), ioBackends),
		Header: []string{"config", "ingest(s)", "avg query(ms)", "edges/s", "qry blk reads", "qry MB read"},
		Notes: []string{
			"all (prefetch+compress) should beat baseline on edges/s",
			"compress rows should read fewer bytes than their uncompressed counterparts",
			fmt.Sprintf("disk model: %v/block access + %v/byte, cache %d KB/node (working set spills)",
				SimLatency, ioTransferLatency, ioCacheBytes>>10),
		},
	}

	for _, c := range ioConfigs() {
		opts := oocOptions()
		opts.CacheBytes = ioCacheBytes
		opts.SimTransferLatency = ioTransferLatency
		opts.Compress = c.compress
		e, err := buildEngine(&pIO, "io-"+c.name, "grdb", ioBackends, ioFrontEnds, opts)
		if err != nil {
			return nil, fmt.Errorf("io %s: %w", c.name, err)
		}
		ingest, err := ingestDuration(e, edges)
		if err != nil {
			e.Close()
			return nil, fmt.Errorf("io %s ingest: %w", c.name, err)
		}
		p.logf("io %s: ingest %s", c.name, ingest)

		before := snapshotIO(e.Databases())
		qs, err := runQueries(e, pairs, query.BFSConfig{Workers: 1, Prefetch: c.prefetch})
		after := snapshotIO(e.Databases())
		e.Close()
		if err != nil {
			return nil, fmt.Errorf("io %s query: %w", c.name, err)
		}
		d := after.sub(before)

		var all []time.Duration
		for _, b := range qs.byLength {
			all = append(all, b...)
		}
		t.Rows = append(t.Rows, []string{
			c.name,
			seconds(ingest),
			ms(avg(all)),
			edgesPerSec(qs.totalEdges, qs.totalTime),
			fmt.Sprintf("%d", d.blockReads),
			fmt.Sprintf("%.2f", float64(d.bytesRead)/(1<<20)),
		})
	}
	return t, nil
}
