package experiments

import (
	"fmt"

	"mssg/internal/gen"
	"mssg/internal/graph"
	"mssg/internal/graphdb"
	"mssg/internal/query"
)

// pubmedSNodes is the paper's back-end count for the PubMed-S experiments
// (chapter 5 runs them "on 16 nodes").
const pubmedSNodes = 16

// prepareSmall generates PubMed-S' and its random query pairs.
func prepareSmall(p *Params) ([]graph.Edge, [][2]graph.VertexID, error) {
	cfg := gen.PubMedS(p.scale())
	p.logf("generating %s (%d vertices)", cfg.Name, cfg.Vertices)
	edges, err := gen.Generate(cfg)
	if err != nil {
		return nil, nil, err
	}
	pairs := gen.RandomQueryPairs(edges, cfg.Vertices, p.queries(), 4242)
	return edges, pairs, nil
}

// searchOneBackend ingests PubMed-S' into a fresh engine and runs the
// query workload.
func searchOneBackend(p *Params, label, backend string, edges []graph.Edge,
	pairs [][2]graph.VertexID, opts graphdb.Options) (*queryStats, error) {
	e, err := buildEngine(p, label, backend, pubmedSNodes, 1, opts)
	if err != nil {
		return nil, err
	}
	defer e.Close()
	if _, err := e.IngestEdges(edges); err != nil {
		return nil, err
	}
	p.logf("%s: ingested, querying", label)
	return runQueries(e, pairs, query.BFSConfig{Workers: p.Workers})
}

// Fig51 reproduces Figure 5.1: search performance of the in-memory
// GraphDB implementations on PubMed-S, by path length.
func Fig51(p *Params) (*Table, error) {
	edges, pairs, err := prepareSmall(p)
	if err != nil {
		return nil, err
	}
	runs := make(map[string]*queryStats)
	for _, backend := range []string{"array", "hashmap"} {
		qs, err := searchOneBackend(p, "fig5.1-"+backend, backend, edges, pairs, graphdb.Options{})
		if err != nil {
			return nil, fmt.Errorf("fig5.1 %s: %w", backend, err)
		}
		runs[backend] = qs
	}
	t := &Table{
		ID:     "fig5.1",
		Title:  fmt.Sprintf("avg query time (ms) by path length, %d nodes, %d random queries", pubmedSNodes, p.queries()),
		Header: []string{"PathLen", "Array(ms)", "HashMap(ms)"},
		Notes: []string{
			"paper shape: Array beats HashMap at every length; gap grows with path length",
			"(hash lookup per adjacency access, fringe grows exponentially)",
		},
	}
	for _, l := range pathLengths(runs["array"], runs["hashmap"]) {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", l),
			ms(avg(runs["array"].byLength[l])),
			ms(avg(runs["hashmap"].byLength[l])),
		})
	}
	return t, nil
}

// Fig52 reproduces Figure 5.2: BerkeleyDB and grDB with and without
// their block caches, on PubMed-S.
func Fig52(p *Params) (*Table, error) {
	edges, pairs, err := prepareSmall(p)
	if err != nil {
		return nil, err
	}
	type variant struct {
		label   string
		backend string
		opts    graphdb.Options
	}
	nocache := oocOptions()
	nocache.CacheBytes = -1
	variants := []variant{
		{"bdb+cache", "bdb", oocOptions()},
		{"bdb-nocache", "bdb", nocache},
		{"grdb+cache", "grdb", oocOptions()},
		{"grdb-nocache", "grdb", nocache},
	}
	runs := make(map[string]*queryStats)
	all := make([]*queryStats, 0, len(variants))
	for _, v := range variants {
		qs, err := searchOneBackend(p, "fig5.2-"+v.label, v.backend, edges, pairs, v.opts)
		if err != nil {
			return nil, fmt.Errorf("fig5.2 %s: %w", v.label, err)
		}
		runs[v.label] = qs
		all = append(all, qs)
	}
	t := &Table{
		ID:     "fig5.2",
		Title:  fmt.Sprintf("avg query time (ms) by path length, cache on/off, %d nodes", pubmedSNodes),
		Header: []string{"PathLen", "BDB+cache", "BDB-nocache", "grDB+cache", "grDB-nocache"},
		Notes: []string{
			"paper shape: caching cuts execution time up to ~50% on both DBs, most on long paths",
		},
	}
	for _, l := range pathLengths(all...) {
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", l),
			ms(avg(runs["bdb+cache"].byLength[l])),
			ms(avg(runs["bdb-nocache"].byLength[l])),
			ms(avg(runs["grdb+cache"].byLength[l])),
			ms(avg(runs["grdb-nocache"].byLength[l])),
		})
	}
	return t, nil
}

// Fig53 reproduces Figure 5.3: ingestion of PubMed-S into 16 back-ends,
// with 1 vs 4 front-end ingestion nodes, across five GraphDBs.
func Fig53(p *Params) (*Table, error) {
	edges, _, err := prepareSmall(p)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "fig5.3",
		Title:  fmt.Sprintf("ingestion time (s) of PubMed-S' into %d back-ends", pubmedSNodes),
		Header: []string{"GraphDB", "1 front-end (s)", "4 front-ends (s)"},
		Notes: []string{
			"paper shape: MySQL slowest by far; others comparable;",
			"extra front-ends help the slower-to-feed implementations",
		},
	}
	for _, backend := range fiveDBsSmall {
		row := []string{backend}
		for _, fe := range []int{1, 4} {
			label := fmt.Sprintf("fig5.3-%s-fe%d", backend, fe)
			e, err := buildEngine(p, label, backend, pubmedSNodes, fe, oocOptions())
			if err != nil {
				return nil, err
			}
			d, err := ingestDuration(e, edges)
			e.Close()
			if err != nil {
				return nil, fmt.Errorf("fig5.3 %s fe=%d: %w", backend, fe, err)
			}
			p.logf("fig5.3 %s fe=%d: %s", backend, fe, d)
			row = append(row, seconds(d))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Fig54 reproduces Figure 5.4: search performance of five GraphDBs on
// PubMed-S, by path length.
func Fig54(p *Params) (*Table, error) {
	edges, pairs, err := prepareSmall(p)
	if err != nil {
		return nil, err
	}
	runs := make(map[string]*queryStats)
	var all []*queryStats
	for _, backend := range fiveDBsSmall {
		qs, err := searchOneBackend(p, "fig5.4-"+backend, backend, edges, pairs, oocOptions())
		if err != nil {
			return nil, fmt.Errorf("fig5.4 %s: %w", backend, err)
		}
		runs[backend] = qs
		all = append(all, qs)
	}
	t := &Table{
		ID:     "fig5.4",
		Title:  fmt.Sprintf("avg query time (ms) by path length, %d nodes, %d random queries", pubmedSNodes, p.queries()),
		Header: append([]string{"PathLen"}, fiveDBsSmall...),
		Notes: []string{
			"paper shape: Array < HashMap < grDB < BerkeleyDB << MySQL;",
			"grDB ~33% faster than BerkeleyDB, ~1.7x slower than HashMap, ~2.9x slower than Array",
		},
	}
	for _, l := range pathLengths(all...) {
		row := []string{fmt.Sprintf("%d", l)}
		for _, backend := range fiveDBsSmall {
			row = append(row, ms(avg(runs[backend].byLength[l])))
		}
		t.Rows = append(t.Rows, row)
	}
	// Aggregate comparison row (the paper quotes whole-workload ratios).
	total := []string{"total(s)"}
	for _, backend := range fiveDBsSmall {
		total = append(total, seconds(runs[backend].totalTime))
	}
	t.Rows = append(t.Rows, total)
	return t, nil
}
