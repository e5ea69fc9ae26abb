// Command mssg-bench regenerates the tables and figures of the paper's
// evaluation (chapter 5). Each experiment prints an aligned text table
// with notes on the shape the paper reports.
//
// Usage:
//
//	mssg-bench [flags] <experiment>|all
//
// Experiments: table5.1 fig5.1 fig5.2 fig5.3 fig5.4 fig5.5 fig5.6 fig5.7
// fig5.8 fig5.9.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"mssg/internal/experiments"
	"mssg/internal/graphdb"
	"mssg/internal/graphdb/grdb"
	"mssg/internal/obs"
)

func main() {
	scale := flag.Float64("scale", experiments.DefaultScale,
		"fraction of the paper's vertex counts to generate")
	queries := flag.Int("queries", 30, "random BFS queries per search experiment (paper: 100)")
	dir := flag.String("dir", "", "scratch directory (default: a temp dir, removed on exit)")
	verbose := flag.Bool("v", false, "print progress")
	workers := flag.Int("workers", 0,
		"fringe-expansion goroutines per back-end node (0 = GOMAXPROCS, 1 = serial)")
	concurrency := flag.Int("concurrency", 8,
		"top in-flight query count for the qps experiment (sweep doubles 1 -> this)")
	faultSeed := flag.Int64("fault-seed", 0,
		"non-zero: run over a fault-injecting fabric (1% drops) masked by reliable delivery, seeded with this value")
	deadline := flag.Duration("deadline", 0,
		"per-ingestion deadline (0 = none); overruns abort the experiment instead of hanging")
	metricsAddr := flag.String("metrics-addr", "",
		"serve live /metrics, /trace and /debug/pprof on this address during the run; implies -json auto")
	jsonOut := flag.String("json", "",
		"write a machine-readable BENCH report: a path, or \"auto\" for BENCH_<timestamp>.json")
	prefetch := flag.Bool("prefetch", false,
		"enable pipelined fringe prefetch in every search experiment's BFS (grDB; other backends ignore it)")
	compress := flag.Bool("compress", false,
		"open every out-of-core grDB with delta-varint block compression")
	check := flag.Bool("check", false,
		"instead of an experiment, scrub every grDB node database under the <dir> argument: verify all block checksums, quarantine and repair corrupt blocks, and run the structural check")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: %s [flags] <experiment>...|all\n       %s -check <dir>\n\nexperiments:\n", os.Args[0], os.Args[0])
		for _, e := range experiments.All() {
			fmt.Fprintf(os.Stderr, "  %-9s  %s\n", e.ID, e.Desc)
		}
		fmt.Fprintln(os.Stderr, "\nflags:")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() < 1 || (*check && flag.NArg() != 1) {
		flag.Usage()
		os.Exit(2)
	}

	if *check {
		runCheck(flag.Arg(0))
		return
	}

	workDir := *dir
	if workDir == "" {
		td, err := os.MkdirTemp("", "mssg-bench-*")
		if err != nil {
			fatal(err)
		}
		defer os.RemoveAll(td)
		workDir = td
	}

	if *metricsAddr != "" && *jsonOut == "" {
		*jsonOut = "auto"
	}

	p := &experiments.Params{
		Scale: *scale, Queries: *queries, Dir: workDir, Workers: *workers,
		Concurrency: *concurrency,
		FaultSeed:   *faultSeed, Deadline: *deadline,
		Prefetch: *prefetch, Compress: *compress,
		// A bench that reports latency percentiles and cache hit rates
		// needs the gated per-op metrics on.
		Metrics: *jsonOut != "" || *metricsAddr != "",
	}
	if *verbose {
		p.Verbose = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, "[%s] "+format+"\n",
				append([]any{time.Now().Format("15:04:05")}, args...)...)
		}
	}

	if *metricsAddr != "" {
		s, err := obs.Serve(*metricsAddr, nil, nil)
		if err != nil {
			fatal(err)
		}
		defer s.Close()
		fmt.Fprintf(os.Stderr, "mssg-bench: metrics on http://%s/metrics\n", s.Addr())
	}

	var toRun []experiments.Experiment
	if flag.NArg() == 1 && flag.Arg(0) == "all" {
		toRun = experiments.All()
	} else {
		for _, id := range flag.Args() {
			e, ok := experiments.ByID(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "unknown experiment %q\n", id)
				flag.Usage()
				os.Exit(2)
			}
			toRun = append(toRun, e)
		}
	}

	// Completed results accumulate under a lock so a SIGINT/SIGTERM can
	// dump a partial report instead of losing the finished experiments.
	var (
		resMu   sync.Mutex
		results []experimentResult
	)
	dump := func(interrupted bool) {
		if *jsonOut == "" {
			return
		}
		resMu.Lock()
		snap := make([]experimentResult, len(results))
		copy(snap, results)
		resMu.Unlock()
		path, err := writeReport(buildReport(p, snap, interrupted), *jsonOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mssg-bench: writing report:", err)
			return
		}
		fmt.Fprintf(os.Stderr, "mssg-bench: report written to %s\n", path)
	}
	obs.OnSignal(func(sig os.Signal) {
		fmt.Fprintf(os.Stderr, "mssg-bench: %v: writing partial report\n", sig)
		dump(true)
		os.Exit(130)
	})

	for _, e := range toRun {
		start := time.Now()
		table, err := e.Run(p)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", e.ID, err))
		}
		elapsed := time.Since(start)
		fmt.Println(table.String())
		fmt.Printf("(%s completed in %s)\n\n", e.ID, elapsed.Round(time.Millisecond))
		resMu.Lock()
		results = append(results, experimentResult{
			ID: table.ID, Title: table.Title, Header: table.Header,
			Rows: table.Rows, Notes: table.Notes,
			ElapsedMs: elapsed.Milliseconds(),
		})
		resMu.Unlock()
	}
	dump(false)
}

// runCheck scrubs every grDB node database under root (the layout
// mssg-ingest and the experiments produce: root/node000, root/node001,
// ...): block checksums are verified, corrupt blocks quarantined and
// repaired, and the structural check run on each instance.
func runCheck(root string) {
	reports, err := grdb.ScrubDir(root, graphdb.Options{})
	if err != nil {
		fatal(err)
	}
	if len(reports) == 0 {
		fatal(fmt.Errorf("no grDB databases found under %s", root))
	}
	names := make([]string, 0, len(reports))
	for name := range reports {
		names = append(names, name)
	}
	sort.Strings(names)
	var scanned, corrupt int64
	for _, name := range names {
		rep := reports[name]
		scanned += rep.BlocksScanned
		corrupt += rep.CorruptBlocks
		fmt.Printf("%s: %d blocks scanned, %d corrupt\n", name, rep.BlocksScanned, rep.CorruptBlocks)
		for _, q := range rep.Quarantined {
			fmt.Printf("  quarantined %s\n", q)
		}
	}
	if corrupt > 0 {
		fmt.Printf("scrub: repaired %d corrupt blocks of %d (raw bytes preserved in quarantine/)\n", corrupt, scanned)
		os.Exit(1)
	}
	fmt.Printf("scrub OK: %d databases, %d blocks, all checksums valid\n", len(reports), scanned)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mssg-bench:", err)
	os.Exit(1)
}
