// Command mssg-gen generates synthetic scale-free edge lists: either the
// paper's preset graphs (pubmed-s, pubmed-l, syn-2b) at a chosen scale,
// or a custom configuration. Output is an ASCII ("src dst" per line) or
// binary (16-byte records) edge stream.
//
// Examples:
//
//	mssg-gen -preset pubmed-s -scale 0.01 -out pubmed-s.txt -stats
//	mssg-gen -vertices 100000 -m 5 -hub 0.1 -seed 7 -format binary -out g.bin
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sync/atomic"

	"mssg/internal/gen"
	"mssg/internal/graph"
	"mssg/internal/graphdb"
	"mssg/internal/obs"
)

func main() {
	preset := flag.String("preset", "", "preset graph: pubmed-s, pubmed-l, syn-2b (overrides -vertices/-m/-hub)")
	scale := flag.Float64("scale", 0.004, "preset scale (fraction of the paper's vertex counts)")
	vertices := flag.Int64("vertices", 10000, "custom: vertex count")
	m := flag.Int("m", 5, "custom: attachment edges per vertex (≈ half the avg degree)")
	hub := flag.Float64("hub", 0, "custom: hub fraction (probability vertex 0 links to each vertex)")
	seed := flag.Int64("seed", 1, "custom: random seed")
	format := flag.String("format", "ascii", "output format: ascii or binary")
	out := flag.String("out", "-", "output file (- for stdout)")
	stats := flag.Bool("stats", false, "print Table 5.1-style statistics to stderr")
	durability := flag.String("durability", "none",
		"none or full: full fsyncs the output file before exit so the edge list survives a crash")
	verifyOnOpen := flag.Bool("verify-on-open", false,
		"re-open and re-parse the written file, failing if any record is unreadable or the edge count differs")
	metricsAddr := flag.String("metrics-addr", "",
		"serve live /metrics and /debug/pprof on this address while generating")
	flag.Parse()

	obsServer, err := obs.ServeFlag("mssg-gen", *metricsAddr)
	if err != nil {
		fatal(err)
	}
	defer obsServer.Close()

	var cfg gen.Config
	if *preset != "" {
		c, err := gen.Preset(*preset, *scale)
		if err != nil {
			fatal(err)
		}
		cfg = c
	} else {
		cfg = gen.Config{Name: "custom", Vertices: *vertices, M: *m, HubFraction: *hub, Seed: *seed}
	}

	if _, err := graphdb.ParseDurability(*durability); err != nil {
		fatal(err)
	}
	if (*durability == "full" || *verifyOnOpen) && *out == "-" {
		fatal(fmt.Errorf("-durability full and -verify-on-open need -out to name a file"))
	}

	var sink io.Writer = os.Stdout
	var outFile *os.File
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		outFile = f
		defer func() {
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}()
		sink = f
	}

	w, err := graph.NewEdgeWriter(*format, sink)
	if err != nil {
		fatal(err)
	}

	g, err := gen.NewGenerator(cfg)
	if err != nil {
		fatal(err)
	}

	// Signal handling: the generation loop polls a flag rather than the
	// handler touching the writer, so the flush below never races a
	// WriteEdge in flight. The deferred close then runs normally.
	var stop atomic.Bool
	obs.OnSignal(func(sig os.Signal) {
		fmt.Fprintf(os.Stderr, "mssg-gen: %v: stopping; flushing partial output\n", sig)
		stop.Store(true)
	})

	mEdges := obs.Default().Counter("gen.edges")
	deg := make([]int64, cfg.Vertices)
	var edges int64
	for !stop.Load() {
		e, err := g.ReadEdge()
		if err == io.EOF {
			break
		}
		if err != nil {
			fatal(err)
		}
		if err := w.WriteEdge(e); err != nil {
			fatal(err)
		}
		deg[e.Src]++
		deg[e.Dst]++
		edges++
		mEdges.Inc()
	}
	if err := w.Flush(); err != nil {
		fatal(err)
	}
	if *durability == "full" && outFile != nil {
		if err := outFile.Sync(); err != nil {
			fatal(err)
		}
	}
	if stop.Load() {
		fmt.Fprintf(os.Stderr, "mssg-gen: interrupted after %d edges; output flushed\n", edges)
	}
	if *verifyOnOpen {
		if err := verifyOutput(*out, *format, edges); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "mssg-gen: verified %d edges re-parse cleanly\n", edges)
	}

	if *stats {
		s := gen.StatsFromDegrees(cfg.Name, deg, edges)
		fmt.Fprintln(os.Stderr, gen.StatsHeader)
		fmt.Fprintln(os.Stderr, s.String())
	}
}

// verifyOutput re-opens the written edge list and re-parses every record,
// checking the count matches what was generated.
func verifyOutput(path, format string, want int64) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	r, err := graph.NewEdgeReader(format, f)
	if err != nil {
		return err
	}
	var got int64
	for {
		if _, err := r.ReadEdge(); err == io.EOF {
			break
		} else if err != nil {
			return fmt.Errorf("verify: record %d: %w", got, err)
		}
		got++
	}
	if got != want {
		return fmt.Errorf("verify: re-parsed %d edges, wrote %d", got, want)
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mssg-gen:", err)
	os.Exit(1)
}
