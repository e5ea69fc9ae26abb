package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// loadResults reads the result files a -compare argument names: a file, a
// directory of result-*.json, or a comma-separated list of either.
func loadResults(arg string) ([]result, error) {
	var files []string
	for _, p := range strings.Split(arg, ",") {
		info, err := os.Stat(p)
		if err != nil {
			return nil, err
		}
		if info.IsDir() {
			found, _ := filepath.Glob(filepath.Join(p, "result-*.json"))
			files = append(files, found...)
		} else {
			files = append(files, p)
		}
	}
	var out []result
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var res result
		if err := json.Unmarshal(b, &res); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if res.Options.Trace {
			continue // end-to-end numbers come from untraced runs only
		}
		out = append(out, res)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no untraced result files", arg)
	}
	return out, nil
}

// quartiles returns the first quartile, median and third quartile of xs
// the way Python's statistics.quantiles(xs, n=4) does (exclusive method).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		j, delta := k*(n+1)/4, float64(k*(n+1)%4)
		if j < 1 {
			j, delta = 1, 0
		} else if j > n-1 {
			j, delta = n-1, 4
		}
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// verdict judges one (metric, workload) pair: how far the candidate's
// median moved toward worse, as a share of the base median, against the
// metric's bound and the wider of the two sides' interquartile spreads.
func verdict(def metricDef, base, cand []float64) (string, float64, float64) {
	b1, bm, b3 := quartiles(base)
	c1, cm, c3 := quartiles(cand)
	worse := ratio(cm-bm, bm)
	if def.Better == "higher" {
		worse = -worse
	}
	spread := max(ratio(b3-b1, bm), ratio(c3-c1, cm))
	switch {
	case spread > def.Bound:
		return "unresolved", worse, spread
	case worse > def.Bound:
		return "REGRESSED", worse, spread
	case -worse > ratio(b3-b1, bm) && -worse > 0.01:
		return "improved", worse, spread
	}
	return "unchanged", worse, spread
}

// compareSets prints, per workload and gated end-to-end metric, each
// side's median and quartiles and a verdict; exact counts must repeat
// bit-for-bit among runs of the same seed. It reports whether nothing
// regressed or stayed unresolved.
func compareSets(w io.Writer, baseArg, candArg string) (bool, error) {
	base, err := loadResults(baseArg)
	if err != nil {
		return false, err
	}
	cand, err := loadResults(candArg)
	if err != nil {
		return false, err
	}
	ok := true
	for _, wl := range workloads {
		collect := func(set []result, name string) (xs []float64) {
			for _, r := range set {
				if r.Workload == wl.Name {
					xs = append(xs, r.EndToEnd[name].Value)
				}
			}
			return xs
		}
		if len(collect(base, "setup_s")) == 0 || len(collect(cand, "setup_s")) == 0 {
			continue
		}
		fmt.Fprintf(w, "%s (base %d runs, candidate %d runs)\n", wl.Name, len(collect(base, "setup_s")), len(collect(cand, "setup_s")))
		fmt.Fprintf(w, "  %-22s %-5s %36s %36s %8s %7s  %s\n", "metric", "unit", "base median [q1, q3]", "candidate median [q1, q3]", "worse", "spread", "verdict")
		for _, def := range endToEnd {
			b, c := collect(base, def.Name), collect(cand, def.Name)
			b1, bm, b3 := quartiles(b)
			c1, cm, c3 := quartiles(c)
			v, worse, spread := verdict(def, b, c)
			if v == "REGRESSED" || v == "unresolved" {
				ok = false
			}
			fmt.Fprintf(w, "  %-22s %-5s %36s %36s %+7.1f%% %6.1f%%  %s (bound %.0f%%)\n", def.Name, def.Unit,
				fmt.Sprintf("%.6g [%.6g, %.6g]", bm, b1, b3), fmt.Sprintf("%.6g [%.6g, %.6g]", cm, c1, c3),
				100*worse, 100*spread, v, 100*def.Bound)
		}
		for _, line := range exactMismatches(wl.Name, append(append([]result(nil), base...), cand...)) {
			ok = false
			fmt.Fprintln(w, "  EXACT COUNT DIFFERS:", line)
		}
	}
	return ok, nil
}

// exactMismatches lists exact counts that differ between runs of one
// workload with the same seed and settings.
func exactMismatches(workload string, runs []result) (out []string) {
	type key struct {
		seed   int64
		groups int
		scale  float64
		name   string
	}
	seen := map[key]int64{}
	for _, r := range runs {
		if r.Workload != workload {
			continue
		}
		for name, v := range r.Exact {
			k := key{r.Options.Seed, r.Options.Groups, r.Options.Scale, name}
			if prev, ok := seen[k]; ok && prev != v {
				out = append(out, fmt.Sprintf("%s seed %d: %d vs %d", name, k.seed, prev, v))
			}
			seen[k] = v
		}
	}
	sort.Strings(out)
	return out
}
