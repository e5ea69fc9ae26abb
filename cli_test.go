package mssg_test

// End-to-end CLI test: build the real binaries and drive the
// gen → ingest → query pipeline across processes, verifying the database
// directory written by one process is readable by the next (the
// deployment story of README.md).

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// buildTools compiles the CLI binaries once per test run.
func buildTools(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("CLI end-to-end skipped in -short mode")
	}
	binDir := t.TempDir()
	for _, tool := range []string{"mssg-gen", "mssg-ingest", "mssg-query", "mssg-bench"} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(binDir, tool), "./cmd/"+tool)
		cmd.Env = os.Environ()
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("building %s: %v\n%s", tool, err, out)
		}
	}
	return binDir
}

func run(t *testing.T, bin string, args ...string) string {
	t.Helper()
	cmd := exec.Command(bin, args...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", filepath.Base(bin), args, err, out)
	}
	return string(out)
}

func TestCLIPipeline(t *testing.T) {
	binDir := buildTools(t)
	work := t.TempDir()
	edgeFile := filepath.Join(work, "graph.txt")
	dbDir := filepath.Join(work, "db")

	// Generate.
	run(t, filepath.Join(binDir, "mssg-gen"),
		"-preset", "pubmed-s", "-scale", "0.0005", "-out", edgeFile)
	st, err := os.Stat(edgeFile)
	if err != nil || st.Size() == 0 {
		t.Fatalf("edge file not written: %v", err)
	}

	// Ingest across 4 back-ends with 2 front-ends.
	out := run(t, filepath.Join(binDir, "mssg-ingest"),
		"-in", edgeFile, "-dir", dbDir, "-backend", "grdb",
		"-backends", "4", "-frontends", "2")
	if !strings.Contains(out, "ingested") {
		t.Fatalf("unexpected ingest output: %s", out)
	}

	// Query from a separate process against the persisted database.
	out = run(t, filepath.Join(binDir, "mssg-query"),
		"-dir", dbDir, "-backend", "grdb", "-backends", "4",
		"-source", "0", "-dest", "500")
	if !strings.Contains(out, "path length") {
		t.Fatalf("query found no path: %s", out)
	}

	// Pipelined random queries.
	out = run(t, filepath.Join(binDir, "mssg-query"),
		"-dir", dbDir, "-backend", "grdb", "-backends", "4",
		"-random", "3", "-maxvertex", "1800", "-pipelined")
	if strings.Count(out, "->") < 2 {
		t.Fatalf("random queries produced too little output: %s", out)
	}
}

func TestCLIBinaryFormatRoundTrip(t *testing.T) {
	binDir := buildTools(t)
	work := t.TempDir()
	binFile := filepath.Join(work, "graph.bin")
	dbDir := filepath.Join(work, "db")

	run(t, filepath.Join(binDir, "mssg-gen"),
		"-vertices", "500", "-m", "3", "-seed", "7", "-format", "binary", "-out", binFile)
	run(t, filepath.Join(binDir, "mssg-ingest"),
		"-in", binFile, "-format", "binary", "-dir", dbDir,
		"-backend", "bdb", "-backends", "2")
	out := run(t, filepath.Join(binDir, "mssg-query"),
		"-dir", dbDir, "-backend", "bdb", "-backends", "2",
		"-source", "0", "-dest", "100")
	if !strings.Contains(out, "path length") {
		t.Fatalf("binary-format pipeline broken: %s", out)
	}
}

func TestCLIBenchSingleExperiment(t *testing.T) {
	binDir := buildTools(t)
	out := run(t, filepath.Join(binDir, "mssg-bench"),
		"-scale", "0.0005", "-queries", "3", "table5.1")
	for _, want := range []string{"PubMed-S'", "Syn'", "table5.1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("bench output missing %q:\n%s", want, out)
		}
	}
}

// TestCLIFlagSurface pins every command's flag names, read back from
// -h: scripts and docs drive these four commands, so a flag may not be
// renamed, dropped or added by accident.
func TestCLIFlagSurface(t *testing.T) {
	binDir := buildTools(t)
	want := map[string]string{
		"mssg-query": "allow-partial backend backends broadcast cache-mb component dead dest dir durability " +
			"extvisited khop list-analyses max-inflight maxvertex metrics-addr path pipelined query-timeout " +
			"queue-depth random seed serve source tenant-inflight tenant-queue tenants threshold verify-on-open workers",
		"mssg-ingest": "abort-migration backend backends copyup deadline defrag dir drain durability " +
			"fault-crash fault-drop fault-seed format frontends fsck in join metrics-addr placement-seed policy " +
			"reliable replication resume-migration reverse tcp verify-on-open window",
		"mssg-gen":   "durability format hub m metrics-addr out preset scale seed stats verify-on-open vertices",
		"mssg-bench": "check deadline dir fault-seed metrics-addr queries scale v workers",
	}
	flagLine := regexp.MustCompile(`(?m)^  -([a-z0-9-]+)`)
	total := 0
	for tool, names := range want {
		out, err := exec.Command(filepath.Join(binDir, tool), "-h").CombinedOutput()
		if err != nil {
			t.Fatalf("%s -h: %v\n%s", tool, err, out)
		}
		var got []string
		for _, m := range flagLine.FindAllStringSubmatch(string(out), -1) {
			got = append(got, m[1])
		}
		sort.Strings(got)
		if g := strings.Join(got, " "); g != names {
			t.Errorf("%s flags:\n got %s\nwant %s", tool, g, names)
		}
		total += len(got)
	}
	if total != 78 {
		t.Errorf("the four commands declare %d flags, want 78", total)
	}
}

// TestCLIRejectsBeforeOpening checks that flag combinations the engine
// cannot honour fail before mssg-ingest creates any node database.
func TestCLIRejectsBeforeOpening(t *testing.T) {
	binDir := buildTools(t)
	work := t.TempDir()
	edgeFile := filepath.Join(work, "graph.txt")
	run(t, filepath.Join(binDir, "mssg-gen"), "-vertices", "200", "-m", "2", "-out", edgeFile)
	for _, c := range []struct {
		name     string
		args     []string
		wantExit int
	}{
		{"fsck on bdb", []string{"-backend", "bdb", "-fsck"}, 2},
		{"defrag on bdb", []string{"-backend", "bdb", "-defrag"}, 2},
		{"fault-crash without seed", []string{"-fault-crash", "5"}, 1},
		{"fault-drop without seed", []string{"-fault-drop", "0.05"}, 1},
		{"fault-crash on one back-end", []string{"-backends", "1", "-fault-seed", "3", "-fault-crash", "5"}, 1},
		{"replication over edge policy", []string{"-replication", "2", "-policy", "edge-round-robin"}, 1},
		{"replication above back-ends", []string{"-backends", "2", "-replication", "3"}, 1},
	} {
		dbDir := filepath.Join(work, strings.ReplaceAll(c.name, " ", "-"))
		args := append([]string{"-in", edgeFile, "-dir", dbDir, "-backends", "2"}, c.args...)
		out, err := exec.Command(filepath.Join(binDir, "mssg-ingest"), args...).CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != c.wantExit {
			t.Errorf("%s: err = %v, want exit status %d\n%s", c.name, err, c.wantExit, out)
		}
		if _, err := os.Stat(filepath.Join(dbDir, "node000")); !os.IsNotExist(err) {
			t.Errorf("%s: a node database was created before the rejection (stat: %v)\n%s", c.name, err, out)
		}
	}
}
