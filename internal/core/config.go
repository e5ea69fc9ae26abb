package core

import (
	"flag"
	"fmt"
	"slices"
	"time"

	"mssg/internal/cluster"
	"mssg/internal/graphdb"
	"mssg/internal/ingest"
	"mssg/internal/obs"
	"mssg/internal/query"
)

// FabricKind selects the message transport.
type FabricKind int

const (
	// InProc connects node goroutines with in-process mailboxes.
	InProc FabricKind = iota
	// TCP connects node goroutines over loopback TCP.
	TCP
)

// Config parameterizes an Engine.
type Config struct {
	// Backends is the number of back-end storage nodes (the fabric size).
	Backends int
	// FrontEnds is the number of ingest filter copies.
	FrontEnds int
	// Backend names the GraphDB implementation ("array", "hashmap",
	// "mysql", "bdb", "stream", "grdb").
	Backend string
	// Dir is the root working directory; node i stores under
	// Dir/nodeNNN. Required for out-of-core backends.
	Dir string
	// DBOptions tunes the backend (cache budget, grDB levels, ...). The
	// Dir field inside is overwritten per node. DBOptions.Metrics turns
	// on the gated per-operation back-end metrics; the always-on service
	// metrics (cluster, datacutter, ingest, query) live in obs.Default()
	// regardless.
	DBOptions graphdb.Options
	// Ingest configures windows/policy/reversal. FrontEnds/Backends
	// inside it are overwritten from this Config.
	Ingest ingest.Config
	// Fabric selects the transport.
	Fabric FabricKind
	// MailboxBuffer must be 0, which leaves every mailbox unbounded. The
	// query kernel relies on the paper's non-blocking sends (§4.2): a
	// node sends its whole fringe share before it receives, so bounded
	// mailboxes wedge queries, and Validate refuses a positive value.
	MailboxBuffer int
	// Fault, when non-nil, wraps the fabric in a deterministic
	// fault-injection layer driven by this plan (drops, duplicates,
	// corruption, delays, scripted crashes).
	Fault *cluster.Plan
	// Reliable layers acked, deduplicated, checksummed delivery over the
	// (possibly faulty) fabric, with heartbeat-based failure detection.
	Reliable bool
	// ReliableOptions tunes the reliable layer; zero value uses defaults.
	ReliableOptions cluster.ReliableOptions
	// IngestDeadline bounds each ingestion run; 0 means none. Implies
	// fail-fast supervision so a dead back-end aborts the run instead of
	// wedging it.
	IngestDeadline time.Duration
	// AllowPartial degrades queries to best-effort results with an
	// explicit Coverage < 1 when every replica of a required shard is
	// unreachable, instead of failing with query.ErrPartialCoverage.
	AllowPartial bool
	// Failover tunes the query-time retry loop used when the
	// declustering policy replicates (ReplicationFactor > 1). The zero
	// value selects the defaults documented on query.FailoverOptions.
	Failover query.FailoverOptions
	// Placement, when non-nil, is the elastic routing authority: every
	// ingest window and query resolves its policy through the holder, so
	// a live migration's epoch commit flips all routing in one atomic
	// step. Overrides Ingest.Policy. The committed placement's node-ID
	// space must fit within Backends (spare nodes idle with empty
	// databases until a Join targets them).
	Placement *ingest.PlacementHolder
}

// Validate checks every rule that links Config fields, so a bad
// combination is refused before New opens or persists anything; New
// calls it first. Rules that depend on what the opened backend
// implements are checked by each Engine operation before its first side
// effect instead.
func (c Config) Validate() error {
	if c.Backends < 1 {
		return fmt.Errorf("core: need at least 1 back-end, got %d", c.Backends)
	}
	if c.Backend != "" && !slices.Contains(graphdb.Backends(), c.Backend) {
		return fmt.Errorf("core: unknown backend %q (registered: %v)", c.Backend, graphdb.Backends())
	}
	if c.Fabric != InProc && c.Fabric != TCP {
		return fmt.Errorf("core: unknown fabric kind %d", c.Fabric)
	}
	if c.MailboxBuffer > 0 {
		return fmt.Errorf("core: mailbox buffer %d: queries need non-blocking sends, so mailboxes must be unbounded (0)", c.MailboxBuffer)
	}
	if c.Placement != nil {
		if b := c.Placement.Placement().Backends; b > c.Backends {
			return fmt.Errorf("core: placement spans %d back-ends, engine has %d", b, c.Backends)
		}
	} else if k := c.Ingest.ReplicationFactor; k > 1 {
		// Replication rides on a replica-placing policy: only it has the
		// top-k replica directory, derived locally on every node, that
		// query-time failover routes by.
		if k > c.Backends {
			return fmt.Errorf("core: replication factor %d exceeds %d back-ends", k, c.Backends)
		}
		var pol ingest.Policy = ingest.VertexMod{}
		if c.Ingest.Policy != nil {
			pol = c.Ingest.Policy()
		}
		if _, ok := pol.(ingest.ReplicaPolicy); !ok {
			return fmt.Errorf("core: replication factor %d requires the rendezvous policy, not %q", k, pol.Name())
		}
	}
	if f := c.Fault; f != nil {
		if f.Seed == 0 {
			return fmt.Errorf("core: a fault plan needs a non-zero seed")
		}
		for _, cr := range f.Crashes {
			if cr.Node < 0 || int(cr.Node) >= c.Backends {
				return fmt.Errorf("core: fault plan crashes node %d, outside the %d back-ends", cr.Node, c.Backends)
			}
		}
	}
	return nil
}

// Flags binds the engine flags mssg-query and mssg-ingest share straight
// into a Config. MetricsAddr is the -metrics-addr server address; setting
// it also turns on the gated per-operation back-end metrics.
type Flags struct {
	Config
	MetricsAddr string
}

// BindFlags registers the shared engine flags on fs.
func BindFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.Dir, "dir", "", "database working directory (required)")
	fs.StringVar(&f.Backend, "backend", "grdb",
		"GraphDB backend: array, hashmap, mysql, bdb, stream, grdb (queries use the ingest-time backend)")
	fs.IntVar(&f.Backends, "backends", 8, "number of back-end storage nodes (queries use the ingest-time count)")
	fs.BoolVar(&f.DBOptions.Compress, "compress", false,
		"store grDB blocks delta-varint compressed (queries use the ingest-time setting)")
	fs.Func("durability",
		"crash safety `mode`: none (the default; page-cache only) or full (WAL + checksums + atomic checkpoints; back-ends also checkpoint their ingest position for exactly-once resume); queries use the ingest-time setting",
		func(s string) (err error) {
			f.DBOptions.Durability, err = graphdb.ParseDurability(s)
			return err
		})
	fs.BoolVar(&f.DBOptions.VerifyOnOpen, "verify-on-open", false,
		"run the backend's structural consistency check after recovery when opening each database")
	fs.Func("metrics-addr",
		"serve live /metrics, /trace and /debug/pprof on this `address` (e.g. :8080); also enables per-op backend latency histograms",
		func(s string) error {
			f.MetricsAddr = s
			if s != "" {
				f.DBOptions.Metrics = obs.Default()
			}
			return nil
		})
	return f
}
