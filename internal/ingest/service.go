package ingest

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync/atomic"
	"time"

	"mssg/internal/cluster"
	"mssg/internal/datacutter"
	"mssg/internal/graph"
	"mssg/internal/graphdb"
	"mssg/internal/obs"
)

// Config parameterizes one ingestion run.
type Config struct {
	// FrontEnds is the number of ingest filter copies (the paper varies
	// this between 1 and 8).
	FrontEnds int
	// Backends is the number of store filter copies (back-end nodes).
	Backends int
	// WindowEdges is the block/window size: edges are accumulated per
	// destination and shipped in blocks of this many (§3.2 processes
	// streaming data "in blocks (or windows) of a predetermined size").
	// <= 0 means 4096.
	WindowEdges int
	// AddReverse stores both orientations of every input edge, making
	// the stored graph undirected as in Table 5.1. Default true via
	// NewConfig; zero-value Config leaves it off.
	AddReverse bool
	// Policy is the declustering policy; nil means VertexMod.
	Policy func() Policy
	// ReplicationFactor ships every window to this many distinct
	// back-ends (k-way replication), so queries survive k-1 node losses.
	// <= 1 means no replication. Values > 1 require a policy
	// implementing ReplicaPolicy (rendezvous); the back-end dedup set is
	// per node, so each replica applies a re-shipped window exactly
	// once.
	ReplicationFactor int
	// ShipRetries is how many times a front-end re-ships a window after
	// an ambiguous (cluster.ErrTimeout) send failure. The back-end
	// deduplicates windows by id, so a re-ship of a window that actually
	// arrived is counted in Stats.DupBlocks, not stored twice. 0 means 2;
	// negative disables retries.
	ShipRetries int
	// Durable makes back-ends persist their window dedup-set through
	// graphdb.Checkpointer, so a restarted back-end resumes from its last
	// committed (frontend, seq) window instead of double-storing a
	// re-shipped stream. Requires databases that implement Checkpointer
	// (grDB); Init fails otherwise. A durable run is finished by
	// FinishRun; until then the next durable run over the same databases
	// resumes it.
	Durable bool
	// CheckpointWindows is how many windows a back-end stages per store
	// (durable: and per checkpoint, dedup-set + Flush). <= 0 means 64.
	CheckpointWindows int
}

func (c Config) checkpointWindows() int {
	if c.CheckpointWindows <= 0 {
		return defaultCheckpointWindows
	}
	return c.CheckpointWindows
}

// defaultCheckpointWindows is how many windows ingest and live migration
// stage per store when their config leaves it unset: at the default
// window size, 256 Ki edges (4 MiB) per back-end.
const defaultCheckpointWindows = 64

func (c Config) shipRetries() int {
	if c.ShipRetries == 0 {
		return 2
	}
	if c.ShipRetries < 0 {
		return 0
	}
	return c.ShipRetries
}

func (c Config) windowEdges() int {
	if c.WindowEdges <= 0 {
		return defaultWindowEdges
	}
	return c.WindowEdges
}

func (c Config) policy() Policy {
	if c.Policy == nil {
		return VertexMod{}
	}
	return c.Policy()
}

func (c Config) replicationFactor() int {
	if c.ReplicationFactor <= 1 {
		return 1
	}
	return c.ReplicationFactor
}

// Stats aggregates an ingestion run.
type Stats struct {
	// EdgesIn counts edges read by the front-ends (before reversal).
	EdgesIn atomic.Int64
	// EdgesStored counts directed records stored by the back-ends.
	EdgesStored atomic.Int64
	// Blocks counts windows shipped front-end → back-end.
	Blocks atomic.Int64
	// Retries counts window re-ships after ambiguous send failures.
	Retries atomic.Int64
	// DupBlocks counts windows a back-end received more than once and
	// discarded (a retried ship whose first attempt actually arrived, or
	// a duplicate injected by a faulty fabric).
	DupBlocks atomic.Int64
	// ReplicaBlocks counts secondary-copy window ships: each window of a
	// k-way replicated run adds k-1 of these on top of its Blocks entry.
	ReplicaBlocks atomic.Int64
	// ReplicaWindows counts windows a back-end stored as a non-primary
	// replica (standby copies it serves only after a failover).
	ReplicaWindows atomic.Int64
}

const edgeBytes = 16

// windowHeaderBytes prefixes every shipped window with {frontend uint32,
// seq uint64}: a globally unique window id, so back-ends can discard the
// window if it arrives a second time (from a ship retry or a fabric-level
// duplicate) and re-shipping is idempotent.
const windowHeaderBytes = 12

func encodeWindow(frontend uint32, seq uint64, edges []graph.Edge) []byte {
	b := make([]byte, windowHeaderBytes+edgeBytes*len(edges))
	binary.LittleEndian.PutUint32(b[0:4], frontend)
	binary.LittleEndian.PutUint64(b[4:12], seq)
	for i, e := range edges {
		binary.LittleEndian.PutUint64(b[windowHeaderBytes+edgeBytes*i:], uint64(e.Src))
		binary.LittleEndian.PutUint64(b[windowHeaderBytes+edgeBytes*i+8:], uint64(e.Dst))
	}
	return b
}

// windowID reads a window payload's id, after checking that the payload
// holds a header and whole edges.
func windowID(b []byte) (frontend uint32, seq uint64, err error) {
	if len(b) < windowHeaderBytes {
		return 0, 0, fmt.Errorf("ingest: window of %d bytes shorter than its %d-byte header", len(b), windowHeaderBytes)
	}
	if n := len(b) - windowHeaderBytes; n%edgeBytes != 0 {
		return 0, 0, fmt.Errorf("ingest: window payload of %d bytes not a multiple of %d", n, edgeBytes)
	}
	return binary.LittleEndian.Uint32(b[0:4]), binary.LittleEndian.Uint64(b[4:12]), nil
}

// appendEdges appends the edges of a window payload that windowID
// accepted to dst.
func appendEdges(dst []graph.Edge, b []byte) []graph.Edge {
	for b = b[windowHeaderBytes:]; len(b) > 0; b = b[edgeBytes:] {
		dst = append(dst, graph.Edge{
			Src: graph.VertexID(binary.LittleEndian.Uint64(b)),
			Dst: graph.VertexID(binary.LittleEndian.Uint64(b[8:])),
		})
	}
	return dst
}

// windowKey collapses a window id into the dedup-set key. Front-end copy
// counts are tiny (the paper tops out at 8), so 16 bits of frontend and
// 48 bits of sequence cannot collide in practice.
func windowKey(frontend uint32, seq uint64) uint64 {
	return uint64(frontend)<<48 | seq&(1<<48-1)
}

// defaultWindowEdges is the window size of ingest and live migration
// when their config leaves it unset.
const defaultWindowEdges = 4096

// window is one destination list's in-progress edge window.
type window struct {
	dests []cluster.NodeID
	edges []graph.Edge
	start time.Time // first append since the last ship
}

// windower cuts an edge stream into windows keyed by destination list:
// [policy.Route(e)] for unreplicated ingest, the source's replica set for
// replicated ingest, [dest] for live migration. Edges that share a
// primary can have different secondaries, so open[p] holds the windows
// whose list starts with p, sorted by list; its first entry is the
// single-destination window [p].
type windower struct {
	size    int
	open    [][]*window
	shipped *atomic.Int64
	// nextID draws a fresh window id. send hands one payload to one
	// member of the list; secondary is set for every member after the
	// first.
	nextID func() (frontend uint32, seq uint64)
	send   func(dest cluster.NodeID, payload []byte, secondary bool) error
	// Window metrics; nil histograms record nothing.
	mEdges, mBuild, mShip *obs.Histogram
}

func newWindower(nodes, size int, shipped *atomic.Int64, nextID func() (uint32, uint64),
	send func(cluster.NodeID, []byte, bool) error) *windower {
	w := &windower{size: size, open: make([][]*window, nodes), shipped: shipped, nextID: nextID, send: send}
	for p := range w.open {
		w.open[p] = []*window{{dests: []cluster.NodeID{cluster.NodeID(p)}}}
	}
	return w
}

// to returns the single-destination window [d].
func (w *windower) to(d cluster.NodeID) *window { return w.open[d][0] }

// toAll returns the window of destination list dests, opening it on
// first use. dests[0] must be a node below the windower's node count.
func (w *windower) toAll(dests []cluster.NodeID) *window {
	list := w.open[dests[0]]
	i, found := slices.BinarySearchFunc(list, dests, func(win *window, d []cluster.NodeID) int {
		return slices.Compare(win.dests, d)
	})
	if !found {
		list = slices.Insert(list, i, &window{dests: dests})
		w.open[dests[0]] = list
	}
	return list[i]
}

// add appends e to win and ships win once it is full.
func (w *windower) add(win *window, e graph.Edge) error {
	if len(win.edges) == 0 {
		win.start = time.Now()
	}
	win.edges = append(win.edges, e)
	if len(win.edges) >= w.size {
		return w.ship(win)
	}
	return nil
}

// ship encodes win once, under one fresh id, and sends it to every
// member of its destination list, so any member can serve the shard and
// per-node dedup keeps each copy exactly-once.
func (w *windower) ship(win *window) error {
	if len(win.edges) == 0 {
		return nil
	}
	w.mEdges.Observe(int64(len(win.edges)))
	w.mBuild.ObserveSince(win.start)
	frontend, seq := w.nextID()
	payload := encodeWindow(frontend, seq, win.edges)
	win.edges = win.edges[:0]
	w.shipped.Add(1)
	shipStart := time.Now()
	defer w.mShip.ObserveSince(shipStart)
	for i, dest := range win.dests {
		data := payload
		if i > 0 {
			// The transport owns each sent buffer; secondaries get copies.
			data = append([]byte(nil), payload...)
		}
		if err := w.send(dest, data, i > 0); err != nil {
			return err
		}
	}
	return nil
}

// flush ships every partial window in ascending destination order.
func (w *windower) flush() error {
	for _, list := range w.open {
		for _, win := range list {
			if err := w.ship(win); err != nil {
				return err
			}
		}
	}
	return nil
}

// ingestFilter is the front-end filter: it reads its partition of the
// edge stream, declusters each edge (both orientations when AddReverse),
// and ships windows on the directed "out" stream.
type ingestFilter struct {
	cfg    Config
	reader graph.EdgeReader
	policy Policy
	stats  *Stats

	copyIdx  int
	blockSeq uint64
	// repl is set in replicated mode (cfg.ReplicationFactor > 1): each
	// edge joins the window of its source's ordered replica set.
	repl ReplicaPolicy
	win  *windower

	mDestEdges  []*obs.Counter
	mReplBlocks *obs.Counter
}

// registerSkew publishes ingest.decluster_skew_x1000: the ratio of the
// most-loaded destination's edge count to the mean, scaled by 1000
// (1000 = perfectly balanced). Pull-mode, so the per-edge path only pays
// the per-destination counter it already increments.
func registerSkew(reg *obs.Registry, dests []*obs.Counter) {
	reg.RegisterFunc("ingest.decluster_skew_x1000", func() int64 {
		var total, max int64
		for _, c := range dests {
			v := c.Value()
			total += v
			if v > max {
				max = v
			}
		}
		if total == 0 {
			return 0
		}
		mean := float64(total) / float64(len(dests))
		return int64(float64(max) / mean * 1000)
	})
}

// Init implements datacutter.Filter.
func (f *ingestFilter) Init(ctx *datacutter.Context) error {
	out, err := ctx.Output("out")
	if err != nil {
		return err
	}
	if out.Fanout() != f.cfg.Backends {
		return fmt.Errorf("ingest: stream fanout %d != %d backends", out.Fanout(), f.cfg.Backends)
	}
	f.copyIdx = ctx.Instance().Copy
	if s, ok := f.policy.(CopySeeder); ok {
		s.SeedCopy(f.copyIdx)
	}
	if k := f.cfg.replicationFactor(); k > 1 {
		rp, ok := f.policy.(ReplicaPolicy)
		if !ok {
			return fmt.Errorf("ingest: replication factor %d needs a replica-placing policy (rendezvous), got %s",
				k, f.policy.Name())
		}
		if got := rp.ReplicationFactor(); got != k {
			return fmt.Errorf("ingest: policy places %d replicas but config asks for %d", got, k)
		}
		f.repl = rp
	}
	f.win = newWindower(f.cfg.Backends, f.cfg.windowEdges(), &f.stats.Blocks,
		func() (uint32, uint64) {
			f.blockSeq++
			return uint32(f.copyIdx), f.blockSeq
		},
		func(dest cluster.NodeID, payload []byte, secondary bool) error {
			return f.send(out, dest, payload, secondary)
		})
	reg := obs.Default()
	f.win.mBuild = reg.Histogram("ingest.window_build_ns")
	f.win.mShip = reg.Histogram("ingest.window_ship_ns")
	f.win.mEdges = reg.Histogram("ingest.window_edges")
	f.mDestEdges = make([]*obs.Counter, f.cfg.Backends)
	for d := range f.mDestEdges {
		f.mDestEdges[d] = reg.Counter(fmt.Sprintf("ingest.dest_%02d.edges", d))
	}
	f.mReplBlocks = reg.Counter("ingest.replica_blocks")
	registerSkew(reg, f.mDestEdges)
	return nil
}

// send writes one window payload to dest, re-sending after ambiguous
// (ErrTimeout) failures — safe because windows carry a unique id and
// back-ends deduplicate.
func (f *ingestFilter) send(out *datacutter.StreamWriter, dest cluster.NodeID, payload []byte, secondary bool) error {
	if secondary {
		f.stats.ReplicaBlocks.Add(1)
		f.mReplBlocks.Inc()
	}
	var err error
	for attempt := 0; attempt <= f.cfg.shipRetries(); attempt++ {
		if attempt > 0 {
			f.stats.Retries.Add(1)
		}
		err = out.WriteTo(int(dest), datacutter.Buffer{Data: payload})
		if err == nil || !errors.Is(err, cluster.ErrTimeout) {
			return err
		}
	}
	return err
}

// route adds e to its window: the source's replica set when replicated,
// otherwise the single destination the policy routes it to.
func (f *ingestFilter) route(e graph.Edge) error {
	var win *window
	if f.repl != nil {
		dests := f.repl.Replicas(e.Src)
		if len(dests) == 0 || int(dests[0]) < 0 || int(dests[0]) >= f.cfg.Backends {
			return fmt.Errorf("ingest: policy %s placed %v of %d backends", f.policy.Name(), dests, f.cfg.Backends)
		}
		win = f.win.toAll(dests)
	} else {
		dest := f.policy.Route(e, f.cfg.Backends)
		if dest < 0 || dest >= f.cfg.Backends {
			return fmt.Errorf("ingest: policy %s routed to %d of %d", f.policy.Name(), dest, f.cfg.Backends)
		}
		win = f.win.to(cluster.NodeID(dest))
	}
	f.mDestEdges[win.dests[0]].Inc() // skew tracks primary placement
	return f.win.add(win, e)
}

// Process implements datacutter.Filter.
func (f *ingestFilter) Process(ctx *datacutter.Context) error {
	for {
		e, err := f.reader.ReadEdge()
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("ingest: %s: %w", ctx.Instance(), err)
		}
		if err := graph.ValidateEdge(e); err != nil {
			return err
		}
		f.stats.EdgesIn.Add(1)
		if err := f.route(e); err != nil {
			return err
		}
		if f.cfg.AddReverse && e.Src != e.Dst {
			if err := f.route(e.Reverse()); err != nil {
				return err
			}
		}
	}
	return f.win.flush()
}

// Finalize implements datacutter.Filter.
func (f *ingestFilter) Finalize(ctx *datacutter.Context) error { return nil }

// storeFilter is the back-end filter: it drains windows from "in" and
// applies them to its node's GraphDB instance through an applier, so a
// re-shipped or fabric-duplicated window is stored once.
type storeFilter struct {
	cfg   Config
	db    graphdb.Graph
	stats *Stats
	run   uint64 // the ingest run, when durable (see nextRun)

	app *applier

	// Replicated mode: repl and self classify each stored window as a
	// primary or standby copy for the replica-awareness stats.
	repl ReplicaPolicy
	self int

	mApplied  *obs.Counter
	mDups     *obs.Counter
	mReplWins *obs.Counter
}

// Init implements datacutter.Filter.
func (f *storeFilter) Init(ctx *datacutter.Context) error {
	app, err := openApplier(f.db, f.cfg.Durable, "ingest", f.cfg.checkpointWindows())
	if err != nil {
		return err
	}
	f.app = app
	f.app.startRun(f.run)
	f.app.stored = f.stored
	if f.cfg.replicationFactor() > 1 {
		if rp, ok := f.cfg.policy().(ReplicaPolicy); ok {
			f.repl = rp
			f.self = ctx.Instance().Copy
		}
	}
	reg := obs.Default()
	f.app.mStore = reg.Histogram("ingest.store_window_ns")
	f.mApplied = reg.Counter("ingest.windows_applied")
	f.mDups = reg.Counter("ingest.dup_windows")
	f.mReplWins = reg.Counter("ingest.replica_windows_stored")
	return nil
}

// apply hands one window payload to the applier.
func (f *storeFilter) apply(data []byte) error {
	dup, err := f.app.apply(data)
	if dup {
		f.stats.DupBlocks.Add(1)
		f.mDups.Inc()
	}
	return err
}

// stored counts the windows of one successful store.
func (f *storeFilter) stored(wins []stagedWindow) {
	for _, w := range wins {
		// The first edge classifies a replicated window as primary or
		// standby here.
		if f.repl != nil && w.n > 0 && int(f.repl.Replicas(w.src)[0]) != f.self {
			f.stats.ReplicaWindows.Add(1)
			f.mReplWins.Inc()
		}
		f.mApplied.Inc()
		f.stats.EdgesStored.Add(int64(w.n))
	}
}

// Process implements datacutter.Filter.
func (f *storeFilter) Process(ctx *datacutter.Context) error {
	in, err := ctx.Input("in")
	if err != nil {
		return err
	}
	for {
		buf, err := in.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := f.apply(buf.Data); err != nil {
			return err
		}
	}
}

// Finalize implements datacutter.Filter: store the stage and make the
// stored graph — and, when durable, the final dedup-set — durable and
// retrievable before the query phase starts. The run stays unfinished
// in the checkpoint: the runtime finalizes a store filter even after a
// failure, and only FinishRun, once the whole run succeeded, finishes it.
func (f *storeFilter) Finalize(ctx *datacutter.Context) error {
	return f.app.commit()
}

// BuildGraph assembles the ingestion filter graph (Fig 3.1's front-end →
// back-end flow):
//
//	ingest[0..F) --directed--> store[0..B)
//
// makeReader returns front-end copy i's partition of the input stream;
// db returns back-end copy i's GraphDB instance. Placement of the two
// filters is the caller's: the engine puts store copies on the storage
// nodes and ingest copies on the front-end nodes.
func BuildGraph(g *datacutter.Graph, cfg Config, stats *Stats,
	makeReader func(copy int) (graph.EdgeReader, error),
	db func(copy int) graphdb.Graph,
	ingestPlacement, storePlacement datacutter.Placement,
) error {
	if cfg.FrontEnds < 1 || cfg.Backends < 1 {
		return fmt.Errorf("ingest: need >= 1 front-end and >= 1 back-end, got %d/%d", cfg.FrontEnds, cfg.Backends)
	}
	// Window ids restart with every run, so durable back-ends agree on
	// the run before any window ships.
	var run uint64
	if cfg.Durable {
		var err error
		if run, err = nextRun(cfg.Backends, db); err != nil {
			return err
		}
	}
	err := g.AddFilter("ingest", func(in datacutter.Instance) (datacutter.Filter, error) {
		r, err := makeReader(in.Copy)
		if err != nil {
			return nil, err
		}
		return &ingestFilter{cfg: cfg, reader: r, policy: cfg.policy(), stats: stats}, nil
	}, ingestPlacement)
	if err != nil {
		return err
	}
	err = g.AddFilter("store", func(in datacutter.Instance) (datacutter.Filter, error) {
		d := db(in.Copy)
		if d == nil {
			return nil, fmt.Errorf("ingest: no database for store copy %d", in.Copy)
		}
		return &storeFilter{cfg: cfg, db: d, stats: stats, run: run}, nil
	}, storePlacement)
	if err != nil {
		return err
	}
	return g.Connect("ingest", "out", "store", "in", datacutter.Directed)
}
