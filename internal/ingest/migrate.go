// Live shard migration, graph side: what moves when the topology
// changes, how the bytes are framed, and how the destination proves it
// holds what the source holds. The transport (passes, EOS accounting,
// phase gates, abort broadcast) lives in internal/cluster/migrate.go;
// this file supplies the MigratePeer and the Migrate driver that wraps
// the whole thing in the epoch protocol:
//
//	BeginMigration (pending placement durable) → copy → catch-up →
//	verify → CommitMigration (routing flips) — or, on any failure,
//	the old epoch stays authoritative and the pending record makes
//	the migration resumable.
//
// Movement is minimal by construction: vertex v moves only to
// newReplicas(v) ∖ oldReplicas(v), and HRW scoring guarantees that set
// is empty unless the topology delta touched v's replica ranking. The
// old primary of each vertex is the unique shipper, so exactly one
// source streams each moving shard. Data rides ingest's windower and
// applier — one window per destination, {frontend, seq} ids with the
// migration's epoch folded in — so the destination's dedup (and, on
// durable back-ends, the checkpoint committed with the data) gives
// exactly-once application across retries, crashes, and resumes.
package ingest

import (
	"encoding/binary"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"mssg/internal/cluster"
	"mssg/internal/graph"
	"mssg/internal/graphdb"
)

// MigrationConfig tunes a live migration.
type MigrationConfig struct {
	// WindowEdges caps edges per shipped window. 0 means 4096.
	WindowEdges int
	// Durable makes destinations persist the dedup-set through
	// graphdb.Checkpointer and Flush at every store (every pass end and
	// every 64 staged windows), so a killed migration resumes without
	// re-applying windows. Requires durable back-ends.
	Durable bool
	// Hook, when non-nil, is forwarded to the transport: it runs on the
	// coordinator at every phase boundary (copy, catchup, verify, commit)
	// and may abort the migration by returning an error. Chaos tests kill
	// nodes from it.
	Hook func(pass cluster.MigratePass) error
}

func (c MigrationConfig) windowEdges() int {
	if c.WindowEdges <= 0 {
		return defaultWindowEdges
	}
	return c.WindowEdges
}

// MigrationStats aggregates one migration attempt across all peers.
type MigrationStats struct {
	// MovedVertices counts vertices shipped to at least one new replica
	// (per destination: a vertex moving to two nodes counts twice).
	MovedVertices int64
	// MovedEdges counts adjacency entries shipped in the copy pass.
	MovedEdges int64
	// CatchupEdges counts entries shipped by the catch-up pass — the
	// suffix ingested while the bulk copy ran.
	CatchupEdges int64
	// Windows and DupWindows count shipped windows and windows the
	// destination had already applied (a resume re-ship).
	Windows    int64
	DupWindows int64
}

// migrationStatsAtomic is the peers' shared live counter set; Snapshot
// renders it as a MigrationStats.
type migrationStatsAtomic struct {
	movedVertices, movedEdges, catchupEdges, windows, dupWindows atomic.Int64
}

func (s *migrationStatsAtomic) Snapshot() MigrationStats {
	return MigrationStats{
		MovedVertices: s.movedVertices.Load(),
		MovedEdges:    s.movedEdges.Load(),
		CatchupEdges:  s.catchupEdges.Load(),
		Windows:       s.windows.Load(),
		DupWindows:    s.dupWindows.Load(),
	}
}

// migFrontendBase tags migration window ids so they can never collide
// with real front-end ids (front-end counts are tiny; windowKey keeps 16
// frontend bits). The source node's ID is or-ed in.
const migFrontendBase = 0x8000

// migWindowID builds the {frontend, seq} pair for the source's n-th
// migration window toward the target epoch. Folding the epoch into seq
// keeps ids unique across successive migrations, so an abandoned
// migration's applied windows never shadow a later one's.
func migWindowID(source cluster.NodeID, epoch uint64, n uint32) (frontend uint32, seq uint64) {
	return migFrontendBase | uint32(source), (epoch&0xFFFF)<<32 | uint64(n)
}

// Verify-pass payload kinds.
const (
	verifyVertices = byte(iota)
	verifySummary
)

// shardChecksum folds one distinct adjacency pair into an order- and
// duplicate-independent set checksum. XOR over hashes commutes, so
// source and destination can each walk their own storage order; and
// because both sides reduce over *distinct* neighbours, harmless
// double-applied windows from a non-durable resume do not fail verify.
func shardChecksum(v, u graph.VertexID) uint64 {
	return hrwMix(uint64(v)*0x9e3779b97f4a7c15 ^ hrwMix(uint64(u)))
}

// vertexSummary is one moved vertex's distinct-neighbour reduction.
type vertexSummary struct {
	sum   uint64
	edges int64
}

// summarize reduces v's local adjacency to its set checksum.
func summarize(db graphdb.Graph, v graph.VertexID, scratch *graph.AdjList, seen map[graph.VertexID]bool) (vertexSummary, error) {
	scratch.Reset()
	if err := graphdb.Adjacency(db, v, scratch); err != nil {
		return vertexSummary{}, err
	}
	clear(seen)
	var s vertexSummary
	for _, u := range scratch.IDs() {
		if seen[u] {
			continue
		}
		seen[u] = true
		s.sum ^= shardChecksum(v, u)
		s.edges++
	}
	return s, nil
}

// migrationPeer implements cluster.MigratePeer for one back-end node.
// The transport calls Ship and Receive concurrently; mu serializes the
// destination-side state (applier, verify accumulators) and, together
// with the back-end's own reader/writer discipline, the database writes.
type migrationPeer struct {
	self  cluster.NodeID
	db    graphdb.Graph
	nodes int // fabric nodes: every destination id is below it
	oldRP ReplicaPolicy
	newRP ReplicaPolicy
	epoch uint64 // target epoch
	cfg   MigrationConfig
	stats *migrationStatsAtomic

	// Source side, written only by the Ship goroutine: per destination,
	// the moved vertices and how many adjacency entries were shipped for
	// each (the append-only offset the catch-up pass resumes from).
	shipped map[cluster.NodeID]map[graph.VertexID]int
	windowN uint32

	// dbMu serializes this peer's database access between the shipper
	// (reads) and receiver (writes), which the transport runs
	// concurrently. Back-ends without internal locking (grdb) require
	// mutators externally serialized against readers; taking dbMu
	// per-vertex and per-window keeps both passes streaming. Lock order
	// is always mu then dbMu.
	dbMu sync.Mutex

	mu sync.Mutex
	// Destination side.
	app     *applier
	expect  map[cluster.NodeID]*verifyExpect
	verdict string // non-empty = failed
}

// verifyExpect accumulates one source's verify stream on the
// destination: the vertex list chunks, then the summary to compare.
type verifyExpect struct {
	vertices []graph.VertexID
	sum      uint64
	vcount   int64
	edges    int64
	sealed   bool
}

func newMigrationPeer(self cluster.NodeID, db graphdb.Graph, nodes int, oldRP, newRP ReplicaPolicy, epoch uint64, cfg MigrationConfig, stats *migrationStatsAtomic) (*migrationPeer, error) {
	app, err := openApplier(db, cfg.Durable, "migration", defaultCheckpointWindows)
	if err != nil {
		return nil, err
	}
	return &migrationPeer{
		self: self, db: db, nodes: nodes, oldRP: oldRP, newRP: newRP, epoch: epoch, cfg: cfg, stats: stats,
		shipped: make(map[cluster.NodeID]map[graph.VertexID]int),
		app:     app,
		expect:  make(map[cluster.NodeID]*verifyExpect),
	}, nil
}

// movesFor returns the destinations vertex v must be copied to: its new
// replicas that are not already old replicas. Empty for the vast
// majority of vertices — HRW re-ranking touches only shards the
// topology delta actually moves.
func (p *migrationPeer) movesFor(v graph.VertexID) []cluster.NodeID {
	old := p.oldRP.Replicas(v)
	if len(old) == 0 || old[0] != p.self {
		// Only the old primary ships, so each moving shard has exactly
		// one source (the failover directory guarantees the primary holds
		// the full adjacency).
		return nil
	}
	var dests []cluster.NodeID
next:
	for _, n := range p.newRP.Replicas(v) {
		for _, o := range old {
			if o == n {
				continue next
			}
		}
		dests = append(dests, n)
	}
	return dests
}

// Ship implements cluster.MigratePeer.
func (p *migrationPeer) Ship(pass cluster.MigratePass, emit func(cluster.NodeID, []byte) error) error {
	switch pass {
	case cluster.PassCopy:
		return p.shipCopy(emit)
	case cluster.PassCatchup:
		return p.shipCatchup(emit)
	case cluster.PassVerify:
		return p.shipVerify(emit)
	}
	return fmt.Errorf("ingest: unknown migration pass %v", pass)
}

// windower returns the windower a pass ships through: one window per
// destination, emitted under this source's migration window ids.
func (p *migrationPeer) windower(emit func(cluster.NodeID, []byte) error) *windower {
	return newWindower(p.nodes, p.cfg.windowEdges(), &p.stats.windows,
		func() (uint32, uint64) {
			p.windowN++
			return migWindowID(p.self, p.epoch, p.windowN)
		},
		func(dest cluster.NodeID, payload []byte, _ bool) error { return emit(dest, payload) })
}

func (p *migrationPeer) shipCopy(emit func(cluster.NodeID, []byte) error) error {
	w := p.windower(emit)
	adj := graph.NewAdjList(256)
	// Collect the moving vertices first, then read each adjacency under
	// its own short lock hold, so emission (which can block on the
	// fabric) never runs with the database locked.
	p.dbMu.Lock()
	var moving []graph.VertexID
	err := graphdb.ForEachVertex(p.db, func(v graph.VertexID) error {
		if len(p.movesFor(v)) > 0 {
			moving = append(moving, v)
		}
		return nil
	})
	p.dbMu.Unlock()
	if err != nil {
		return err
	}
	for _, v := range moving {
		dests := p.movesFor(v)
		p.dbMu.Lock()
		adj.Reset()
		err := graphdb.Adjacency(p.db, v, adj)
		p.dbMu.Unlock()
		if err != nil {
			return err
		}
		for _, dest := range dests {
			win := w.to(dest)
			for _, u := range adj.IDs() {
				if err := w.add(win, graph.Edge{Src: v, Dst: u}); err != nil {
					return err
				}
			}
			if p.shipped[dest] == nil {
				p.shipped[dest] = make(map[graph.VertexID]int)
			}
			p.shipped[dest][v] = adj.Len()
			p.stats.movedVertices.Add(1)
			p.stats.movedEdges.Add(int64(adj.Len()))
		}
	}
	return w.flush()
}

// shipCatchup re-reads every moved vertex and ships the adjacency
// suffix past the copy-pass offset — the edges ingested while the bulk
// copy ran. Adjacency lists are append-only, so the offset is a correct
// resume point.
func (p *migrationPeer) shipCatchup(emit func(cluster.NodeID, []byte) error) error {
	w := p.windower(emit)
	adj := graph.NewAdjList(256)
	for _, dest := range p.shippedDests() {
		win := w.to(dest)
		moved := p.shipped[dest]
		for _, v := range sortedVertices(moved) {
			p.dbMu.Lock()
			adj.Reset()
			err := graphdb.Adjacency(p.db, v, adj)
			p.dbMu.Unlock()
			if err != nil {
				return err
			}
			for _, u := range adj.IDs()[min(moved[v], adj.Len()):] {
				if err := w.add(win, graph.Edge{Src: v, Dst: u}); err != nil {
					return err
				}
				p.stats.catchupEdges.Add(1)
			}
			if adj.Len() > moved[v] {
				moved[v] = adj.Len()
			}
		}
	}
	return w.flush()
}

// shipVerify streams, per destination, the moved vertex list in chunks
// followed by a summary holding the source-side distinct-neighbour set
// checksum computed from the *current* local adjacency — so any window
// the copy and catch-up passes failed to deliver shows up as a
// destination mismatch.
func (p *migrationPeer) shipVerify(emit func(cluster.NodeID, []byte) error) error {
	adj := graph.NewAdjList(256)
	dedup := make(map[graph.VertexID]bool)
	const chunkVertices = 512
	for _, dest := range p.shippedDests() {
		moved := p.shipped[dest]
		vs := sortedVertices(moved)
		var sum uint64
		var edges int64
		for start := 0; start < len(vs); start += chunkVertices {
			chunk := vs[start:min(start+chunkVertices, len(vs))]
			payload := make([]byte, 0, 5+8*len(chunk))
			payload = append(payload, verifyVertices)
			payload = binary.LittleEndian.AppendUint32(payload, uint32(len(chunk)))
			for _, v := range chunk {
				payload = binary.LittleEndian.AppendUint64(payload, uint64(v))
				p.dbMu.Lock()
				s, err := summarize(p.db, v, adj, dedup)
				p.dbMu.Unlock()
				if err != nil {
					return err
				}
				sum ^= s.sum
				edges += s.edges
			}
			if err := emit(dest, payload); err != nil {
				return err
			}
		}
		payload := make([]byte, 0, 1+8+8+8)
		payload = append(payload, verifySummary)
		payload = binary.LittleEndian.AppendUint64(payload, sum)
		payload = binary.LittleEndian.AppendUint64(payload, uint64(len(vs)))
		payload = binary.LittleEndian.AppendUint64(payload, uint64(edges))
		if err := emit(dest, payload); err != nil {
			return err
		}
	}
	return nil
}

func (p *migrationPeer) shippedDests() []cluster.NodeID {
	dests := make([]cluster.NodeID, 0, len(p.shipped))
	for d := range p.shipped {
		dests = append(dests, d)
	}
	sort.Slice(dests, func(i, j int) bool { return dests[i] < dests[j] })
	return dests
}

func sortedVertices(m map[graph.VertexID]int) []graph.VertexID {
	vs := make([]graph.VertexID, 0, len(m))
	for v := range m {
		vs = append(vs, v)
	}
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	return vs
}

// Receive implements cluster.MigratePeer.
func (p *migrationPeer) Receive(pass cluster.MigratePass, from cluster.NodeID, payload []byte) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if pass == cluster.PassVerify {
		return p.receiveVerify(from, payload)
	}
	p.dbMu.Lock()
	dup, err := p.app.apply(payload)
	p.dbMu.Unlock()
	if err != nil {
		return err
	}
	if dup {
		p.stats.dupWindows.Add(1)
	}
	return nil
}

func (p *migrationPeer) receiveVerify(from cluster.NodeID, payload []byte) error {
	if len(payload) < 1 {
		return fmt.Errorf("ingest: empty verify payload")
	}
	ex := p.expect[from]
	if ex == nil {
		ex = &verifyExpect{}
		p.expect[from] = ex
	}
	switch payload[0] {
	case verifyVertices:
		if len(payload) < 5 {
			return fmt.Errorf("ingest: truncated verify chunk")
		}
		n := int(binary.LittleEndian.Uint32(payload[1:]))
		if len(payload) != 5+8*n {
			return fmt.Errorf("ingest: verify chunk of %d bytes claims %d vertices", len(payload), n)
		}
		for i := 0; i < n; i++ {
			ex.vertices = append(ex.vertices, graph.VertexID(binary.LittleEndian.Uint64(payload[5+8*i:])))
		}
	case verifySummary:
		if len(payload) != 1+24 {
			return fmt.Errorf("ingest: verify summary of %d bytes", len(payload))
		}
		ex.sum = binary.LittleEndian.Uint64(payload[1:])
		ex.vcount = int64(binary.LittleEndian.Uint64(payload[9:]))
		ex.edges = int64(binary.LittleEndian.Uint64(payload[17:]))
		ex.sealed = true
	default:
		return fmt.Errorf("ingest: unknown verify payload kind %d", payload[0])
	}
	return nil
}

// PassDone implements cluster.MigratePeer: after every pass the
// destination stores the windows it staged — a durable one commits the
// dedup-set atomically with them (the migration checkpoint a resumed run
// starts from) — and after the verify pass it then recomputes each
// source's checksum over its own storage.
func (p *migrationPeer) PassDone(pass cluster.MigratePass) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	store := p.app.store
	if p.cfg.Durable {
		store = p.app.commit
	}
	p.dbMu.Lock()
	err := store()
	p.dbMu.Unlock()
	if err != nil || pass != cluster.PassVerify {
		return err
	}
	return p.checkVerify()
}

func (p *migrationPeer) checkVerify() error {
	adj := graph.NewAdjList(256)
	dedup := make(map[graph.VertexID]bool)
	for _, from := range func() []cluster.NodeID {
		ns := make([]cluster.NodeID, 0, len(p.expect))
		for n := range p.expect {
			ns = append(ns, n)
		}
		sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
		return ns
	}() {
		ex := p.expect[from]
		if !ex.sealed {
			p.verdict = fmt.Sprintf("node %d: verify stream from %d has no summary", p.self, from)
			return nil
		}
		if int64(len(ex.vertices)) != ex.vcount {
			p.verdict = fmt.Sprintf("node %d: source %d listed %d vertices, summary claims %d",
				p.self, from, len(ex.vertices), ex.vcount)
			return nil
		}
		var sum uint64
		var edges int64
		for _, v := range ex.vertices {
			p.dbMu.Lock()
			s, err := summarize(p.db, v, adj, dedup)
			p.dbMu.Unlock()
			if err != nil {
				return err
			}
			sum ^= s.sum
			edges += s.edges
		}
		if sum != ex.sum || edges != ex.edges {
			p.verdict = fmt.Sprintf("node %d: shard checksum mismatch vs source %d (%d vertices): sum %016x/%016x edges %d/%d",
				p.self, from, len(ex.vertices), sum, ex.sum, edges, ex.edges)
			return nil
		}
	}
	return nil
}

// Verdict implements cluster.MigratePeer.
func (p *migrationPeer) Verdict() (bool, string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.verdict == "", p.verdict
}

// replicaPolicyFor materializes a placement's replica directory.
func replicaPolicyFor(p Placement) (ReplicaPolicy, error) {
	if p.Policy != "rendezvous" {
		return nil, fmt.Errorf("ingest: live migration requires the rendezvous policy, placement uses %q", p.Policy)
	}
	pol, err := p.NewPolicy()
	if err != nil {
		return nil, err
	}
	rp, ok := pol.(ReplicaPolicy)
	if !ok {
		return nil, fmt.Errorf("ingest: policy %T has no replica directory", pol)
	}
	return rp, nil
}

// unionMembers returns the ascending union of two placements' members —
// the migration's participant set. Old members must agree on the epoch
// flip even when no shard of theirs moves, and new members receive.
func unionMembers(a, b Placement) []cluster.NodeID {
	set := make(map[cluster.NodeID]bool)
	for _, n := range a.Members() {
		set[n] = true
	}
	for _, n := range b.Members() {
		set[n] = true
	}
	out := make([]cluster.NodeID, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Migrate runs a live migration over fabric f so that target becomes the
// committed placement: durable intent (pending manifest), bulk copy,
// catch-up, destination-side verify, epoch commit. Queries keep running
// throughout — they route by the committed placement, which flips only
// at the final commit. On any error the committed epoch is untouched and
// the pending record remains, so the same call with the same target
// resumes the migration (durable destinations skip already-applied
// windows via their checkpointed dedup-set); AbortMigration instead
// abandons it. dbs is indexed by fabric node.
func Migrate(f cluster.Fabric, dbs []graphdb.Graph, holder *PlacementHolder, target Placement, cfg MigrationConfig) (MigrationStats, error) {
	var zero MigrationStats
	old := holder.Placement()
	oldRP, err := replicaPolicyFor(old)
	if err != nil {
		return zero, err
	}
	newRP, err := replicaPolicyFor(target)
	if err != nil {
		return zero, err
	}
	parts := unionMembers(old, target)
	for _, n := range parts {
		if int(n) >= f.Nodes() || int(n) >= len(dbs) {
			return zero, fmt.Errorf("ingest: migration participant %d outside fabric of %d nodes (%d databases)",
				n, f.Nodes(), len(dbs))
		}
	}
	if err := holder.BeginMigration(target); err != nil {
		return zero, err
	}

	stats := &migrationStatsAtomic{}
	peers := make(map[cluster.NodeID]*migrationPeer, len(parts))
	for _, n := range parts {
		p, err := newMigrationPeer(n, dbs[n], len(dbs), oldRP, newRP, target.Epoch, cfg, stats)
		if err != nil {
			return zero, err
		}
		peers[n] = p
	}
	err = cluster.RunMigration(f, func(n cluster.NodeID) cluster.MigratePeer { return peers[n] }, cluster.MigrateOptions{
		Participants: parts,
		Hook:         cfg.Hook,
	})
	if err != nil {
		return stats.Snapshot(), err
	}
	if _, err := holder.CommitMigration(); err != nil {
		return stats.Snapshot(), err
	}
	return stats.Snapshot(), nil
}

// ResumeMigration re-runs the migration recorded in the holder's pending
// placement. resumed is false when nothing was pending.
func ResumeMigration(f cluster.Fabric, dbs []graphdb.Graph, holder *PlacementHolder, cfg MigrationConfig) (stats MigrationStats, resumed bool, err error) {
	pending := holder.Manifest().Pending
	if pending == nil {
		return MigrationStats{}, false, nil
	}
	stats, err = Migrate(f, dbs, holder, *pending, cfg)
	return stats, true, err
}
