package ingest

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"mssg/internal/graph"
	"mssg/internal/graphdb"
	"mssg/internal/obs"
)

// applier applies shipped windows to one database exactly once, for
// ingest's store filter and for a live migration's destination alike.
//
// It stages the windows it decodes and stores them with one StoreEdges
// call per limit windows, and whenever its owner commits, so a backend
// appends a whole stage in one vertex-ordered pass instead of one pass
// per window. A window's id enters the set of applied ids only after the
// store holding its edges succeeds; a duplicate of a stored or staged
// window is dropped.
//
// When durable, a graphdb.Checkpointer persists the set: every store is
// a commit, which stages the set and flushes, so the set becomes durable
// together with the edges it covers. After a crash the restarted
// back-end reloads the set and skips every window the last commit
// covers; a sender can blindly re-ship its whole stream, and any window
// not covered is stored again.
type applier struct {
	db    graphdb.Graph
	ckpt  graphdb.Checkpointer // nil unless durable
	limit int                  // staged windows per store

	// The checkpoint: the ids of the windows stored in ingest run run,
	// and whether that run has finished on every back-end (see
	// FinishRun). Migration windows join whatever run the checkpoint
	// holds.
	seen map[uint64]struct{}
	run  uint64
	done bool

	// The stage: windows decoded but not yet stored, and their edges in
	// arrival order.
	staged []stagedWindow
	edges  []graph.Edge

	// stored, when set, sees the windows of every successful store.
	stored func([]stagedWindow)
	mStore *obs.Histogram // StoreEdges latency, per store; nil records nothing
}

// stagedWindow is one staged window: its id, its first edge's source
// (every edge of a replicated window shares a replica set), and its
// edge count.
type stagedWindow struct {
	key uint64
	src graph.VertexID
	n   int
}

// openApplier returns db's applier, storing every limit windows. When
// durable it loads the checkpoint of the last commit, and fails if db
// cannot checkpoint; what names the caller in that error.
func openApplier(db graphdb.Graph, durable bool, what string, limit int) (*applier, error) {
	a := &applier{db: db, limit: limit, seen: make(map[uint64]struct{})}
	if !durable {
		return a, nil
	}
	ck, ok := db.(graphdb.Checkpointer)
	if !ok {
		return nil, fmt.Errorf("ingest: durable %s needs a database implementing graphdb.Checkpointer, got %T", what, db)
	}
	blob, err := ck.GetCheckpoint()
	if err != nil {
		return nil, err
	}
	if a.run, a.done, a.seen, err = decodeCheckpoint(blob); err != nil {
		return nil, err
	}
	a.ckpt = ck
	return a, nil
}

// startRun scopes the applier to ingest run r, which is unfinished until
// FinishRun finishes it. Window ids restart with every run, so a set the
// checkpoint recorded for another run is dropped.
func (a *applier) startRun(r uint64) {
	if a.run != r {
		a.run, a.seen = r, make(map[uint64]struct{})
	}
	a.done = false
}

// apply decodes one window payload onto the stage, unless the window was
// stored or staged before (dup). A full stage is stored, and committed
// when durable.
func (a *applier) apply(payload []byte) (dup bool, err error) {
	frontend, seq, err := windowID(payload)
	if err != nil {
		return false, err
	}
	key := windowKey(frontend, seq)
	if _, ok := a.seen[key]; ok || slices.ContainsFunc(a.staged, func(w stagedWindow) bool { return w.key == key }) {
		return true, nil
	}
	start := len(a.edges)
	a.edges = appendEdges(a.edges, payload)
	w := stagedWindow{key: key, n: len(a.edges) - start}
	if w.n > 0 {
		w.src = a.edges[start].Src
	}
	a.staged = append(a.staged, w)
	if len(a.staged) < a.limit {
		return false, nil
	}
	if a.ckpt != nil {
		return false, a.commit()
	}
	return false, a.store()
}

// store stores the stage with one StoreEdges call and only then records
// its window ids. A failed store drops the stage whole and records none
// of it, so its windows are stored when they are re-shipped instead of
// being skipped as duplicates.
func (a *applier) store() error {
	if len(a.staged) == 0 {
		return nil
	}
	wins := a.staged
	start := time.Now()
	err := a.db.StoreEdges(a.edges)
	a.staged, a.edges = a.staged[:0], a.edges[:0]
	if err != nil {
		return err
	}
	a.mStore.ObserveSince(start)
	for _, w := range wins {
		a.seen[w.key] = struct{}{}
	}
	if a.stored != nil {
		a.stored(wins)
	}
	return nil
}

// commit stores the stage and, when durable, stages the checkpoint;
// then it flushes the database.
func (a *applier) commit() error {
	if err := a.store(); err != nil {
		return err
	}
	if a.ckpt != nil {
		if err := a.ckpt.SetCheckpoint(encodeCheckpoint(a.run, a.done, a.seen)); err != nil {
			return err
		}
	}
	return a.db.Flush()
}

// nextRun picks the ingest run a durable ingest over backends applies:
// the one after the latest run any checkpoint records once every
// back-end records that run as finished (see FinishRun), otherwise the
// latest run again, resumed, so each back-end skips the windows its
// checkpoint holds. A back-end still at an earlier run has not stored
// the latest one, so that run is resumed too. Databases that cannot
// checkpoint are skipped; the store filter's Init reports them.
func nextRun(backends int, db func(copy int) graphdb.Graph) (uint64, error) {
	var lo, hi uint64 = math.MaxUint64, 0
	finished := true
	err := eachCheckpoint(backends, db, func(_ graphdb.Graph, _ graphdb.Checkpointer, run uint64, done bool, _ map[uint64]struct{}) error {
		lo, hi = min(lo, run), max(hi, run)
		finished = finished && done
		return nil
	})
	if err != nil {
		return 0, err
	}
	// lo > hi only when no back-end checkpoints.
	if finished && lo >= hi {
		return hi + 1, nil
	}
	return hi, nil
}

// FinishRun records the durable ingest run over backends as finished in
// every back-end's checkpoint and flushes it, so the next durable ingest
// starts a new run. Call it only after the run's graph returned nil,
// when every back-end has committed the whole run. A crash part-way
// leaves the run unfinished on some back-ends; the next ingest then
// resumes it and skips every window, and finishes it again.
func FinishRun(backends int, db func(copy int) graphdb.Graph) error {
	return eachCheckpoint(backends, db, func(g graphdb.Graph, ck graphdb.Checkpointer, run uint64, _ bool, seen map[uint64]struct{}) error {
		if err := ck.SetCheckpoint(encodeCheckpoint(run, true, seen)); err != nil {
			return err
		}
		return g.Flush()
	})
}

// eachCheckpoint calls fn with the decoded checkpoint of every back-end
// that can checkpoint.
func eachCheckpoint(backends int, db func(copy int) graphdb.Graph,
	fn func(g graphdb.Graph, ck graphdb.Checkpointer, run uint64, done bool, seen map[uint64]struct{}) error) error {
	for i := 0; i < backends; i++ {
		g := db(i)
		ck, ok := g.(graphdb.Checkpointer)
		if !ok {
			continue
		}
		blob, err := ck.GetCheckpoint()
		if err != nil {
			return err
		}
		run, done, seen, err := decodeCheckpoint(blob)
		if err != nil {
			return fmt.Errorf("ingest: back-end %d: %w", i, err)
		}
		if err := fn(g, ck, run, done, seen); err != nil {
			return err
		}
	}
	return nil
}

// Checkpoint blob layouts. ICK1 is a bare window set: magic, count,
// sorted keys. ICK2 prefixes an ICK1 set with its ingest run and a
// finished flag: magic, run, flag, then the ICK1 blob.
const (
	ckptMagic    = "ICK1"
	ckptRunMagic = "ICK2"
	ckptRunBytes = len(ckptRunMagic) + 8 + 1
)

func encodeCheckpoint(run uint64, done bool, seen map[uint64]struct{}) []byte {
	b := make([]byte, ckptRunBytes, ckptRunBytes+12+8*len(seen))
	copy(b, ckptRunMagic)
	binary.LittleEndian.PutUint64(b[4:12], run)
	if done {
		b[12] = 1
	}
	return append(b, encodeSeen(seen)...)
}

// decodeCheckpoint parses a checkpoint blob. A nil or empty blob (fresh
// database) is a finished run 0 with no windows. An ICK1 blob carries no
// run, so it reads as an unfinished run 1: the next ingest resumes it,
// as the code that wrote it would have. Must not panic on any input.
func decodeCheckpoint(b []byte) (run uint64, done bool, seen map[uint64]struct{}, err error) {
	switch {
	case len(b) == 0:
		return 0, true, make(map[uint64]struct{}), nil
	case len(b) >= 4 && string(b[:4]) == ckptMagic:
		seen, err = decodeSeen(b)
		return 1, false, seen, err
	case len(b) < ckptRunBytes+12 || string(b[:4]) != ckptRunMagic || b[12] > 1:
		return 0, false, nil, fmt.Errorf("ingest: malformed checkpoint blob (%d bytes)", len(b))
	}
	seen, err = decodeSeen(b[ckptRunBytes:])
	return binary.LittleEndian.Uint64(b[4:12]), b[12] == 1, seen, err
}

// encodeSeen serializes a window dedup-set: magic, count, sorted keys.
func encodeSeen(seen map[uint64]struct{}) []byte {
	keys := make([]uint64, 0, len(seen))
	for k := range seen {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	b := make([]byte, len(ckptMagic)+8+8*len(keys))
	copy(b, ckptMagic)
	binary.LittleEndian.PutUint64(b[4:12], uint64(len(keys)))
	for i, k := range keys {
		binary.LittleEndian.PutUint64(b[12+8*i:], k)
	}
	return b
}

// decodeSeen parses an ICK1 blob back into a dedup-set. A nil or empty
// blob yields an empty set. Must not panic on any input.
func decodeSeen(b []byte) (map[uint64]struct{}, error) {
	seen := make(map[uint64]struct{})
	if len(b) == 0 {
		return seen, nil
	}
	if len(b) < 12 || string(b[:4]) != ckptMagic {
		return nil, fmt.Errorf("ingest: malformed checkpoint blob (%d bytes)", len(b))
	}
	n := binary.LittleEndian.Uint64(b[4:12])
	if (len(b)-12)%8 != 0 || n != uint64(len(b)-12)/8 {
		return nil, fmt.Errorf("ingest: checkpoint blob claims %d keys in %d bytes", n, len(b))
	}
	for i := 0; i < int(n); i++ {
		seen[binary.LittleEndian.Uint64(b[12+8*i:])] = struct{}{}
	}
	return seen, nil
}
