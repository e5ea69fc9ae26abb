package ingest

import (
	"encoding/binary"
	"fmt"
	"sort"
	"time"

	"mssg/internal/graph"
	"mssg/internal/graphdb"
	"mssg/internal/obs"
)

// applier applies shipped windows to one database exactly once, for
// ingest's store filter and for a live migration's destination alike. It
// owns the set of applied window ids and, when durable, the
// graphdb.Checkpointer that persists the set: commit stages the set and
// flushes, so the set becomes durable together with the edges stored
// before it. After a crash the restarted back-end reloads the set and
// skips every window the last commit covers; a sender can blindly
// re-ship its whole stream, and any window not covered is stored again.
type applier struct {
	db     graphdb.Graph
	seen   map[uint64]struct{}
	ckpt   graphdb.Checkpointer // nil unless durable
	mStore *obs.Histogram       // StoreEdges latency; nil records nothing
}

// openApplier returns db's applier. When durable it loads the set of the
// last commit, and fails if db cannot checkpoint; what names the caller
// in that error.
func openApplier(db graphdb.Graph, durable bool, what string) (*applier, error) {
	a := &applier{db: db, seen: make(map[uint64]struct{})}
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
	if a.seen, err = decodeSeen(blob); err != nil {
		return nil, err
	}
	a.ckpt = ck
	return a, nil
}

// apply decodes one window payload and stores its edges, unless the
// window was applied before (dup). The id is recorded only once
// StoreEdges has succeeded, so a window whose store failed is stored
// when it is re-shipped instead of being skipped as a duplicate.
func (a *applier) apply(payload []byte) (edges []graph.Edge, dup bool, err error) {
	frontend, seq, edges, err := decodeWindow(payload)
	if err != nil {
		return nil, false, err
	}
	key := windowKey(frontend, seq)
	if _, ok := a.seen[key]; ok {
		return nil, true, nil
	}
	start := time.Now()
	if err := a.db.StoreEdges(edges); err != nil {
		return nil, false, err
	}
	a.mStore.ObserveSince(start)
	a.seen[key] = struct{}{}
	return edges, false, nil
}

// commit stages the applied set, when durable, and flushes the database.
func (a *applier) commit() error {
	if a.ckpt != nil {
		if err := a.ckpt.SetCheckpoint(encodeSeen(a.seen)); err != nil {
			return err
		}
	}
	return a.db.Flush()
}

// ckptMagic versions the checkpoint blob layout.
const ckptMagic = "ICK1"

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

// decodeSeen parses a checkpoint blob back into a dedup-set. A nil or
// empty blob (fresh database) yields an empty set. Must not panic on any
// input.
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
