package graphdb

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"mssg/internal/obs"
	"mssg/internal/storage/vfs"
)

// DurabilityLevel selects how much crash safety an out-of-core backend
// provides (DESIGN.md §11).
type DurabilityLevel int

const (
	// DurabilityNone is the historical behaviour: writes reach the OS
	// page cache and survive process exit but not a crash or power cut.
	DurabilityNone DurabilityLevel = iota
	// DurabilityFull enables the write-ahead log, per-block checksums,
	// atomic manifest commits, and recovery-on-open: every Flush is an
	// atomic, durable checkpoint, and a crash at any moment loses at
	// most the edges stored since the last completed Flush.
	DurabilityFull
)

func (d DurabilityLevel) String() string {
	switch d {
	case DurabilityNone:
		return "none"
	case DurabilityFull:
		return "full"
	}
	return fmt.Sprintf("DurabilityLevel(%d)", int(d))
}

// ParseDurability maps a command-line durability name to its level.
func ParseDurability(s string) (DurabilityLevel, error) {
	switch s {
	case "none", "":
		return DurabilityNone, nil
	case "full":
		return DurabilityFull, nil
	}
	return 0, fmt.Errorf("unknown durability %q (want none or full)", s)
}

// Options configures a GraphDB instance at open time. Fields irrelevant to
// a backend are ignored by it (the in-memory backends have no directory or
// cache, for example).
type Options struct {
	// Dir is the working directory for out-of-core backends. Each
	// instance owns its directory.
	Dir string

	// CacheBytes is the block/page cache budget for out-of-core backends:
	// 0 selects DefaultCacheBytes, a negative value disables caching
	// (the paper's Figure 5.2 "without cache" configuration).
	CacheBytes int64

	// MaxFileBytes is the per-file cap M of an out-of-core backend's
	// block files (paper: 256 MB). 0 selects DefaultMaxFileBytes.
	MaxFileBytes int64

	// Levels overrides grDB's level ladder for ablation studies. Nil
	// selects the prototype ladder from §4.1.6 (d = 2,4,16,256,4K,16K;
	// B = 4 KB ×4, 32 KB, 256 KB).
	Levels []LevelSpec

	// CopyUpOnOverflow selects grDB's alternative overflow strategy
	// (§3.4.1): when a vertex outgrows a sub-block, move that sub-block's
	// contents into the newly allocated larger one instead of linking to
	// it — extra copying at insertion time buys shorter chains at read
	// time. False (the prototype's choice) links and leaves
	// defragmentation to idle time.
	CopyUpOnOverflow bool

	// SimReadLatency / SimWriteLatency add a simulated device delay to
	// every physical block operation of an out-of-core backend (StreamDB
	// charges them per 256 KB of sequential transfer). The experiment
	// harness uses these to model the paper's cluster disks on a single
	// machine; see blockio.Store.SimulateLatency.
	SimReadLatency  time.Duration
	SimWriteLatency time.Duration

	// Durability selects crash safety for out-of-core backends. The
	// in-memory backends ignore it (they have no durable state at all).
	Durability DurabilityLevel

	// VerifyOnOpen runs the backend's structural consistency check
	// (grDB: Check) after recovery, failing Open on any damage the
	// recovery pass could not repair.
	VerifyOnOpen bool

	// FS is the filesystem out-of-core backends perform durable I/O
	// through. Nil means the real filesystem; the crash suite injects
	// crashfs here.
	FS vfs.FS

	// Metrics, when non-nil, enables per-operation latency histograms
	// (graphdb.<backend>.adjacency_ns / store_ns) and cache counter
	// mirroring in the opened instance, recorded into this registry.
	// Nil keeps the per-op clock reads off the hot path entirely — the
	// default, since a time.Now() pair per adjacency retrieval is
	// measurable on the in-memory backends.
	Metrics *obs.Registry
}

const (
	// DefaultCacheBytes is an out-of-core backend's cache budget when
	// Options.CacheBytes is 0.
	DefaultCacheBytes = 16 << 20
	// DefaultMaxFileBytes is the paper's M = 256 MB per storage file,
	// the cap when Options.MaxFileBytes is 0.
	DefaultMaxFileBytes = 256 << 20
)

// OutOfCore returns o with the defaults grDB, btreedb and reldb share
// resolved, after creating o.Dir: FS is never nil, MaxFileBytes is
// positive, and CacheBytes is the budget for cache.New, 0 for no cache.
// backend prefixes the errors.
func (o Options) OutOfCore(backend string) (Options, error) {
	if o.Dir == "" {
		return o, fmt.Errorf("%s: need a directory", backend)
	}
	switch {
	case o.CacheBytes == 0:
		o.CacheBytes = DefaultCacheBytes
	case o.CacheBytes < 0:
		o.CacheBytes = 0
	}
	if o.MaxFileBytes <= 0 {
		o.MaxFileBytes = DefaultMaxFileBytes
	}
	o.FS = vfs.Or(o.FS)
	if err := o.FS.MkdirAll(o.Dir, 0o755); err != nil {
		return o, fmt.Errorf("%s: %w", backend, err)
	}
	return o, nil
}

// LevelSpec describes one grDB storage level.
type LevelSpec struct {
	// SubBlockCap is d_ℓ: the neighbour capacity of one sub-block.
	SubBlockCap int
	// BlockBytes is B_ℓ: the block size at this level.
	BlockBytes int
}

// OpenFunc opens one backend instance.
type OpenFunc func(opts Options) (Graph, error)

var (
	registryMu sync.RWMutex
	registry   = make(map[string]OpenFunc)
)

// Register adds a backend under a name. Backend packages call this from
// init; import mssg/internal/graphdb/all to get every backend.
func Register(name string, open OpenFunc) {
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("graphdb: backend %q registered twice", name))
	}
	registry[name] = open
}

// Open opens a registered backend by name.
func Open(name string, opts Options) (Graph, error) {
	registryMu.RLock()
	open, ok := registry[name]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("graphdb: unknown backend %q (registered: %v)", name, Backends())
	}
	return open(opts)
}

// Backends returns the registered backend names, sorted.
func Backends() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
