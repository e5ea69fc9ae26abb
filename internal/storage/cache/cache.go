// Package cache implements grDB's block cache component (paper §3.4.1): a
// byte-budgeted, write-back LRU block cache over one or more block stores
// ("spaces" — grDB registers one space per storage level, since levels
// have different block sizes).
//
// Entries are pinned while a caller holds a Handle; pinned entries are
// never evicted. With a zero byte budget every access misses and unpinned
// entries are written back and dropped immediately, which is exactly the
// "cache disabled" configuration of the paper's Figure 5.2 experiment.
package cache

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"mssg/internal/obs"
)

// Store is the backing storage for one space. *blockio.Store satisfies it.
type Store interface {
	BlockSize() int
	ReadBlock(idx int64, buf []byte) error
	WriteBlock(idx int64, buf []byte) error
}

// Stats counts cache activity since creation, plus an instantaneous
// view of the pin/residency state. The whole struct is snapshotted
// under the same mutex that guards pin updates, so the fields form one
// consistent cut: Pinned can never exceed the number of resident
// entries, and a caller that has released every handle always observes
// Pinned == 0.
type Stats struct {
	Hits       int64
	Misses     int64
	Evictions  int64
	WriteBacks int64
	// Pinned is the number of entries with at least one outstanding
	// Handle at snapshot time.
	Pinned int64
	// Resident is the resident byte count at snapshot time (same value
	// as Size).
	Resident int64
}

type key struct {
	space uint32
	block int64
}

type entry struct {
	key   key
	buf   []byte
	dirty bool
	pins  int
	// Recency list links; the list is circular through BlockCache.lru.
	prev, next *entry
}

// BlockCache is a write-back LRU block cache (see the package comment).
type BlockCache struct {
	mu       sync.Mutex
	capacity int64
	size     int64
	spaces   map[uint32]Store
	entries  map[key]*entry
	// lru is the sentinel of the circular recency list: lru.next is the
	// most recently used entry, lru.prev the least.
	lru entry
	// pinned counts entries with pins > 0; maintained by the same
	// critical sections that change entry.pins so Stats() can report it
	// without scanning.
	pinned int64
	stats  Stats

	// noSteal, when set, forbids writing dirty blocks back to the
	// backing store outside an explicit Flush: eviction skips dirty
	// victims (overshooting the budget if necessary) and zero-budget
	// release keeps dirty entries resident. Durable backends rely on
	// this — a dirty block must not reach its data file before the
	// write-ahead log holding its image is synced (DESIGN.md §11).
	noSteal bool

	// Mirror counters, nil until EnableMetrics (obs counters are nil-safe
	// no-ops).
	mHits, mMisses, mEvictions, mWriteBacks *obs.Counter
}

// EnableMetrics mirrors the cache's counters into reg under
// cache.<label>.{hits,misses,evictions,writebacks}. Counters are shared
// by label, so every cache instance opened under the same label — one
// per backend node — accumulates into one global view.
func (c *BlockCache) EnableMetrics(reg *obs.Registry, label string) {
	if reg == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	p := "cache." + label
	c.mHits = reg.Counter(p + ".hits")
	c.mMisses = reg.Counter(p + ".misses")
	c.mEvictions = reg.Counter(p + ".evictions")
	c.mWriteBacks = reg.Counter(p + ".writebacks")
}

// New creates a cache with the given byte budget. A budget of 0 disables
// caching (every access goes to the backing store).
func New(capacityBytes int64) *BlockCache {
	c := &BlockCache{
		capacity: capacityBytes,
		spaces:   make(map[uint32]Store),
		entries:  make(map[key]*entry),
	}
	c.lru.next, c.lru.prev = &c.lru, &c.lru
	return c
}

// Capacity returns the byte budget the cache was created with.
func (c *BlockCache) Capacity() int64 { return c.capacity }

// AttachSpace registers a backing store under a space id. Each space must
// be attached exactly once before use.
func (c *BlockCache) AttachSpace(space uint32, s Store) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.spaces[space]; dup {
		return fmt.Errorf("cache: space %d already attached", space)
	}
	c.spaces[space] = s
	return nil
}

// SetNoSteal switches the cache's write-back policy; see the noSteal
// field. Call before use; not synchronized with concurrent access.
func (c *BlockCache) SetNoSteal(on bool) { c.noSteal = on }

func (c *BlockCache) unlink(e *entry) {
	e.prev.next = e.next
	e.next.prev = e.prev
	e.prev, e.next = nil, nil
}

func (c *BlockCache) pushFront(e *entry) {
	e.next = c.lru.next
	e.prev = &c.lru
	c.lru.next.prev = e
	c.lru.next = e
}

// pinLocked pins a resident entry and makes it the most recently used.
func (c *BlockCache) pinLocked(e *entry) *Handle {
	if e.pins == 0 {
		c.pinned++
	}
	e.pins++
	c.unlink(e)
	c.pushFront(e)
	return &Handle{c: c, e: e}
}

// victimLocked picks the least recently used evictable entry. Returns
// nil when everything is pinned (or dirty under no-steal).
func (c *BlockCache) victimLocked() *entry {
	for v := c.lru.prev; v != &c.lru; v = v.prev {
		if v.pins == 0 && !(c.noSteal && v.dirty) {
			return v
		}
	}
	return nil
}

// evictLocked writes back and drops unpinned entries until the cache
// fits its budget. Called with c.mu held.
func (c *BlockCache) evictLocked() error {
	for c.size > c.capacity {
		victim := c.victimLocked()
		if victim == nil {
			// Everything is pinned; allow the overshoot. grDB pins at most
			// a handful of blocks at a time, so this stays bounded.
			return nil
		}
		if err := c.dropLocked(victim); err != nil {
			return err
		}
	}
	return nil
}

// writeBackLocked writes one dirty entry to its store.
func (c *BlockCache) writeBackLocked(e *entry) error {
	if err := c.spaces[e.key.space].WriteBlock(e.key.block, e.buf); err != nil {
		return err
	}
	e.dirty = false
	c.stats.WriteBacks++
	c.mWriteBacks.Inc()
	return nil
}

// dropLocked writes back (if dirty) and removes one entry.
func (c *BlockCache) dropLocked(victim *entry) error {
	if victim.dirty {
		if err := c.writeBackLocked(victim); err != nil {
			return err
		}
	}
	c.unlink(victim)
	delete(c.entries, victim.key)
	c.size -= int64(len(victim.buf))
	c.stats.Evictions++
	c.mEvictions.Inc()
	return nil
}

// Handle is a pinned reference to a cached block. The block's bytes may be
// read and mutated through Data until Release; mutators must call
// MarkDirty so the block is written back.
type Handle struct {
	c *BlockCache
	e *entry
}

// Data returns the block's bytes. Valid until Release.
func (h *Handle) Data() []byte { return h.e.buf }

// MarkDirty flags the block for write-back.
func (h *Handle) MarkDirty() {
	h.c.mu.Lock()
	h.e.dirty = true
	h.c.mu.Unlock()
}

// Release unpins the block. The handle must not be used afterwards.
func (h *Handle) Release() error {
	c := h.c
	c.mu.Lock()
	defer c.mu.Unlock()
	if h.e.pins <= 0 {
		return errors.New("cache: release of unpinned handle")
	}
	h.e.pins--
	if h.e.pins > 0 {
		return nil
	}
	c.pinned--
	// Zero-budget mode: write back and drop immediately — except under
	// no-steal, where dirty entries must stay resident until the next
	// Flush.
	if c.capacity <= 0 && !(h.e.dirty && c.noSteal) {
		return c.dropLocked(h.e)
	}
	return nil
}

// Get pins block `block` of space `space`, loading it from the backing
// store on a miss.
func (c *BlockCache) Get(space uint32, block int64) (*Handle, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	store, ok := c.spaces[space]
	if !ok {
		return nil, fmt.Errorf("cache: space %d not attached", space)
	}
	k := key{space: space, block: block}
	if e, hit := c.entries[k]; hit {
		c.stats.Hits++
		c.mHits.Inc()
		return c.pinLocked(e), nil
	}
	c.stats.Misses++
	c.mMisses.Inc()
	buf := make([]byte, store.BlockSize())
	// Drop the lock during the disk read so other blocks stay accessible.
	c.mu.Unlock()
	err := store.ReadBlock(block, buf)
	c.mu.Lock()
	if err != nil {
		return nil, err
	}
	// Re-check: another goroutine may have loaded it meanwhile.
	if e, hit := c.entries[k]; hit {
		return c.pinLocked(e), nil
	}
	e := &entry{key: k, buf: buf, pins: 1}
	c.pinned++
	c.entries[k] = e
	c.pushFront(e)
	c.size += int64(len(buf))
	if err := c.evictLocked(); err != nil {
		return nil, err
	}
	return &Handle{c: c, e: e}, nil
}

// Dirty calls fn for every dirty resident block, in (space, block)
// order, under the cache lock. fn must not re-enter the cache. Durable
// backends use this to log block images to their WAL before Flush
// writes the blocks back.
func (c *BlockCache) Dirty(fn func(space uint32, block int64, data []byte) error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]key, 0, len(c.entries))
	for k, e := range c.entries {
		if e.dirty {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].space != keys[j].space {
			return keys[i].space < keys[j].space
		}
		return keys[i].block < keys[j].block
	})
	for _, k := range keys {
		if err := fn(k.space, k.block, c.entries[k].buf); err != nil {
			return err
		}
	}
	return nil
}

// Flush writes back every dirty block without evicting anything.
func (c *BlockCache) Flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, e := range c.entries {
		if !e.dirty {
			continue
		}
		if err := c.writeBackLocked(e); err != nil {
			return err
		}
	}
	return nil
}

// Discard drops every resident block without writing any back, so the
// changes of dirty blocks are lost. A durable backend calls it to
// abandon a failed mutation, whose blocks no-steal kept off the data
// files. No handle may be held.
func (c *BlockCache) Discard() {
	c.mu.Lock()
	defer c.mu.Unlock()
	clear(c.entries)
	c.lru.next, c.lru.prev = &c.lru, &c.lru
	c.size, c.pinned = 0, 0
}

// Stats returns a snapshot of the cache counters, taken under the same
// lock that guards pinned-handle updates.
func (c *BlockCache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Pinned = c.pinned
	st.Resident = c.size
	return st
}

// Size returns the current resident byte count.
func (c *BlockCache) Size() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.size
}
