// Package cache implements grDB's block cache component (paper §3.4.1): a
// byte-budgeted, write-back CLOCK block cache over one or more block
// stores ("spaces" — grDB registers one space per storage level, since
// levels have different block sizes).
//
// A hit takes no lock and allocates nothing: the entry, found in a dense
// block index, is itself the Handle, pinned and unpinned with one CAS
// each. Everything else runs under one mutex. Pinned entries are never
// evicted. With a zero byte budget every access misses and unpinned
// entries are written back and dropped immediately, which is exactly the
// "cache disabled" configuration of the paper's Figure 5.2 experiment.
package cache

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"mssg/internal/obs"
)

// Store is the backing storage for one space. *blockio.Store satisfies it.
type Store interface {
	BlockSize() int
	ReadBlock(idx int64, buf []byte) error
	WriteBlock(idx int64, buf []byte) error
}

// Stats counts cache activity since creation, plus an instantaneous
// view of the pin/residency state. All but Hits is one cut taken under
// the cache mutex: Pinned, counted by a scan of the resident entries,
// never exceeds their number and reads 0 once every handle is released.
// Hits are counted without the lock; one racing the snapshot may be missed.
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

// The dense block index: pages of 4096 entry pointers indexed by block
// number (below 2^32), each installed on first touch by publishing a copy
// of the space's page directory. It costs 8 B per block of touched pages.
const (
	indexPageBits = 12
	indexPageLen  = 1 << indexPageBits
	maxSpaces     = 16
)

type indexPage [indexPageLen]atomic.Pointer[Handle]

// space is one attached store and its block index.
type space struct {
	id    uint32
	store Store
	dir   atomic.Pointer[[]*indexPage]
}

// lookup returns block's indexed entry, or nil; it takes no lock.
func (s *space) lookup(block int64) *Handle {
	if d, pi := *s.dir.Load(), uint64(block)>>indexPageBits; pi < uint64(len(d)) && d[pi] != nil {
		return d[pi][block&(indexPageLen-1)].Load()
	}
	return nil
}

// set indexes e (nil to remove) under block, installing its page first
// if need be. Caller holds the cache mutex.
func (s *space) set(block int64, e *Handle) {
	d, pi := *s.dir.Load(), int(block>>indexPageBits)
	if pi >= len(d) || d[pi] == nil {
		nd := make([]*indexPage, max(len(d), pi+1))
		copy(nd, d)
		nd[pi] = new(indexPage)
		s.dir.Store(&nd)
		d = nd
	}
	d[pi][block&(indexPageLen-1)].Store(e)
}

// BlockCache is a write-back CLOCK block cache (see the package comment).
type BlockCache struct {
	capacity int64
	spaces   [maxSpaces]atomic.Pointer[space]

	mu   sync.Mutex
	size int64
	// hand is the next entry the CLOCK sweep examines, nil when nothing
	// is resident; the ring links resident entries through prev/next.
	hand     *Handle
	resident int
	stats    Stats // Hits holds only dropped entries' hits

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
// per backend node — accumulates into one global view. Call before use.
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
	return &BlockCache{capacity: capacityBytes}
}

// Capacity returns the byte budget the cache was created with.
func (c *BlockCache) Capacity() int64 { return c.capacity }

// AttachSpace registers a backing store under a space id below 16. Each
// space must be attached exactly once before use.
func (c *BlockCache) AttachSpace(id uint32, s Store) error {
	if id >= maxSpaces {
		return fmt.Errorf("cache: space id %d out of range", id)
	}
	sp := &space{id: id, store: s}
	sp.dir.Store(new([]*indexPage))
	if !c.spaces[id].CompareAndSwap(nil, sp) {
		return fmt.Errorf("cache: space %d already attached", id)
	}
	return nil
}

// SetNoSteal switches the cache's write-back policy; see the noSteal
// field. Call before use; not synchronized with concurrent access.
func (c *BlockCache) SetNoSteal(on bool) { c.noSteal = on }

// evictLocked sweeps the CLOCK hand over the ring of resident entries
// until the cache fits its budget. It passes over a pinned entry, a dirty
// one under no-steal and one whose reference bit it clears, and claims a
// victim by moving its pin count from 0 to -1, refusing all later pins.
// After two turns all is pinned: the budget is overshot (grDB pins few).
func (c *BlockCache) evictLocked() error {
	for n := 2 * c.resident; c.size > c.capacity && n > 0; n-- {
		e := c.hand
		c.hand = e.next
		if e.ref.Swap(false) || c.noSteal && e.dirty || !e.pins.CompareAndSwap(0, -1) {
			continue
		}
		if err := c.dropLocked(e); err != nil {
			return err
		}
		n = 2*c.resident + 1
	}
	return nil
}

// writeBackLocked writes one dirty entry to its store.
func (c *BlockCache) writeBackLocked(e *Handle) error {
	if err := e.sp.store.WriteBlock(e.block, e.buf); err != nil {
		return err
	}
	e.dirty = false
	c.stats.WriteBacks++
	c.mWriteBacks.Inc()
	return nil
}

// dropLocked writes back (if dirty) and removes an entry its caller has
// claimed (pins == -1). A failed write-back undoes the claim and leaves
// the entry resident.
func (c *BlockCache) dropLocked(victim *Handle) error {
	if victim.dirty {
		if err := c.writeBackLocked(victim); err != nil {
			victim.pins.Store(0)
			return err
		}
	}
	victim.sp.set(victim.block, nil)
	switch {
	case victim.next == victim:
		c.hand = nil
	case c.hand == victim:
		c.hand = victim.next
	}
	victim.prev.next, victim.next.prev = victim.next, victim.prev
	c.resident--
	c.size -= int64(len(victim.buf))
	c.stats.Hits += victim.hits.Load()
	c.stats.Evictions++
	c.mEvictions.Inc()
	return nil
}

// Handle is a pinned reference to a cached block; it is the cache entry
// itself. The block's bytes may be read and mutated through Data until
// Release; mutators must call MarkDirty so the block is written back.
type Handle struct {
	c     *BlockCache
	sp    *space
	block int64
	buf   []byte
	// pins counts pins, -1 once eviction claims the entry. Hits are
	// counted beside it, so hits on different blocks share no counter.
	pins atomic.Int32
	ref  atomic.Bool // CLOCK reference bit
	hits atomic.Int64
	// Guarded by c.mu.
	dirty      bool
	prev, next *Handle
}

// Data returns the block's bytes. Valid until Release.
func (h *Handle) Data() []byte { return h.buf }

// MarkDirty flags the block for write-back.
func (h *Handle) MarkDirty() {
	h.c.mu.Lock()
	h.dirty = true
	h.c.mu.Unlock()
}

// Release unpins the block. The handle must not be used afterwards. With
// a zero budget the last release writes back and drops the entry, unless
// no-steal keeps it resident, dirty, until the next Flush.
func (h *Handle) Release() error {
	c := h.c
	if c.capacity <= 0 {
		c.mu.Lock()
		defer c.mu.Unlock()
	}
	p := h.pins.Load()
	for ; p > 0 && !h.pins.CompareAndSwap(p, p-1); p = h.pins.Load() {
	}
	if p <= 0 {
		return errors.New("cache: release of unpinned handle")
	}
	if c.capacity > 0 || c.noSteal && h.dirty || !h.pins.CompareAndSwap(0, -1) {
		return nil
	}
	return c.dropLocked(h)
}

func (c *BlockCache) hit(e *Handle) *Handle {
	e.ref.Store(true)
	e.hits.Add(1)
	c.mHits.Inc()
	return e
}

// Get pins block `block` of space `space`, loading it from the backing
// store on a miss.
func (c *BlockCache) Get(space uint32, block int64) (*Handle, error) {
	sp := c.spaces[space%maxSpaces].Load()
	if sp == nil || space >= maxSpaces {
		return nil, fmt.Errorf("cache: space %d not attached", space)
	}
	if e := sp.lookup(block); e != nil {
		for p := e.pins.Load(); p >= 0; p = e.pins.Load() {
			if e.pins.CompareAndSwap(p, p+1) {
				return c.hit(e), nil
			}
		}
	}
	return c.getLocked(sp, block)
}

// getLocked is Get's path under the mutex. Entries are claimed only in
// the mutex's critical sections, so an increment pins an indexed one.
func (c *BlockCache) getLocked(sp *space, block int64) (*Handle, error) {
	if block < 0 || block >= 1<<32 {
		return nil, fmt.Errorf("cache: block %d outside [0, 2^32)", block)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e := sp.lookup(block); e != nil {
		e.pins.Add(1)
		return c.hit(e), nil
	}
	c.stats.Misses++
	c.mMisses.Inc()
	buf := make([]byte, sp.store.BlockSize())
	// Drop the lock during the disk read so other blocks stay accessible.
	c.mu.Unlock()
	err := sp.store.ReadBlock(block, buf)
	c.mu.Lock()
	if err != nil {
		return nil, err
	}
	// Re-check: another goroutine may have loaded it meanwhile.
	if e := sp.lookup(block); e != nil {
		e.pins.Add(1)
		return e, nil
	}
	e := &Handle{c: c, sp: sp, block: block, buf: buf}
	e.pins.Store(1)
	sp.set(block, e)
	// Link e just behind the hand, so the sweep reaches it last.
	if c.hand == nil {
		c.hand, e.prev, e.next = e, e, e
	}
	e.prev, e.next = c.hand.prev, c.hand
	e.prev.next, e.next.prev = e, e
	c.resident++
	c.size += int64(len(buf))
	if err := c.evictLocked(); err != nil {
		e.pins.Add(-1)
		return nil, err
	}
	return e, nil
}

// Dirty calls fn for every dirty resident block, in (space, block) order
// (it walks the indexes), under the cache lock. fn must not re-enter the
// cache. Durable backends use this to log block images to their WAL
// before Flush writes the blocks back.
func (c *BlockCache) Dirty(fn func(space uint32, block int64, data []byte) error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.spaces {
		if sp := c.spaces[i].Load(); sp != nil {
			for _, p := range *sp.dir.Load() {
				for j := 0; p != nil && j < indexPageLen; j++ {
					if e := p[j].Load(); e != nil && e.dirty {
						if err := fn(sp.id, e.block, e.buf); err != nil {
							return err
						}
					}
				}
			}
		}
	}
	return nil
}

// Flush writes back every dirty block without evicting anything.
func (c *BlockCache) Flush() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, e := 0, c.hand; i < c.resident; i, e = i+1, e.next {
		if e.dirty {
			if err := c.writeBackLocked(e); err != nil {
				return err
			}
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
	for i, e := 0, c.hand; i < c.resident; i, e = i+1, e.next {
		e.pins.Store(-1)
		e.sp.set(e.block, nil)
		c.stats.Hits += e.hits.Load()
	}
	c.hand, c.resident, c.size = nil, 0, 0
}

// Stats returns a snapshot of the cache counters.
func (c *BlockCache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Resident = c.size
	for i, e := 0, c.hand; i < c.resident; i, e = i+1, e.next {
		st.Hits += e.hits.Load()
		if e.pins.Load() > 0 {
			st.Pinned++
		}
	}
	return st
}

// Size returns the current resident byte count.
func (c *BlockCache) Size() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.size
}
