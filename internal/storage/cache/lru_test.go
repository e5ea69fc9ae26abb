package cache

import (
	"math/rand"
	"slices"
	"testing"
)

// get performs a pin/release access and fails the test on error.
func get(t *testing.T, c *BlockCache, space uint32, block int64) {
	t.Helper()
	h, err := c.Get(space, block)
	if err != nil {
		t.Fatalf("Get(%d,%d): %v", space, block, err)
	}
	if err := h.Release(); err != nil {
		t.Fatalf("Release(%d,%d): %v", space, block, err)
	}
}

// lruModel is an independent reimplementation of the LRU policy used as
// the reference for the randomized-trace oracle: an MRU-first slice of
// block ids. All blocks are the same size; the budget is in blocks.
type lruModel struct {
	capBlocks               int
	order                   []int64 // index 0 = MRU
	hits, misses, evictions int64
}

func (m *lruModel) get(b int64) {
	for i, x := range m.order {
		if x == b {
			m.hits++
			m.order = append(append([]int64{b}, m.order[:i]...), m.order[i+1:]...)
			return
		}
	}
	m.misses++
	m.order = append([]int64{b}, m.order...)
	// One insertion of one equal-sized block evicts at most one, and the
	// victim is the LRU tail (the just-inserted, pinned block is at the
	// MRU end).
	if len(m.order) > m.capBlocks {
		m.order = m.order[:m.capBlocks]
		m.evictions++
	}
}

// lruOrder reads the cache's recency list MRU→LRU.
func lruOrder(c *BlockCache) []int64 {
	var out []int64
	for e := c.lru.next; e != &c.lru; e = e.next {
		out = append(out, e.key.block)
	}
	return out
}

// TestLRUOracleRandomTraces drives 1000 independent random traces
// through the cache and a reference model in lockstep, comparing the
// exact recency order and the hit/miss/eviction counters after every
// access.
func TestLRUOracleRandomTraces(t *testing.T) {
	const (
		blockSize = 64
		capBlocks = 6
		traces    = 1000
		opsPer    = 200
	)
	for trace := 0; trace < traces; trace++ {
		rng := rand.New(rand.NewSource(int64(trace) + 1))
		s := newStore(t, blockSize)
		c := New(capBlocks * blockSize)
		if err := c.AttachSpace(0, s); err != nil {
			t.Fatal(err)
		}
		m := &lruModel{capBlocks: capBlocks}
		// Key space ~4× capacity with a skew toward a small hot set, so
		// traces mix re-references, cold misses and evictions.
		for op := 0; op < opsPer; op++ {
			var b int64
			if rng.Intn(2) == 0 {
				b = int64(rng.Intn(4)) // hot
			} else {
				b = int64(rng.Intn(4 * capBlocks))
			}
			get(t, c, 0, b)
			m.get(b)
			if got := lruOrder(c); !slices.Equal(got, m.order) {
				t.Fatalf("trace %d op %d (block %d): order %v, model %v", trace, op, b, got, m.order)
			}
			st := c.Stats()
			if st.Hits != m.hits || st.Misses != m.misses || st.Evictions != m.evictions {
				t.Fatalf("trace %d op %d counters: cache %+v; model hits=%d misses=%d ev=%d",
					trace, op, st, m.hits, m.misses, m.evictions)
			}
		}
		s.Close()
	}
}
