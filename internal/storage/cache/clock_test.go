package cache

import (
	"fmt"
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

type mkey struct {
	space uint32
	block int64
}

type mentry struct {
	k          mkey
	ref, dirty bool
	pins       int
	val        byte // the block's first byte
}

// clockModel is an independent reimplementation of the CLOCK policy used
// as the reference for the randomized-trace and fuzz oracles: the ring
// as a slice in sweep order, the hand as an index into it. All blocks
// are the same size; the budget is in blocks.
type clockModel struct {
	capBlocks                           int
	noSteal                             bool
	ring                                []mentry
	hand                                int
	disk                                map[mkey]byte
	hits, misses, evictions, writeBacks int64
}

func newClockModel(capBlocks int, noSteal bool) *clockModel {
	return &clockModel{capBlocks: capBlocks, noSteal: noSteal, disk: make(map[mkey]byte)}
}

func (m *clockModel) find(k mkey) int {
	return slices.IndexFunc(m.ring, func(e mentry) bool { return e.k == k })
}

// get pins k: a hit sets the reference bit;
// a miss inserts the block just behind the hand, then evicts.
func (m *clockModel) get(k mkey) {
	if i := m.find(k); i >= 0 {
		m.hits++
		m.ring[i].ref = true
		m.ring[i].pins++
		return
	}
	m.misses++
	m.ring = slices.Insert(m.ring, m.hand, mentry{k: k, pins: 1, val: m.disk[k]})
	if len(m.ring) > 1 {
		m.hand++
	}
	for len(m.ring) > m.capBlocks {
		v := m.victim()
		if v < 0 {
			return
		}
		m.drop(v)
	}
}

// victim advances the hand: a set reference bit is cleared and passed
// over, as is a pinned entry or, under no-steal, a dirty one.
func (m *clockModel) victim() int {
	for n := 2 * len(m.ring); n > 0; n-- {
		i := m.hand
		m.hand = (m.hand + 1) % len(m.ring)
		e := &m.ring[i]
		if e.ref {
			e.ref = false
			continue
		}
		if e.pins == 0 && !(m.noSteal && e.dirty) {
			return i
		}
	}
	return -1
}

func (m *clockModel) drop(i int) {
	if m.ring[i].dirty {
		m.disk[m.ring[i].k] = m.ring[i].val
		m.writeBacks++
	}
	m.ring = slices.Delete(m.ring, i, i+1)
	if i < m.hand {
		m.hand--
	}
	if m.hand >= len(m.ring) {
		m.hand = 0
	}
	m.evictions++
}

func (m *clockModel) release(k mkey) {
	i := m.find(k)
	m.ring[i].pins--
	if m.capBlocks == 0 && m.ring[i].pins == 0 && !(m.noSteal && m.ring[i].dirty) {
		m.drop(i)
	}
}

func (m *clockModel) flush() {
	for i := range m.ring {
		if m.ring[i].dirty {
			m.disk[m.ring[i].k] = m.ring[i].val
			m.ring[i].dirty = false
			m.writeBacks++
		}
	}
}

// order returns the resident blocks in sweep order from the hand.
func (m *clockModel) order() []mkey {
	var out []mkey
	for i := range m.ring {
		out = append(out, m.ring[(m.hand+i)%len(m.ring)].k)
	}
	return out
}

// clockOrder reads the cache's ring in sweep order from the hand.
func clockOrder(c *BlockCache) []mkey {
	var out []mkey
	c.mu.Lock()
	defer c.mu.Unlock()
	for i, e := 0, c.hand; i < c.resident; i, e = i+1, e.next {
		out = append(out, mkey{e.sp.id, e.block})
	}
	return out
}

// checkModel compares the cache's ring order and counters with m's.
func checkModel(c *BlockCache, m *clockModel) error {
	if got, want := clockOrder(c), m.order(); !slices.Equal(got, want) {
		return fmt.Errorf("ring %v, model %v", got, want)
	}
	st := c.Stats()
	if st.Hits != m.hits || st.Misses != m.misses || st.Evictions != m.evictions || st.WriteBacks != m.writeBacks {
		return fmt.Errorf("counters: cache %+v; model hits=%d misses=%d ev=%d wb=%d",
			st, m.hits, m.misses, m.evictions, m.writeBacks)
	}
	var pinned int64
	for _, e := range m.ring {
		if e.pins > 0 {
			pinned++
		}
	}
	if st.Pinned != pinned {
		return fmt.Errorf("Pinned = %d, model %d", st.Pinned, pinned)
	}
	return nil
}

// TestClockOracleRandomTraces drives 1000 independent random traces
// through the cache and the CLOCK model in lockstep, comparing the exact
// ring order from the hand (so the resident set) and the hit, miss and
// eviction counters after every access.
func TestClockOracleRandomTraces(t *testing.T) {
	const (
		blockSize = 64
		capBlocks = 6
		traces    = 1000
		opsPer    = 200
	)
	for trace := 0; trace < traces; trace++ {
		rng := rand.New(rand.NewSource(int64(trace) + 1))
		c := New(capBlocks * blockSize)
		if err := c.AttachSpace(0, newMemStore(blockSize)); err != nil {
			t.Fatal(err)
		}
		m := newClockModel(capBlocks, false)
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
			m.get(mkey{0, b})
			m.release(mkey{0, b})
			if err := checkModel(c, m); err != nil {
				t.Fatalf("trace %d op %d (block %d): %v", trace, op, b, err)
			}
		}
	}
}

// FuzzCacheOracle runs a byte-driven trace of get, dirty, release, flush
// and discard over two spaces against the CLOCK model. The first byte
// picks the budget (0 to 3 blocks) and no-steal; each later byte is one
// operation on one of eight blocks per space. Every Get's first byte is
// checked against the model's value for the block, so a lost or stale
// write-back shows; ring order and counters are compared after every
// operation, and Dirty's listing before every flush.
func FuzzCacheOracle(f *testing.F) {
	f.Add([]byte{0x02, 0x00, 0x08, 0x10, 0x18, 0x20, 0x03, 0x0b, 0x05, 0x06})
	f.Add([]byte{0x04, 0x00, 0x04, 0x02, 0x0a, 0x03, 0x05, 0x07, 0x00, 0x03})
	f.Add([]byte{0x01, 0x09, 0x11, 0x0c, 0x0b, 0x13, 0x06, 0x00, 0x21, 0x03})
	f.Fuzz(func(t *testing.T, trace []byte) {
		if len(trace) == 0 {
			return
		}
		const blockSize = 16
		capBlocks, noSteal := int(trace[0]&3), trace[0]&4 != 0
		c := New(int64(capBlocks * blockSize))
		c.SetNoSteal(noSteal)
		stores := []*memStore{newMemStore(blockSize), newMemStore(blockSize)}
		for i, s := range stores {
			if err := c.AttachSpace(uint32(i), s); err != nil {
				t.Fatal(err)
			}
		}
		m := newClockModel(capBlocks, noSteal)
		type held struct {
			h *Handle
			k mkey
		}
		var pinned []held
		var version byte
		for step, b := range trace[1:] {
			k := mkey{uint32(b>>3) & 1, int64(b>>4) & 7}
			switch b & 7 {
			case 0, 1, 2: // get
				h, err := c.Get(k.space, k.block)
				if err != nil {
					t.Fatal(err)
				}
				m.get(k)
				if got, want := h.Data()[0], m.ring[m.find(k)].val; got != want {
					t.Fatalf("step %d: %v reads %d, model %d", step, k, got, want)
				}
				pinned = append(pinned, held{h, k})
			case 3, 4: // release the oldest, or the newest, handle
				if len(pinned) == 0 {
					continue
				}
				i := 0
				if b&7 == 4 {
					i = len(pinned) - 1
				}
				p := pinned[i]
				pinned = slices.Delete(pinned, i, i+1)
				if err := p.h.Release(); err != nil {
					t.Fatal(err)
				}
				m.release(p.k)
			case 5: // dirty the newest handle
				if len(pinned) == 0 {
					continue
				}
				p := pinned[len(pinned)-1]
				version++
				p.h.Data()[0] = version
				p.h.MarkDirty()
				e := &m.ring[m.find(p.k)]
				e.val, e.dirty = version, true
			case 6: // check Dirty's listing, then flush
				var got, want []mkey
				if err := c.Dirty(func(space uint32, block int64, _ []byte) error {
					got = append(got, mkey{space, block})
					return nil
				}); err != nil {
					t.Fatal(err)
				}
				for _, e := range m.ring {
					if e.dirty {
						want = append(want, e.k)
					}
				}
				slices.SortFunc(want, func(a, b mkey) int {
					if a.space != b.space {
						return int(a.space) - int(b.space)
					}
					return int(a.block - b.block)
				})
				if !slices.Equal(got, want) {
					t.Fatalf("step %d: Dirty listed %v, model %v", step, got, want)
				}
				if err := c.Flush(); err != nil {
					t.Fatal(err)
				}
				m.flush()
			case 7: // release everything, then discard
				for _, p := range pinned {
					if err := p.h.Release(); err != nil {
						t.Fatal(err)
					}
					m.release(p.k)
				}
				pinned = pinned[:0]
				c.Discard()
				m.ring, m.hand = nil, 0
			}
			if err := checkModel(c, m); err != nil {
				t.Fatalf("step %d (op %d on %v): %v", step, b&7, k, err)
			}
		}
	})
}
