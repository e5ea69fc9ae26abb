package cache

import (
	"sync"
	"testing"

	"mssg/internal/obs"
)

// TestConcurrentGetStats hammers Get/MarkDirty/Release from many
// goroutines while another goroutine snapshots Stats, under -race. It
// then checks the invariants the under-one-lock snapshot guarantees:
// every observed snapshot has Pinned bounded by the worker count and
// Resident bounded by capacity-plus-pinned-overshoot, and after all
// handles are released the final snapshot reports Pinned == 0 with
// hits+misses equal to the number of Gets issued.
func TestConcurrentGetStats(t *testing.T) {
	const (
		blockSize = 128
		workers   = 8
		iters     = 400
		blocks    = 32
	)
	s := newStore(t, blockSize)
	// Small budget (4 blocks) so eviction and reload churn constantly.
	c := New(4 * blockSize)
	if err := c.AttachSpace(0, s); err != nil {
		t.Fatal(err)
	}
	// Private registry so this test's mirror assertions are isolated.
	reg := obs.NewRegistry()
	c.EnableMetrics(reg, "racetest")

	var wg sync.WaitGroup
	stop := make(chan struct{})
	statsDone := make(chan struct{})
	go func() {
		defer close(statsDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			st := c.Stats()
			if st.Pinned < 0 || st.Pinned > workers {
				t.Errorf("snapshot Pinned = %d with %d workers", st.Pinned, workers)
				return
			}
			if st.Resident < 0 {
				t.Errorf("snapshot Resident = %d", st.Resident)
				return
			}
		}
	}()

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				block := int64((w*31 + i) % blocks)
				h, err := c.Get(0, block)
				if err != nil {
					t.Errorf("Get(%d): %v", block, err)
					return
				}
				if i%3 == 0 {
					// Two workers may legitimately pin the same block at
					// once, so each writes its own word-aligned offset:
					// concurrent mutation of one byte through two handles
					// would be a caller-side data race, not a cache bug.
					h.Data()[w*8] = byte(i)
					h.MarkDirty()
				}
				if err := h.Release(); err != nil {
					t.Errorf("Release: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	<-statsDone

	st := c.Stats()
	if st.Pinned != 0 {
		t.Fatalf("all handles released but Pinned = %d", st.Pinned)
	}
	if got, want := st.Hits+st.Misses, int64(workers*iters); got != want {
		t.Fatalf("hits+misses = %d, want %d", got, want)
	}
	if st.Resident != c.Size() {
		t.Fatalf("Stats.Resident = %d, Size() = %d", st.Resident, c.Size())
	}
	// 32 working-set blocks against a 4-block budget must have churned.
	if st.Evictions == 0 {
		t.Fatal("expected evictions under a 4-block budget")
	}
	// The obs mirror must agree exactly with the under-lock counters.
	snap := reg.Snapshot()
	for name, want := range map[string]int64{
		"cache.racetest.hits":       st.Hits,
		"cache.racetest.misses":     st.Misses,
		"cache.racetest.evictions":  st.Evictions,
		"cache.racetest.writebacks": st.WriteBacks,
	} {
		if got := snap.Counters[name]; got != want {
			t.Fatalf("%s = %d, want %d", name, got, want)
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestLockFreePinStress races lock-free pins against eviction under
// -race: readers pin and release blocks of two spaces while a budget of
// two blocks forces constant eviction and other goroutines interleave
// MarkDirty and Flush, once per policy (write-back, zero budget,
// no-steal), with a Discard between rounds. Every handle must hold its
// own block's pattern and stay the indexed entry while pinned, hits plus
// misses must equal the Gets issued, and Pinned must be 0 once every
// handle is released.
func TestLockFreePinStress(t *testing.T) {
	const (
		workers = 8
		iters   = 1500
		blocks  = 24
		rounds  = 3
	)
	sizes := []int{64, 128}
	pattern := func(space uint32, block int64, i int) byte { return byte(int(space)*101 + int(block)*7 + i) }
	for _, mode := range []struct {
		name    string
		budget  int64
		noSteal bool
	}{{"writeback", 2 * 128, false}, {"zero-budget", 0, false}, {"no-steal", 2 * 128, true}} {
		t.Run(mode.name, func(t *testing.T) {
			c := New(mode.budget)
			c.SetNoSteal(mode.noSteal)
			for sp, size := range sizes {
				s := newStore(t, size)
				buf := make([]byte, size)
				for b := int64(0); b < blocks; b++ {
					for i := range buf {
						buf[i] = pattern(uint32(sp), b, i)
					}
					if err := s.WriteBlock(b, buf); err != nil {
						t.Fatal(err)
					}
				}
				if err := c.AttachSpace(uint32(sp), s); err != nil {
					t.Fatal(err)
				}
			}
			var gets int64
			for round := 0; round < rounds; round++ {
				var wg sync.WaitGroup
				for w := 0; w < workers; w++ {
					wg.Add(1)
					go func(w int) {
						defer wg.Done()
						for i := 0; i < iters; i++ {
							sp, b := uint32((w+i)%2), int64((w*13+i*5)%blocks)
							h, err := c.Get(sp, b)
							if err != nil {
								t.Errorf("Get(%d,%d): %v", sp, b, err)
								return
							}
							for j, x := range h.Data() {
								if x != pattern(sp, b, j) {
									t.Errorf("space %d block %d byte %d = %d, want %d", sp, b, j, x, pattern(sp, b, j))
									break
								}
							}
							// A pinned entry cannot be evicted, so it stays
							// the one the index holds for its block.
							if h.sp.lookup(b) != h {
								t.Errorf("pinned space %d block %d is not the indexed entry", sp, b)
							}
							switch {
							case w == 0 && i%7 == 0:
								if err := c.Flush(); err != nil {
									t.Errorf("Flush: %v", err)
								}
							case i%3 == 0:
								// Dirty without changing a byte: readers of
								// the same block run concurrently.
								h.MarkDirty()
							}
							if err := h.Release(); err != nil {
								t.Errorf("Release: %v", err)
								return
							}
						}
					}(w)
				}
				wg.Wait()
				gets += workers * iters
				st := c.Stats()
				if st.Pinned != 0 {
					t.Fatalf("round %d: every handle released but Pinned = %d", round, st.Pinned)
				}
				if st.Hits+st.Misses != gets {
					t.Fatalf("round %d: hits+misses = %d, want %d", round, st.Hits+st.Misses, gets)
				}
				if err := c.Flush(); err != nil {
					t.Fatal(err)
				}
				c.Discard()
			}
		})
	}
}
