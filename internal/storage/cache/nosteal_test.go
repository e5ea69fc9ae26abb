package cache

import (
	"errors"
	"fmt"
	"testing"
)

// memStore records writes so tests can observe write-back behaviour.
type memStore struct {
	blockSize int
	blocks    map[int64][]byte
	writes    int
}

func newMemStore(bs int) *memStore { return &memStore{blockSize: bs, blocks: make(map[int64][]byte)} }

func (m *memStore) BlockSize() int { return m.blockSize }

func (m *memStore) ReadBlock(idx int64, buf []byte) error {
	if b, ok := m.blocks[idx]; ok {
		copy(buf, b)
		return nil
	}
	for i := range buf {
		buf[i] = 0
	}
	return nil
}

func (m *memStore) WriteBlock(idx int64, buf []byte) error {
	m.blocks[idx] = append([]byte(nil), buf...)
	m.writes++
	return nil
}

func dirtyBlock(t *testing.T, c *BlockCache, space uint32, idx int64, fill byte) {
	t.Helper()
	h, err := c.Get(space, idx)
	if err != nil {
		t.Fatal(err)
	}
	h.Data()[0] = fill
	h.MarkDirty()
	if err := h.Release(); err != nil {
		t.Fatal(err)
	}
}

func TestNoStealHoldsDirtyBlocks(t *testing.T) {
	st := newMemStore(64)
	c := New(2 * 64) // room for two blocks
	c.SetNoSteal(true)
	if err := c.AttachSpace(0, st); err != nil {
		t.Fatal(err)
	}
	// Dirty four blocks: budget is exceeded, but none may be written back.
	for i := int64(0); i < 4; i++ {
		dirtyBlock(t, c, 0, i, byte(i+1))
	}
	if st.writes != 0 {
		t.Fatalf("no-steal cache wrote back %d dirty blocks before Flush", st.writes)
	}
	if c.Size() != 4*64 {
		t.Fatalf("resident %d bytes, want overshoot to 256", c.Size())
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if st.writes != 4 {
		t.Fatalf("Flush wrote %d blocks, want 4", st.writes)
	}
	// After Flush the entries are clean and evictable again.
	dirtyBlock(t, c, 0, 9, 0xFF)
	if c.Size() > 3*64 {
		t.Fatalf("clean blocks not evicted after flush: resident %d", c.Size())
	}
}

func TestNoStealZeroBudget(t *testing.T) {
	st := newMemStore(64)
	c := New(0) // cache disabled
	c.SetNoSteal(true)
	if err := c.AttachSpace(0, st); err != nil {
		t.Fatal(err)
	}
	dirtyBlock(t, c, 0, 7, 0xAB)
	if st.writes != 0 {
		t.Fatal("zero-budget no-steal cache wrote back a dirty block on release")
	}
	// The dirty block must still be readable (resident), not silently lost.
	h, err := c.Get(0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if h.Data()[0] != 0xAB {
		t.Fatalf("dirty block content lost: %x", h.Data()[0])
	}
	if err := h.Release(); err != nil {
		t.Fatal(err)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if st.writes != 1 {
		t.Fatalf("Flush wrote %d blocks, want 1", st.writes)
	}
}

func TestDirtyIteratesInOrder(t *testing.T) {
	st0, st1 := newMemStore(64), newMemStore(64)
	c := New(1 << 20)
	c.SetNoSteal(true)
	c.AttachSpace(0, st0)
	c.AttachSpace(1, st1)
	dirtyBlock(t, c, 1, 5, 1)
	dirtyBlock(t, c, 0, 9, 2)
	dirtyBlock(t, c, 0, 2, 3)
	// A clean block must not appear.
	h, err := c.Get(0, 100)
	if err != nil {
		t.Fatal(err)
	}
	h.Release()

	var got []string
	err = c.Dirty(func(space uint32, block int64, data []byte) error {
		got = append(got, fmt.Sprintf("%d/%d", space, block))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"0/2", "0/9", "1/5"}
	if len(got) != len(want) {
		t.Fatalf("Dirty visited %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Dirty visited %v, want %v", got, want)
		}
	}
}

func TestDiscardDropsDirtyBlocks(t *testing.T) {
	st := newMemStore(64)
	c := New(1 << 20)
	c.SetNoSteal(true)
	c.AttachSpace(0, st)
	dirtyBlock(t, c, 0, 3, 0xCD)
	c.Discard()
	if c.Size() != 0 || c.Stats().Pinned != 0 {
		t.Fatalf("after Discard: resident %d, pinned %d", c.Size(), c.Stats().Pinned)
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if st.writes != 0 {
		t.Fatalf("discarded block written back %d times", st.writes)
	}
	// The block reads back from the store, where it was never written.
	h, err := c.Get(0, 3)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	if h.Data()[0] != 0 {
		t.Fatalf("discarded change visible: %x", h.Data()[0])
	}
}

// failStore is a memStore whose writes fail while fail is set.
type failStore struct {
	*memStore
	fail bool
}

func (f *failStore) WriteBlock(idx int64, buf []byte) error {
	if f.fail {
		return errors.New("injected write failure")
	}
	return f.memStore.WriteBlock(idx, buf)
}

// TestFailedWriteBackLeavesNothingPinned: a miss whose eviction cannot
// write its dirty victim back reports the error, leaves the block it
// loaded unpinned, and keeps the victim dirty for a later write-back.
func TestFailedWriteBackLeavesNothingPinned(t *testing.T) {
	st := &failStore{memStore: newMemStore(64)}
	c := New(64) // one block
	if err := c.AttachSpace(0, st); err != nil {
		t.Fatal(err)
	}
	dirtyBlock(t, c, 0, 1, 0xAA)
	st.fail = true
	if _, err := c.Get(0, 2); err == nil {
		t.Fatal("failed eviction write-back not reported")
	}
	if p := c.Stats().Pinned; p != 0 {
		t.Fatalf("Pinned = %d after a failed Get", p)
	}
	st.fail = false
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	if b := st.blocks[1]; b == nil || b[0] != 0xAA {
		t.Fatalf("dirty victim lost: %v", b)
	}
}
