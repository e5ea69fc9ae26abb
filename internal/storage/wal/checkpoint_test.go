package wal

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"mssg/internal/storage/cache"
)

// memStore is an in-memory block store.
type memStore struct {
	blockSize int
	blocks    map[int64][]byte
}

func newMemStore(bs int) *memStore { return &memStore{blockSize: bs, blocks: make(map[int64][]byte)} }

func (m *memStore) BlockSize() int { return m.blockSize }

func (m *memStore) ReadBlock(idx int64, buf []byte) error {
	clear(buf)
	copy(buf, m.blocks[idx])
	return nil
}

func (m *memStore) WriteBlock(idx int64, buf []byte) error {
	m.blocks[idx] = append([]byte(nil), buf...)
	return nil
}

// dirty fills block idx of space with fill through c and leaves it dirty.
func dirty(t *testing.T, c *cache.BlockCache, space uint32, idx int64, fill byte) {
	t.Helper()
	h, err := c.Get(space, idx)
	if err != nil {
		t.Fatal(err)
	}
	for i := range h.Data() {
		h.Data()[i] = fill
	}
	h.MarkDirty()
	if err := h.Release(); err != nil {
		t.Fatal(err)
	}
}

// TestCommitRecover: Recover applies the images of the last committed
// checkpoint, and only those, and returns its state payload.
func TestCommitRecover(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal")
	l, err := Open(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	c := cache.New(1 << 20)
	c.SetNoSteal(true)
	if c.AttachSpace(0, newMemStore(8)) != nil || c.AttachSpace(1, newMemStore(16)) != nil {
		t.Fatal("AttachSpace failed")
	}
	dirty(t, c, 0, 2, 0xA1)
	dirty(t, c, 1, 5, 0xB1)
	if err := l.Commit(c, []byte("first")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("R: a backend's own record")); err != nil {
		t.Fatal(err)
	}
	dirty(t, c, 0, 2, 0xA2)
	if err := l.Commit(c, []byte("second")); err != nil {
		t.Fatal(err)
	}
	// A third checkpoint whose state record never made it to the log.
	dirty(t, c, 0, 3, 0xA3)
	if err := c.Dirty(func(space uint32, block int64, data []byte) error {
		_, err := l.Append(EncodeImage(space, block, data))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	l.Close()

	l, err = Open(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	s0, s1 := newMemStore(8), newMemStore(16)
	state, seq, err := l.Recover(map[uint32]cache.Store{0: s0, 1: s1})
	if err != nil {
		t.Fatal(err)
	}
	if string(state) != "second" || seq != 7 {
		t.Fatalf("Recover = %q at seq %d, want \"second\" at 7", state, seq)
	}
	if got := s0.blocks[2]; !bytes.Equal(got, bytes.Repeat([]byte{0xA2}, 8)) {
		t.Fatalf("space 0 block 2 = %x, want the last committed image", got)
	}
	if got := s1.blocks[5]; !bytes.Equal(got, bytes.Repeat([]byte{0xB1}, 16)) {
		t.Fatalf("space 1 block 5 = %x", got)
	}
	if _, ok := s0.blocks[3]; ok {
		t.Fatal("image of an uncommitted checkpoint applied")
	}
}

func TestRecoverWithoutStateWritesNothing(t *testing.T) {
	l, err := Open(nil, filepath.Join(t.TempDir(), "wal"))
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append(EncodeImage(0, 1, make([]byte, 8))); err != nil {
		t.Fatal(err)
	}
	if err := l.Sync(); err != nil {
		t.Fatal(err)
	}
	s := newMemStore(8)
	state, seq, err := l.Recover(map[uint32]cache.Store{0: s})
	if err != nil || state != nil || seq != 0 || len(s.blocks) != 0 {
		t.Fatalf("Recover = %q, %d, %v with %d blocks written", state, seq, err, len(s.blocks))
	}
}

func TestRecoverRejectsBadImages(t *testing.T) {
	for _, tc := range []struct {
		name string
		rec  []byte
		want string
	}{
		{"unknown space", EncodeImage(7, 0, make([]byte, 8)), "unknown space"},
		{"negative block", EncodeImage(0, -1, make([]byte, 8)), "negative block"},
		{"wrong size", EncodeImage(0, 0, make([]byte, 9)), "9 bytes, want 8"},
		{"short", []byte{KindImage, 0}, "malformed"},
	} {
		l, err := Open(nil, filepath.Join(t.TempDir(), "wal"))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := l.Append(tc.rec); err != nil {
			t.Fatal(err)
		}
		if _, err := l.Append(EncodeState(nil)); err != nil {
			t.Fatal(err)
		}
		if err := l.Sync(); err != nil {
			t.Fatal(err)
		}
		_, _, err = l.Recover(map[uint32]cache.Store{0: newMemStore(8)})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Recover error %v, want one naming %q", tc.name, err, tc.want)
		}
		l.Close()
	}
}

// FuzzCheckpointRecordDecode feeds arbitrary bytes to the image decoder
// and to the per-image checks Recover applies: no input may panic, a
// decoded image must re-encode to its input, and only a well-formed
// image of the right size may reach a store.
func FuzzCheckpointRecordDecode(f *testing.F) {
	f.Add(EncodeImage(0, 1, []byte("page-of-16-bytes")))
	f.Add(EncodeImage(1, 1<<40, nil))
	f.Add([]byte{KindImage})
	f.Add(EncodeState([]byte("state")))
	f.Fuzz(func(t *testing.T, b []byte) {
		space, block, data, err := decodeImage(b)
		if err == nil && !bytes.Equal(EncodeImage(space, block, data), b) {
			t.Fatalf("image round trip mismatch for %x", b)
		}
		s := newMemStore(16)
		if applyImage(map[uint32]cache.Store{0: s}, b) == nil {
			if err != nil || space != 0 || block < 0 || !bytes.Equal(s.blocks[block], data) {
				t.Fatalf("applied a bad image %x", b)
			}
		} else if len(s.blocks) != 0 {
			t.Fatalf("rejected image %x reached the store", b)
		}
	})
}
