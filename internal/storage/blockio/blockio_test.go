package blockio

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestOpenValidation(t *testing.T) {
	dir := t.TempDir()
	if _, err := Open(dir, "x", 0, 4096); err == nil {
		t.Error("zero block size accepted")
	}
	if _, err := Open(dir, "x", 512, 100); err == nil {
		t.Error("file cap below block size accepted")
	}
	if _, err := Open(dir, "x", 512, 1000); err == nil {
		t.Error("file cap not multiple of block size accepted")
	}
}

func TestReadUnwrittenBlockIsZero(t *testing.T) {
	s, err := Open(t.TempDir(), "z", 256, 1024)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	buf := make([]byte, 256)
	buf[0] = 0xFF // must be overwritten with zeroes
	if err := s.ReadBlock(12345, buf); err != nil {
		t.Fatalf("ReadBlock: %v", err)
	}
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("byte %d = %d, want 0", i, b)
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir(), "rt", 256, 1024)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	want := bytes.Repeat([]byte{0xAB}, 256)
	if err := s.WriteBlock(7, want); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, 256)
	if err := s.ReadBlock(7, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("round trip mismatch")
	}
}

func TestFileStriping(t *testing.T) {
	dir := t.TempDir()
	// 4 blocks per file.
	s, err := Open(dir, "str", 256, 1024)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.BlocksPerFile() != 4 {
		t.Fatalf("BlocksPerFile = %d, want 4", s.BlocksPerFile())
	}
	blk := make([]byte, 256)
	for i := int64(0); i < 10; i++ {
		blk[0] = byte(i)
		if err := s.WriteBlock(i, blk); err != nil {
			t.Fatal(err)
		}
	}
	// Blocks 0-3 in file 0, 4-7 in file 1, 8-9 in file 2.
	for fi := 0; fi < 3; fi++ {
		path := filepath.Join(dir, "str.000"+string(rune('0'+fi)))
		st, err := os.Stat(path)
		if err != nil {
			t.Fatalf("file %d missing: %v", fi, err)
		}
		if st.Size() > 1024 {
			t.Fatalf("file %d exceeds cap: %d bytes", fi, st.Size())
		}
	}
	// Verify a block from the middle file.
	got := make([]byte, 256)
	if err := s.ReadBlock(5, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 5 {
		t.Fatalf("block 5 data = %d", got[0])
	}
}

func TestWrongBufferSizeRejected(t *testing.T) {
	s, err := Open(t.TempDir(), "sz", 256, 1024)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.ReadBlock(0, make([]byte, 100)); err == nil {
		t.Error("short read buffer accepted")
	}
	if err := s.WriteBlock(0, make([]byte, 512)); err == nil {
		t.Error("long write buffer accepted")
	}
	if err := s.ReadBlock(-1, make([]byte, 256)); err == nil {
		t.Error("negative block index accepted")
	}
}

func TestCounters(t *testing.T) {
	s, err := Open(t.TempDir(), "cnt", 256, 1024)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	buf := make([]byte, 256)
	for i := int64(0); i < 3; i++ {
		if err := s.WriteBlock(i, buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.ReadBlock(0, buf); err != nil {
		t.Fatal(err)
	}
	c := s.Counters()
	if c.BlockWrites != 3 || c.BlockReads != 1 {
		t.Fatalf("counters = %+v, want 3 writes 1 read", c)
	}
}

func TestPersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, "p", 256, 1024)
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Repeat([]byte{7}, 256)
	if err := s.WriteBlock(9, want); err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir, "p", 256, 1024)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got := make([]byte, 256)
	if err := s2.ReadBlock(9, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("data lost across reopen")
	}
}

func TestSimulatedLatency(t *testing.T) {
	s, err := Open(t.TempDir(), "lat", 256, 1024)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	buf := make([]byte, 256)
	// A never-written block is served without I/O, so write the one read.
	if err := s.WriteBlock(0, buf); err != nil {
		t.Fatal(err)
	}
	s.SimulateLatency(2*time.Millisecond, 0)
	start := time.Now()
	for i := 0; i < 5; i++ {
		if err := s.ReadBlock(0, buf); err != nil {
			t.Fatal(err)
		}
	}
	if el := time.Since(start); el < 10*time.Millisecond {
		t.Fatalf("5 reads with 2ms simulated latency took %s", el)
	}
}

// TestUnwrittenBlocksReadWithoutIO: a block at or past its file's
// written extent reads as zeroes with no ReadAt, no counted read and no
// simulated latency; a hole below the extent, and every block of a
// reopened store's existing files, is still read from the file.
func TestUnwrittenBlocksReadWithoutIO(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(Config{Dir: dir, Prefix: "x", BlockSize: 64, MaxFileBytes: 64 * 8, Checksums: true})
	if err != nil {
		t.Fatal(err)
	}
	s.SimulateLatency(50*time.Millisecond, 0)
	buf := make([]byte, 64)
	buf[0] = 0xEE
	read := func(idx int64, wantReads int64) {
		t.Helper()
		if err := s.ReadBlock(idx, buf); err != nil {
			t.Fatalf("ReadBlock(%d): %v", idx, err)
		}
		if got := s.Counters().BlockReads; got != wantReads {
			t.Fatalf("after ReadBlock(%d): %d block reads, want %d", idx, got, wantReads)
		}
	}
	start := time.Now()
	read(3, 0)
	read(12, 0) // a second file, never created before
	if el := time.Since(start); el >= 25*time.Millisecond {
		t.Fatalf("two unwritten reads took %s under a 50ms read latency", el)
	}
	if !allZero(buf) {
		t.Fatal("unwritten block not zero")
	}
	s.SimulateLatency(0, 0)
	buf[0] = 7
	if err := s.WriteBlock(2, buf); err != nil {
		t.Fatal(err)
	}
	read(3, 0) // past the extent the write raised
	read(1, 1) // a hole below it is read from the file
	read(2, 2)
	if buf[0] != 7 {
		t.Fatalf("block 2 reads %d, want 7", buf[0])
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s, err = OpenStore(Config{Dir: dir, Prefix: "x", BlockSize: 64, MaxFileBytes: 64 * 8, Checksums: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	read(2, 1) // the reopened file's size is its extent
	read(5, 1)
}
