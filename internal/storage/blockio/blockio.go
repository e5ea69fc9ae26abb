// Package blockio provides the multi-file block storage grDB sits on
// (paper §3.4.1): a logically unbounded array of fixed-size blocks,
// striped across files capped at M bytes each. Blocks are the smallest
// unit of I/O; sub-block packing and addressing live in the grDB layer.
//
// Blocks are implicitly zero until first written: reading a block past the
// current end of its file (or from a file that does not exist yet) yields
// zeroes without error, matching the "fresh storage" semantics grDB's
// word encoding relies on. Each file's written extent is tracked in
// memory, so a block at or past it is zeroed without a read: no ReadAt,
// no counted block read and no simulated latency.
//
// # Durability
//
// With Config.Checksums enabled, every block carries a CRC32-C checksum
// and a generation stamp in a sidecar file ("<prefix>.<n>.sum", 16 bytes
// per block). WriteBlock records the checksum after the data write;
// ReadBlock verifies it and returns an error wrapping ErrCorrupt on any
// mismatch — a torn or bit-flipped block can never be read as valid. A
// block whose data is non-zero but whose checksum entry was never
// written is exactly the signature of a crash between the two writes and
// is reported the same way. All file I/O goes through a vfs.FS so the
// crash suite can cut, tear, or corrupt any write.
package blockio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"mssg/internal/storage/vfs"
)

var le = binary.LittleEndian

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("blockio: store closed")

// ErrCorrupt is wrapped by read errors when a block's content does not
// match its recorded checksum (torn write, bit rot, or a data write whose
// checksum update never landed).
var ErrCorrupt = errors.New("blockio: corrupt block")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Config parameterizes OpenStore.
type Config struct {
	// Dir is the directory holding the block files.
	Dir string
	// Prefix names this store's files: "<prefix>.<n>" (+ ".sum").
	Prefix string
	// BlockSize is the fixed block size in bytes.
	BlockSize int
	// MaxFileBytes is the per-file cap M (paper: 256 MB); must be a
	// positive multiple of BlockSize.
	MaxFileBytes int64
	// Checksums enables the per-block CRC32-C + generation sidecar.
	Checksums bool
	// FS is the filesystem to use; nil means the real one.
	FS vfs.FS
}

// sumEntryBytes is the sidecar record per block:
// {crc uint32, written uint32, generation uint64}.
const sumEntryBytes = 16

type sumEntry struct {
	crc     uint32
	written bool
	gen     uint64
}

func (e sumEntry) encode(b []byte) {
	le.PutUint32(b[0:4], e.crc)
	var w uint32
	if e.written {
		w = 1
	}
	le.PutUint32(b[4:8], w)
	le.PutUint64(b[8:16], e.gen)
}

func decodeSumEntry(b []byte) sumEntry {
	return sumEntry{
		crc:     le.Uint32(b[0:4]),
		written: le.Uint32(b[4:8]) != 0,
		gen:     le.Uint64(b[8:16]),
	}
}

// perFile is one data file plus its (optional) checksum sidecar.
type perFile struct {
	data vfs.File
	sum  vfs.File
	// extent is the data file's size: its size at open, raised before
	// every write to cover it.
	extent atomic.Int64
	// entries mirrors the sidecar in memory; len grows on demand.
	entries []sumEntry
}

// Store is one level's block file set.
type Store struct {
	fsys          vfs.FS
	dir           string
	prefix        string
	blockSize     int
	blocksPerFile int64
	checksums     bool

	mu     sync.Mutex
	files  map[int64]*perFile
	closed bool

	reads        atomic.Int64
	writes       atomic.Int64
	readBytes    atomic.Int64
	writeBytes   atomic.Int64
	checksumErrs atomic.Int64

	// Simulated per-block latencies (see SimulateLatency). Debt is
	// accumulated and paid in quanta: one timer event per microsecond of
	// simulated latency would swamp a small machine's scheduler and stop
	// node goroutines from overlapping their waits.
	readLatency  time.Duration
	writeLatency time.Duration
	latencyOwed  atomic.Int64 // nanoseconds not yet slept
}

// latencyQuantum is the smallest simulated-latency debt actually slept.
const latencyQuantum = time.Millisecond

// charge adds simulated latency debt and sleeps once a full quantum is
// owed.
func (s *Store) charge(d time.Duration) {
	if d <= 0 {
		return
	}
	owed := s.latencyOwed.Add(int64(d))
	if owed >= int64(latencyQuantum) && s.latencyOwed.CompareAndSwap(owed, 0) {
		time.Sleep(time.Duration(owed))
	}
}

// Counters reports physical block I/O performed so far. BytesRead /
// BytesWritten count bytes actually transferred: one block per read or
// write, except a read of a block never written, which moves nothing
// and counts nothing.
type Counters struct {
	BlockReads       int64
	BlockWrites      int64
	BytesRead        int64
	BytesWritten     int64
	ChecksumFailures int64
}

// Add returns the field-wise sum of two counter snapshots.
func (c Counters) Add(o Counters) Counters {
	return Counters{
		BlockReads:       c.BlockReads + o.BlockReads,
		BlockWrites:      c.BlockWrites + o.BlockWrites,
		BytesRead:        c.BytesRead + o.BytesRead,
		BytesWritten:     c.BytesWritten + o.BytesWritten,
		ChecksumFailures: c.ChecksumFailures + o.ChecksumFailures,
	}
}

// Open creates (or reopens) a plain block store in dir — no checksums,
// real filesystem. Files are named "<prefix>.<n>". maxFileBytes is the
// paper's M (256 MB in the prototype); it must be a positive multiple of
// blockSize.
func Open(dir, prefix string, blockSize int, maxFileBytes int64) (*Store, error) {
	return OpenStore(Config{Dir: dir, Prefix: prefix, BlockSize: blockSize, MaxFileBytes: maxFileBytes})
}

// OpenStore creates (or reopens) a block store.
func OpenStore(cfg Config) (*Store, error) {
	if cfg.BlockSize <= 0 {
		return nil, fmt.Errorf("blockio: block size must be positive, got %d", cfg.BlockSize)
	}
	if cfg.MaxFileBytes < int64(cfg.BlockSize) || cfg.MaxFileBytes%int64(cfg.BlockSize) != 0 {
		return nil, fmt.Errorf("blockio: max file size %d must be a positive multiple of block size %d", cfg.MaxFileBytes, cfg.BlockSize)
	}
	fsys := vfs.Or(cfg.FS)
	if err := fsys.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("blockio: %w", err)
	}
	return &Store{
		fsys:          fsys,
		dir:           cfg.Dir,
		prefix:        cfg.Prefix,
		blockSize:     cfg.BlockSize,
		blocksPerFile: cfg.MaxFileBytes / int64(cfg.BlockSize),
		checksums:     cfg.Checksums,
		files:         make(map[int64]*perFile),
	}, nil
}

// SimulateLatency adds a fixed delay to every physical block read/write.
//
// The experiment harness uses this to model the paper's cluster disks:
// on a single development machine the block files sit in the OS page
// cache, so without a simulated device latency the out-of-core
// experiments measure memcpy, every node's I/O completes instantly, and
// the paper's back-end scaling disappears. With a per-block delay, node
// goroutines overlap their (simulated) I/O waits exactly as the cluster
// overlapped real disk accesses. Call before use; not synchronized with
// concurrent I/O.
func (s *Store) SimulateLatency(read, write time.Duration) {
	s.readLatency = read
	s.writeLatency = write
}

// BlockSize returns the fixed block size in bytes.
func (s *Store) BlockSize() int { return s.blockSize }

// BlocksPerFile returns N = M / B, the per-file block capacity.
func (s *Store) BlocksPerFile() int64 { return s.blocksPerFile }

// Checksums reports whether this store verifies per-block checksums.
func (s *Store) Checksums() bool { return s.checksums }

// file returns the handles for file index fi, creating them on demand.
func (s *Store) file(fi int64) (*perFile, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	if f, ok := s.files[fi]; ok {
		return f, nil
	}
	path := filepath.Join(s.dir, fmt.Sprintf("%s.%04d", s.prefix, fi))
	data, err := s.fsys.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("blockio: %w", err)
	}
	pf := &perFile{data: data}
	size, err := data.Size()
	if err != nil {
		data.Close()
		return nil, fmt.Errorf("blockio: %w", err)
	}
	pf.extent.Store(size)
	if s.checksums {
		sum, err := s.fsys.OpenFile(path+".sum", os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			data.Close()
			return nil, fmt.Errorf("blockio: %w", err)
		}
		pf.sum = sum
		if err := pf.loadSums(); err != nil {
			data.Close()
			sum.Close()
			return nil, err
		}
	}
	s.files[fi] = pf
	return pf, nil
}

// loadSums reads the whole sidecar into memory. A trailing partial entry
// (torn sidecar write) decodes from its zero-padded remainder; the CRC
// check on the corresponding block read surfaces the damage.
func (pf *perFile) loadSums() error {
	size, err := pf.sum.Size()
	if err != nil {
		return fmt.Errorf("blockio: %w", err)
	}
	if size == 0 {
		return nil
	}
	raw := make([]byte, ((size+sumEntryBytes-1)/sumEntryBytes)*sumEntryBytes)
	if _, err := pf.sum.ReadAt(raw[:size], 0); err != nil && err != io.EOF && err != io.ErrUnexpectedEOF {
		return fmt.Errorf("blockio: %w", err)
	}
	pf.entries = make([]sumEntry, len(raw)/sumEntryBytes)
	for i := range pf.entries {
		pf.entries[i] = decodeSumEntry(raw[i*sumEntryBytes:])
	}
	return nil
}

// entry returns the checksum entry for in-file block bi (zero value when
// never written). Caller holds s.mu.
func (pf *perFile) entry(bi int64) sumEntry {
	if bi < int64(len(pf.entries)) {
		return pf.entries[bi]
	}
	return sumEntry{}
}

// locate maps a block index to (file index, in-file byte offset).
func (s *Store) locate(idx int64) (int64, int64, error) {
	if idx < 0 {
		return 0, 0, fmt.Errorf("blockio: negative block index %d", idx)
	}
	return idx / s.blocksPerFile, (idx % s.blocksPerFile) * int64(s.blockSize), nil
}

func allZero(b []byte) bool {
	for _, c := range b {
		if c != 0 {
			return false
		}
	}
	return true
}

// ReadBlock fills buf (which must be exactly one block long) with block
// idx. Unwritten blocks read as zeroes. With checksums enabled, content
// that does not match its recorded checksum returns an error wrapping
// ErrCorrupt.
func (s *Store) ReadBlock(idx int64, buf []byte) error {
	if len(buf) != s.blockSize {
		return fmt.Errorf("blockio: read buffer is %d bytes, want %d", len(buf), s.blockSize)
	}
	return s.read(idx, buf, s.checksums)
}

// ReadBlockNoVerify reads block idx without checksum verification. The
// scrub path uses it to capture a corrupt block's raw bytes for
// quarantine before repairing it.
func (s *Store) ReadBlockNoVerify(idx int64, buf []byte) error {
	if len(buf) != s.blockSize {
		return fmt.Errorf("blockio: read buffer is %d bytes, want %d", len(buf), s.blockSize)
	}
	return s.read(idx, buf, false)
}

func (s *Store) read(idx int64, buf []byte, verify bool) error {
	fi, off, err := s.locate(idx)
	if err != nil {
		return err
	}
	f, err := s.file(fi)
	if err != nil {
		return err
	}
	if off >= f.extent.Load() {
		clear(buf) // never written: no I/O to do
	} else if err := s.readAt(f, buf, off); err != nil {
		return err
	}
	if verify {
		return s.verify(f, idx, idx%s.blocksPerFile, buf)
	}
	return nil
}

// readAt reads and accounts one block at off.
func (s *Store) readAt(f *perFile, buf []byte, off int64) error {
	s.reads.Add(1)
	s.readBytes.Add(int64(len(buf)))
	s.charge(s.readLatency)
	n, err := f.data.ReadAt(buf, off)
	if err == io.EOF || err == io.ErrUnexpectedEOF || (err == nil && n < len(buf)) {
		// Short or past-EOF read: the tail is implicitly zero. Only
		// EOF-class conditions qualify — a device error that happens to
		// return a short count must surface, not read as a zero block.
		clear(buf[n:])
		err = nil
	}
	return err
}

// verify checks buf against block idx's recorded checksum.
func (s *Store) verify(f *perFile, idx, bi int64, buf []byte) error {
	s.mu.Lock()
	e := f.entry(bi)
	s.mu.Unlock()
	if !e.written {
		if allZero(buf) {
			return nil // genuinely never written
		}
		s.checksumErrs.Add(1)
		return fmt.Errorf("%w: %s block %d has data but no checksum (torn write)", ErrCorrupt, s.prefix, idx)
	}
	if got := crc32.Checksum(buf, castagnoli); got != e.crc {
		s.checksumErrs.Add(1)
		return fmt.Errorf("%w: %s block %d checksum 0x%08x, want 0x%08x (gen %d)",
			ErrCorrupt, s.prefix, idx, got, e.crc, e.gen)
	}
	return nil
}

// WriteBlock stores buf (exactly one block) as block idx. With checksums
// enabled the block's CRC and an incremented generation stamp are
// recorded in the sidecar after the data write.
func (s *Store) WriteBlock(idx int64, buf []byte) error {
	if len(buf) != s.blockSize {
		return fmt.Errorf("blockio: write buffer is %d bytes, want %d", len(buf), s.blockSize)
	}
	return s.write(idx, buf)
}

func (s *Store) write(idx int64, buf []byte) error {
	fi, off, err := s.locate(idx)
	if err != nil {
		return err
	}
	f, err := s.file(fi)
	if err != nil {
		return err
	}
	s.writes.Add(1)
	s.writeBytes.Add(int64(len(buf)))
	s.charge(s.writeLatency)
	// Raised first, so a failed or torn write is read back from the file.
	for end := off + int64(len(buf)); ; {
		if cur := f.extent.Load(); cur >= end || f.extent.CompareAndSwap(cur, end) {
			break
		}
	}
	if _, err := f.data.WriteAt(buf, off); err != nil {
		return err
	}
	if !s.checksums {
		return nil
	}
	bi := idx % s.blocksPerFile
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	for int64(len(f.entries)) <= bi {
		f.entries = append(f.entries, sumEntry{})
	}
	e := sumEntry{crc: crc32.Checksum(buf, castagnoli), written: true, gen: f.entries[bi].gen + 1}
	f.entries[bi] = e
	// The sidecar write stays under s.mu so two concurrent WriteBlocks to
	// the same block cannot persist the loser's entry while memory holds
	// the winner's (the write is a page-cache store, not a disk wait).
	var eb [sumEntryBytes]byte
	e.encode(eb[:])
	if _, err := f.sum.WriteAt(eb[:], bi*sumEntryBytes); err != nil {
		return fmt.Errorf("blockio: %w", err)
	}
	return nil
}

// BlockInfo returns block idx's recorded checksum state: whether it was
// ever written and its generation stamp. Only meaningful with checksums
// enabled.
func (s *Store) BlockInfo(idx int64) (written bool, gen uint64, err error) {
	fi, _, err := s.locate(idx)
	if err != nil {
		return false, 0, err
	}
	f, err := s.file(fi)
	if err != nil {
		return false, 0, err
	}
	s.mu.Lock()
	e := f.entry(idx % s.blocksPerFile)
	s.mu.Unlock()
	return e.written, e.gen, nil
}

// Counters returns cumulative physical I/O counts.
func (s *Store) Counters() Counters {
	return Counters{
		BlockReads:       s.reads.Load(),
		BlockWrites:      s.writes.Load(),
		BytesRead:        s.readBytes.Load(),
		BytesWritten:     s.writeBytes.Load(),
		ChecksumFailures: s.checksumErrs.Load(),
	}
}

// Sync flushes every open file (data and checksum sidecars) to stable
// storage.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.syncLocked()
}

func (s *Store) syncLocked() error {
	if s.closed {
		return ErrClosed
	}
	for _, f := range s.files {
		if err := f.data.Sync(); err != nil {
			return fmt.Errorf("blockio: %w", err)
		}
		if f.sum != nil {
			if err := f.sum.Sync(); err != nil {
				return fmt.Errorf("blockio: %w", err)
			}
		}
	}
	return nil
}

// Close syncs and releases all file handles; the first Sync or Close
// error is returned rather than silently dropping dirty OS pages. The
// store must not be used afterwards: every operation returns ErrClosed.
// Close is idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	first := s.syncLocked()
	for _, f := range s.files {
		if err := f.data.Close(); err != nil && first == nil {
			first = fmt.Errorf("blockio: %w", err)
		}
		if f.sum != nil {
			if err := f.sum.Close(); err != nil && first == nil {
				first = fmt.Errorf("blockio: %w", err)
			}
		}
	}
	s.files = make(map[int64]*perFile)
	s.closed = true
	return first
}
