// Package wal implements the reusable write-ahead log under the durable
// storage backends (DESIGN.md §11). It generalizes what reldb's original
// ad-hoc log only gestured at: CRC-framed records that can be replayed
// after a crash, torn-tail truncation, and group commit — any number of
// Append calls become durable together with a single Sync (one fsync),
// which is the commit point of every checkpoint built on top of it. The
// redo checkpoint the durable backends share lives here too
// (checkpoint.go).
//
// On-disk format: a sequence of records, each
//
//	crc   uint32  // CRC32-C over the rest of the record (len, seq, payload)
//	len   uint32  // payload length
//	seq   uint64  // record sequence number, 1, 2, 3, ... from log start
//	payload [len]bytes
//
// A record is valid only if its CRC matches, its length is sane, and its
// sequence number is exactly the predecessor's plus one. Open scans the
// log and truncates it at the first invalid record: everything before is
// the durable prefix, everything after is a torn tail from a crash
// mid-write and is discarded.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"

	"mssg/internal/storage/vfs"
)

const (
	headerBytes = 4 + 4 + 8

	// MaxRecordBytes bounds a single payload; longer appends are refused
	// and a longer on-disk length is treated as corruption. 1 GB is far
	// beyond any block image or checkpoint state record.
	MaxRecordBytes = 1 << 30
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrClosed is returned by operations on a closed log.
var ErrClosed = errors.New("wal: log closed")

// Record is one replayed log entry.
type Record struct {
	Seq     uint64
	Payload []byte
}

// Log is an append-only write-ahead log.
type Log struct {
	fsys vfs.FS
	path string
	f    vfs.File

	// size is the durable end of the log (start offset for the next
	// append batch); pending holds appended-but-unsynced record bytes.
	size    int64
	seq     uint64
	pending []byte

	closed bool
}

// Open opens (creating if absent) the log at path, validates the existing
// records, and truncates any torn tail so appends extend a clean prefix.
// Replay what Open kept with Replay before appending new records.
func Open(fsys vfs.FS, path string) (*Log, error) {
	fsys = vfs.Or(fsys)
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{fsys: fsys, path: path, f: f}
	if err := l.recover(); err != nil {
		f.Close()
		return nil, err
	}
	return l, nil
}

// recover scans the file, setting size/seq to the end of the valid
// prefix and truncating anything after it.
func (l *Log) recover() error {
	fileSize, err := l.f.Size()
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	valid, lastSeq, err := scan(l.f, fileSize, nil)
	if err != nil {
		return err
	}
	if valid < fileSize {
		if err := l.f.Truncate(valid); err != nil {
			return fmt.Errorf("wal: truncating torn tail: %w", err)
		}
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
	}
	l.size = valid
	l.seq = lastSeq
	return nil
}

// scan walks records in [0, fileSize), calling visit (when non-nil) for
// each valid record, and returns the byte length of the valid prefix and
// the last valid sequence number. I/O errors are returned; framing
// violations just end the scan.
func scan(f vfs.File, fileSize int64, visit func(Record) error) (int64, uint64, error) {
	var (
		off     int64
		seq     uint64
		hdr     [headerBytes]byte
		payload []byte
	)
	for off+headerBytes <= fileSize {
		if _, err := f.ReadAt(hdr[:], off); err != nil {
			return 0, 0, fmt.Errorf("wal: %w", err)
		}
		crc := binary.LittleEndian.Uint32(hdr[0:4])
		n := int64(binary.LittleEndian.Uint32(hdr[4:8]))
		recSeq := binary.LittleEndian.Uint64(hdr[8:16])
		if n > MaxRecordBytes || off+headerBytes+n > fileSize || recSeq != seq+1 {
			break
		}
		if int64(cap(payload)) < n {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if n > 0 {
			if _, err := f.ReadAt(payload, off+headerBytes); err != nil {
				return 0, 0, fmt.Errorf("wal: %w", err)
			}
		}
		h := crc32.New(castagnoli)
		h.Write(hdr[4:])
		h.Write(payload)
		if h.Sum32() != crc {
			break
		}
		if visit != nil {
			if err := visit(Record{Seq: recSeq, Payload: payload}); err != nil {
				return 0, 0, err
			}
		}
		seq = recSeq
		off += headerBytes + n
	}
	return off, seq, nil
}

// Replay calls visit for every durable record in order. The payload slice
// is reused between calls; copy it to retain. Must not run concurrently
// with Append/Sync.
func (l *Log) Replay(visit func(Record) error) error {
	if l.closed {
		return ErrClosed
	}
	_, _, err := scan(l.f, l.size, visit)
	return err
}

// Append stages one record. It becomes durable — together with every
// record staged since the last Sync — only when Sync returns nil (group
// commit). Returns the record's sequence number.
func (l *Log) Append(payload []byte) (uint64, error) {
	if l.closed {
		return 0, ErrClosed
	}
	if len(payload) > MaxRecordBytes {
		return 0, fmt.Errorf("wal: record of %d bytes exceeds max %d", len(payload), MaxRecordBytes)
	}
	l.seq++
	var hdr [headerBytes]byte
	binary.LittleEndian.PutUint32(hdr[4:8], uint32(len(payload)))
	binary.LittleEndian.PutUint64(hdr[8:16], l.seq)
	h := crc32.New(castagnoli)
	h.Write(hdr[4:])
	h.Write(payload)
	binary.LittleEndian.PutUint32(hdr[0:4], h.Sum32())
	l.pending = append(l.pending, hdr[:]...)
	l.pending = append(l.pending, payload...)
	return l.seq, nil
}

// Sync writes all staged records and fsyncs the log: the group-commit
// point. When Sync returns nil every record appended so far is durable;
// when it fails the log's durable state is unchanged (the staged bytes
// may be partially on disk, but recovery's seq/CRC validation discards
// any such tail).
func (l *Log) Sync() error {
	if l.closed {
		return ErrClosed
	}
	if len(l.pending) > 0 {
		if _, err := l.f.WriteAt(l.pending, l.size); err != nil {
			return fmt.Errorf("wal: %w", err)
		}
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.size += int64(len(l.pending))
	l.pending = l.pending[:0]
	return nil
}

// Reset discards every record (after a successful checkpoint has made
// them redundant) and restarts the sequence numbering.
func (l *Log) Reset() error {
	if l.closed {
		return ErrClosed
	}
	if err := l.f.Truncate(0); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.size = 0
	l.seq = 0
	l.pending = l.pending[:0]
	return nil
}

// Seq returns the sequence number of the most recently appended record
// (0 when the log is empty).
func (l *Log) Seq() uint64 { return l.seq }

// Size returns the durable log length in bytes (staged records excluded).
func (l *Log) Size() int64 { return l.size }

// Empty reports whether the log holds no durable or staged records.
func (l *Log) Empty() bool { return l.size == 0 && len(l.pending) == 0 }

// Close releases the file handle without syncing staged records: callers
// decide commit points explicitly via Sync.
func (l *Log) Close() error {
	if l.closed {
		return nil
	}
	l.closed = true
	return l.f.Close()
}

// ScanBytes validates b as a record stream and returns the records of its
// valid prefix. It is the pure-decode core used by fuzzing: no input may
// make it panic.
func ScanBytes(b []byte) []Record {
	var out []Record
	f := memFile(b)
	_, _, err := scan(f, int64(len(b)), func(r Record) error {
		p := make([]byte, len(r.Payload))
		copy(p, r.Payload)
		out = append(out, Record{Seq: r.Seq, Payload: p})
		return nil
	})
	if err != nil {
		return out
	}
	return out
}

// memFile adapts a byte slice to the reading side of vfs.File for
// ScanBytes.
type memFile []byte

func (m memFile) ReadAt(p []byte, off int64) (int, error) {
	if off >= int64(len(m)) {
		return 0, errors.New("wal: read past end")
	}
	n := copy(p, m[off:])
	if n < len(p) {
		return n, errors.New("wal: short read")
	}
	return n, nil
}

func (m memFile) WriteAt([]byte, int64) (int, error) { return 0, errors.New("wal: read-only") }
func (m memFile) Sync() error                        { return nil }
func (m memFile) Truncate(int64) error               { return errors.New("wal: read-only") }
func (m memFile) Close() error                       { return nil }
func (m memFile) Size() (int64, error)               { return int64(len(m)), nil }
