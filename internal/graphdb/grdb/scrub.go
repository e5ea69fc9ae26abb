package grdb

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"

	"mssg/internal/graphdb"
	"mssg/internal/storage/blockio"
)

// ScrubReport summarizes a Scrub pass.
type ScrubReport struct {
	// BlocksScanned counts allocated blocks whose checksums were read.
	BlocksScanned int64
	// CorruptBlocks counts blocks that failed verification.
	CorruptBlocks int64
	// Quarantined lists the files the corrupt blocks' raw bytes were
	// copied to before repair.
	Quarantined []string
}

// quarantineDirName is where Scrub preserves corrupt blocks, under the
// database directory.
const quarantineDirName = "quarantine"

// Scrub reads every allocated block and verifies its checksum. A block
// that fails is quarantined — its raw bytes are copied to
// quarantine/level<ℓ>.block<idx> for offline inspection — and then
// repaired by zeroing: a zero block is a valid empty sub-block run, so
// chains pointing into it simply end there (the edges it held are lost,
// which the report records; Check() afterwards confirms structural
// consistency). Requires checksums, i.e. a database opened with
// DurabilityFull.
//
// Scrub bypasses the block cache; run it immediately after Open, before
// queries or stores populate the cache.
func (d *DB) Scrub() (ScrubReport, error) {
	var rep ScrubReport
	if d.Closed() {
		return rep, graphdb.ErrClosed
	}
	if !d.durable {
		return rep, fmt.Errorf("grdb: scrub needs checksums (open with DurabilityFull)")
	}
	for ℓ, l := range d.levels {
		subCount := d.nextFree[ℓ]
		if ℓ == 0 {
			subCount = int64(d.maxVertex) + 1
		}
		if subCount <= 0 {
			continue
		}
		blocks := (subCount + l.k - 1) / l.k
		buf := make([]byte, l.store.BlockSize())
		for b := int64(0); b < blocks; b++ {
			rep.BlocksScanned++
			err := l.store.ReadBlock(b, buf)
			if err == nil {
				continue
			}
			if !errors.Is(err, blockio.ErrCorrupt) {
				return rep, err
			}
			rep.CorruptBlocks++
			d.mScrubCorrupt.Inc()
			qPath, qErr := d.quarantine(ℓ, b, buf)
			if qErr != nil {
				return rep, qErr
			}
			rep.Quarantined = append(rep.Quarantined, qPath)
			for i := range buf {
				buf[i] = 0
			}
			if err := l.store.WriteBlock(b, buf); err != nil {
				return rep, err
			}
		}
		if err := l.store.Sync(); err != nil {
			return rep, err
		}
	}
	return rep, nil
}

// quarantine copies block b of level ℓ (raw, unverified) into the
// quarantine directory and returns the file path.
func (d *DB) quarantine(ℓ int, b int64, buf []byte) (string, error) {
	if err := d.levels[ℓ].store.ReadBlockNoVerify(b, buf); err != nil {
		return "", err
	}
	qDir := filepath.Join(d.dir, quarantineDirName)
	if err := d.fsys.MkdirAll(qDir, 0o755); err != nil {
		return "", fmt.Errorf("grdb: quarantine: %w", err)
	}
	path := filepath.Join(qDir, fmt.Sprintf("level%d.block%d", ℓ, b))
	f, err := d.fsys.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return "", fmt.Errorf("grdb: quarantine: %w", err)
	}
	if _, err := f.WriteAt(buf, 0); err != nil {
		f.Close()
		return "", fmt.Errorf("grdb: quarantine: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return "", fmt.Errorf("grdb: quarantine: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("grdb: quarantine: %w", err)
	}
	return path, nil
}

// ScrubDir opens every grDB instance found directly under root (any
// subdirectory containing a grdb.manifest — the node layout the core
// engine produces), scrubs and checks it, and returns the per-instance
// reports. opts provides cache/level configuration; Dir and Durability
// are overridden per instance. The first structural-check failure after
// repair is returned as an error alongside the reports gathered so far.
func ScrubDir(root string, opts graphdb.Options) (map[string]ScrubReport, error) {
	entries, err := os.ReadDir(root)
	if err != nil {
		return nil, err
	}
	reports := make(map[string]ScrubReport)
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dir := filepath.Join(root, e.Name())
		if _, err := os.Stat(filepath.Join(dir, manifestName)); err != nil {
			continue
		}
		o := opts
		o.Dir = dir
		o.Durability = graphdb.DurabilityFull
		db, err := Open(o)
		if err != nil {
			return reports, fmt.Errorf("%s: %w", e.Name(), err)
		}
		rep, err := db.Scrub()
		reports[e.Name()] = rep
		if err != nil {
			db.Close()
			return reports, fmt.Errorf("%s: %w", e.Name(), err)
		}
		if _, err := db.Check(); err != nil {
			db.Close()
			return reports, fmt.Errorf("%s: post-scrub check: %w", e.Name(), err)
		}
		if err := db.Close(); err != nil {
			return reports, fmt.Errorf("%s: %w", e.Name(), err)
		}
	}
	return reports, nil
}
