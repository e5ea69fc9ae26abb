package grdb

import (
	"errors"
	"fmt"
	"path/filepath"

	"mssg/internal/graphdb"
	"mssg/internal/storage/cache"
	"mssg/internal/storage/wal"
)

// Durable mode makes every Flush the redo checkpoint of DESIGN.md §11
// (records, commit and image replay live in storage/wal). grDB changes
// blocks only through the no-steal cache, so between two Flush calls the
// data files hold exactly the last checkpoint. A crash, or a failed
// StoreEdges or Flush (abort), leaves the database at whichever commit
// the log holds: all Flushes that returned, nothing else.

const walName = "grdb.wal"

// checkpoint is the durable Flush.
func (d *DB) checkpoint() error {
	if err := d.wal.Commit(d.cache, encodeState(d.manifestState())); err != nil {
		return err
	}
	d.ckptCommitted = d.ckptStaged
	return d.writeBack()
}

// writeBack runs a committed checkpoint's steps 4–7: write the dirty
// blocks back, sync every level, replace the manifest, reset the log.
func (d *DB) writeBack() error {
	if err := d.cache.Flush(); err != nil {
		return err
	}
	for i, l := range d.levels {
		if err := l.store.Sync(); err != nil {
			return fmt.Errorf("grdb: level %d: %w", i, err)
		}
	}
	if err := d.saveManifest(); err != nil {
		return err
	}
	return d.wal.Reset()
}

// recoverDurable opens the WAL and, when it holds a committed
// checkpoint the manifest does not yet reflect, replays it and finishes
// it; a log with no committed checkpoint is dropped.
func (d *DB) recoverDurable() error {
	w, err := wal.Open(d.fsys, filepath.Join(d.dir, walName))
	if err != nil {
		return err
	}
	d.wal = w
	if w.Empty() {
		return nil
	}
	d.mRecoveryRuns.Inc()
	d.mRecoveryRecords.Add(int64(w.Seq()))
	stores := make(map[uint32]cache.Store, len(d.levels))
	for i, l := range d.levels {
		stores[uint32(i)] = l.store
	}
	_, before := d.IOCounters()
	state, seq, err := w.Recover(stores)
	if err != nil {
		return fmt.Errorf("grdb: %w", err)
	}
	_, after := d.IOCounters()
	d.mRecoveryBlocks.Add(after - before)
	if seq == 0 {
		return w.Reset()
	}
	st, err := decodeState(state, len(d.levels))
	if err != nil {
		return fmt.Errorf("grdb: WAL state record: %w", err)
	}
	st.gen = d.manifestGen // state records carry no generation
	d.applyManifestState(st)
	return d.writeBack()
}

// load reads the last commit into memory: the manifest, then, when
// durable, the checkpoint the WAL committed after it.
func (d *DB) load() error {
	d.nextFree = make([]int64, len(d.levels))
	d.applyManifestState(manifestState{maxVertex: -1})
	clear(d.tailHint)
	if err := d.loadManifest(); err != nil {
		return err
	}
	if d.durable {
		return d.recoverDurable()
	}
	return nil
}

// abort undoes a failed durable StoreEdges or Flush: it drops every
// dirty block, staged WAL record and cursor the failure left in memory,
// without writing anything back, and reloads the last commit as Open
// does. No-steal kept the data files at that commit; the records that
// reached the log decide whether a failed Flush committed. When the
// reload fails too the DB is closed. It returns cause.
func (d *DB) abort(cause error) error {
	d.pf.drain()
	d.cache.Discard()
	_ = d.wal.Close() // load reopens the log; its staged records are dropped either way
	if err := d.load(); err != nil {
		d.closeStores()
		d.Base.Close()
		return errors.Join(cause, fmt.Errorf("grdb: reloading the last commit: %w", err))
	}
	return cause
}

// SetCheckpoint implements graphdb.Checkpointer: blob is committed
// atomically with the next Flush.
func (d *DB) SetCheckpoint(blob []byte) error {
	if d.Closed() {
		return graphdb.ErrClosed
	}
	d.ckptStaged = append([]byte(nil), blob...)
	return nil
}

// GetCheckpoint implements graphdb.Checkpointer.
func (d *DB) GetCheckpoint() ([]byte, error) {
	if d.Closed() {
		return nil, graphdb.ErrClosed
	}
	return d.ckptCommitted, nil
}
