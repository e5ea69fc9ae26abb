package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"mssg/internal/cluster"
	"mssg/internal/graphdb/grdb"
	"mssg/internal/storage/blockio"
	"mssg/internal/storage/cache"
	"mssg/internal/storage/compress"
)

// Unit costs of the layers no wrapper reaches, driven through their
// public functions only and reported with the traced run's layer metrics.
// They size a layer's count metrics: cache.misses × cache.get_miss_us is
// what the misses cost.

const unitBlock = 4 << 10

// memStore is an in-memory cache.Store.
type memStore struct{ blocks map[int64][]byte }

func (s *memStore) BlockSize() int { return unitBlock }

func (s *memStore) ReadBlock(idx int64, buf []byte) error {
	copy(buf, s.blocks[idx]) // absent blocks read as zeros, like blockio
	return nil
}

func (s *memStore) WriteBlock(idx int64, buf []byte) error {
	s.blocks[idx] = append([]byte(nil), buf...)
	return nil
}

// microbench measures the unit costs after a traced run; dbDir is the
// workload's database, whose blocks feed the compression figures.
func (r *run) microbench(dbDir string) error {
	if r.tr == nil {
		return nil
	}
	if err := r.unitCache(); err != nil {
		return err
	}
	if err := r.unitBlockio(); err != nil {
		return err
	}
	if err := r.unitCompress(dbDir); err != nil {
		return err
	}
	return r.unitFabric()
}

func (r *run) unitCache() error {
	const ops = 200_000
	get := func(c *cache.BlockCache, block int64) error {
		h, err := c.Get(0, block)
		if err != nil {
			return err
		}
		return h.Release()
	}
	hit := cache.New(64 * unitBlock)
	if err := hit.AttachSpace(0, &memStore{blocks: map[int64][]byte{}}); err != nil {
		return err
	}
	start := time.Now()
	for i := 0; i < ops; i++ {
		if err := get(hit, int64(i%16)); err != nil {
			return err
		}
	}
	r.m.set("cache.get_hit_ns", float64(time.Since(start).Nanoseconds())/ops)

	// 16 blocks of capacity cycled over 1024: every Get misses and evicts.
	miss := cache.New(16 * unitBlock)
	if err := miss.AttachSpace(0, &memStore{blocks: map[int64][]byte{}}); err != nil {
		return err
	}
	start = time.Now()
	for i := 0; i < ops; i++ {
		if err := get(miss, int64(i%1024)); err != nil {
			return err
		}
	}
	r.m.set("cache.get_miss_us", float64(time.Since(start).Microseconds())/ops)
	return nil
}

func (r *run) unitBlockio() error {
	const blocks = 4096
	dir := filepath.Join(r.workDir, "unit-blockio")
	s, err := blockio.Open(dir, "unit", unitBlock, 64<<20)
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	defer s.Close()
	buf := make([]byte, unitBlock)
	for i := range buf {
		buf[i] = byte(i)
	}
	start := time.Now()
	for i := int64(0); i < blocks; i++ {
		if err := s.WriteBlock(i, buf); err != nil {
			return err
		}
	}
	r.m.set("blockio.write_block_us", float64(time.Since(start).Microseconds())/blocks)
	start = time.Now()
	for i := int64(0); i < blocks; i++ {
		// a stride keeps reads off the sequential path, as adjacency reads are
		if err := s.ReadBlock(i*61%blocks, buf); err != nil {
			return err
		}
	}
	r.m.set("blockio.read_block_us", float64(time.Since(start).Microseconds())/blocks)
	return nil
}

// unitCompress encodes and decodes up to 64 evenly spaced blocks of every
// level file of node 0 with the block codec grDB's Compress option uses.
func (r *run) unitCompress(dbDir string) error {
	var raw, packed int64
	var encode, decode time.Duration
	for i, lv := range grdb.DefaultLevels() {
		files, _ := filepath.Glob(filepath.Join(dbDir, "node000", fmt.Sprintf("level%d.*", i)))
		if len(files) == 0 {
			continue // a level the graph never reached has no file
		}
		f, err := os.Open(files[0])
		if err != nil {
			return err
		}
		info, err := f.Stat()
		if err != nil {
			f.Close()
			return err
		}
		n := int(info.Size()) / lv.BlockBytes
		block, out := make([]byte, lv.BlockBytes), make([]byte, lv.BlockBytes)
		for k := 0; k < min(n, 64); k++ {
			if _, err := f.ReadAt(block, int64(k*n/min(n, 64))*int64(lv.BlockBytes)); err != nil {
				f.Close()
				return err
			}
			start := time.Now()
			enc := compress.AppendEncoded(nil, block)
			encode += time.Since(start)
			start = time.Now()
			if err := compress.Decode(out, enc); err != nil {
				f.Close()
				return fmt.Errorf("compress unit cost: %w", err)
			}
			decode += time.Since(start)
			raw += int64(len(block))
			packed += int64(len(enc))
		}
		f.Close()
	}
	r.m.set("compress.encode_mb_per_s", ratio(float64(raw)/1e6, encode.Seconds()))
	r.m.set("compress.decode_mb_per_s", ratio(float64(raw)/1e6, decode.Seconds()))
	r.m.set("compress.ratio", ratio(float64(raw), float64(packed)))
	return nil
}

func (r *run) unitFabric() error {
	const (
		pings    = 20_000
		bulk     = 2_000
		bulkSize = 64 << 10
	)
	f := cluster.NewInProc(2, 0)
	defer f.Close()
	a, b := f.Endpoint(0), f.Endpoint(1)
	errc := make(chan error, 1) // the echo goroutine's one result
	go func() {
		for i := 0; i < pings; i++ {
			m, err := b.Recv(1)
			if err == nil {
				err = b.Send(0, 2, m.Payload)
			}
			if err != nil {
				errc <- err
				return
			}
		}
		for i := 0; i < bulk; i++ {
			if _, err := b.Recv(3); err != nil {
				errc <- err
				return
			}
		}
		errc <- b.Send(0, 4, nil)
	}()
	start := time.Now()
	for i := 0; i < pings; i++ {
		if err := a.Send(1, 1, make([]byte, 8)); err != nil {
			return err
		}
		if _, err := a.Recv(2); err != nil {
			return err
		}
	}
	r.m.set("cluster.inproc_rtt_us", float64(time.Since(start).Microseconds())/pings)
	start = time.Now()
	for i := 0; i < bulk; i++ {
		if err := a.Send(1, 3, make([]byte, bulkSize)); err != nil {
			return err
		}
	}
	if _, err := a.Recv(4); err != nil {
		return err
	}
	r.m.set("cluster.inproc_mb_per_s", float64(bulk)*bulkSize/1e6/time.Since(start).Seconds())
	return <-errc
}
