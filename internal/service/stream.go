package service

import (
	"context"
	"fmt"
	"io"

	"trapquorum/internal/blockpool"
	"trapquorum/internal/core"
)

// Streaming object IO: PutReader ingests an object of declared size
// from an io.Reader and GetWriter streams one back out, both touching
// only O(stripe) bytes of memory at a time. This is how multi-gigabyte
// objects move through the store without ever materialising in a
// single buffer: Put/Get hold the whole object; these hold at most two
// stripes (one being read from the source while the previous one is
// being encoded and seeded — a bounded pipeline of depth one).

// inflightSeed is the pipeline slot: a stripe whose encode+seed runs
// while the next stripe is read from the source.
type inflightSeed struct {
	s    placedStripe
	blks []*blockpool.Block
	errc chan error
}

// PutReader stores size bytes read from r under key. The key must not
// exist (ErrExists otherwise), exactly like Put; quota is charged for
// the declared size up front. Stripes are read, encoded and seeded one
// after another with a pipeline depth of one, so peak memory is two
// stripes of pooled blocks regardless of object size. The reader must
// deliver exactly size bytes; a short read (io.ErrUnexpectedEOF), a
// reader error, or a seeding failure unwinds every stripe already
// placed — no partial object is ever visible, and the key is free for
// a retry.
func (s *Store) PutReader(ctx context.Context, key string, r io.Reader, size int) error {
	if size < 0 {
		return fmt.Errorf("%w: negative size %d", ErrBadRange, size)
	}
	f := s.fleet
	f.mu.Lock()
	if s.directory[key] != nil || s.pending[key] {
		f.mu.Unlock()
		return fmt.Errorf("%w: %q", ErrExists, key)
	}
	if err := s.checkQuota(size); err != nil {
		f.mu.Unlock()
		return err
	}
	// Reserve the key (and its quota footprint) so a concurrent Put of
	// the same key fails with ErrExists instead of orphaning stripes;
	// every exit path releases the reservation, success swapping it for
	// the directory entry. The epoch is pinned and counted in putsIn —
	// a migration cannot fence it while this stream is still seeding.
	s.pending[key] = true
	s.pendingObjects++
	s.pendingBytes += int64(size)
	ec := f.cur
	f.putsIn[ec.id]++
	f.mu.Unlock()
	defer func() {
		f.mu.Lock()
		delete(s.pending, key)
		s.pendingObjects--
		s.pendingBytes -= int64(size)
		f.putsIn[ec.id]--
		f.mu.Unlock()
	}()

	capacity := ec.capacity(f.cfg.BlockSize)
	stripeCount := (size + capacity - 1) / capacity
	if stripeCount == 0 {
		stripeCount = 1 // empty objects still own one stripe for WriteAt growth semantics
	}

	var (
		attempted []placedStripe // every stripe that may hold shards (cleanup set)
		seeded    []placedStripe // stripes whose seed completed (registration set)
		inflight  *inflightSeed
	)
	// waitSeed drains the pipeline slot and recycles its blocks.
	waitSeed := func() error {
		if inflight == nil {
			return nil
		}
		err := <-inflight.errc
		for _, b := range inflight.blks {
			b.Release()
		}
		if err == nil {
			seeded = append(seeded, inflight.s)
		}
		inflight = nil
		return err
	}
	// unwind deletes the shards of every attempted stripe — the one
	// that failed may be partially installed.
	unwind := func(err error) error {
		if werr := waitSeed(); werr != nil && err == nil {
			err = werr
		}
		s.ctr.chunksOrphaned.Add(int64(f.dropStripes(attempted)))
		return err
	}

	remaining := size
	for i := 0; i < stripeCount; i++ {
		// Read the stripe's payload into pooled blocks, zero-padding
		// the tail (pooled buffers come back with undefined contents).
		blks := make([]*blockpool.Block, ec.k)
		blocks := make([][]byte, ec.k)
		for b := range blocks {
			blks[b] = blockpool.GetBlock(f.cfg.BlockSize)
			blocks[b] = blks[b].B
			fill := remaining
			if fill > f.cfg.BlockSize {
				fill = f.cfg.BlockSize
			}
			if fill > 0 {
				if _, err := io.ReadFull(r, blocks[b][:fill]); err != nil {
					if err == io.EOF {
						err = io.ErrUnexpectedEOF
					}
					for _, blk := range blks {
						blk.Release()
					}
					return unwind(fmt.Errorf("reading object %q at byte %d of %d: %w",
						key, size-remaining, size, err))
				}
				remaining -= fill
			}
			for j := fill; j < f.cfg.BlockSize; j++ {
				blocks[b][j] = 0
			}
		}

		// Allocate the stripe id and placement.
		f.mu.Lock()
		id := f.nextStripe
		f.nextStripe++
		nodes, err := ec.place.Place(id, ec.n)
		if err == nil {
			var sys *core.System
			sys, err = f.systemFor(ec, nodes)
			if err == nil {
				f.mu.Unlock()
				// Overlap: wait out the previous stripe's seed only
				// after this stripe is fully read and planned.
				st := placedStripe{id: id, sys: sys, nodes: nodes}
				attempted = append(attempted, st)
				if werr := waitSeed(); werr != nil {
					for _, blk := range blks {
						blk.Release()
					}
					return unwind(werr)
				}
				inflight = &inflightSeed{s: st, blks: blks, errc: make(chan error, 1)}
				go func(fl *inflightSeed, data [][]byte) {
					fl.errc <- fl.s.sys.SeedStripe(ctx, fl.s.id, data)
				}(inflight, blocks)
				continue
			}
		}
		f.mu.Unlock()
		for _, blk := range blks {
			blk.Release()
		}
		return unwind(err)
	}
	if err := waitSeed(); err != nil {
		return unwind(err)
	}

	f.mu.Lock()
	defer f.mu.Unlock()
	stripes := make([]uint64, 0, len(seeded))
	for _, p := range seeded {
		f.stripeSys[p.id] = p.sys
		f.stripeLoc[p.id] = p.nodes
		stripes = append(stripes, p.id)
	}
	s.directory[key] = &objectMeta{size: size, stripes: stripes, ec: ec}
	s.usedBytes += int64(size)
	s.ctr.puts.Add(1)
	s.ctr.bytesIn.Add(int64(size))
	// A reconfiguration may have advanced past our pinned epoch while
	// the stream was seeding: hand the fresh object to the active
	// migration (see Put for why it cannot have completed).
	if ec != f.cur && f.mig != nil {
		f.mig.enqueueLocked(s.tenant, key)
	}
	return nil
}

// GetWriter streams the object to w through quorum reads, one block at
// a time — peak memory is one block plus the protocol's own working
// set, however large the object. It returns the bytes written; on a
// read or write error the count says how much of the object reached w.
func (s *Store) GetWriter(ctx context.Context, key string, w io.Writer) (int64, error) {
	m, err := s.meta(key)
	if err != nil {
		return 0, err
	}
	var written int64
	remaining := m.size
	for logical := 0; remaining > 0; logical++ {
		data, err := s.readLogicalBlock(ctx, &m, key, logical)
		if err != nil {
			return written, err
		}
		take := len(data)
		if take > remaining {
			take = remaining
		}
		n, werr := w.Write(data[:take])
		written += int64(n)
		remaining -= take
		if werr != nil {
			return written, fmt.Errorf("writing object %q: %w", key, werr)
		}
	}
	s.ctr.gets.Add(1)
	s.ctr.bytesOut.Add(int64(m.size))
	return written, nil
}
