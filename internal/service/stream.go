package service

import (
	"context"
	"fmt"
	"io"

	"trapquorum/internal/blockpool"
	"trapquorum/internal/core"
	"trapquorum/internal/dispatch"
)

// Object write and streamed read paths. Every object enters the store
// through one pipeline, seedStream: Put, PutReader and the migration's
// copy into a target epoch all read a stripe into pooled blocks while
// up to seedWindow earlier stripes are being encoded and seeded — a
// bounded window of stripes in flight — so an object of any size moves
// through at most seedWindow+1 stripes of data (plus the parity of
// those in flight) and never materialises in a single buffer.
// GetWriter streams one back out a stripe at a time.

// seedWindow is how many stripes seedStream seeds at once. The seeds
// of a window reach each node together, where group commit folds their
// PutChunks into one WAL batch, so a multi-stripe write costs about
// ⌈stripes/seedWindow⌉ durable rounds instead of one per stripe.
const seedWindow = 4

// PutReader stores size bytes read from r under key. The key must not
// exist (ErrExists otherwise; objects are immutable in extent — use
// WriteAt for in-place updates, or Delete then Put to replace), and a
// tenant quota the declared size would overflow fails the call with
// client.ErrQuotaExceeded before any node is touched. All placed nodes
// must be up for the initial seeding. Stripes are seeded seedWindow at
// a time while the next one is read. The reader must deliver exactly
// size bytes; a short read (io.ErrUnexpectedEOF), a reader error, or a
// seeding failure waits out every seed in flight and then unwinds every
// stripe placed — no partial object is ever visible, and the key is
// free for a retry.
func (s *Store) PutReader(ctx context.Context, key string, r io.Reader, size int) error {
	if size < 0 {
		return fmt.Errorf("%w: negative size %d", ErrBadRange, size)
	}
	f := s.fleet
	f.mu.Lock()
	if s.dir.objects[key] != nil || s.pending[key] {
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
	s.pendingBytes += int64(size)
	ec := f.cat.cur
	f.putsIn[ec.id]++
	f.mu.Unlock()
	defer func() {
		f.mu.Lock()
		delete(s.pending, key)
		s.pendingBytes -= int64(size)
		f.putsIn[ec.id]--
		f.mu.Unlock()
	}()

	placed, err := s.seedStream(ctx, ec, r, size)
	if err != nil {
		return fmt.Errorf("object %q: %w", key, err)
	}

	f.mu.Lock()
	defer f.mu.Unlock()
	f.cat.apply(commitObject{tenant: s.tenant, key: key, size: size, epoch: ec.id, stripes: placed})
	s.ctr.puts.Add(1)
	s.ctr.bytesIn.Add(int64(size))
	// A reconfiguration may have started (or advanced) while this object
	// was seeding into what is now a previous epoch: hand it to the
	// active migration so it is drained like the rest. The migration
	// cannot have completed — it waits for putsIn of non-target epochs
	// to reach zero, and ours is still held.
	if ec != f.cat.cur && f.mig != nil {
		f.mig.enqueueLocked(objKey{s.tenant, key})
	}
	return nil
}

// seedStream places size bytes read from r onto fresh stripes of epoch
// ec and returns them, seeded but not yet committed. It is the only
// seeder: stripe ids are allocated and initial placements made nowhere
// else. Each stripe is read, planned and handed to a seed of its own,
// with at most seedWindow seeds in flight: the next stripe is read
// while the window seeds, and a full window waits for any one seed to
// finish. Peak memory is seedWindow+1 stripes of pooled data blocks
// plus the parity of the seeds in flight, whatever the size. On any
// failure nothing of the stream survives: every seed in flight is
// waited out, then the chunks of every stripe attempted (a failing one
// may be partly installed) are removed, and removals that fail are
// counted in ChunksOrphaned.
func (s *Store) seedStream(ctx context.Context, ec *epochCfg, r io.Reader, size int) ([]core.Stripe, error) {
	f := s.fleet
	capacity := ec.capacity(f.cfg.BlockSize)
	// An empty object still owns one stripe, of the smallest blocks.
	stripeCount := max(1, (size+capacity-1)/capacity)
	var (
		placed   = make([]core.Stripe, 0, stripeCount)
		inflight int
		// One slot per seed in flight, so a finishing seed never blocks.
		seedErr = make(chan error, seedWindow)
	)
	// seed installs one stripe and recycles its blocks.
	seed := func(st core.Stripe, blks []*blockpool.Block) {
		data := make([][]byte, len(blks))
		for b, blk := range blks {
			data[b] = blk.B
		}
		err := ec.sys.SeedStripe(ctx, st, data)
		releaseBlocks(blks)
		if err != nil {
			err = fmt.Errorf("seeding stripe %d: %w", st.ID, err)
		}
		seedErr <- err
	}
	// wait takes one finished seed off the window.
	wait := func() error {
		inflight--
		return <-seedErr
	}
	// unwind waits out the window, then removes what the stream
	// installed; err is the first failure and the one reported.
	unwind := func(err error) ([]core.Stripe, error) {
		for inflight > 0 {
			_ = wait()
		}
		s.ctr.chunksOrphaned.Add(int64(f.dropStripes(placed)))
		return nil, err
	}

	remaining := size
	for range stripeCount {
		// Full stripes use the configured block size; the last one is
		// right-sized to the bytes left.
		bs := ec.blockSize(f.cfg.BlockSize, min(remaining, capacity))
		blks, err := readStripe(r, ec.K, bs, &remaining)
		if err != nil {
			return unwind(fmt.Errorf("reading at byte %d of %d: %w", size-remaining, size, err))
		}
		st, err := f.placeStripe(ec, bs)
		if err == nil {
			placed = append(placed, st)
			// Overlap: a full window gives up a slot only after this
			// stripe is fully read and planned.
			if inflight == seedWindow {
				err = wait()
			}
		}
		if err != nil {
			releaseBlocks(blks)
			return unwind(err)
		}
		inflight++
		dispatch.Go(func() { seed(st, blks) })
	}
	for inflight > 0 {
		if err := wait(); err != nil {
			return unwind(err)
		}
	}
	return placed, nil
}

// readStripe fills k pooled blocks with the next bytes of r — as many
// as *remaining allows — zero-padding the tail (pooled buffers come
// back with undefined contents). On error it returns no blocks.
func readStripe(r io.Reader, k, blockSize int, remaining *int) ([]*blockpool.Block, error) {
	blks := make([]*blockpool.Block, k)
	for b := range blks {
		blks[b] = blockpool.GetBlock(blockSize)
		buf := blks[b].B
		fill := min(*remaining, blockSize)
		if _, err := io.ReadFull(r, buf[:fill]); err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			releaseBlocks(blks)
			return nil, err
		}
		*remaining -= fill
		clear(buf[fill:])
	}
	return blks, nil
}

func releaseBlocks(blks []*blockpool.Block) {
	for _, b := range blks {
		b.Release()
	}
}

// objectReader walks an object's bytes through stripe reads: the
// io.Reader the migration feeds seedStream from, and block by block
// the walk behind Get and GetWriter. It reads one stripe per call,
// never a block past the object's end, and keeps the next stripe's read
// in flight while the current one is handed out — two stripes in
// memory whatever the object's size. close ends the read in flight.
type objectReader struct {
	ctx    context.Context
	cancel context.CancelFunc
	s      *Store
	key    string
	m      objectMeta      // the metadata the next read starts from
	next   int             // the object byte the next read starts at
	ahead  chan stripeRead // the read in flight, nil when none
	blocks [][]byte        // the current stripe's bytes not yet handed out
	buf    []byte          // unread tail of the current block (Read only)
}

// stripeRead is one stripe read's bytes and the metadata it ended on.
type stripeRead struct {
	blocks [][]byte
	m      objectMeta
	err    error
}

func (s *Store) objectReader(ctx context.Context, key string, m objectMeta) *objectReader {
	ctx, cancel := context.WithCancel(ctx)
	return &objectReader{ctx: ctx, cancel: cancel, s: s, key: key, m: m}
}

// fetch starts reading the stripe holding object byte offset, from
// there on.
func (o *objectReader) fetch(m objectMeta, offset int) chan stripeRead {
	ch := make(chan stripeRead, 1)
	dispatch.Go(func() {
		blocks, err := o.s.readStripeAt(o.ctx, &m, o.key, offset, m.size-offset)
		ch <- stripeRead{blocks: blocks, m: m, err: err}
	})
	return ch
}

// block returns the object's next block of bytes, io.EOF past its end.
func (o *objectReader) block() ([]byte, error) {
	if len(o.blocks) == 0 {
		if o.next == o.m.size {
			return nil, io.EOF
		}
		if o.ahead == nil {
			o.ahead = o.fetch(o.m, o.next)
		}
		r := <-o.ahead
		o.ahead = nil
		if r.err != nil {
			return nil, r.err
		}
		o.m, o.blocks = r.m, r.blocks
		for _, b := range r.blocks {
			o.next += len(b)
		}
		if o.next < o.m.size {
			o.ahead = o.fetch(o.m, o.next)
		}
	}
	data := o.blocks[0]
	o.blocks = o.blocks[1:]
	return data, nil
}

// close cancels the read in flight, if any, and waits for it.
func (o *objectReader) close() {
	o.cancel()
	if o.ahead != nil {
		<-o.ahead
		o.ahead = nil
	}
}

func (o *objectReader) Read(p []byte) (int, error) {
	if len(o.buf) == 0 {
		var err error
		if o.buf, err = o.block(); err != nil {
			return 0, err
		}
	}
	n := copy(p, o.buf)
	o.buf = o.buf[n:]
	return n, nil
}

// GetWriter streams the object to w through quorum reads, one stripe
// at a time with the next one read ahead — peak memory is two stripes
// plus the protocol's own working set, however large the object. It
// returns the bytes written; on a read or write error the count says
// how much of the object reached w.
func (s *Store) GetWriter(ctx context.Context, key string, w io.Writer) (int64, error) {
	m, err := s.meta(key)
	if err != nil {
		return 0, err
	}
	var written int64
	err = s.each(ctx, key, m, func(b []byte) error {
		n, err := w.Write(b)
		written += int64(n)
		if err != nil {
			return fmt.Errorf("writing object %q: %w", key, err)
		}
		return nil
	})
	return written, err
}

// each hands the object's bytes to fn block by block, read through an
// objectReader, and counts one Get once every block went through.
func (s *Store) each(ctx context.Context, key string, m objectMeta, fn func([]byte) error) error {
	o := s.objectReader(ctx, key, m)
	defer o.close()
	for {
		data, err := o.block()
		if err == io.EOF {
			s.ctr.gets.Add(1)
			s.ctr.bytesOut.Add(int64(m.size))
			return nil
		}
		if err == nil {
			err = fn(data)
		}
		if err != nil {
			return err
		}
	}
}
