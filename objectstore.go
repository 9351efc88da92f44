package trapquorum

import (
	"context"
	"io"

	"trapquorum/internal/service"
)

// ObjectStore is the headline API: a keyed erasure-coded object store
// with quorum consistency, spreading stripes across a cluster larger
// than one stripe by a placement strategy. Objects are chunked into
// stripes of k blocks — full stripes of the configured block size, the
// last one right-sized to the bytes it holds; Get/ReadAt/WriteAt go
// through the quorum protocol block by block, so reads stay strictly
// consistent with in-place updates even while nodes fail. It is safe
// for concurrent use; see WriteAt for the semantics of overlapping
// writers.
type ObjectStore struct {
	clusterHandle
	svc *service.Store
}

// Open validates the configuration, asks the backend to provision the
// cluster (sized by the placement strategy) and assembles the object
// store. Close must be called when done.
//
// Defaults: the paper's Figure-3 configuration — WithCode(15, 8),
// WithTrapezoid(2, 3, 1, 3) — 4 KiB blocks, round-robin placement
// over exactly n nodes, and the in-process simulated cluster.
func Open(ctx context.Context, opts ...Option) (*ObjectStore, error) {
	cfg, err := newConfig(opts)
	if err != nil {
		return nil, err
	}
	h, err := openFleet(ctx, cfg)
	if err != nil {
		return nil, err
	}
	svc, err := h.fleet.Tenant(service.DefaultTenant, service.Quota{})
	if err != nil {
		h.Close()
		return nil, err
	}
	return &ObjectStore{clusterHandle: h, svc: svc}, nil
}

// Put stores data under key. The key must not exist (ErrExists
// otherwise): objects are immutable in extent — use WriteAt for
// in-place updates, or Delete then Put to replace. All placed nodes
// must be up for the initial seeding.
func (s *ObjectStore) Put(ctx context.Context, key string, data []byte) error {
	return s.svc.Put(ctx, key, data)
}

// PutReader stores size bytes streamed from r under key — the
// streaming form of Put for objects too large to hold in memory.
// Stripes are read, encoded and seeded in a bounded window — four
// stripes seeding while the next is read — so peak memory stays at
// about five stripes of data (5·k·BlockSize) plus the parity of the
// four in flight, however large the object. The reader must deliver exactly size bytes; a short read, a
// reader error or a node failure unwinds every stripe already placed —
// no partial object is ever visible, and the key stays free for a
// retry. See docs/PERFORMANCE.md for sizing the stripe to the stream.
func (s *ObjectStore) PutReader(ctx context.Context, key string, r io.Reader, size int) error {
	return s.svc.PutReader(ctx, key, r, size)
}

// Get reads the whole object back through quorum reads.
func (s *ObjectStore) Get(ctx context.Context, key string) ([]byte, error) {
	return s.svc.Get(ctx, key)
}

// GetWriter streams the object to w through quorum reads, one stripe
// at a time with the next read ahead — the streaming form of Get, with
// peak memory of two stripes however large the object. It returns the bytes written; on error the
// count reports how much of the object reached w.
func (s *ObjectStore) GetWriter(ctx context.Context, key string, w io.Writer) (int64, error) {
	return s.svc.GetWriter(ctx, key, w)
}

// ReadAt reads length bytes at the given offset through quorum reads
// of only the affected blocks.
func (s *ObjectStore) ReadAt(ctx context.Context, key string, offset, length int) ([]byte, error) {
	return s.svc.ReadAt(ctx, key, offset, length)
}

// WriteAt overwrites bytes [offset, offset+len(p)) in place through
// quorum writes, shipping only parity deltas for the affected blocks.
// Writes cannot extend the object (ErrBadRange).
//
// Each block update is an atomic quorum write that patches only the
// bytes in range, under the block's writer lock, onto the block's
// current content — what the store last committed for it, else what
// the write's own quorum read returned: WriteAt calls on disjoint byte
// ranges never lose each other's bytes, even within one block. A
// multi-block span is not a transaction, and calls overlapping on the
// same bytes apply in some order, the last writer winning per block.
// Callers updating overlapping ranges concurrently need their own
// coordination (the paper assumes classical concurrency control above
// the protocol).
func (s *ObjectStore) WriteAt(ctx context.Context, key string, offset int, p []byte) error {
	return s.svc.WriteAt(ctx, key, offset, p)
}

// Delete removes the object and best-effort deletes its chunks from
// the placed nodes. ctx gates entry only; the removals are bounded on
// their own: Delete waits about a second at most for them, and a chunk
// whose node has not answered by then stays behind as an orphan.
func (s *ObjectStore) Delete(ctx context.Context, key string) error {
	return s.svc.Delete(ctx, key)
}

// Size returns the object's byte size.
func (s *ObjectStore) Size(key string) (int, error) { return s.svc.Size(key) }

// Keys lists stored keys in sorted order.
func (s *ObjectStore) Keys() []string { return s.svc.Keys() }

// StripesOf reports the stripe ids backing an object (diagnostics).
func (s *ObjectStore) StripesOf(key string) ([]uint64, error) { return s.svc.StripesOf(key) }

// Scrub audits every stripe of the object read-only, one ScrubReport
// per stripe. Pair with RepairNode when it reports degradation.
func (s *ObjectStore) Scrub(ctx context.Context, key string) ([]ScrubReport, error) {
	return s.svc.Scrub(ctx, key)
}
