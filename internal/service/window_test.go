package service

import (
	"bytes"
	"context"
	"errors"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"trapquorum/client"
)

// windowReader delivers the first n bytes of r, then fails with err and
// closes failed.
type windowReader struct {
	r      io.Reader
	n      int
	err    error
	failed chan struct{}
}

func (w *windowReader) Read(p []byte) (int, error) {
	if w.n == 0 {
		select {
		case <-w.failed:
		default:
			close(w.failed)
		}
		return 0, w.err
	}
	n, err := w.r.Read(p[:min(len(p), w.n)])
	w.n -= n
	return n, err
}

// TestSeedWindowUnwinds: a multi-stripe PutReader seeds seedWindow
// stripes at once. A failure inside the window — a node refusing a
// PutChunk of stripe j while the seeds of later stripes are in flight,
// or the reader failing while earlier stripes are still seeding — waits
// out every seed in flight and then removes every chunk the stream
// installed: no node keeps a chunk, no removal counts as orphaned, no
// stripe stays registered, and the key is free for a retry that
// succeeds.
func TestSeedWindowUnwinds(t *testing.T) {
	ctx := context.Background()
	const stripes = 6
	payload := stripesOfBytes(stripes)
	cases := []struct {
		name string
		// arm installs the fault for a stream whose first stripe id is
		// first, and returns the reader the PutReader consumes and a
		// check that the failure really landed inside the window.
		arm     func(p *probe, first uint64) (io.Reader, func() bool)
		wantErr error
	}{
		{
			name: "node fails stripe j with later stripes in flight",
			arm: func(p *probe, first uint64) (io.Reader, func() bool) {
				doomed := first + 1
				later := make(chan struct{})  // a later stripe's PutChunk arrived
				failed := make(chan struct{}) // the doomed PutChunk has failed
				var laterOnce, failedOnce sync.Once
				var overlapped atomic.Bool
				hold := func(id client.ChunkID) {
					if id.Stripe > doomed {
						laterOnce.Do(func() { close(later) })
						<-failed
					}
				}
				fail := func(id client.ChunkID) bool {
					if id.Stripe != doomed || id.Shard != 3 {
						return false
					}
					select {
					case <-later:
						overlapped.Store(true)
					case <-time.After(10 * time.Second):
					}
					failedOnce.Do(func() { close(failed) })
					return true
				}
				p.holdPut.Store(&hold)
				p.failPut.Store(&fail)
				return bytes.NewReader(payload), overlapped.Load
			},
			wantErr: client.ErrNodeDown,
		},
		{
			name: "reader fails mid-window",
			arm: func(p *probe, first uint64) (io.Reader, func() bool) {
				// Every PutChunk waits for the reader's failure, so the
				// seeds of the stripes read before it are all in flight
				// when it comes: 3½ stripes in, inside a window of 4.
				r := &windowReader{
					r:      bytes.NewReader(payload),
					n:      7 * len(payload) / (2 * stripes),
					err:    errors.New("reader failed mid-window"),
					failed: make(chan struct{}),
				}
				var held atomic.Int64
				hold := func(client.ChunkID) {
					held.Add(1)
					<-r.failed
				}
				p.holdPut.Store(&hold)
				return r, func() bool { return held.Load() > 0 }
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			store, cluster, p := newProbedStore(t, removeNodes, 0)
			store.fleet.mu.Lock()
			first := store.fleet.cat.nextStripe
			store.fleet.mu.Unlock()
			r, inWindow := tc.arm(p, first)
			err := store.PutReader(ctx, "obj", r, len(payload))
			p.holdPut.Store(nil)
			p.failPut.Store(nil)
			if err == nil || (tc.wantErr != nil && !errors.Is(err, tc.wantErr)) {
				t.Fatalf("err = %v, want %v", err, tc.wantErr)
			}
			if !inWindow() {
				t.Fatal("the failure did not land while other stripes were seeding")
			}
			for j, n := range chunkCounts(t, cluster) {
				if n != 0 {
					t.Errorf("node %d keeps %d chunks after the unwind", j, n)
				}
			}
			if got := store.TenantMetrics().ChunksOrphaned; got != 0 {
				t.Errorf("ChunksOrphaned = %d with every removal succeeding", got)
			}
			if left := registeredStripes(store.fleet); len(left) != 0 {
				t.Errorf("stripes %v still registered", left)
			}
			if _, err := store.Size("obj"); !errors.Is(err, ErrUnknownKey) {
				t.Fatalf("partial object visible: %v", err)
			}
			if err := store.PutReader(ctx, "obj", bytes.NewReader(payload), len(payload)); err != nil {
				t.Fatalf("retry: %v", err)
			}
			if got, err := store.Get(ctx, "obj"); err != nil || !bytes.Equal(got, payload) {
				t.Fatalf("read-back after the retry: %v", err)
			}
		})
	}
}
