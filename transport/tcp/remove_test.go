package tcp_test

import (
	"context"
	"errors"
	"net"
	"runtime"
	"sync"
	"testing"

	"trapquorum/client"
	"trapquorum/internal/memstore"
	"trapquorum/internal/nodeengine"
	"trapquorum/internal/wire"
	"trapquorum/transport/tcp"
)

// putChunks stores a one-byte chunk under every id.
func putChunks(t *testing.T, cl *tcp.NodeClient, ids []client.ChunkID) {
	t.Helper()
	for _, id := range ids {
		if err := cl.PutChunk(context.Background(), id, []byte{1}, []uint64{1}); err != nil {
			t.Fatal(err)
		}
	}
}

// hasAny reports which of ids the node still stores.
func hasAny(t *testing.T, cl *tcp.NodeClient, ids []client.ChunkID) []client.ChunkID {
	t.Helper()
	var left []client.ChunkID
	for _, id := range ids {
		ok, err := cl.HasChunk(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			left = append(left, id)
		}
	}
	return left
}

// plainService hides every optional capability of the service it
// wraps, the way a proxy written against tcp.Service alone does.
type plainService struct{ tcp.Service }

// TestDeleteChunksOverTheWire: one DeleteChunks removes every listed
// chunk and skips a missing one, both on an engine (one staged batch)
// and on a service without client.ChunkRemover, which the server
// serves with one DeleteChunk per id.
func TestDeleteChunksOverTheWire(t *testing.T) {
	for _, hide := range []bool{false, true} {
		name := "engine"
		if hide {
			name = "without ChunkRemover"
		}
		t.Run(name, func(t *testing.T) {
			engine := nodeengine.New(memstore.New())
			t.Cleanup(func() { engine.Close() })
			var svc tcp.Service = engine
			if hide {
				svc = plainService{engine}
			}
			srv := tcp.NewServer(svc)
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			go srv.Serve(ln)
			t.Cleanup(func() { srv.Close() })
			cl := tcp.NewClient(ln.Addr().String())
			t.Cleanup(func() { cl.Close() })

			ids := []client.ChunkID{{Stripe: 1}, {Stripe: 2, Shard: 5}, {Stripe: 1 << 40, Shard: 8}}
			keep := client.ChunkID{Stripe: 3}
			putChunks(t, cl, append(ids, keep))
			if err := cl.DeleteChunks(context.Background(), append(ids, client.ChunkID{Stripe: 99})); err != nil {
				t.Fatal(err)
			}
			if left := hasAny(t, cl, ids); len(left) != 0 {
				t.Fatalf("%v survived DeleteChunks", left)
			}
			if left := hasAny(t, cl, []client.ChunkID{keep}); len(left) != 1 {
				t.Fatal("an unlisted chunk was removed")
			}
		})
	}
}

// TestDeleteChunksBadPairs: a well-framed OpDeleteChunks whose versions
// list is not (stripe, shard) pairs, or names a shard outside int32, is
// answered StatusBadRequest and removes nothing.
func TestDeleteChunksBadPairs(t *testing.T) {
	cl, _, _ := startNode(t)
	id := client.ChunkID{Stripe: 7}
	putChunks(t, cl, []client.ChunkID{id})
	for name, pairs := range map[string][]uint64{
		"odd count":          {7, 0, 8},
		"shard beyond int32": {7, 0, 8, 1 << 32},
	} {
		conn, err := net.Dial("tcp", cl.Addr())
		if err != nil {
			t.Fatal(err)
		}
		req := wire.Request{Op: wire.OpDeleteChunks, Versions: pairs}
		if err := wire.WriteFrame(conn, wire.AppendRequest(nil, &req)); err != nil {
			t.Fatal(err)
		}
		payload, err := wire.ReadFrame(conn, nil, wire.DefaultMaxFrame)
		conn.Close()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		resp, err := wire.DecodeResponse(payload)
		if err != nil || resp.Status != wire.StatusBadRequest {
			t.Fatalf("%s: response %+v, %v; want StatusBadRequest", name, resp, err)
		}
		if !errors.Is(resp.Status.Err(resp.Detail), client.ErrBadRequest) {
			t.Fatalf("%s: %v does not wrap ErrBadRequest", name, resp.Status.Err(resp.Detail))
		}
	}
	if left := hasAny(t, cl, []client.ChunkID{id}); len(left) != 1 {
		t.Fatal("a rejected request removed a chunk")
	}
}

// goroutineProbe is a node whose ReadVersions records how many
// goroutines the process runs while an exchange is in flight.
type goroutineProbe struct {
	tcp.Service
	mu   sync.Mutex
	peak int
}

func (p *goroutineProbe) ReadVersions(ctx context.Context, id client.ChunkID) ([]uint64, []client.BlockSum, error) {
	p.mu.Lock()
	p.peak = max(p.peak, runtime.NumGoroutine())
	p.mu.Unlock()
	return []uint64{1}, nil, nil
}

func (p *goroutineProbe) peaked() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.peak
}

// TestExchangeStartsNoGoroutine: an exchange under a cancellable
// context runs no goroutine beside it — 1,000 of them never see more
// goroutines in flight than exchanges under a context that cannot be
// cancelled, and none is left behind.
func TestExchangeStartsNoGoroutine(t *testing.T) {
	probe := &goroutineProbe{}
	srv := tcp.NewServer(probe)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	cl := tcp.NewClient(ln.Addr().String(), tcp.WithMaxIdleConns(1))
	t.Cleanup(func() { cl.Close() })

	exchange := func(ctx context.Context) {
		if _, _, err := cl.ReadVersions(ctx, client.ChunkID{Stripe: 1}); err != nil {
			t.Fatal(err)
		}
	}
	for range 10 {
		exchange(context.Background())
	}
	baseline, before := probe.peaked(), runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for range 1000 {
		exchange(ctx)
	}
	if peak := probe.peaked(); peak != baseline {
		t.Fatalf("%d goroutines while a cancellable exchange was in flight, %d otherwise", peak, baseline)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines after 1,000 exchanges, %d before", after, before)
	}
}
