package core

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"testing"

	"trapquorum/internal/erasure"
	"trapquorum/internal/sim"
	"trapquorum/internal/trapezoid"
)

// TestProtocolRandomConfigurations is the protocol's configuration
// property test: across randomly drawn valid (n, k, shape, w)
// combinations, the full lifecycle — seed, quorum writes, healthy and
// degraded reads, repair — must hold its invariants.
func TestProtocolRandomConfigurations(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	configs := 0
	for attempt := 0; attempt < 400 && configs < 25; attempt++ {
		// Draw a code with a few parity blocks, then a matching shape.
		k := 1 + r.Intn(10)
		parity := 2 + r.Intn(9) // n-k in [2, 10]
		n := k + parity
		shapes := trapezoid.EnumerateShapes(parity+1, 3)
		if len(shapes) == 0 {
			continue
		}
		shape := shapes[r.Intn(len(shapes))]
		// Random valid w for levels >= 1 (bounded by the narrowest
		// level above 0, which is level 1 since sizes increase).
		w := 1
		if shape.H >= 1 {
			w = 1 + r.Intn(shape.LevelSize(1))
		}
		cfg, err := trapezoid.NewConfig(shape, w)
		if err != nil {
			continue
		}
		configs++
		runLifecycle(t, r, n, k, cfg)
	}
	if configs < 25 {
		t.Fatalf("only exercised %d configurations", configs)
	}
}

func runLifecycle(t *testing.T, r *rand.Rand, n, k int, cfg trapezoid.Config) {
	t.Helper()
	code, err := erasure.New(n, k)
	if err != nil {
		t.Fatal(err)
	}
	cluster, err := sim.NewCluster(n)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	nodes := make([]NodeClient, n)
	for j := 0; j < n; j++ {
		nodes[j] = cluster.Node(j)
	}
	sys, err := NewSystem(code, cfg, nodes, Options{})
	if err != nil {
		t.Fatal(err)
	}
	size := 8 + r.Intn(48)
	st := identityStripe(1, n, size)
	data := make([][]byte, k)
	for i := range data {
		data[i] = make([]byte, size)
		r.Read(data[i])
	}
	if err := sys.SeedStripe(context.Background(), st, data); err != nil {
		t.Fatalf("(%d,%d) %v: seed: %v", n, k, cfg, err)
	}
	expected := make([][]byte, k)
	copy(expected, data)

	// Healthy writes and reads.
	for round := 0; round < 3; round++ {
		i := r.Intn(k)
		x := make([]byte, size)
		r.Read(x)
		if err := sys.WriteBlock(context.Background(), st, i, x); err != nil {
			t.Fatalf("(%d,%d) %v: healthy write: %v", n, k, cfg, err)
		}
		expected[i] = x
	}
	for i := 0; i < k; i++ {
		got, _, err := sys.ReadBlock(context.Background(), st, i)
		if err != nil {
			t.Fatalf("(%d,%d) %v: healthy read %d: %v", n, k, cfg, i, err)
		}
		if !bytes.Equal(got, expected[i]) {
			t.Fatalf("(%d,%d) %v: healthy read %d wrong", n, k, cfg, i)
		}
	}

	// Random crash schedule; reads must stay linearizable, writes may
	// fail (rolled back) but never corrupt.
	for op := 0; op < 30; op++ {
		switch r.Intn(6) {
		case 0:
			cluster.Crash(r.Intn(n))
		case 1:
			cluster.Restart(r.Intn(n))
		case 2:
			i := r.Intn(k)
			x := make([]byte, size)
			r.Read(x)
			err := sys.WriteBlock(context.Background(), st, i, x)
			if err == nil {
				expected[i] = x
			} else if !errors.Is(err, ErrWriteFailed) {
				t.Fatalf("(%d,%d) %v: unexpected write error %v", n, k, cfg, err)
			}
		default:
			i := r.Intn(k)
			got, _, err := sys.ReadBlock(context.Background(), st, i)
			if err != nil {
				if !errors.Is(err, ErrNotReadable) {
					t.Fatalf("(%d,%d) %v: unexpected read error %v", n, k, cfg, err)
				}
				continue
			}
			if !bytes.Equal(got, expected[i]) {
				t.Fatalf("(%d,%d) %v: stale read of block %d", n, k, cfg, i)
			}
		}
	}

	// Heal and repair the whole stripe to a fixpoint. Repairs have
	// dependencies in both directions (stale parity needs fresh data,
	// a data shard that missed a committed write needs fresh parity),
	// which RepairStripe resolves by iterating.
	cluster.RestartAll()
	if _, _, err := sys.RepairStripe(context.Background(), st); err != nil {
		t.Fatalf("(%d,%d) %v: RepairStripe: %v", n, k, cfg, err)
	}
	shards := make([][]byte, n)
	for j := 0; j < n; j++ {
		chunk, err := cluster.Node(j).ReadChunk(context.Background(), sim.ChunkID{Stripe: 1, Shard: j})
		if err != nil {
			t.Fatalf("(%d,%d) %v: chunk %d: %v", n, k, cfg, j, err)
		}
		shards[j] = chunk.Data
	}
	ok, err := code.Verify(shards)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("(%d,%d) %v: stripe violates code after lifecycle", n, k, cfg)
	}
	// Read, repair and scrub share one judge of "consistent set": after
	// the repair the scrubber must find nothing left to do, and every
	// read must serve exactly the version the scrubber calls fresh.
	rep, err := sys.ScrubStripe(context.Background(), st)
	if err != nil || !rep.Healthy {
		t.Fatalf("(%d,%d) %v: scrub after repair: %v (%v)", n, k, cfg, rep, err)
	}
	for i := 0; i < k; i++ {
		got, version, err := sys.ReadBlock(context.Background(), st, i)
		if err != nil || !bytes.Equal(got, expected[i]) {
			t.Fatalf("(%d,%d) %v: final read %d wrong (%v)", n, k, cfg, i, err)
		}
		if version != rep.FreshVector[i] {
			t.Fatalf("(%d,%d) %v: block %d read at version %d, scrub says fresh is %d", n, k, cfg, i, version, rep.FreshVector[i])
		}
	}
}
