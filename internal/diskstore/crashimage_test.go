package diskstore

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"trapquorum/client"
	"trapquorum/internal/chunkmeta"
	"trapquorum/internal/nodeengine"
)

// Crash images: the store runs a seeded script over the recording
// memFS, and at every fsync boundary the test rebuilds the disks a
// crash there could leave (memFS.crashImages), reopens each one through
// the real file system and checks that no acknowledged mutation is
// lost. Un-acknowledged mutations may or may not appear.

// chunkState is one chunk as a Get returns it.
type chunkState struct {
	data     []byte
	versions []uint64
	meta     chunkmeta.Meta
}

func (c chunkState) equal(o chunkState) bool {
	return bytes.Equal(c.data, o.data) && slices.Equal(c.versions, o.versions) &&
		c.meta.Self == o.meta.Self && c.meta.HasSelf == o.meta.HasSelf &&
		c.meta.RecSum == o.meta.RecSum && slices.Equal(c.meta.Rec, o.meta.Rec)
}

// storeState maps every present chunk of the script's universe to its
// state.
type storeState map[client.ChunkID]chunkState

// matches reports whether the chunk reads back as it stands in st.
func (st storeState) matches(id client.ChunkID, got chunkState, ok bool) bool {
	want, present := st[id]
	return ok == present && (!ok || got.equal(want))
}

func readState(s *Store, ids []client.ChunkID) (storeState, error) {
	st := make(storeState)
	for _, id := range ids {
		data, versions, meta, ok, err := s.Get(id)
		if err != nil {
			return nil, fmt.Errorf("Get(%v): %w", id, err)
		}
		if ok {
			meta.Rec = slices.Clone(meta.Rec)
			st[id] = chunkState{data: bytes.Clone(data), versions: slices.Clone(versions), meta: meta}
		}
	}
	return st, nil
}

// crashRun is a script's record: the state after each step and the log
// index of the fsync that acknowledged it.
type crashRun struct {
	fs     *memFS
	ids    []client.ChunkID
	states []storeState // states[i]: after the first i steps
	acks   []int        // acks[i]: step i is acknowledged once log entry acks[i] has run
}

// runCrashScript drives an engine over a store on a fresh memFS
// through a seeded script of every mutation the engine stages, plus
// scans (each a checkpoint and a WAL truncation) and a reopen, and
// ends with Close's checkpoint.
func runCrashScript(t *testing.T, seed int64, steps int) *crashRun {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	root := t.TempDir()
	run := &crashRun{fs: newMemFS(root), states: []storeState{{}}}
	for i := 0; i < 6; i++ {
		run.ids = append(run.ids, client.ChunkID{Stripe: uint64(i + 1), Shard: i % 3})
	}
	ghost := client.ChunkID{Stripe: 99} // deleted, never put
	openEngine := func() (*Store, *nodeengine.Engine) {
		s, err := open(root, run.fs)
		if err != nil {
			t.Fatal(err)
		}
		return s, nodeengine.New(s)
	}
	s, e := openEngine()
	ctx := context.Background()
	bytesOf := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	walPath := filepath.Join(root, "wal")
	ran := make(map[string]int)
	for step := 0; step < steps; step++ {
		start := len(run.fs.ops())
		cur := run.states[len(run.states)-1]
		present := make([]client.ChunkID, 0, len(cur))
		for _, id := range run.ids {
			if _, ok := cur[id]; ok {
				present = append(present, id)
			}
		}
		id := run.ids[rng.Intn(len(run.ids))]
		var err error
		var kind string
		switch r := rng.Intn(100); {
		case step%9 == 8:
			kind = "scan"
			var bad []client.ChunkID
			if bad, err = e.VerifyStore(ctx); err == nil && len(bad) > 0 {
				err = fmt.Errorf("scan quarantined %v", bad)
			}
		case step == steps/2:
			kind = "wipe"
			err = e.Wipe(ctx)
		case step == 2*steps/3:
			kind = "reopen"
			if err = e.Close(); err == nil {
				s, e = openEngine()
			}
		case r < 40 || len(present) == 0:
			kind = "put"
			versions := []uint64{uint64(rng.Intn(5) + 1), uint64(rng.Intn(5) + 1), uint64(rng.Intn(5) + 1)}
			sums := make([]client.BlockSum, len(versions))
			for i, v := range versions {
				sums[i] = client.BlockSum{Version: v, Sum: rng.Uint64()}
			}
			err = e.PutChunk(ctx, id, bytesOf(8+rng.Intn(40)), versions, sums...)
		case r < 55:
			kind = "compare-and-put"
			id = present[rng.Intn(len(present))]
			slot := rng.Intn(3)
			v := cur[id].versions[slot]
			err = e.CompareAndPut(ctx, id, slot, v, v+1, bytesOf(8+rng.Intn(40)), client.BlockSum{Version: v + 1, Sum: rng.Uint64()})
		case r < 70:
			kind = "compare-and-add"
			id = present[rng.Intn(len(present))]
			slot := rng.Intn(3)
			v := cur[id].versions[slot]
			err = e.CompareAndAdd(ctx, id, slot, v, v+1, bytesOf(len(cur[id].data)), client.BlockSum{Version: v + 1, Sum: rng.Uint64()})
		case r < 85:
			kind = "delete"
			err = e.DeleteChunk(ctx, id)
		default:
			kind = "DeleteChunks"
			err = e.DeleteChunks(ctx, []client.ChunkID{id, run.ids[rng.Intn(len(run.ids))], ghost})
		}
		if err != nil {
			t.Fatalf("step %d (%s): %v", step, kind, err)
		}
		ran[kind]++
		st, err := readState(s, run.ids)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		// A mutation is acknowledged by the first WAL fsync after it
		// starts; a step that appended nothing changed nothing.
		ack := start
		ops := run.fs.ops()
		for i, wrote := start, false; i < len(ops); i++ {
			if ops[i].name != walPath {
				continue
			}
			if ops[i].kind == fsWrite {
				wrote = true
			}
			if wrote && ops[i].kind == fsSync {
				ack = i
				break
			}
		}
		run.states = append(run.states, st)
		run.acks = append(run.acks, ack)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if len(ran) != 8 {
		t.Fatalf("seed %d ran %v: some kind of step never ran", seed, ran)
	}
	return run
}

// acked returns how many steps a crash just before log entry p finds
// acknowledged. It may recover to the state after them, or after the
// step in flight: states[a] or states[a+1].
func (r *crashRun) acked(p int) int {
	a := 0
	for a < len(r.acks) && r.acks[a] < p {
		a++
	}
	return a
}

// checkImage reopens a crash image through the real file system and
// checks every chunk of the universe against the allowed states.
func checkImage(dir string, ids []client.ChunkID, allowed []storeState) error {
	s, err := Open(dir, WithSyncWrites(false))
	if err != nil {
		return fmt.Errorf("reopen: %w", err)
	}
	defer s.Close()
	present := 0
	for _, id := range ids {
		data, versions, meta, ok, err := s.Get(id)
		if err != nil {
			return fmt.Errorf("Get(%v): %w", id, err)
		}
		got := chunkState{data: data, versions: versions, meta: meta}
		match := false
		for _, st := range allowed {
			match = match || st.matches(id, got, ok)
		}
		if !match {
			return fmt.Errorf("%v reads back as present=%t %+v, not as acknowledged", id, ok, got)
		}
		if ok {
			present++
		}
	}
	if n, err := s.Len(); err != nil || n != present {
		return fmt.Errorf("Len = %d, %v; want %d", n, err, present)
	}
	return nil
}

// TestCrashImagesLoseNoAck enumerates the crash images of a seeded
// script at every fsync boundary, and at its end, and reopens each
// distinct one: every mutation acknowledged before the crash must read
// back byte-exact, with its versions and sums.
func TestCrashImagesLoseNoAck(t *testing.T) {
	for _, seed := range []int64{1, 2} {
		run := runCrashScript(t, seed, 45)
		ops := run.fs.ops()
		var boundaries []int
		for p, op := range ops {
			if op.kind == fsSync {
				boundaries = append(boundaries, p)
			}
		}
		boundaries = append(boundaries, len(ops))
		seen := make(map[string]bool)
		base := t.TempDir()
		checked := 0
		for _, p := range boundaries {
			a := run.acked(p)
			allowed := run.states[a:min(a+2, len(run.states))]
			for i, img := range run.fs.crashImages(p) {
				key := fmt.Sprintf("%x/%d", img.key(run.fs.root), a)
				if seen[key] {
					continue
				}
				seen[key] = true
				dir := filepath.Join(base, fmt.Sprint(checked))
				checked++
				if err := os.Mkdir(dir, 0o755); err != nil {
					t.Fatal(err)
				}
				if err := img.writeTo(run.fs.root, dir); err != nil {
					t.Fatal(err)
				}
				if err := checkImage(dir, run.ids, allowed); err != nil {
					t.Fatalf("seed %d, crash before log entry %d of %d (%s), image %s: %v",
						seed, p, len(ops), describeOp(ops, p), [3]string{"all unsynced kept", "all unsynced dropped", "last write torn"}[i], err)
				}
			}
		}
		t.Logf("seed %d: %d log entries, %d fsync boundaries, %d distinct images reopened", seed, len(ops), len(boundaries)-1, checked)
	}
}

func describeOp(ops []fsOp, p int) string {
	if p == len(ops) {
		return "the end"
	}
	return fmt.Sprintf("fsync of %s", ops[p].name)
}
