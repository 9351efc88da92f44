package diskstore

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"trapquorum/client"
	"trapquorum/internal/chunkmeta"
)

// The checkpoint's calls, as the recording memFS logs them.

func openOnMemFS(t *testing.T) (*Store, *memFS) {
	t.Helper()
	m := newMemFS(t.TempDir())
	s, err := open(m.root, m)
	if err != nil {
		t.Fatal(err)
	}
	return s, m
}

func putChunk(t *testing.T, s *Store, id client.ChunkID) {
	t.Helper()
	if err := s.Put(id, []byte(fmt.Sprint(id)), []uint64{1}, chunkmeta.Meta{}); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointSyscalls: a checkpoint of d dirty puts and t tombstones
// opens each chunk file it writes once (the seam has no rename), fsyncs
// each written file once and the directory once, removes each
// tombstoned file once, and truncates the WAL only after all of those.
func TestCheckpointSyscalls(t *testing.T) {
	s, m := openOnMemFS(t)
	var old []client.ChunkID
	for i := 0; i < 6; i++ {
		old = append(old, client.ChunkID{Stripe: uint64(i)})
		putChunk(t, s, old[i])
	}
	if _, err := s.Scan(); err != nil { // checkpoint: the six files exist
		t.Fatal(err)
	}
	// The window: overwrite two files, create three, delete three.
	written := map[string]bool{}
	for i := 0; i < 5; i++ {
		id := client.ChunkID{Stripe: uint64(i + 1), Shard: i / 2}
		putChunk(t, s, id)
		written[filepath.Join(s.chunksDir, chunkFileName(id))] = true
	}
	tombstones := old[3:]
	for _, id := range tombstones {
		if err := s.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	mark := len(m.ops())
	if err := s.Close(); err != nil { // the closing checkpoint
		t.Fatal(err)
	}
	ops := m.ops()[mark:]

	opens, syncs := map[string]int{}, map[string]int{}
	removes, lastSync, trunc := 0, -1, -1
	for i, op := range ops {
		switch op.kind {
		case fsOpen:
			if op.name != s.chunksDir {
				opens[op.name]++
				if op.flag&os.O_TRUNC == 0 {
					t.Errorf("%s opened without O_TRUNC", op.name)
				}
			}
		case fsSync:
			syncs[op.name]++
			lastSync = i
		case fsRemove:
			removes++
		case fsMiss:
			t.Errorf("removed %s, which was not there", op.name)
		case fsTrunc:
			if op.name == s.walPath() {
				trunc = i
			}
		}
	}
	if len(opens) != len(written) {
		t.Errorf("opened %d files, want the %d written", len(opens), len(written))
	}
	for name := range written {
		if opens[name] != 1 || syncs[name] != 1 {
			t.Errorf("%s: %d opens and %d fsyncs, want 1 and 1", name, opens[name], syncs[name])
		}
	}
	if syncs[s.chunksDir] != 1 {
		t.Errorf("%d directory fsyncs, want 1", syncs[s.chunksDir])
	}
	if len(syncs) != len(written)+1 {
		t.Errorf("fsyncs %v, want the written files and the directory", syncs)
	}
	if removes != len(tombstones) {
		t.Errorf("%d removals, want %d", removes, len(tombstones))
	}
	if trunc < 0 || trunc < lastSync {
		t.Errorf("WAL truncated at call %d, the last fsync is call %d", trunc, lastSync)
	}
}

// TestShortLivedChunkGetsNoFile: a chunk put and deleted inside one WAL
// window never gets a chunk file, and the checkpoint does not try to
// remove one, however many other chunks the window dirties — more here
// than the 512 that used to force a checkpoint.
func TestShortLivedChunkGetsNoFile(t *testing.T) {
	s, m := openOnMemFS(t)
	brief := client.ChunkID{Stripe: 1 << 40}
	putChunk(t, s, brief)
	for i := 0; i < 600; i++ {
		putChunk(t, s, client.ChunkID{Stripe: uint64(i)})
	}
	if err := s.Delete(brief); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(s.chunksDir, chunkFileName(brief))
	for _, op := range m.ops() {
		if op.name == path {
			t.Fatalf("a file call named the short-lived chunk's file (call kind %d)", op.kind)
		}
	}
}
