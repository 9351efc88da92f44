package blockpool

import "testing"

func TestClassFor(t *testing.T) {
	cases := []struct {
		n, want int
	}{
		{0, minClassBits}, {1, minClassBits}, {256, minClassBits},
		{257, 9}, {4096, 12}, {4097, 13},
		{1 << 26, 26}, {1<<26 + 1, -1},
	}
	for _, c := range cases {
		if got := classFor(c.n); got != c.want {
			t.Errorf("classFor(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestBlockRoundTrip(t *testing.T) {
	blk := GetBlock(1000)
	if len(blk.B) != 1000 || cap(blk.B) != 1024 {
		t.Fatalf("len=%d cap=%d", len(blk.B), cap(blk.B))
	}
	for i := range blk.B {
		blk.B[i] = 0xee
	}
	blk.Release()
	// A released block must come back resliced to the new length.
	again := GetBlock(5)
	if len(again.B) != 5 {
		t.Fatalf("reuse len = %d", len(again.B))
	}
	again.Release()
}

func TestWordsRoundTrip(t *testing.T) {
	w := GetWords(300)
	if len(w.W) != 300 || cap(w.W) != 512 {
		t.Fatalf("len=%d cap=%d", len(w.W), cap(w.W))
	}
	w.Release()
}

func TestOversizedUnpooled(t *testing.T) {
	blk := GetBlock(1<<26 + 1)
	if blk.class != -1 || len(blk.B) != 1<<26+1 {
		t.Fatalf("oversized block class=%d len=%d", blk.class, len(blk.B))
	}
	blk.Release() // must not panic
	w := GetWords(1<<26 + 1)
	if w.class != -1 {
		t.Fatalf("oversized words class=%d", w.class)
	}
	w.Release()
}

func TestNilRelease(t *testing.T) {
	var blk *Block
	blk.Release()
	var w *Words
	w.Release()
}

func TestZeroLength(t *testing.T) {
	blk := GetBlock(0)
	if len(blk.B) != 0 {
		t.Fatalf("len = %d", len(blk.B))
	}
	blk.Release()
}

// The whole point: steady-state Get/Release cycles must not allocate.
func TestSteadyStateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	// Warm the pools.
	GetBlock(4096).Release()
	GetWords(4096).Release()
	avg := testing.AllocsPerRun(100, func() {
		blk := GetBlock(4096)
		blk.B[0] = 1
		blk.Release()
		w := GetWords(4096)
		w.W[0] = 1
		w.Release()
	})
	if avg > 0.1 {
		t.Fatalf("steady-state Get/Release allocates %.1f objects per run", avg)
	}
}
