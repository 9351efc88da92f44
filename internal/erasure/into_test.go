package erasure

import (
	"bytes"
	"math/rand"
	"testing"

	"trapquorum/internal/blockpool"
	"trapquorum/internal/gf256"
)

// refEncode is the fully scalar reference encoder: row-wise
// generator-matrix products through the byte-at-a-time reference
// kernels, no lane tables, no segmentation, no word packing. The
// banked/parallel encoder must match it byte for byte.
func refEncode(t testing.TB, c *Code, data [][]byte) [][]byte {
	t.Helper()
	size := len(data[0])
	shards := make([][]byte, c.N())
	copy(shards, data)
	for j := c.K(); j < c.N(); j++ {
		row := c.GeneratorRow(j)
		out := make([]byte, size)
		for i, coeff := range row {
			gf256.MulAddSliceRef(coeff, out, data[i])
		}
		shards[j] = out
	}
	return shards
}

// TestEncodeMatchesScalarReference pins the banked lane-table encoder
// against the scalar reference across code shapes and block sizes that
// straddle every boundary: the word cutovers, the lane expansion
// cutover, and the segment size.
func TestEncodeMatchesScalarReference(t *testing.T) {
	r := rand.New(rand.NewSource(50))
	shapes := [][2]int{{9, 6}, {15, 8}, {4, 1}, {5, 5}, {20, 4}, {26, 10}}
	sizes := []int{1, 7, 31, 257, 1023, 1024, 4095, 4096, 4097, 9000}
	for _, shape := range shapes {
		c := mustCode(t, shape[0], shape[1])
		for _, size := range sizes {
			data := randStripeData(r, c.K(), size)
			want := refEncode(t, c, data)
			got, err := c.Encode(data)
			if err != nil {
				t.Fatalf("(%d,%d) size %d: %v", shape[0], shape[1], size, err)
			}
			for j := range want {
				if !bytes.Equal(got[j], want[j]) {
					t.Fatalf("(%d,%d) size %d: shard %d diverges from scalar reference", shape[0], shape[1], size, j)
				}
			}
		}
	}
}

// TestEncodeManyParityBanks exercises codes with more than 8 parity
// rows, where the encoder needs multiple lane banks.
func TestEncodeManyParityBanks(t *testing.T) {
	r := rand.New(rand.NewSource(51))
	for _, shape := range [][2]int{{12, 3}, {20, 3}, {30, 10}, {40, 6}} {
		c := mustCode(t, shape[0], shape[1])
		data := randStripeData(r, c.K(), 513)
		want := refEncode(t, c, data)
		got, err := c.Encode(data)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if !bytes.Equal(got[j], want[j]) {
				t.Fatalf("(%d,%d): shard %d diverges (bank %d)", shape[0], shape[1], j, (j-c.K())/gf256.MaxLanes)
			}
		}
		if ok, err := c.Verify(got); err != nil || !ok {
			t.Fatalf("(%d,%d): Verify = %v, %v", shape[0], shape[1], ok, err)
		}
	}
}

// TestParallelEncodeMatchesSerial is the stripe-parallel differential:
// the segment fan-out must produce byte-identical stripes for every
// worker count, including blocks whose tails straddle segment
// boundaries.
func TestParallelEncodeMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(52))
	serial := mustCode(t, 15, 8)
	for _, size := range []int{segmentSize - 1, segmentSize, segmentSize + 1, 3*segmentSize + 17, 8 * segmentSize} {
		data := randStripeData(r, 8, size)
		want, err := serial.Encode(data)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{2, 3, 8} {
			par, err := New(15, 8, WithParallelism(workers))
			if err != nil {
				t.Fatal(err)
			}
			got, err := par.Encode(data)
			if err != nil {
				t.Fatal(err)
			}
			for j := range want {
				if !bytes.Equal(got[j], want[j]) {
					t.Fatalf("size %d workers %d: shard %d differs from serial", size, workers, j)
				}
			}
			// Reconstruct through the parallel code too.
			shards := cloneShards(got)
			shards[0], shards[9] = nil, nil
			if err := par.Reconstruct(shards); err != nil {
				t.Fatal(err)
			}
			for j := range want {
				if !bytes.Equal(shards[j], want[j]) {
					t.Fatalf("size %d workers %d: reconstructed shard %d differs", size, workers, j)
				}
			}
		}
	}
}

func TestWithParallelismValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("WithParallelism(-1) did not panic")
		}
	}()
	WithParallelism(-1)
}

func TestWithParallelismAuto(t *testing.T) {
	c, err := New(9, 6, WithParallelism(0))
	if err != nil {
		t.Fatal(err)
	}
	if c.Parallelism() < 1 {
		t.Fatalf("auto parallelism resolved to %d", c.Parallelism())
	}
}

func TestEncodeIntoValidation(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	c := mustCode(t, 9, 6)
	data := randStripeData(r, 6, 64)
	parity := make([][]byte, 3)
	for j := range parity {
		parity[j] = make([]byte, 64)
	}
	if err := c.EncodeInto(parity[:2], data); err == nil {
		t.Fatal("short parity slice accepted")
	}
	parity[1] = nil
	if err := c.EncodeInto(parity, data); err == nil {
		t.Fatal("nil parity destination accepted")
	}
	parity[1] = make([]byte, 63)
	if err := c.EncodeInto(parity, data); err == nil {
		t.Fatal("ragged parity destination accepted")
	}
}

func TestDecodeBlockIntoPooled(t *testing.T) {
	r := rand.New(rand.NewSource(54))
	c := mustCode(t, 9, 6)
	orig, _ := c.Encode(randStripeData(r, 6, 512))
	shards := cloneShards(orig)
	shards[2] = nil
	blk := blockpool.GetBlock(512)
	defer blk.Release()
	if err := c.DecodeBlockInto(blk.B, 2, shards); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(blk.B, orig[2]) {
		t.Fatal("DecodeBlockInto produced wrong bytes")
	}
	if err := c.DecodeBlockInto(make([]byte, 511), 2, shards); err == nil {
		t.Fatal("short destination accepted")
	}
}

func TestRepairShardIntoEveryPosition(t *testing.T) {
	r := rand.New(rand.NewSource(55))
	const n, k = 9, 6
	c := mustCode(t, n, k)
	orig, _ := c.Encode(randStripeData(r, k, 4097))
	dst := make([]byte, 4097)
	for j := 0; j < n; j++ {
		shards := cloneShards(orig)
		shards[j] = nil
		if err := c.RepairShardInto(dst, j, shards); err != nil {
			t.Fatalf("repair %d: %v", j, err)
		}
		if !bytes.Equal(dst, orig[j]) {
			t.Fatalf("repair %d: wrong content", j)
		}
	}
	if err := c.RepairShardInto(make([]byte, 1), 0, orig); err == nil {
		t.Fatal("short destination accepted")
	}
}

func TestReconstructIntoUsesDestinations(t *testing.T) {
	r := rand.New(rand.NewSource(56))
	const n, k = 10, 6
	c := mustCode(t, n, k)
	orig, _ := c.Encode(randStripeData(r, k, 300))
	shards := cloneShards(orig)
	shards[1], shards[4], shards[8] = nil, nil, nil
	dst := make([][]byte, n)
	dst[1] = make([]byte, 300)
	dst[4] = make([]byte, 300)
	// No destination for 8: must fall back to allocation.
	if err := c.ReconstructInto(shards, dst); err != nil {
		t.Fatal(err)
	}
	for idx := range orig {
		if !bytes.Equal(shards[idx], orig[idx]) {
			t.Fatalf("shard %d wrong after ReconstructInto", idx)
		}
	}
	if &shards[1][0] != &dst[1][0] || &shards[4][0] != &dst[4][0] {
		t.Fatal("ReconstructInto did not use the provided destinations")
	}
	// Destination shape errors.
	bad := cloneShards(orig)
	bad[0] = nil
	short := make([][]byte, n)
	short[0] = make([]byte, 10)
	if err := c.ReconstructInto(bad, short); err == nil {
		t.Fatal("short destination accepted")
	}
	if err := c.ReconstructInto(bad, make([][]byte, n-1)); err == nil {
		t.Fatal("wrong-length destination list accepted")
	}
}

// TestReconstructManyMissingBanked drives the banked multi-row rebuild
// (≥2 missing data rows) across segment boundaries.
func TestReconstructManyMissingBanked(t *testing.T) {
	r := rand.New(rand.NewSource(57))
	const n, k = 20, 12
	c := mustCode(t, n, k)
	orig, err := c.Encode(randStripeData(r, k, 2*segmentSize+33))
	if err != nil {
		t.Fatal(err)
	}
	shards := cloneShards(orig)
	// 5 data + 3 parity lost — forces a multi-lane data bank and a
	// multi-lane parity bank.
	for _, idx := range []int{0, 2, 5, 7, 11, 13, 16, 19} {
		shards[idx] = nil
	}
	if err := c.Reconstruct(shards); err != nil {
		t.Fatal(err)
	}
	for idx := range orig {
		if !bytes.Equal(shards[idx], orig[idx]) {
			t.Fatalf("shard %d wrong after banked reconstruct", idx)
		}
	}
}

func TestVerifySegmented(t *testing.T) {
	r := rand.New(rand.NewSource(58))
	c := mustCode(t, 15, 8)
	shards, _ := c.Encode(randStripeData(r, 8, 3*segmentSize+5))
	ok, err := c.Verify(shards)
	if err != nil || !ok {
		t.Fatalf("Verify = %v, %v", ok, err)
	}
	// Corruption in the final partial segment must be caught.
	shards[10][len(shards[10])-1] ^= 1
	ok, err = c.Verify(shards)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("Verify missed tail corruption")
	}
}

// FuzzEncodeDifferential feeds arbitrary payloads through Split +
// banked Encode and checks the stripe against the scalar reference
// encoder (and Verify).
func FuzzEncodeDifferential(f *testing.F) {
	f.Add([]byte{}, uint8(9), uint8(6))
	f.Add([]byte{1, 2, 3}, uint8(15), uint8(8))
	f.Add(bytes.Repeat([]byte{0xa5}, 600), uint8(5), uint8(5))
	f.Add(bytes.Repeat([]byte{7}, 1200), uint8(20), uint8(3))
	f.Fuzz(func(t *testing.T, payload []byte, nRaw, kRaw uint8) {
		n := int(nRaw)%30 + 1
		k := int(kRaw)%n + 1
		c, err := New(n, k)
		if err != nil {
			t.Skip()
		}
		data := c.Split(payload)
		want := refEncode(t, c, data)
		got, err := c.Encode(data)
		if err != nil {
			t.Fatal(err)
		}
		for j := range want {
			if !bytes.Equal(got[j], want[j]) {
				t.Fatalf("(%d,%d) payload %d bytes: shard %d diverges from scalar reference", n, k, len(payload), j)
			}
		}
		ok, err := c.Verify(got)
		if err != nil || !ok {
			t.Fatalf("(%d,%d): Verify = %v, %v", n, k, ok, err)
		}
	})
}

// TestSteadyStatePathsAllocFree pins the tentpole allocation claim at
// the unit level: cached-pattern EncodeInto, DecodeBlockInto,
// RepairShardInto, Verify and UpdateParity run without heap
// allocation once pools and caches are warm.
func TestSteadyStatePathsAllocFree(t *testing.T) {
	r := rand.New(rand.NewSource(59))
	c := mustCode(t, 15, 8)
	data := randStripeData(r, 8, 4096)
	shards, err := c.Encode(data)
	if err != nil {
		t.Fatal(err)
	}
	parity := make([][]byte, 7)
	for j := range parity {
		parity[j] = make([]byte, 4096)
	}
	degraded := cloneShards(shards)
	degraded[3] = nil
	dst := make([]byte, 4096)
	newBlock := make([]byte, 4096)
	r.Read(newBlock)
	// Warm pools and decode cache.
	if err := c.EncodeInto(parity, data); err != nil {
		t.Fatal(err)
	}
	if err := c.DecodeBlockInto(dst, 3, degraded); err != nil {
		t.Fatal(err)
	}
	if err := c.RepairShardInto(dst, 3, degraded); err != nil {
		t.Fatal(err)
	}
	// Two data shards lost: the multi-row rebuild. Its per-call lane
	// tables make the portable build allocate; the SIMD row kernels run
	// straight off pooled coefficient scratch (half a dozen pooled buffers a
	// call, too many to pin under the race detector).
	twoLost := make([][]byte, len(shards))
	twoDst := make([][]byte, len(shards))
	twoDst[2], twoDst[5] = make([]byte, 4096), make([]byte, 4096)
	reconstructTwo := func() {
		copy(twoLost, shards)
		twoLost[2], twoLost[5] = nil, nil
		if err := c.ReconstructInto(twoLost, twoDst); err != nil {
			t.Fatal(err)
		}
	}
	reconstructTwo()
	cases := map[string]func(){
		"EncodeInto":      func() { _ = c.EncodeInto(parity, data) },
		"DecodeBlockInto": func() { _ = c.DecodeBlockInto(dst, 3, degraded) },
		"RepairShardInto": func() { _ = c.RepairShardInto(dst, 3, degraded) },
		"Verify":          func() { _, _ = c.Verify(shards) },
		"UpdateParity":    func() { c.UpdateParity(shards[9], 9, 3, data[3], newBlock) },
	}
	if gf256.Accelerated() && !raceEnabled {
		cases["ReconstructInto/2data"] = reconstructTwo
	}
	for name, f := range cases {
		if avg := testing.AllocsPerRun(50, f); avg > 0.5 {
			t.Errorf("%s allocates %.1f objects per op on the steady path", name, avg)
		}
	}
}
