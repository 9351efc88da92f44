package erasure

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"trapquorum/internal/blockpool"
	"trapquorum/internal/gf256"
)

func mustCode(t testing.TB, n, k int) *Code {
	t.Helper()
	c, err := New(n, k)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func randStripeData(r *rand.Rand, k, size int) [][]byte {
	data := make([][]byte, k)
	for i := range data {
		data[i] = make([]byte, size)
		r.Read(data[i])
	}
	return data
}

func cloneShards(shards [][]byte) [][]byte {
	out := make([][]byte, len(shards))
	for i, s := range shards {
		if s != nil {
			out[i] = append([]byte(nil), s...)
		}
	}
	return out
}

func TestNewValidation(t *testing.T) {
	cases := []struct {
		n, k int
		ok   bool
	}{
		{9, 6, true}, {15, 8, true}, {1, 1, true}, {256, 100, true},
		{0, 0, false}, {5, 0, false}, {4, 5, false}, {257, 8, false}, {-1, -1, false},
	}
	for _, c := range cases {
		_, err := New(c.n, c.k)
		if (err == nil) != c.ok {
			t.Errorf("New(%d,%d) err=%v, want ok=%v", c.n, c.k, err, c.ok)
		}
	}
}

func TestAccessors(t *testing.T) {
	c := mustCode(t, 9, 6)
	if c.N() != 9 || c.K() != 6 || c.ParityCount() != 3 {
		t.Fatalf("N=%d K=%d Parity=%d", c.N(), c.K(), c.ParityCount())
	}
}

func TestCoefficientSystematic(t *testing.T) {
	c := mustCode(t, 9, 6)
	for j := 0; j < 6; j++ {
		for i := 0; i < 6; i++ {
			want := byte(0)
			if i == j {
				want = 1
			}
			if c.Coefficient(j, i) != want {
				t.Fatalf("Coefficient(%d,%d) = %d, want %d", j, i, c.Coefficient(j, i), want)
			}
		}
	}
}

func TestCoefficientOutOfRangePanics(t *testing.T) {
	c := mustCode(t, 9, 6)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	c.Coefficient(9, 0)
}

func TestGeneratorRowMatchesCoefficient(t *testing.T) {
	c := mustCode(t, 9, 6)
	for j := 0; j < 9; j++ {
		row := c.GeneratorRow(j)
		for i := 0; i < 6; i++ {
			if row[i] != c.Coefficient(j, i) {
				t.Fatalf("row %d col %d mismatch", j, i)
			}
		}
	}
}

func TestEncodeVerifyRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, params := range [][2]int{{9, 6}, {15, 8}, {6, 4}, {4, 1}, {5, 5}} {
		c := mustCode(t, params[0], params[1])
		shards, err := c.Encode(randStripeData(r, c.K(), 128))
		if err != nil {
			t.Fatal(err)
		}
		ok, err := c.Verify(shards)
		if err != nil || !ok {
			t.Fatalf("(%d,%d): Verify = %v, %v", params[0], params[1], ok, err)
		}
	}
}

func TestVerifyDetectsCorruption(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	c := mustCode(t, 9, 6)
	shards, _ := c.Encode(randStripeData(r, 6, 64))
	shards[7][13] ^= 0x40
	ok, err := c.Verify(shards)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("Verify passed corrupted parity")
	}
}

func TestVerifyRequiresAllShards(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	c := mustCode(t, 9, 6)
	shards, _ := c.Encode(randStripeData(r, 6, 64))
	shards[2] = nil
	if _, err := c.Verify(shards); err == nil {
		t.Fatal("Verify accepted missing shard")
	}
}

func TestEncodeInputValidation(t *testing.T) {
	c := mustCode(t, 9, 6)
	if _, err := c.Encode(make([][]byte, 5)); !errors.Is(err, ErrShardCount) {
		t.Fatalf("wrong count err = %v", err)
	}
	data := randStripeData(rand.New(rand.NewSource(4)), 6, 32)
	data[3] = nil
	if _, err := c.Encode(data); err == nil {
		t.Fatal("nil block accepted")
	}
	data[3] = make([]byte, 31)
	if _, err := c.Encode(data); !errors.Is(err, ErrShardSize) {
		t.Fatalf("ragged err = %v", err)
	}
	empty := [][]byte{{}, {}, {}, {}, {}, {}}
	if _, err := c.Encode(empty); !errors.Is(err, ErrEmptyShards) {
		t.Fatalf("empty err = %v", err)
	}
}

// TestAnyKOfNReconstruct is the MDS property test: for a small code,
// exhaustively erase every possible set of n−k shards and reconstruct.
func TestAnyKOfNReconstruct(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	const n, k = 8, 5
	c := mustCode(t, n, k)
	orig, err := c.Encode(randStripeData(r, k, 96))
	if err != nil {
		t.Fatal(err)
	}
	// Iterate all C(8,3) = 56 erasure patterns.
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			for d := b + 1; d < n; d++ {
				shards := cloneShards(orig)
				shards[a], shards[b], shards[d] = nil, nil, nil
				if err := c.Reconstruct(shards); err != nil {
					t.Fatalf("erase {%d,%d,%d}: %v", a, b, d, err)
				}
				for idx := range shards {
					if !bytes.Equal(shards[idx], orig[idx]) {
						t.Fatalf("erase {%d,%d,%d}: shard %d wrong", a, b, d, idx)
					}
				}
			}
		}
	}
}

func TestReconstructSampledLargeCode(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	const n, k = 20, 12
	c := mustCode(t, n, k)
	orig, err := c.Encode(randStripeData(r, k, 64))
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 200; trial++ {
		shards := cloneShards(orig)
		for _, idx := range r.Perm(n)[:n-k] {
			shards[idx] = nil
		}
		if err := c.Reconstruct(shards); err != nil {
			t.Fatal(err)
		}
		for idx := range shards {
			if !bytes.Equal(shards[idx], orig[idx]) {
				t.Fatalf("trial %d: shard %d wrong", trial, idx)
			}
		}
	}
}

func TestReconstructTooFew(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	c := mustCode(t, 9, 6)
	shards, _ := c.Encode(randStripeData(r, 6, 32))
	for i := 0; i < 4; i++ {
		shards[i] = nil
	}
	if err := c.Reconstruct(shards); !errors.Is(err, ErrTooFew) {
		t.Fatalf("err = %v, want ErrTooFew", err)
	}
}

func TestReconstructNoOpWhenComplete(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	c := mustCode(t, 9, 6)
	shards, _ := c.Encode(randStripeData(r, 6, 32))
	before := cloneShards(shards)
	if err := c.Reconstruct(shards); err != nil {
		t.Fatal(err)
	}
	for i := range shards {
		if !bytes.Equal(shards[i], before[i]) {
			t.Fatal("Reconstruct modified a complete stripe")
		}
	}
}

func TestReconstructDataLeavesParityNil(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	c := mustCode(t, 9, 6)
	orig, _ := c.Encode(randStripeData(r, 6, 32))
	shards := cloneShards(orig)
	shards[1] = nil // data
	shards[8] = nil // parity
	if err := c.ReconstructData(shards); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(shards[1], orig[1]) {
		t.Fatal("data block not recovered")
	}
	if shards[8] != nil {
		t.Fatal("ReconstructData filled a parity block")
	}
}

func TestDecodeBlockFastPath(t *testing.T) {
	r := rand.New(rand.NewSource(10))
	c := mustCode(t, 9, 6)
	shards, _ := c.Encode(randStripeData(r, 6, 48))
	got, err := c.DecodeBlock(2, shards)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, shards[2]) {
		t.Fatal("fast path returned wrong block")
	}
	got[0] ^= 1
	if got[0] == shards[2][0] {
		t.Fatal("DecodeBlock returned a view, want a copy")
	}
}

func TestDecodeBlockFromParityOnly(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	const n, k = 10, 4
	c := mustCode(t, n, k)
	orig, _ := c.Encode(randStripeData(r, k, 48))
	shards := cloneShards(orig)
	// Erase every data block: decode must go entirely through parity.
	for i := 0; i < k; i++ {
		shards[i] = nil
	}
	for i := 0; i < k; i++ {
		got, err := c.DecodeBlock(i, shards)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, orig[i]) {
			t.Fatalf("block %d decoded wrong", i)
		}
	}
}

func TestDecodeBlockErrors(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	c := mustCode(t, 9, 6)
	shards, _ := c.Encode(randStripeData(r, 6, 48))
	if _, err := c.DecodeBlock(-1, shards); err == nil {
		t.Fatal("negative index accepted")
	}
	if _, err := c.DecodeBlock(6, shards); err == nil {
		t.Fatal("parity index accepted")
	}
	for i := range shards {
		if i != 0 {
			shards[i] = nil
		}
	}
	shards[0] = nil
	if _, err := c.DecodeBlock(1, shards); !errors.Is(err, ErrEmptyShards) {
		t.Fatalf("err = %v", err)
	}
}

func TestRepairShardEveryPosition(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	const n, k = 9, 6
	c := mustCode(t, n, k)
	orig, _ := c.Encode(randStripeData(r, k, 64))
	for j := 0; j < n; j++ {
		shards := cloneShards(orig)
		shards[j] = nil
		got, err := c.RepairShard(j, shards)
		if err != nil {
			t.Fatalf("repair %d: %v", j, err)
		}
		if !bytes.Equal(got, orig[j]) {
			t.Fatalf("repair %d: wrong content", j)
		}
	}
}

func TestRepairShardIgnoresStaleCopy(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	c := mustCode(t, 9, 6)
	orig, _ := c.Encode(randStripeData(r, 6, 64))
	shards := cloneShards(orig)
	// Corrupt the shard being repaired: RepairShard must mask it out.
	for i := range shards[7] {
		shards[7][i] ^= 0xff
	}
	got, err := c.RepairShard(7, shards)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, orig[7]) {
		t.Fatal("RepairShard used the stale shard")
	}
}

func TestRepairShardErrors(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	c := mustCode(t, 9, 6)
	shards, _ := c.Encode(randStripeData(r, 6, 64))
	if _, err := c.RepairShard(9, shards); err == nil {
		t.Fatal("out-of-range index accepted")
	}
	for i := 0; i < 4; i++ {
		shards[i] = nil
	}
	if _, err := c.RepairShard(0, shards); !errors.Is(err, ErrTooFew) {
		t.Fatalf("err = %v, want ErrTooFew", err)
	}
}

// TestDeltaUpdateEquivalence is the core Algorithm 1 invariant: the
// delta path (b_j ^= α_{j,i}·(x−old)) must be byte-identical to
// re-encoding the whole stripe with the new data.
func TestDeltaUpdateEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(16))
	for trial := 0; trial < 40; trial++ {
		n := 4 + r.Intn(12)
		k := 1 + r.Intn(n)
		c := mustCode(t, n, k)
		size := 1 + r.Intn(200)
		data := randStripeData(r, k, size)
		shards, err := c.Encode(data)
		if err != nil {
			t.Fatal(err)
		}
		// Mutate one random data block.
		i := r.Intn(k)
		newBlock := make([]byte, size)
		r.Read(newBlock)
		// Path A: delta updates on each parity block.
		for j := k; j < n; j++ {
			c.UpdateParity(shards[j], j, i, data[i], newBlock)
		}
		// Path B: re-encode from scratch.
		data2 := make([][]byte, k)
		copy(data2, data)
		data2[i] = newBlock
		want, err := c.Encode(data2)
		if err != nil {
			t.Fatal(err)
		}
		for j := k; j < n; j++ {
			if !bytes.Equal(shards[j], want[j]) {
				t.Fatalf("(%d,%d) trial %d: parity %d differs after delta update", n, k, trial, j)
			}
		}
	}
}

// TestDeltaUpdatesCommute verifies the commutativity that lets
// Algorithm 1 apply updates of different data blocks to parity nodes
// in any order.
func TestDeltaUpdatesCommute(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	c := mustCode(t, 9, 6)
	const size = 64
	data := randStripeData(r, 6, size)
	shardsA, _ := c.Encode(data)
	shardsB := cloneShards(shardsA)
	new1, new2 := make([]byte, size), make([]byte, size)
	r.Read(new1)
	r.Read(new2)
	// Order 1: update block 1 then block 4.
	for j := 6; j < 9; j++ {
		c.UpdateParity(shardsA[j], j, 1, data[1], new1)
		c.UpdateParity(shardsA[j], j, 4, data[4], new2)
	}
	// Order 2: block 4 then block 1.
	for j := 6; j < 9; j++ {
		c.UpdateParity(shardsB[j], j, 4, data[4], new2)
		c.UpdateParity(shardsB[j], j, 1, data[1], new1)
	}
	for j := 6; j < 9; j++ {
		if !bytes.Equal(shardsA[j], shardsB[j]) {
			t.Fatalf("parity %d depends on update order", j)
		}
	}
}

func TestDataDelta(t *testing.T) {
	old := []byte{1, 2, 3}
	new_ := []byte{1, 0, 0xff}
	d := make([]byte, len(new_))
	DataDeltaInto(d, old, new_)
	if !bytes.Equal(d, []byte{0, 2, 0xfc}) {
		t.Fatalf("DataDeltaInto = %v", d)
	}
}

func TestDataDeltaMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	DataDeltaInto(make([]byte, 2), []byte{1}, []byte{1, 2})
}

// UpdateParity is the oracle of the delta-update tests: it folds
// α_{j,i}·(new−old) into parity block j in place, the effect one write
// has on parity node j.
func (c *Code) UpdateParity(parity []byte, j, i int, oldData, newData []byte) {
	scratch := blockpool.GetBlock(len(newData))
	DataDeltaInto(scratch.B, oldData, newData)
	gf256.MulAddSlice(c.Coefficient(j, i), parity, scratch.B)
	scratch.Release()
}

// DecodeBlockInto is DecodeBlock into a caller-provided destination of
// exactly the shard size — the allocation tests' window onto the
// decode path.
func (c *Code) DecodeBlockInto(dst []byte, i int, shards [][]byte) error {
	size, err := c.checkShape(shards)
	if err != nil {
		return err
	}
	if len(dst) != size {
		return fmt.Errorf("%w: destination has %d bytes, expected %d", ErrShardSize, len(dst), size)
	}
	return c.decodeBlockInto(dst, i, shards)
}

func TestParityAdjustmentDataRowPanics(t *testing.T) {
	c := mustCode(t, 9, 6)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	c.ParityAdjustment(3, 0, []byte{1})
}

func TestApplyAdjustmentMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	ApplyAdjustment([]byte{1, 2}, []byte{1})
}

func TestSplitJoinRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(18))
	c := mustCode(t, 9, 6)
	for _, size := range []int{0, 1, 5, 6, 7, 600, 601, 4096} {
		src := make([]byte, size)
		r.Read(src)
		blocks := c.Split(src)
		if len(blocks) != 6 {
			t.Fatalf("size %d: %d blocks", size, len(blocks))
		}
		per := len(blocks[0])
		for _, b := range blocks {
			if len(b) != per {
				t.Fatalf("size %d: ragged blocks", size)
			}
		}
		back, err := c.Join(blocks, size)
		if err != nil {
			t.Fatalf("size %d: %v", size, err)
		}
		if !bytes.Equal(back, src) {
			t.Fatalf("size %d: round trip mismatch", size)
		}
	}
}

func TestJoinErrors(t *testing.T) {
	c := mustCode(t, 9, 6)
	blocks := c.Split([]byte("hello world"))
	if _, err := c.Join(blocks[:5], 11); !errors.Is(err, ErrShardCount) {
		t.Fatalf("err = %v", err)
	}
	if _, err := c.Join(blocks, 1000); !errors.Is(err, ErrShortBuffer) {
		t.Fatalf("err = %v", err)
	}
	if _, err := c.Join(blocks, -1); !errors.Is(err, ErrShortBuffer) {
		t.Fatalf("err = %v", err)
	}
	blocks[2] = nil
	if _, err := c.Join(blocks, 11); err == nil {
		t.Fatal("nil block accepted")
	}
}

func TestSplitEmpty(t *testing.T) {
	c := mustCode(t, 9, 6)
	blocks := c.Split(nil)
	for _, b := range blocks {
		if len(b) != 1 {
			t.Fatal("empty Split should yield 1-byte blocks")
		}
	}
	back, err := c.Join(blocks, 0)
	if err != nil || len(back) != 0 {
		t.Fatalf("Join = %v, %v", back, err)
	}
}

func TestEncodePaperStripe(t *testing.T) {
	// The paper's running example: a (9,6) MDS code needs
	// n−k+1 = 4 operations for a single-block update — 1 data write
	// plus 3 parity adjustments. Check the adjacency of our API.
	c := mustCode(t, 9, 6)
	if got := c.ParityCount() + 1; got != 4 {
		t.Fatalf("(9,6): update touches %d nodes, want 4", got)
	}
}

func BenchmarkEncode15_8_4K(b *testing.B) {
	r := rand.New(rand.NewSource(19))
	c := mustCode(b, 15, 8)
	data := randStripeData(r, 8, 4096)
	b.SetBytes(8 * 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Encode(data); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReconstructTwoLost15_8_4K(b *testing.B) {
	r := rand.New(rand.NewSource(20))
	c := mustCode(b, 15, 8)
	orig, _ := c.Encode(randStripeData(r, 8, 4096))
	b.SetBytes(2 * 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		shards := cloneShards(orig)
		shards[0], shards[9] = nil, nil
		if err := c.Reconstruct(shards); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDeltaUpdate15_8_4K(b *testing.B) {
	r := rand.New(rand.NewSource(21))
	c := mustCode(b, 15, 8)
	data := randStripeData(r, 8, 4096)
	shards, _ := c.Encode(data)
	newBlock := make([]byte, 4096)
	r.Read(newBlock)
	b.SetBytes(int64(c.ParityCount()) * 4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 8; j < 15; j++ {
			c.UpdateParity(shards[j], j, 3, data[3], newBlock)
		}
	}
}

// Reconstruct is a test oracle: it fills every nil entry of shards (data and parity alike)
// from the k (or more) present shards, in place, allocating the
// missing blocks. Present shards are never modified. It returns
// ErrTooFew when fewer than k shards are available.
func (c *Code) Reconstruct(shards [][]byte) error {
	return c.reconstruct(shards, len(shards), nil)
}
