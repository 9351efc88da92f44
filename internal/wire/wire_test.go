package wire

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"

	"trapquorum/client"
)

func requestFixtures() []Request {
	return []Request{
		{Op: OpPing},
		{Op: OpReadChunk, ID: client.ChunkID{Stripe: 7, Shard: 2}},
		{Op: OpReadVersions, ID: client.ChunkID{Stripe: 1 << 60, Shard: 14}},
		{Op: OpPutChunk, ID: client.ChunkID{Stripe: 3}, Versions: []uint64{1, 2, 3}, Data: []byte{9, 8, 7}},
		{Op: OpPutChunkIfFresher, ID: client.ChunkID{Stripe: 3, Shard: 9}, Versions: []uint64{client.NoVersion}, Data: []byte{0}},
		{Op: OpCompareAndPut, ID: client.ChunkID{Stripe: 5, Shard: 1}, Slot: 0, Expect: 4, Next: 5, Data: bytes.Repeat([]byte{0xaa}, 4096)},
		{Op: OpCompareAndAdd, ID: client.ChunkID{Stripe: 5, Shard: 12}, Slot: 7, Expect: 1, Next: 2, Data: []byte{1, 2}},
		{Op: OpDeleteChunk, ID: client.ChunkID{Stripe: 9, Shard: 0}},
		{Op: OpHasChunk, ID: client.ChunkID{Stripe: 2, Shard: 3}},
		{Op: OpWipe},
		// Cross-checksum metadata: writes distributing BlockSum records.
		{Op: OpPutChunk, ID: client.ChunkID{Stripe: 4, Shard: 10}, Versions: []uint64{7, 3}, Data: []byte{1, 2},
			Sums: []client.BlockSum{{Version: 7, Sum: 0xdeadbeefcafef00d}, {Version: 3, Sum: 1}}},
		{Op: OpCompareAndAdd, ID: client.ChunkID{Stripe: 6, Shard: 13}, Slot: 2, Expect: 3, Next: 4, Data: []byte{5},
			Sums: []client.BlockSum{{Version: 4, Sum: 42}}},
		// Epoch-tagged traffic: ordinary operations stamped with the
		// coordinator's placement epoch, plus the epoch-state ops
		// themselves (OpEpochSet rides installed in Next, retired in
		// Expect, the placement blob in Data).
		{Op: OpReadChunk, ID: client.ChunkID{Stripe: 11, Shard: 4}, Epoch: 3},
		{Op: OpCompareAndPut, ID: client.ChunkID{Stripe: 11, Shard: 4}, Slot: 1, Expect: 8, Next: 9,
			Epoch: 1 << 40, Data: []byte{6, 6, 6}},
		{Op: OpEpochGet},
		{Op: OpEpochSet, Expect: 4, Next: 5, Data: []byte("placement-map-blob")},
		// Vectored removal: the chunks ride the versions list as
		// (stripe, shard) pairs.
		{Op: OpDeleteChunks, Versions: AppendChunkIDs(nil, []client.ChunkID{{Stripe: 9, Shard: 0}, {Stripe: 10, Shard: 8}, {Stripe: 1 << 62, Shard: 14}})},
		{Op: OpDeleteChunks, Epoch: 2, Versions: AppendChunkIDs(nil, []client.ChunkID{{Stripe: 3, Shard: 5}})},
	}
}

func responseFixtures() []Response {
	return []Response{
		{Status: StatusOK},
		{Status: StatusOK, Flag: true},
		{Status: StatusOK, Versions: []uint64{1, 2, 3}, Data: []byte{1, 2, 3, 4}},
		{Status: StatusNotFound, Detail: "chunk 1/2 on node 3"},
		{Status: StatusVersionMismatch, Detail: "slot 0 holds 9, expected 8"},
		{Status: StatusBadRequest, Detail: "version slot 9 of 3"},
		{Status: StatusInternal, Detail: "disk on fire"},
		{Status: StatusOK, Versions: []uint64{client.NoVersion}, Data: bytes.Repeat([]byte{7}, 4096)},
		// Cross-checksum metadata: a read answering with the node's record.
		{Status: StatusOK, Versions: []uint64{9, 9}, Data: []byte{3},
			Sums: []client.BlockSum{{Version: 9, Sum: 0x1122334455667788}, {Version: 9, Sum: 0}}},
		{Status: StatusCorrupt, Detail: "chunk 1/2 quarantined: crc mismatch"},
		{Status: StatusEpochStale, Detail: "epoch 2 retired (installed 3)"},
		// OpEpochGet answer: [installed, retired] in the version vector,
		// placement blob in Data.
		{Status: StatusOK, Versions: []uint64{5, 4}, Data: []byte("placement-map-blob")},
	}
}

func TestRequestRoundTrip(t *testing.T) {
	for _, req := range requestFixtures() {
		payload := AppendRequest(nil, &req)
		got, err := DecodeRequest(payload)
		if err != nil {
			t.Fatalf("%s: %v", req.Op, err)
		}
		// Normalise the nil-vs-empty distinction the codec does not
		// preserve.
		if len(got.Data) == 0 {
			got.Data = nil
		}
		if !reflect.DeepEqual(req, got) {
			t.Fatalf("%s round trip:\n in: %+v\nout: %+v", req.Op, req, got)
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	for i, resp := range responseFixtures() {
		payload := AppendResponse(nil, &resp)
		got, err := DecodeResponse(payload)
		if err != nil {
			t.Fatalf("fixture %d: %v", i, err)
		}
		if len(got.Data) == 0 {
			got.Data = nil
		}
		if !reflect.DeepEqual(resp, got) {
			t.Fatalf("fixture %d round trip:\n in: %+v\nout: %+v", i, resp, got)
		}
	}
}

// TestTruncatedRequestsRejected drops bytes off the tail of every
// valid encoding: every prefix must be rejected, never mis-parsed.
func TestTruncatedRequestsRejected(t *testing.T) {
	for _, req := range requestFixtures() {
		payload := AppendRequest(nil, &req)
		for cut := 0; cut < len(payload); cut++ {
			if _, err := DecodeRequest(payload[:cut]); err == nil {
				t.Fatalf("%s: truncation to %d/%d bytes accepted", req.Op, cut, len(payload))
			}
		}
	}
}

func TestTruncatedResponsesRejected(t *testing.T) {
	for i, resp := range responseFixtures() {
		payload := AppendResponse(nil, &resp)
		for cut := 0; cut < len(payload); cut++ {
			if _, err := DecodeResponse(payload[:cut]); err == nil {
				t.Fatalf("fixture %d: truncation to %d/%d bytes accepted", i, cut, len(payload))
			}
		}
	}
}

// TestHugeDeclaredVersionCountRejectedWithoutAllocation feeds a header
// declaring ~500M versions backed by no bytes: the decoder must fail
// on the bounds check before allocating the slice.
func TestHugeDeclaredVersionCountRejectedWithoutAllocation(t *testing.T) {
	req := Request{Op: OpPutChunk, Versions: []uint64{1}, Data: []byte{1}}
	payload := AppendRequest(nil, &req)
	payload[41] = 0x1f // nver high byte: declare 0x1f000001 versions
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := DecodeRequest(payload); err == nil {
			t.Fatal("oversized version count accepted")
		}
	})
	// A handful of small allocations build the error; the point is no
	// half-gigabyte versions slice.
	if allocs > 8 {
		t.Fatalf("decode of hostile payload allocated %.0f times", allocs)
	}
}

func TestUnknownOpAndStatusRejected(t *testing.T) {
	req := Request{Op: OpPing}
	payload := AppendRequest(nil, &req)
	payload[0] = byte(opMax)
	if _, err := DecodeRequest(payload); !errors.Is(err, ErrMalformed) {
		t.Fatalf("err = %v", err)
	}
	payload[0] = 0
	if _, err := DecodeRequest(payload); !errors.Is(err, ErrMalformed) {
		t.Fatalf("err = %v", err)
	}
	resp := Response{Status: StatusOK}
	rp := AppendResponse(nil, &resp)
	rp[0] = byte(statusMax)
	if _, err := DecodeResponse(rp); !errors.Is(err, ErrMalformed) {
		t.Fatalf("err = %v", err)
	}
}

// TestReplaySafetyClassification pins which operations a transport
// may replay on an ambiguous connection: only the read-only ops and
// the version-guarded install — every other mutation could roll back
// a concurrent writer's update or mis-report its own applied first
// copy.
func TestReplaySafetyClassification(t *testing.T) {
	safe := map[Op]bool{
		OpPing: true, OpReadChunk: true, OpReadVersions: true,
		OpHasChunk: true, OpPutChunkIfFresher: true,
		// Epoch state is a pair of monotone watermarks: reading it is
		// trivially safe and re-installing it is idempotent.
		OpEpochGet: true, OpEpochSet: true,
	}
	for op := Op(1); op < opMax; op++ {
		if got, want := op.ReplaySafe(), safe[op]; got != want {
			t.Fatalf("%s.ReplaySafe() = %v, want %v", op, got, want)
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{{}, {1}, bytes.Repeat([]byte{0xab}, 4096)}
	for _, p := range payloads {
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	var scratch []byte
	for _, want := range payloads {
		got, err := ReadFrame(&buf, scratch, DefaultMaxFrame)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame = %v, want %v", got, want)
		}
		scratch = got[:0]
	}
	if _, err := ReadFrame(&buf, nil, DefaultMaxFrame); err != io.EOF {
		t.Fatalf("err = %v, want clean EOF", err)
	}
}

// TestPooledFramesRoundTrip sends every fixture as a pooled frame and
// decodes the requests into one reused Request, as a server does: no
// field of an earlier request may survive into a later one, and the
// frame reader enforces the same limits as ReadFrame.
func TestPooledFramesRoundTrip(t *testing.T) {
	var stream bytes.Buffer
	reqs, resps := requestFixtures(), responseFixtures()
	for i := range reqs {
		frame := RequestFrame(&reqs[i])
		stream.Write(frame.B)
		frame.Release()
	}
	for i := range resps {
		frame := ResponseFrame(&resps[i])
		stream.Write(frame.B)
		frame.Release()
	}
	// The codec does not preserve nil versus empty.
	norm := func(v *[]uint64, s *[]client.BlockSum, d *[]byte) {
		if len(*v) == 0 {
			*v = nil
		}
		if len(*s) == 0 {
			*s = nil
		}
		if len(*d) == 0 {
			*d = nil
		}
	}
	var got Request
	for _, want := range reqs {
		frame, err := ReadPooledFrame(&stream, DefaultMaxFrame)
		if err != nil {
			t.Fatal(err)
		}
		if err := got.Decode(frame.B); err != nil {
			t.Fatalf("%s: %v", want.Op, err)
		}
		norm(&got.Versions, &got.Sums, &got.Data)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("%s round trip:\n in: %+v\nout: %+v", want.Op, want, got)
		}
		frame.Release()
	}
	for i, want := range resps {
		frame, err := ReadPooledFrame(&stream, DefaultMaxFrame)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DecodeResponse(frame.B)
		if err != nil {
			t.Fatalf("fixture %d: %v", i, err)
		}
		norm(&got.Versions, &got.Sums, &got.Data)
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("fixture %d round trip:\n in: %+v\nout: %+v", i, want, got)
		}
		frame.Release()
	}
	if _, err := ReadPooledFrame(&stream, DefaultMaxFrame); err != io.EOF {
		t.Fatalf("err = %v, want clean EOF", err)
	}
	if _, err := ReadPooledFrame(bytes.NewReader([]byte{0x40, 0, 0, 0}), DefaultMaxFrame); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("1 GiB header: err = %v, want ErrFrameTooLarge", err)
	}
	if _, err := ReadPooledFrame(bytes.NewReader([]byte{0, 0, 0, 10, 1, 2, 3}), DefaultMaxFrame); err == nil {
		t.Fatal("truncated frame accepted")
	}
}

// TestOversizedFrameRejectedBeforeAllocation writes a frame header
// declaring 1 GiB and asserts the reader refuses it without trying to
// allocate the payload.
func TestOversizedFrameRejectedBeforeAllocation(t *testing.T) {
	hdr := []byte{0x40, 0, 0, 0} // 1 GiB
	r := bytes.NewReader(hdr)
	allocs := testing.AllocsPerRun(100, func() {
		r.Reset(hdr)
		if _, err := ReadFrame(r, nil, DefaultMaxFrame); !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("err = %v", err)
		}
	})
	// A handful of small allocations build the error; the point is no
	// 1 GiB payload buffer.
	if allocs > 8 {
		t.Fatalf("oversized frame header allocated %.0f times", allocs)
	}
}

func TestTruncatedFrameSurfaces(t *testing.T) {
	// Header promises 10 bytes, stream has 3.
	raw := []byte{0, 0, 0, 10, 1, 2, 3}
	if _, err := ReadFrame(bytes.NewReader(raw), nil, DefaultMaxFrame); err == nil {
		t.Fatal("truncated frame accepted")
	}
	// Torn header.
	if _, err := ReadFrame(bytes.NewReader(raw[:2]), nil, DefaultMaxFrame); err == nil {
		t.Fatal("torn header accepted")
	}
}

func TestStatusErrTaxonomy(t *testing.T) {
	cases := []struct {
		status Status
		want   error
	}{
		{StatusNotFound, client.ErrNotFound},
		{StatusVersionMismatch, client.ErrVersionMismatch},
		{StatusBadRequest, client.ErrBadRequest},
		{StatusOverloaded, client.ErrOverloaded},
		{StatusQuotaExceeded, client.ErrQuotaExceeded},
		{StatusCorrupt, client.ErrCorrupt},
		{StatusEpochStale, client.ErrEpochStale},
	}
	for _, c := range cases {
		if err := c.status.Err("detail"); !errors.Is(err, c.want) {
			t.Fatalf("status %d → %v, want %v", c.status, err, c.want)
		}
		if got := StatusOf(c.want); got != c.status {
			t.Fatalf("StatusOf(%v) = %d, want %d", c.want, got, c.status)
		}
	}
	if err := StatusOK.Err(""); err != nil {
		t.Fatalf("StatusOK err = %v", err)
	}
	if StatusOf(nil) != StatusOK {
		t.Fatal("StatusOf(nil) != StatusOK")
	}
	if err := StatusInternal.Err("disk on fire"); err == nil || !strings.Contains(err.Error(), "disk on fire") {
		t.Fatalf("internal err = %v", err)
	}
	if StatusOf(errors.New("weird")) != StatusInternal {
		t.Fatal("unclassified error must map to StatusInternal")
	}
}

// TestRemoteErrorSurvivesRoundTrip: a node-side sentinel error encoded
// into a response and decoded on the client side still satisfies
// errors.Is against the client taxonomy.
func TestRemoteErrorSurvivesRoundTrip(t *testing.T) {
	nodeErr := client.ErrVersionMismatch
	resp := Response{Status: StatusOf(nodeErr), Detail: "slot 2 holds 7, expected 6"}
	payload := AppendResponse(nil, &resp)
	got, err := DecodeResponse(payload)
	if err != nil {
		t.Fatal(err)
	}
	if err := got.Status.Err(got.Detail); !errors.Is(err, client.ErrVersionMismatch) {
		t.Fatalf("err = %v", err)
	}
}

// TestChunkIDsPairs: OpDeleteChunks' ids round-trip through the pair
// encoding, and an odd count or a shard the single-chunk header could
// not carry is a bad request, not a silently truncated id.
func TestChunkIDsPairs(t *testing.T) {
	ids := []client.ChunkID{{Stripe: 0, Shard: 0}, {Stripe: 1<<64 - 1, Shard: 1<<31 - 1}, {Stripe: 5, Shard: -1}}
	got, err := ChunkIDs(AppendChunkIDs(nil, ids))
	if err != nil || !reflect.DeepEqual(got, ids) {
		t.Fatalf("ChunkIDs = %v, %v; want %v", got, err, ids)
	}
	for name, pairs := range map[string][]uint64{
		"odd count":         {7, 1, 8},
		"shard above int32": {7, 1 << 31},
		"shard below int32": {7, uint64(1<<64 - 1<<31 - 1)},
	} {
		if _, err := ChunkIDs(pairs); !errors.Is(err, client.ErrBadRequest) {
			t.Errorf("%s: err = %v, want ErrBadRequest", name, err)
		}
	}
}
