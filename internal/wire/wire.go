// Package wire is the binary codec of the node protocol: the framing
// and message formats a network transport uses to carry the
// client.NodeClient operations to a remote node engine.
//
// # Framing
//
// Every message travels as one length-prefixed frame:
//
//	uint32 big-endian payload length | payload
//
// A reader enforces a maximum payload length *before* allocating, so a
// corrupt or hostile peer cannot trigger an allocation blow-up; a
// frame longer than the limit fails with ErrFrameTooLarge and the
// connection should be dropped.
//
// # Messages
//
// A request payload is a fixed header followed by the variable parts:
//
//	op(1) stripe(8) shard(4) slot(4) expect(8) next(8) epoch(8)
//	nver(4) versions(8·nver) nsums(4) sums(16·nsums) dlen(4) data(dlen)
//
// Fields an operation does not use are zero; every request uses the
// same layout so the decoder is a single bounds-checked pass. The one
// vectored operation, OpDeleteChunks, names its chunks in the versions
// list as (stripe, shard) pairs and leaves the header's id zero
// (AppendChunkIDs and ChunkIDs convert). The sums list carries
// cross-checksum entries (version, hash pairs — see DESIGN.md §6)
// alongside mutations and back with reads. A response payload is:
//
//	status(1) flag(1) dlen... detail(len-prefixed string)
//	nver(4) versions(8·nver) nsums(4) sums(16·nsums) dlen(4) data(dlen)
//
// Status carries the sentinel error taxonomy of the client package
// across the wire; Status.Err and StatusOf convert in both directions
// so a remote ErrVersionMismatch still satisfies
// errors.Is(err, client.ErrVersionMismatch) at the protocol layer.
//
// Decoded requests and responses alias the frame buffer for their Data
// field (versions are decoded into fresh slices); callers that retain
// the bytes past the next read must copy.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"

	"trapquorum/client"
	"trapquorum/internal/blockpool"
)

// Op identifies one node operation on the wire.
type Op uint8

// The node protocol operations. OpPing is a transport-level health
// probe answered without touching the store.
const (
	OpPing Op = iota + 1
	OpReadChunk
	OpReadVersions
	OpPutChunk
	OpPutChunkIfFresher
	OpCompareAndPut
	OpCompareAndAdd
	OpDeleteChunk
	OpHasChunk
	OpWipe
	OpEpochGet
	OpEpochSet
	OpDeleteChunks
	opMax
)

// String names the operation for diagnostics.
func (op Op) String() string {
	switch op {
	case OpPing:
		return "ping"
	case OpReadChunk:
		return "read-chunk"
	case OpReadVersions:
		return "read-versions"
	case OpPutChunk:
		return "put-chunk"
	case OpPutChunkIfFresher:
		return "put-chunk-if-fresher"
	case OpCompareAndPut:
		return "compare-and-put"
	case OpCompareAndAdd:
		return "compare-and-add"
	case OpDeleteChunk:
		return "delete-chunk"
	case OpHasChunk:
		return "has-chunk"
	case OpWipe:
		return "wipe"
	case OpEpochGet:
		return "epoch-get"
	case OpEpochSet:
		return "epoch-set"
	case OpDeleteChunks:
		return "delete-chunks"
	default:
		return fmt.Sprintf("op(%d)", uint8(op))
	}
}

// ReplaySafe reports whether the operation may be sent again when the
// first attempt's fate is ambiguous (the request reached the wire but
// no response came back). That is stricter than idempotence against a
// quiet node: other writers can land between the lost first copy and
// the replay, so an unconditional mutation (PutChunk, DeleteChunk,
// DeleteChunks, Wipe) could silently roll their update back, and a
// conditional one (CompareAndPut, CompareAndAdd) would mis-report its
// applied first copy as a version mismatch. Only the read-only operations and the
// version-guarded PutChunkIfFresher — whose guard re-evaluates
// against the node's current state on every attempt — are safe.
// OpEpochSet qualifies because the epoch watermarks it installs are
// monotone maxima: a replay either repeats the same advance or is a
// no-op.
func (op Op) ReplaySafe() bool {
	switch op {
	case OpPing, OpReadChunk, OpReadVersions, OpHasChunk, OpPutChunkIfFresher,
		OpEpochGet, OpEpochSet:
		return true
	default:
		return false
	}
}

// Status is the result class of a response, carrying the client
// package's sentinel taxonomy across the wire.
type Status uint8

// Response statuses. StatusInternal covers node-side failures outside
// the protocol taxonomy (for example a disk error); the client
// surfaces them as opaque errors.
const (
	StatusOK Status = iota + 1
	StatusNotFound
	StatusVersionMismatch
	StatusBadRequest
	StatusInternal
	StatusOverloaded
	StatusQuotaExceeded
	StatusCorrupt
	StatusEpochStale
	statusMax
)

// Framing and decoding errors.
var (
	// ErrFrameTooLarge reports a frame whose declared payload exceeds
	// the reader's limit; it is returned before any allocation.
	ErrFrameTooLarge = errors.New("wire: frame exceeds size limit")
	// ErrMalformed reports a payload that does not parse.
	ErrMalformed = errors.New("wire: malformed message")
)

// DefaultMaxFrame bounds a frame's payload unless the caller chooses
// otherwise: large enough for a 16 MiB chunk plus headers, small
// enough that a corrupt length prefix cannot exhaust memory.
const DefaultMaxFrame = 16<<20 + 4096

// Request is one decoded node operation.
type Request struct {
	Op     Op
	ID     client.ChunkID
	Slot   int
	Expect uint64
	Next   uint64
	// Epoch is the placement epoch the issuing coordinator operated
	// under, or 0 for untagged (pre-reconfiguration) traffic. Nodes
	// reject tagged operations whose epoch they have retired with
	// StatusEpochStale. For OpEpochSet the watermarks ride Next
	// (installed) and Expect (retired) instead, so Epoch stays the
	// guard-only field on every op.
	Epoch uint64
	// Versions is the proposed version vector of the put-family
	// operations, or OpDeleteChunks' (stripe, shard) pairs (decoded
	// into the Request's own storage, which a later Decode into the
	// same Request reuses).
	Versions []uint64
	// Sums carries the cross-checksum entries of the mutating
	// operations (decoded like Versions; empty when the writer sent no
	// opinion). Encoded between the versions and the data.
	Sums []client.BlockSum
	// Data is the chunk payload or delta. Decoding aliases the frame
	// buffer; copy before the next read if retained.
	Data []byte
}

// Response is one decoded node answer.
type Response struct {
	Status Status
	// Detail is the node's human-readable error detail (empty on OK).
	Detail string
	// Flag answers boolean queries (OpHasChunk).
	Flag bool
	// Versions carries the version vector of OpReadChunk and
	// OpReadVersions responses.
	Versions []uint64
	// Sums carries the cross-checksum record of OpReadChunk and
	// OpReadVersions responses (empty when the node holds none).
	Sums []client.BlockSum
	// Data carries the chunk bytes of OpReadChunk responses. Decoding
	// aliases the frame buffer; copy before the next read if retained.
	Data []byte
}

const requestHeaderLen = 1 + 8 + 4 + 4 + 8 + 8 + 8 + 4 // up to and including nver

// EncodedRequestSize returns the exact payload length AppendRequest
// produces for req, letting a sender validate against its frame limit
// before touching the wire.
func EncodedRequestSize(req *Request) int {
	return requestHeaderLen + 8*len(req.Versions) + 4 + 16*len(req.Sums) + 4 + len(req.Data)
}

// appendSums encodes a checksum-entry list: count then
// (version, sum) pairs.
func appendSums(dst []byte, sums []client.BlockSum) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(sums)))
	for _, s := range sums {
		dst = binary.BigEndian.AppendUint64(dst, s.Version)
		dst = binary.BigEndian.AppendUint64(dst, s.Sum)
	}
	return dst
}

// decodeSums parses a checksum-entry list into dst's storage (grown
// when too small), returning the entries and the remaining payload.
// The count is bounds-checked against the payload before allocating,
// like the version vector.
func decodeSums(dst []client.BlockSum, p []byte) ([]client.BlockSum, []byte, error) {
	if len(p) < 4 {
		return nil, nil, fmt.Errorf("%w: checksum count truncated", ErrMalformed)
	}
	nsums := binary.BigEndian.Uint32(p[0:4])
	p = p[4:]
	if uint64(nsums)*16 > uint64(len(p)) {
		return nil, nil, fmt.Errorf("%w: checksums truncated (%d declared, %d bytes left)", ErrMalformed, nsums, len(p))
	}
	sums := dst[:0]
	if nsums > 0 {
		sums = slices.Grow(sums, int(nsums))[:nsums]
		for i := range sums {
			sums[i].Version = binary.BigEndian.Uint64(p[16*i:])
			sums[i].Sum = binary.BigEndian.Uint64(p[16*i+8:])
		}
		p = p[16*nsums:]
	}
	return sums, p, nil
}

// AppendChunkIDs encodes ids as the (stripe, shard) pairs an
// OpDeleteChunks request carries in its Versions list.
func AppendChunkIDs(dst []uint64, ids []client.ChunkID) []uint64 {
	for _, id := range ids {
		dst = append(dst, id.Stripe, uint64(int64(id.Shard)))
	}
	return dst
}

// ChunkIDs decodes the (stripe, shard) pairs of an OpDeleteChunks
// request's Versions list. An odd count, or a shard outside the int32
// range the single-chunk header can carry, is a client.ErrBadRequest.
func ChunkIDs(pairs []uint64) ([]client.ChunkID, error) {
	if len(pairs)%2 != 0 {
		return nil, fmt.Errorf("%w: %d values do not form (stripe, shard) pairs", client.ErrBadRequest, len(pairs))
	}
	dst := make([]client.ChunkID, 0, len(pairs)/2)
	for i := 0; i < len(pairs); i += 2 {
		shard := int64(pairs[i+1])
		if shard != int64(int32(shard)) {
			return nil, fmt.Errorf("%w: shard %d of stripe %d outside int32", client.ErrBadRequest, shard, pairs[i])
		}
		dst = append(dst, client.ChunkID{Stripe: pairs[i], Shard: int(shard)})
	}
	return dst, nil
}

// decodeVersions is decodeSums for a version vector.
func decodeVersions(dst []uint64, p []byte) ([]uint64, []byte, error) {
	if len(p) < 4 {
		return nil, nil, fmt.Errorf("%w: version count truncated", ErrMalformed)
	}
	nver := binary.BigEndian.Uint32(p[0:4])
	p = p[4:]
	if uint64(nver)*8 > uint64(len(p)) {
		return nil, nil, fmt.Errorf("%w: versions truncated (%d declared, %d bytes left)", ErrMalformed, nver, len(p))
	}
	versions := dst[:0]
	if nver > 0 {
		versions = slices.Grow(versions, int(nver))[:nver]
		for i := range versions {
			versions[i] = binary.BigEndian.Uint64(p[8*i:])
		}
		p = p[8*nver:]
	}
	return versions, p, nil
}

// AppendRequest encodes req after dst and returns the extended slice.
func AppendRequest(dst []byte, req *Request) []byte {
	dst = append(dst, byte(req.Op))
	dst = binary.BigEndian.AppendUint64(dst, req.ID.Stripe)
	dst = binary.BigEndian.AppendUint32(dst, uint32(req.ID.Shard))
	dst = binary.BigEndian.AppendUint32(dst, uint32(req.Slot))
	dst = binary.BigEndian.AppendUint64(dst, req.Expect)
	dst = binary.BigEndian.AppendUint64(dst, req.Next)
	dst = binary.BigEndian.AppendUint64(dst, req.Epoch)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(req.Versions)))
	for _, v := range req.Versions {
		dst = binary.BigEndian.AppendUint64(dst, v)
	}
	dst = appendSums(dst, req.Sums)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(req.Data)))
	return append(dst, req.Data...)
}

// DecodeRequest parses a request payload. The returned request's Data
// aliases p.
func DecodeRequest(p []byte) (Request, error) {
	var req Request
	err := req.Decode(p)
	return req, err
}

// Decode parses a request payload into req, reusing the storage of its
// Versions and Sums: a server decoding every request of a connection
// into one Request allocates nothing per request. Data aliases p. On
// error req is left partly decoded.
func (req *Request) Decode(p []byte) error {
	if len(p) < requestHeaderLen {
		return fmt.Errorf("%w: request header truncated (%d bytes)", ErrMalformed, len(p))
	}
	op := Op(p[0])
	if op == 0 || op >= opMax {
		return fmt.Errorf("%w: unknown op %d", ErrMalformed, p[0])
	}
	req.Op = op
	req.ID.Stripe = binary.BigEndian.Uint64(p[1:9])
	req.ID.Shard = int(int32(binary.BigEndian.Uint32(p[9:13])))
	req.Slot = int(int32(binary.BigEndian.Uint32(p[13:17])))
	req.Expect = binary.BigEndian.Uint64(p[17:25])
	req.Next = binary.BigEndian.Uint64(p[25:33])
	req.Epoch = binary.BigEndian.Uint64(p[33:41])
	var err error
	if req.Versions, p, err = decodeVersions(req.Versions, p[requestHeaderLen-4:]); err != nil {
		return err
	}
	if req.Sums, p, err = decodeSums(req.Sums, p); err != nil {
		return err
	}
	if len(p) < 4 {
		return fmt.Errorf("%w: data length truncated", ErrMalformed)
	}
	dlen := binary.BigEndian.Uint32(p[0:4])
	p = p[4:]
	if uint64(dlen) != uint64(len(p)) {
		return fmt.Errorf("%w: data length %d, %d bytes left", ErrMalformed, dlen, len(p))
	}
	req.Data = nil
	if dlen > 0 {
		req.Data = p
	}
	return nil
}

// AppendResponse encodes resp after dst and returns the extended
// slice.
func AppendResponse(dst []byte, resp *Response) []byte {
	dst = append(dst, byte(resp.Status))
	var flag byte
	if resp.Flag {
		flag = 1
	}
	dst = append(dst, flag)
	detail := resp.Detail
	if len(detail) > 0xffff {
		detail = detail[:0xffff]
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(detail)))
	dst = append(dst, detail...)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(resp.Versions)))
	for _, v := range resp.Versions {
		dst = binary.BigEndian.AppendUint64(dst, v)
	}
	dst = appendSums(dst, resp.Sums)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(resp.Data)))
	return append(dst, resp.Data...)
}

// DecodeResponse parses a response payload. The returned response's
// Data aliases p.
func DecodeResponse(p []byte) (Response, error) {
	var resp Response
	if len(p) < 4 {
		return resp, fmt.Errorf("%w: response header truncated", ErrMalformed)
	}
	status := Status(p[0])
	if status == 0 || status >= statusMax {
		return resp, fmt.Errorf("%w: unknown status %d", ErrMalformed, p[0])
	}
	resp.Status = status
	switch p[1] {
	case 0:
	case 1:
		resp.Flag = true
	default:
		return resp, fmt.Errorf("%w: flag byte %d", ErrMalformed, p[1])
	}
	detailLen := binary.BigEndian.Uint16(p[2:4])
	p = p[4:]
	if int(detailLen) > len(p) {
		return resp, fmt.Errorf("%w: detail truncated", ErrMalformed)
	}
	resp.Detail = string(p[:detailLen])
	p = p[detailLen:]
	var err error
	if resp.Versions, p, err = decodeVersions(nil, p); err != nil {
		return resp, err
	}
	if resp.Sums, p, err = decodeSums(nil, p); err != nil {
		return resp, err
	}
	if len(p) < 4 {
		return resp, fmt.Errorf("%w: data length truncated", ErrMalformed)
	}
	dlen := binary.BigEndian.Uint32(p[0:4])
	p = p[4:]
	if uint64(dlen) != uint64(len(p)) {
		return resp, fmt.Errorf("%w: data length %d, %d bytes left", ErrMalformed, dlen, len(p))
	}
	if dlen > 0 {
		resp.Data = p
	}
	return resp, nil
}

// WriteFrame writes one length-prefixed frame.
func WriteFrame(w io.Writer, payload []byte) error {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// ReadFrame reads one frame, reusing buf when it is large enough, and
// returns the payload. A declared length above max fails with
// ErrFrameTooLarge before any allocation. io.EOF is returned
// unwrapped when the stream ends cleanly between frames.
func ReadFrame(r io.Reader, buf []byte, max int) ([]byte, error) {
	// The header is staged in buf itself rather than a local array: a
	// stack [4]byte passed through the io.Reader interface escapes,
	// which would put one small allocation on every frame read.
	if cap(buf) < 4 {
		buf = make([]byte, 0, 512)
	}
	hdr := buf[:4]
	if _, err := io.ReadFull(r, hdr); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, fmt.Errorf("wire: truncated frame header: %w", err)
		}
		return nil, err
	}
	size := binary.BigEndian.Uint32(hdr)
	if int64(size) > int64(max) {
		return nil, fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, size, max)
	}
	if int(size) > cap(buf) {
		buf = make([]byte, size)
	}
	buf = buf[:size]
	if _, err := io.ReadFull(r, buf); err != nil {
		return nil, fmt.Errorf("wire: truncated frame payload: %w", err)
	}
	return buf, nil
}

// Pooled frames. A transport on the data path encodes and reads whole
// frames in internal/blockpool buffers: a buffer is taken for one frame
// and released as soon as that frame is written or decoded, so a
// connection holds no frame memory between requests and a 64 KiB-block
// frame costs a pool round trip, not an allocation. What a decoded
// message aliases (Data) is valid only until the buffer is released.

// RequestFrame encodes req as one complete frame — length prefix and
// payload — in a pooled buffer of exactly its size. The caller writes
// blk.B and releases blk.
func RequestFrame(req *Request) *blockpool.Block {
	size := EncodedRequestSize(req)
	blk := blockpool.GetBlock(4 + size)
	binary.BigEndian.PutUint32(blk.B, uint32(size))
	AppendRequest(blk.B[:4], req)
	return blk
}

// ResponseFrame is RequestFrame for a response.
func ResponseFrame(resp *Response) *blockpool.Block {
	size := encodedResponseSize(resp)
	blk := blockpool.GetBlock(4 + size)
	binary.BigEndian.PutUint32(blk.B, uint32(size))
	AppendResponse(blk.B[:4], resp)
	return blk
}

// encodedResponseSize is the payload length AppendResponse produces.
func encodedResponseSize(resp *Response) int {
	return 4 + min(len(resp.Detail), 0xffff) + 4 + 8*len(resp.Versions) + 4 + 16*len(resp.Sums) + 4 + len(resp.Data)
}

// ReadPooledFrame reads one frame into a pooled buffer of the payload's
// size and returns it; the caller releases it once the payload is
// decoded. Limits and errors are ReadFrame's.
func ReadPooledFrame(r io.Reader, max int) (*blockpool.Block, error) {
	// The header lands in the smallest pool class, which also holds any
	// payload that fits it; see ReadFrame for why not a stack array.
	blk := blockpool.GetBlock(4)
	if _, err := io.ReadFull(r, blk.B); err != nil {
		blk.Release()
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, fmt.Errorf("wire: truncated frame header: %w", err)
		}
		return nil, err
	}
	size := binary.BigEndian.Uint32(blk.B)
	if int64(size) > int64(max) {
		blk.Release()
		return nil, fmt.Errorf("%w: %d > %d", ErrFrameTooLarge, size, max)
	}
	if int(size) <= cap(blk.B) {
		blk.B = blk.B[:size]
	} else {
		blk.Release()
		blk = blockpool.GetBlock(int(size))
	}
	if _, err := io.ReadFull(r, blk.B); err != nil {
		blk.Release()
		return nil, fmt.Errorf("wire: truncated frame payload: %w", err)
	}
	return blk, nil
}

// Err converts a response status (plus its detail) back into the
// client package's sentinel taxonomy. StatusOK yields nil.
func (s Status) Err(detail string) error {
	var base error
	switch s {
	case StatusOK:
		return nil
	case StatusNotFound:
		base = client.ErrNotFound
	case StatusVersionMismatch:
		base = client.ErrVersionMismatch
	case StatusBadRequest:
		base = client.ErrBadRequest
	case StatusOverloaded:
		base = client.ErrOverloaded
	case StatusQuotaExceeded:
		base = client.ErrQuotaExceeded
	case StatusCorrupt:
		base = client.ErrCorrupt
	case StatusEpochStale:
		base = client.ErrEpochStale
	default:
		if detail == "" {
			detail = "internal node error"
		}
		return fmt.Errorf("wire: remote node: %s", detail)
	}
	if detail == "" {
		return base
	}
	return fmt.Errorf("%w: %s", base, detail)
}

// StatusOf classifies a node-side error for the wire. A nil error is
// StatusOK.
func StatusOf(err error) Status {
	switch {
	case err == nil:
		return StatusOK
	case errors.Is(err, client.ErrNotFound):
		return StatusNotFound
	case errors.Is(err, client.ErrVersionMismatch):
		return StatusVersionMismatch
	case errors.Is(err, client.ErrBadRequest):
		return StatusBadRequest
	case errors.Is(err, client.ErrOverloaded):
		return StatusOverloaded
	case errors.Is(err, client.ErrQuotaExceeded):
		return StatusQuotaExceeded
	case errors.Is(err, client.ErrCorrupt):
		return StatusCorrupt
	case errors.Is(err, client.ErrEpochStale):
		return StatusEpochStale
	default:
		return StatusInternal
	}
}
