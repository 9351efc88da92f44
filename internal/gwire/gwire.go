// Package gwire is the binary codec of the gateway protocol: the
// framing and message formats a client connection uses to talk to a
// gateway (cmd/trapgate) in front of a storage fleet. It is the
// object-level sibling of the node codec (internal/wire): where wire
// carries chunk operations between the quorum engine and one storage
// node, gwire carries whole-object operations — Put, Get, ranged
// read/write, Delete, Scrub, Watch — between many clients and the
// gateway tier.
//
// # Framing
//
// Frames are the same length-prefixed shape as the node protocol
// (uint32 big-endian payload length, then the payload) and reuse its
// reader/writer: the size limit is enforced before any allocation, so
// a hostile peer cannot trigger an allocation blow-up.
//
// # Pipelining
//
// Every request carries a client-chosen sequence number and every
// response echoes it, so a client may keep many requests in flight on
// one connection and match answers out of order. Watch subscriptions
// use the same channel: an event frame is a response with StatusEvent
// whose Seq is the originating Watch request's, letting one reader
// goroutine demultiplex answers and notifications alike.
//
// # Messages
//
// A request payload is:
//
//	seq(8) op(1) klen(2) key(klen) offset(8) length(8) dlen(4) data(dlen)
//
// Fields an operation does not use are zero; every request uses the
// same layout so the decoder is a single bounds-checked pass. A
// response payload is:
//
//	seq(8) status(1) flag(1) detail(len16-prefixed string) dlen(4) data(dlen)
//
// Status carries the public error taxonomy across the wire — Err and
// StatusOf convert in both directions, so a gateway-side quota
// rejection still satisfies errors.Is(err, trapquorum.ErrQuotaExceeded)
// at the dialing client.
//
// Decoded requests and responses alias the frame buffer for their Key
// and Data fields; callers that retain the bytes past the next read
// must copy.
package gwire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"

	"trapquorum/client"
	"trapquorum/internal/blockpool"
	"trapquorum/internal/core"
	"trapquorum/internal/service"
	"trapquorum/internal/wire"
)

// Op identifies one gateway operation on the wire.
type Op uint8

// The gateway protocol operations. OpHello must be the first request
// on a connection: it binds the connection to a tenant namespace.
// OpHealth is answered without touching the store.
const (
	OpHello Op = iota + 1
	OpPut
	OpGet
	OpReadAt
	OpWriteAt
	OpDelete
	OpScrub
	OpHealth
	OpWatch
	// The streaming upload ops, appended after OpWatch so every earlier
	// op keeps its wire encoding. An upload is a bracketed sequence on
	// one connection — OpPutStart (key + declared size in Length), then
	// OpPutPart frames carrying consecutive byte ranges (running byte
	// offset in Offset, bytes in Data), closed by OpPutFinish (publish)
	// or OpPutAbort (unwind). One upload per connection at a time; parts
	// must arrive in offset order. OpStat answers an object's size (an
	// 8-byte big-endian integer in Data) — the prelude of a streaming
	// download, which is chunked OpReadAt.
	OpStat
	OpPutStart
	OpPutPart
	OpPutFinish
	OpPutAbort
	opMax
)

// String names the operation for diagnostics.
func (op Op) String() string {
	switch op {
	case OpHello:
		return "hello"
	case OpPut:
		return "put"
	case OpGet:
		return "get"
	case OpReadAt:
		return "read-at"
	case OpWriteAt:
		return "write-at"
	case OpDelete:
		return "delete"
	case OpScrub:
		return "scrub"
	case OpHealth:
		return "health"
	case OpWatch:
		return "watch"
	case OpStat:
		return "stat"
	case OpPutStart:
		return "put-start"
	case OpPutPart:
		return "put-part"
	case OpPutFinish:
		return "put-finish"
	case OpPutAbort:
		return "put-abort"
	default:
		return fmt.Sprintf("op(%d)", uint8(op))
	}
}

// Mutating reports whether the operation changes tenant state — the
// ops a Watch subscription reports and a draining gateway refuses
// first. Of the upload bracket only OpPutFinish mutates: until the
// finish, an upload is invisible staging that an abort (or a dropped
// connection) unwinds without a trace.
func (op Op) Mutating() bool {
	switch op {
	case OpPut, OpWriteAt, OpDelete, OpPutFinish:
		return true
	default:
		return false
	}
}

// Status is the result class of a response, carrying the public error
// taxonomy across the wire.
type Status uint8

// Response statuses. StatusEvent marks a Watch notification rather
// than a request's answer; StatusInternal covers gateway-side
// failures outside the taxonomy.
const (
	StatusOK Status = iota + 1
	StatusUnknownKey
	StatusExists
	StatusBadRange
	StatusBadRequest
	StatusQuotaExceeded
	StatusOverloaded
	StatusWriteFailed
	StatusNotReadable
	StatusDraining
	StatusInternal
	StatusEvent
	// StatusCorrupt reports shard content that failed cross-checksum
	// verification beyond the code's tolerance (client.ErrCorrupt).
	// Appended after StatusEvent so every earlier value keeps its wire
	// encoding.
	StatusCorrupt
	// StatusEpochStale reports an operation tagged with a placement
	// epoch the fleet has reconfigured past (client.ErrEpochStale).
	// Appended after StatusCorrupt so every earlier value keeps its
	// wire encoding.
	StatusEpochStale
	statusMax
)

// ErrDraining reports a request refused because the gateway is
// shutting down: it has stopped accepting connections and is
// finishing in-flight work. Reconnect to another gateway. Test with
// errors.Is; the dial-in client re-exports this sentinel.
var ErrDraining = errors.New("gwire: gateway is draining")

// Framing and decoding errors, shared with the node codec.
var (
	// ErrFrameTooLarge reports a frame whose declared payload exceeds
	// the reader's limit; it is returned before any allocation.
	ErrFrameTooLarge = wire.ErrFrameTooLarge
	// ErrMalformed reports a payload that does not parse.
	ErrMalformed = errors.New("gwire: malformed message")
)

// DefaultMaxFrame bounds a frame's payload unless the caller chooses
// otherwise — large enough for a 16 MiB object plus headers.
const DefaultMaxFrame = 16<<20 + 4096

// MaxKeyLen bounds an object key (and a tenant name, which travels in
// the key field of OpHello).
const MaxKeyLen = 0xffff

// Request is one decoded gateway operation.
type Request struct {
	// Seq is the client-chosen sequence number the response echoes.
	Seq uint64
	Op  Op
	// Key is the object key (the tenant name for OpHello). Decoding
	// aliases the frame buffer; copy before the next read if retained.
	Key []byte
	// Offset, Length parameterise the ranged operations (OpReadAt,
	// OpWriteAt).
	Offset int64
	Length int64
	// Data is the object payload of OpPut / OpWriteAt. Decoding
	// aliases the frame buffer; copy before the next read if retained.
	Data []byte
}

// Response is one decoded gateway answer (or, with StatusEvent, a
// Watch notification).
type Response struct {
	// Seq echoes the request's sequence number (the Watch request's,
	// for events).
	Seq    uint64
	Status Status
	// Detail is the gateway's human-readable error detail (empty on
	// OK).
	Detail string
	// Flag answers boolean queries (OpHealth: true when serving, false
	// when draining).
	Flag bool
	// Data carries object bytes (OpGet, OpReadAt), free-form report
	// text (OpScrub, OpHealth) or an encoded Event (StatusEvent).
	// Decoding aliases the frame buffer; copy before the next read if
	// retained.
	Data []byte
}

const requestFixedLen = 8 + 1 + 2 // through klen
const requestTailLen = 8 + 8 + 4  // offset, length, dlen

// EncodedRequestSize returns the exact payload length AppendRequest
// produces for req, letting a sender validate against its frame limit
// before touching the wire.
func EncodedRequestSize(req *Request) int {
	return requestFixedLen + len(req.Key) + requestTailLen + len(req.Data)
}

// AppendRequest encodes req after dst and returns the extended slice.
// Keys longer than MaxKeyLen are truncated; validate before encoding.
func AppendRequest(dst []byte, req *Request) []byte {
	key := req.Key
	if len(key) > MaxKeyLen {
		key = key[:MaxKeyLen]
	}
	dst = binary.BigEndian.AppendUint64(dst, req.Seq)
	dst = append(dst, byte(req.Op))
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(key)))
	dst = append(dst, key...)
	dst = binary.BigEndian.AppendUint64(dst, uint64(req.Offset))
	dst = binary.BigEndian.AppendUint64(dst, uint64(req.Length))
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(req.Data)))
	return append(dst, req.Data...)
}

// DecodeRequest parses a request payload. The returned request's Key
// and Data alias p.
func DecodeRequest(p []byte) (Request, error) {
	var req Request
	if len(p) < requestFixedLen {
		return req, fmt.Errorf("%w: request header truncated (%d bytes)", ErrMalformed, len(p))
	}
	req.Seq = binary.BigEndian.Uint64(p[0:8])
	op := Op(p[8])
	if op == 0 || op >= opMax {
		return req, fmt.Errorf("%w: unknown op %d", ErrMalformed, p[8])
	}
	req.Op = op
	klen := binary.BigEndian.Uint16(p[9:11])
	p = p[requestFixedLen:]
	if int(klen) > len(p) {
		return req, fmt.Errorf("%w: key truncated (%d declared, %d bytes left)", ErrMalformed, klen, len(p))
	}
	if klen > 0 {
		req.Key = p[:klen]
	}
	p = p[klen:]
	if len(p) < requestTailLen {
		return req, fmt.Errorf("%w: request tail truncated", ErrMalformed)
	}
	req.Offset = int64(binary.BigEndian.Uint64(p[0:8]))
	req.Length = int64(binary.BigEndian.Uint64(p[8:16]))
	dlen := binary.BigEndian.Uint32(p[16:20])
	p = p[requestTailLen:]
	if uint64(dlen) != uint64(len(p)) {
		return req, fmt.Errorf("%w: data length %d, %d bytes left", ErrMalformed, dlen, len(p))
	}
	if dlen > 0 {
		req.Data = p
	}
	return req, nil
}

// AppendResponse encodes resp after dst and returns the extended
// slice.
func AppendResponse(dst []byte, resp *Response) []byte {
	dst, dlenOff := BeginResponse(dst, resp.Seq, resp.Status, resp.Flag, resp.Detail)
	dst = append(dst, resp.Data...)
	FinishResponse(dst, dlenOff)
	return dst
}

// BeginResponse appends the response header — with a zero data
// length — after dst and returns the extended slice plus the offset
// of the data-length field. The caller appends the data bytes
// directly (for example via service.GetAppend into the same buffer)
// and then patches the length in with FinishResponse. This is the
// zero-copy path of the gateway's serve loop: object bytes are
// appended straight into the pooled frame buffer, never staged in an
// intermediate slice.
func BeginResponse(dst []byte, seq uint64, status Status, flag bool, detail string) ([]byte, int) {
	dst = binary.BigEndian.AppendUint64(dst, seq)
	dst = append(dst, byte(status))
	var f byte
	if flag {
		f = 1
	}
	dst = append(dst, f)
	if len(detail) > 0xffff {
		detail = detail[:0xffff]
	}
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(detail)))
	dst = append(dst, detail...)
	dlenOff := len(dst)
	dst = binary.BigEndian.AppendUint32(dst, 0)
	return dst, dlenOff
}

// FinishResponse patches the data length of a header built by
// BeginResponse, after the data bytes have been appended: everything
// past the length field is the data.
func FinishResponse(p []byte, dlenOff int) {
	binary.BigEndian.PutUint32(p[dlenOff:], uint32(len(p)-dlenOff-4))
}

// DecodeResponse parses a response payload. The returned response's
// Data aliases p.
func DecodeResponse(p []byte) (Response, error) {
	var resp Response
	if len(p) < 12 {
		return resp, fmt.Errorf("%w: response header truncated", ErrMalformed)
	}
	resp.Seq = binary.BigEndian.Uint64(p[0:8])
	status := Status(p[8])
	if status == 0 || status >= statusMax {
		return resp, fmt.Errorf("%w: unknown status %d", ErrMalformed, p[8])
	}
	resp.Status = status
	switch p[9] {
	case 0:
	case 1:
		resp.Flag = true
	default:
		return resp, fmt.Errorf("%w: flag byte %d", ErrMalformed, p[9])
	}
	detailLen := binary.BigEndian.Uint16(p[10:12])
	p = p[12:]
	if int(detailLen) > len(p) {
		return resp, fmt.Errorf("%w: detail truncated", ErrMalformed)
	}
	resp.Detail = string(p[:detailLen])
	p = p[detailLen:]
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

// EventKind classifies a Watch notification.
type EventKind uint8

// Watch event kinds. EventDrain is the gateway's goodbye: the
// connection's gateway is shutting down and no further events will
// arrive on this subscription.
const (
	EventPut EventKind = iota + 1
	EventWrite
	EventDelete
	EventDrain
	eventMax
)

// String names the event kind for diagnostics.
func (k EventKind) String() string {
	switch k {
	case EventPut:
		return "put"
	case EventWrite:
		return "write"
	case EventDelete:
		return "delete"
	case EventDrain:
		return "drain"
	default:
		return fmt.Sprintf("event(%d)", uint8(k))
	}
}

// Event is one object-change notification delivered to a Watch
// subscription: which key changed and how. EventDrain carries no key.
type Event struct {
	Kind EventKind
	// Key is the changed object's key. Decoding aliases the buffer;
	// copy before the next read if retained.
	Key []byte
}

// AppendEvent encodes ev after dst and returns the extended slice —
// the payload travels in the Data field of a StatusEvent response.
func AppendEvent(dst []byte, ev *Event) []byte {
	key := ev.Key
	if len(key) > MaxKeyLen {
		key = key[:MaxKeyLen]
	}
	dst = append(dst, byte(ev.Kind))
	dst = binary.BigEndian.AppendUint16(dst, uint16(len(key)))
	return append(dst, key...)
}

// DecodeEvent parses an event payload. The returned event's Key
// aliases p.
func DecodeEvent(p []byte) (Event, error) {
	var ev Event
	if len(p) < 3 {
		return ev, fmt.Errorf("%w: event truncated (%d bytes)", ErrMalformed, len(p))
	}
	kind := EventKind(p[0])
	if kind == 0 || kind >= eventMax {
		return ev, fmt.Errorf("%w: unknown event kind %d", ErrMalformed, p[0])
	}
	ev.Kind = kind
	klen := binary.BigEndian.Uint16(p[1:3])
	p = p[3:]
	if int(klen) != len(p) {
		return ev, fmt.Errorf("%w: event key length %d, %d bytes left", ErrMalformed, klen, len(p))
	}
	if klen > 0 {
		ev.Key = p
	}
	return ev, nil
}

// WriteFrame writes one length-prefixed frame (the node codec's
// framing, reused).
func WriteFrame(w io.Writer, payload []byte) error {
	return wire.WriteFrame(w, payload)
}

// ReadFrame reads one frame, reusing buf when it is large enough. A
// declared length above max fails with ErrFrameTooLarge before any
// allocation. io.EOF is returned unwrapped when the stream ends
// cleanly between frames.
func ReadFrame(r io.Reader, buf []byte, max int) ([]byte, error) {
	return wire.ReadFrame(r, buf, max)
}

// ReadPooledFrame reads one frame into a pooled buffer (see
// wire.ReadPooledFrame); the caller releases it.
func ReadPooledFrame(r io.Reader, max int) (*blockpool.Block, error) {
	return wire.ReadPooledFrame(r, max)
}

// Err converts a response status (plus its detail) back into the
// library's public error taxonomy. StatusOK yields nil; StatusEvent
// never answers a request and decodes as a malformed-stream error.
func (s Status) Err(detail string) error {
	var base error
	switch s {
	case StatusOK:
		return nil
	case StatusUnknownKey:
		base = service.ErrUnknownKey
	case StatusExists:
		base = service.ErrExists
	case StatusBadRange:
		base = service.ErrBadRange
	case StatusBadRequest:
		base = client.ErrBadRequest
	case StatusQuotaExceeded:
		base = client.ErrQuotaExceeded
	case StatusOverloaded:
		base = client.ErrOverloaded
	case StatusWriteFailed:
		base = core.ErrWriteFailed
	case StatusNotReadable:
		base = core.ErrNotReadable
	case StatusDraining:
		base = ErrDraining
	case StatusCorrupt:
		base = client.ErrCorrupt
	case StatusEpochStale:
		base = client.ErrEpochStale
	case StatusEvent:
		return fmt.Errorf("%w: event frame where an answer was expected", ErrMalformed)
	default:
		if detail == "" {
			detail = "internal gateway error"
		}
		return fmt.Errorf("gwire: remote gateway: %s", detail)
	}
	// The detail a gateway sends is usually the full server-side error
	// string, which already starts with the sentinel's own message —
	// strip that prefix so the reconstructed error reads it once.
	detail = strings.TrimPrefix(detail, base.Error()+": ")
	if detail == "" || detail == base.Error() {
		return base
	}
	return fmt.Errorf("%w: %s", base, detail)
}

// StatusOf classifies a gateway-side error for the wire. A nil error
// is StatusOK.
func StatusOf(err error) Status {
	switch {
	case err == nil:
		return StatusOK
	case errors.Is(err, service.ErrUnknownKey):
		return StatusUnknownKey
	case errors.Is(err, service.ErrExists):
		return StatusExists
	case errors.Is(err, service.ErrBadRange):
		return StatusBadRange
	case errors.Is(err, client.ErrBadRequest):
		return StatusBadRequest
	case errors.Is(err, client.ErrQuotaExceeded):
		return StatusQuotaExceeded
	case errors.Is(err, client.ErrOverloaded):
		return StatusOverloaded
	case errors.Is(err, core.ErrWriteFailed):
		return StatusWriteFailed
	case errors.Is(err, client.ErrCorrupt):
		// Before ErrNotReadable: a read that failed because corruption
		// exceeded the code's tolerance wraps both sentinels, and the
		// corruption verdict is the actionable one.
		return StatusCorrupt
	case errors.Is(err, core.ErrNotReadable):
		return StatusNotReadable
	case errors.Is(err, client.ErrEpochStale):
		return StatusEpochStale
	case errors.Is(err, ErrDraining):
		return StatusDraining
	default:
		return StatusInternal
	}
}
