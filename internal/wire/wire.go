// Package wire is cinderellad's binary protocol: a length-prefixed
// framed request/response codec over persistent TCP connections, built
// directly on the internal/entity record format so documents never
// round-trip through map[string]any on either side.
//
// Frame layout (all integers little-endian):
//
//	len:uint32 | version:byte | kind:byte | seq:uint64 | payload
//
// len counts everything after itself (10 header bytes + payload).
// version is Version (1); a server answers frames of any version it
// does not speak with StatusError and closes — the byte exists so a
// future version can widen the header without breaking old peers. kind
// is an opcode (requests) or a status (responses). seq is echoed
// verbatim so clients can pipeline requests and match responses.
//
// Opcodes:
//
//	OpHello  ()                       → token:uint64
//	OpAttrs  (names)                  → ids (wire attribute registration)
//	OpBatch  (ops)                    → per-op results (see below)
//	OpGet    (id)                     → dictDelta, found, entity
//	OpQuery  (attr ids)               → dictDelta, records
//	OpPing   ()                       → ()
//
// Attribute ids on the wire are ids in the store's attribute dictionary
// (the one all shards share), negotiated per name via OpAttrs. They are
// session-scoped: a name no stored record uses may not survive a
// restart, and its id may then name another attribute. OpHello returns a
// random per-process token, and a token change tells the client its
// cached name→id map is stale (server restarted).
//
// Response statuses and the ack contract: StatusOK on a batch means
// every op with an applied result code was applied AND fsynced (the
// group committer coalesces batches across connections into single
// fsyncs). StatusRetry means nothing was applied — the client may
// retry. StatusError is terminal for the request. StatusNotDurable
// means a prefix was applied but durability is unknown; clients must
// not retry (re-applying could double-apply) and must surface the
// error.
//
// Batch partial failure: ops apply in order; the first hard failure
// stops the batch, marking the failing op ResFailed and every later op
// ResUnapplied. A missing id on update/delete is ResNotFound — a
// normal, applied outcome, not a failure. Clients retry only the
// ResUnapplied suffix.
package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Version is the protocol version this package speaks.
const Version = 1

// headerLen is the fixed frame header after the length prefix:
// version(1) + kind(1) + seq(8).
const headerLen = 10

// DefaultMaxFrame bounds one frame (header + payload). Large enough for
// multi-thousand-op batches of realistic documents, small enough that a
// hostile length prefix cannot balloon memory.
const DefaultMaxFrame = 4 << 20

// Request opcodes.
const (
	OpHello byte = 1 + iota
	OpAttrs
	OpBatch
	OpGet
	OpQuery
	OpPing
)

// Response statuses.
const (
	StatusOK         byte = 0
	StatusError      byte = 1 // terminal for this request
	StatusRetry      byte = 2 // nothing applied; safe to retry
	StatusNotDurable byte = 3 // applied but durability unknown; not retryable
)

// Batch op kinds.
const (
	BatchInsert byte = 1 + iota
	BatchUpdate
	BatchDelete
)

// OpQuery flag bits. The flags byte trails the attribute-id list; it is
// optional, so pre-flag clients (which simply omit it) keep working.
const (
	// QueryFlagTrace requests an inline query trace: the response
	// carries, after the records, a length-prefixed JSON span tree
	// (empty string when the server is uninstrumented). Tracing bypasses
	// sampling — the span always has full detail.
	QueryFlagTrace byte = 1 << 0
)

// Per-op result codes in a batch response.
const (
	ResOK        byte = 0 // applied; insert carries the new id
	ResNotFound  byte = 1 // update/delete applied as a no-op: id not live
	ResFailed    byte = 2 // this op failed; carries a message
	ResUnapplied byte = 3 // not attempted (an earlier op failed); retryable
)

// ProtocolError is the typed error for malformed or out-of-contract
// frames. Both sides close the connection when they see one.
type ProtocolError string

func (e ProtocolError) Error() string { return "wire: " + string(e) }

func errf(format string, args ...any) ProtocolError {
	return ProtocolError(fmt.Sprintf(format, args...))
}

// Frame is one decoded frame. Payload aliases the read buffer and is
// only valid until the next ReadFrame on the same buffer.
type Frame struct {
	Version byte
	Kind    byte
	Seq     uint64
	Payload []byte
}

// ReadFrame reads one frame from r into *buf (growing it as needed, up
// to max bytes per frame). A clean EOF before any header byte returns
// io.EOF; every malformed input returns a ProtocolError, and a frame
// whose declared length exceeds max fails before any allocation.
func ReadFrame(r io.Reader, buf *[]byte, max int) (Frame, error) {
	var f Frame
	if len(*buf) < 4 {
		*buf = make([]byte, 4096)
	}
	if _, err := io.ReadFull(r, (*buf)[:4]); err != nil {
		if err == io.EOF {
			return f, io.EOF
		}
		return f, errf("short frame header: %v", err)
	}
	n := int(binary.LittleEndian.Uint32((*buf)[:4]))
	if n < headerLen {
		return f, errf("frame length %d below header size", n)
	}
	if n > max {
		return f, errf("frame length %d exceeds limit %d", n, max)
	}
	if len(*buf) < n {
		*buf = make([]byte, n)
	}
	body := (*buf)[:n]
	if _, err := io.ReadFull(r, body); err != nil {
		return f, errf("truncated frame: %v", err)
	}
	f.Version = body[0]
	f.Kind = body[1]
	f.Seq = binary.LittleEndian.Uint64(body[2:10])
	f.Payload = body[headerLen:]
	return f, nil
}

// BeginFrame appends a frame header with a zero length prefix and
// returns the extended buffer. Append the payload, then call EndFrame
// with the offset BeginFrame started at (len(dst) before the call).
func BeginFrame(dst []byte, kind byte, seq uint64) []byte {
	dst = append(dst, 0, 0, 0, 0, Version, kind)
	dst = binary.LittleEndian.AppendUint64(dst, seq)
	return dst
}

// EndFrame patches the length prefix of the frame started at off.
func EndFrame(dst []byte, off int) []byte {
	binary.LittleEndian.PutUint32(dst[off:], uint32(len(dst)-off-4))
	return dst
}

// AppendFrame appends a complete frame with the given payload.
func AppendFrame(dst []byte, kind byte, seq uint64, payload []byte) []byte {
	off := len(dst)
	dst = BeginFrame(dst, kind, seq)
	dst = append(dst, payload...)
	return EndFrame(dst, off)
}

// ---- payload primitives ----

// AppendString appends a uvarint-length-prefixed string.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// ReadUvarint decodes a uvarint at src[off:], returning the value and
// the new offset.
func ReadUvarint(src []byte, off int) (uint64, int, error) {
	v, n := binary.Uvarint(src[off:])
	if n <= 0 {
		return 0, 0, errf("corrupt varint at offset %d", off)
	}
	return v, off + n, nil
}

// ReadString decodes a length-prefixed string at src[off:]. The string
// is copied (one allocation), never aliasing src.
func ReadString(src []byte, off int) (string, int, error) {
	l, off, err := ReadUvarint(src, off)
	if err != nil {
		return "", 0, err
	}
	if l > uint64(len(src)-off) {
		return "", 0, errf("string length %d exceeds payload", l)
	}
	return string(src[off : off+int(l)]), off + int(l), nil
}

// ---- error payloads ----

// AppendErrorPayload encodes a non-OK response payload: the message.
func AppendErrorPayload(dst []byte, msg string) []byte {
	return AppendString(dst, msg)
}

// DecodeErrorPayload decodes a non-OK response payload.
func DecodeErrorPayload(p []byte) string {
	msg, _, err := ReadString(p, 0)
	if err != nil {
		return "(unparsable error payload)"
	}
	return msg
}

// ---- hello ----

// AppendHello encodes an OpHello OK response: the session token.
func AppendHello(dst []byte, token uint64) []byte {
	return binary.LittleEndian.AppendUint64(dst, token)
}

// DecodeHello decodes an OpHello OK response.
func DecodeHello(p []byte) (uint64, error) {
	if len(p) != 8 {
		return 0, errf("hello payload is %d bytes, want 8", len(p))
	}
	return binary.LittleEndian.Uint64(p), nil
}

// ---- attrs ----

// AppendAttrsRequest encodes an OpAttrs request: the names to register.
func AppendAttrsRequest(dst []byte, names []string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(names)))
	for _, n := range names {
		dst = AppendString(dst, n)
	}
	return dst
}

// DecodeAttrsRequest decodes an OpAttrs request.
func DecodeAttrsRequest(p []byte) ([]string, error) {
	n, off, err := ReadUvarint(p, 0)
	if err != nil {
		return nil, err
	}
	// Each name costs at least one length byte.
	if n > uint64(len(p)-off) {
		return nil, errf("attr count %d exceeds payload", n)
	}
	names := make([]string, n)
	for i := range names {
		if names[i], off, err = ReadString(p, off); err != nil {
			return nil, err
		}
	}
	if off != len(p) {
		return nil, errf("%d trailing bytes after attrs request", len(p)-off)
	}
	return names, nil
}

// AppendAttrsResponse encodes the ids assigned to an OpAttrs request,
// in request order.
func AppendAttrsResponse(dst []byte, ids []int) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ids)))
	for _, id := range ids {
		dst = binary.AppendUvarint(dst, uint64(id))
	}
	return dst
}

// DecodeAttrsResponse decodes an OpAttrs OK response.
func DecodeAttrsResponse(p []byte) ([]int, error) {
	n, off, err := ReadUvarint(p, 0)
	if err != nil {
		return nil, err
	}
	if n > uint64(len(p)-off) {
		return nil, errf("attr id count %d exceeds payload", n)
	}
	ids := make([]int, n)
	for i := range ids {
		var v uint64
		if v, off, err = ReadUvarint(p, off); err != nil {
			return nil, err
		}
		if v > math.MaxInt32 {
			return nil, errf("implausible attribute id %d", v)
		}
		ids[i] = int(v)
	}
	return ids, nil
}

// ---- dictionary deltas ----

// AppendDictDelta encodes the (id, name) pairs [from, from+len(names))
// that a read response prepends so the client can name attribute ids it
// has not seen. A response with no new ids encodes from=0, n=0.
func AppendDictDelta(dst []byte, from int, names []string) []byte {
	dst = binary.AppendUvarint(dst, uint64(from))
	dst = binary.AppendUvarint(dst, uint64(len(names)))
	for _, n := range names {
		dst = AppendString(dst, n)
	}
	return dst
}

// DecodeDictDelta decodes a dictionary delta at p[off:], calling add
// for each (id, name) pair in ascending id order. It returns the offset
// past the delta.
func DecodeDictDelta(p []byte, off int, add func(id int, name string)) (int, error) {
	from, off, err := ReadUvarint(p, off)
	if err != nil {
		return 0, err
	}
	n, off, err := ReadUvarint(p, off)
	if err != nil {
		return 0, err
	}
	if n > uint64(len(p)-off) {
		return 0, errf("dict delta count %d exceeds payload", n)
	}
	for i := uint64(0); i < n; i++ {
		var name string
		if name, off, err = ReadString(p, off); err != nil {
			return 0, err
		}
		add(int(from+i), name)
	}
	return off, nil
}
