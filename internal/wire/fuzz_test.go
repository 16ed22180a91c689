package wire_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"

	"cinderella/internal/entity"
	"cinderella/internal/wire"
)

// FuzzReadFrame feeds arbitrary byte streams to the frame parser. The
// contract under attack: every malformed input yields a typed
// ProtocolError (never a panic), clean stream ends yield io.EOF, and a
// hostile length prefix never makes the parser allocate past the frame
// limit.
func FuzzReadFrame(f *testing.F) {
	const maxFrame = 1 << 16

	// Valid single frame.
	f.Add(wire.AppendFrame(nil, wire.OpPing, 1, nil))
	// Valid frame followed by garbage.
	f.Add(append(wire.AppendFrame(nil, wire.OpBatch, 2, []byte("payload")), 0xde, 0xad, 0xbe, 0xef))
	// Truncated: header promises more than the stream has.
	f.Add(append(binary.LittleEndian.AppendUint32(nil, 500), 1, 2, 3))
	// Oversized length prefix.
	f.Add(binary.LittleEndian.AppendUint32(nil, 0xffffffff))
	// Length below the header floor.
	f.Add(binary.LittleEndian.AppendUint32(nil, 2))
	// Short length prefix.
	f.Add([]byte{0x01})
	// Two valid frames back to back.
	two := wire.AppendFrame(nil, wire.OpHello, 1, nil)
	f.Add(wire.AppendFrame(two, wire.OpQuery, 2, []byte{0}))

	f.Fuzz(func(t *testing.T, data []byte) {
		rd := bytes.NewReader(data)
		var buf []byte
		for i := 0; ; i++ {
			if i > len(data) {
				t.Fatalf("parser yielded more frames than input bytes (%d)", len(data))
			}
			frame, err := wire.ReadFrame(rd, &buf, maxFrame)
			if err == nil {
				if len(frame.Payload) > maxFrame {
					t.Fatalf("payload %d exceeds frame limit", len(frame.Payload))
				}
				continue
			}
			if err == io.EOF {
				break // clean end of stream
			}
			var pe wire.ProtocolError
			if !errors.As(err, &pe) {
				t.Fatalf("non-typed parse error %T: %v", err, err)
			}
			break // malformed: the server closes the connection here
		}
		if cap(buf) > maxFrame {
			t.Fatalf("read buffer grew to %d, past the %d frame limit", cap(buf), maxFrame)
		}
	})
}

// FuzzBatchPayloadDecode drives the batch payload parser (op framing +
// entity decode) with arbitrary payloads: it must reject garbage with
// an error, never panic, and never claim to have consumed more bytes
// than exist.
func FuzzBatchPayloadDecode(f *testing.F) {
	e := &entity.Entity{}
	e.Set(1, entity.Int(7))
	e.Set(4, entity.Str("s"))
	good := binary.AppendUvarint(nil, 2)
	good = append(good, wire.BatchInsert)
	good = e.Marshal(good)
	good = append(good, wire.BatchDelete)
	good = binary.AppendUvarint(good, 99)
	f.Add(good)
	f.Add([]byte{0xff})                              // corrupt count varint
	f.Add([]byte{5})                                 // count larger than payload
	f.Add(append(binary.AppendUvarint(nil, 1), 200)) // unknown op kind

	f.Fuzz(func(t *testing.T, p []byte) {
		count, pos, err := wire.ReadUvarint(p, 0)
		if err != nil || count > uint64(len(p)-pos) {
			return // rejected up front, as the server does
		}
		var scratch entity.Entity
		for i := uint64(0); i < count; i++ {
			if pos >= len(p) {
				return
			}
			kind := p[pos]
			pos++
			switch kind {
			case wire.BatchInsert:
				n, err := entity.UnmarshalInto(&scratch, p[pos:])
				if err != nil {
					return
				}
				if n < 0 || n > len(p)-pos {
					t.Fatalf("entity decode consumed %d of %d bytes", n, len(p)-pos)
				}
				pos += n
			case wire.BatchUpdate:
				if _, pos, err = wire.ReadUvarint(p, pos); err != nil {
					return
				}
				n, err := entity.UnmarshalInto(&scratch, p[pos:])
				if err != nil {
					return
				}
				if n < 0 || n > len(p)-pos {
					t.Fatalf("entity decode consumed %d of %d bytes", n, len(p)-pos)
				}
				pos += n
			case wire.BatchDelete:
				if _, pos, err = wire.ReadUvarint(p, pos); err != nil {
					return
				}
			default:
				return
			}
		}
	})
}
