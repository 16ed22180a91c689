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

func TestFrameRoundTrip(t *testing.T) {
	payload := []byte("hello frame")
	raw := wire.AppendFrame(nil, wire.OpBatch, 12345, payload)

	var buf []byte
	f, err := wire.ReadFrame(bytes.NewReader(raw), &buf, wire.DefaultMaxFrame)
	if err != nil {
		t.Fatal(err)
	}
	if f.Version != wire.Version || f.Kind != wire.OpBatch || f.Seq != 12345 {
		t.Fatalf("header mismatch: %+v", f)
	}
	if !bytes.Equal(f.Payload, payload) {
		t.Fatalf("payload mismatch: %q", f.Payload)
	}
}

func TestFrameBeginEnd(t *testing.T) {
	// Build two frames back to back in one buffer, read both back.
	var out []byte
	off := len(out)
	out = wire.BeginFrame(out, wire.StatusOK, 1)
	out = append(out, "first"...)
	out = wire.EndFrame(out, off)
	off = len(out)
	out = wire.BeginFrame(out, wire.StatusError, 2)
	out = append(out, "second"...)
	out = wire.EndFrame(out, off)

	rd := bytes.NewReader(out)
	var buf []byte
	f1, err := wire.ReadFrame(rd, &buf, wire.DefaultMaxFrame)
	if err != nil || string(f1.Payload) != "first" || f1.Seq != 1 {
		t.Fatalf("first frame: %v %q", err, f1.Payload)
	}
	f2, err := wire.ReadFrame(rd, &buf, wire.DefaultMaxFrame)
	if err != nil || string(f2.Payload) != "second" || f2.Seq != 2 {
		t.Fatalf("second frame: %v %q", err, f2.Payload)
	}
	if _, err := wire.ReadFrame(rd, &buf, wire.DefaultMaxFrame); err != io.EOF {
		t.Fatalf("want io.EOF at stream end, got %v", err)
	}
}

func TestReadFrameMalformed(t *testing.T) {
	cases := map[string][]byte{
		"length below header": binary.LittleEndian.AppendUint32(nil, 3),
		"oversized length":    binary.LittleEndian.AppendUint32(nil, 1<<31),
		"truncated body":      append(binary.LittleEndian.AppendUint32(nil, 100), 1, 2, 3),
		"short header":        {0x10, 0x00},
	}
	for name, raw := range cases {
		var buf []byte
		_, err := wire.ReadFrame(bytes.NewReader(raw), &buf, wire.DefaultMaxFrame)
		var pe wire.ProtocolError
		if !errors.As(err, &pe) {
			t.Errorf("%s: want ProtocolError, got %v", name, err)
		}
	}
}

func TestReadFrameHonorsMax(t *testing.T) {
	// A declared length just over max must fail before allocating.
	raw := binary.LittleEndian.AppendUint32(nil, 1<<20)
	var buf []byte
	_, err := wire.ReadFrame(bytes.NewReader(raw), &buf, 1024)
	var pe wire.ProtocolError
	if !errors.As(err, &pe) {
		t.Fatalf("want ProtocolError, got %v", err)
	}
	if cap(buf) > 4096 {
		t.Fatalf("buffer grew to %d for a rejected frame", cap(buf))
	}
}

func TestAttrsCodec(t *testing.T) {
	names := []string{"alpha", "beta", ""}
	req := wire.AppendAttrsRequest(nil, names)
	got, err := wire.DecodeAttrsRequest(req)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != "alpha" || got[2] != "" {
		t.Fatalf("decoded %v", got)
	}
	if _, err := wire.DecodeAttrsRequest(append(req, 0xff)); err == nil {
		t.Fatal("trailing bytes must be rejected")
	}

	ids := []int{0, 7, 300}
	resp := wire.AppendAttrsResponse(nil, ids)
	gotIDs, err := wire.DecodeAttrsResponse(resp)
	if err != nil || len(gotIDs) != 3 || gotIDs[2] != 300 {
		t.Fatalf("decoded %v err %v", gotIDs, err)
	}
}

func TestDictDeltaCodec(t *testing.T) {
	p := wire.AppendDictDelta(nil, 5, []string{"e", "f", "g"})
	p = append(p, 0xAB) // trailing content after the delta
	var got []string
	var ids []int
	off, err := wire.DecodeDictDelta(p, 0, func(id int, name string) {
		ids = append(ids, id)
		got = append(got, name)
	})
	if err != nil {
		t.Fatal(err)
	}
	if off != len(p)-1 || p[off] != 0xAB {
		t.Fatalf("offset %d, want %d", off, len(p)-1)
	}
	if len(ids) != 3 || ids[0] != 5 || ids[2] != 7 || got[1] != "f" {
		t.Fatalf("ids %v names %v", ids, got)
	}
}

func TestHelloAndErrorPayloads(t *testing.T) {
	tok, err := wire.DecodeHello(wire.AppendHello(nil, 0xDEADBEEF))
	if err != nil || tok != 0xDEADBEEF {
		t.Fatalf("token %x err %v", tok, err)
	}
	if _, err := wire.DecodeHello([]byte{1, 2}); err == nil {
		t.Fatal("short hello must fail")
	}
	if got := wire.DecodeErrorPayload(wire.AppendErrorPayload(nil, "boom")); got != "boom" {
		t.Fatalf("error payload %q", got)
	}
}

// buildNumericBatch encodes a batch frame of numeric-only insert ops —
// the steady-state shape the zero-allocation guarantee covers (strings
// inherently cost one allocation each on decode).
func buildNumericBatch(ops int) []byte {
	e := &entity.Entity{}
	e.Set(0, entity.Int(42))
	e.Set(3, entity.Float(2.5))
	e.Set(17, entity.Int(-7))
	payload := binary.AppendUvarint(nil, uint64(ops))
	for i := 0; i < ops; i++ {
		payload = append(payload, wire.BatchInsert)
		payload = e.Marshal(payload)
	}
	return wire.AppendFrame(nil, wire.OpBatch, 99, payload)
}

// decodeBatchFrame is the server's request decode path: frame read plus
// per-op entity decode into a reused scratch entity.
func decodeBatchFrame(rd *bytes.Reader, raw []byte, buf *[]byte, scratch *entity.Entity) (int, error) {
	rd.Reset(raw)
	f, err := wire.ReadFrame(rd, buf, wire.DefaultMaxFrame)
	if err != nil {
		return 0, err
	}
	n, pos, err := wire.ReadUvarint(f.Payload, 0)
	if err != nil {
		return 0, err
	}
	decoded := 0
	for i := uint64(0); i < n; i++ {
		if f.Payload[pos] != wire.BatchInsert {
			return decoded, errors.New("unexpected op kind")
		}
		pos++
		used, err := entity.UnmarshalInto(scratch, f.Payload[pos:])
		if err != nil {
			return decoded, err
		}
		pos += used
		decoded++
	}
	return decoded, nil
}

// TestDecodeSteadyStateZeroAlloc is the allocation guard for the
// acceptance criterion: the binary request decode path (frame read +
// entity decode) must not allocate once its buffers are warm.
func TestDecodeSteadyStateZeroAlloc(t *testing.T) {
	raw := buildNumericBatch(64)
	rd := bytes.NewReader(raw)
	var buf []byte
	var scratch entity.Entity

	var decodeErr error
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := decodeBatchFrame(rd, raw, &buf, &scratch); err != nil {
			decodeErr = err
		}
	})
	if decodeErr != nil {
		t.Fatal(decodeErr)
	}
	if allocs != 0 {
		t.Fatalf("steady-state decode: %v allocs/run, want 0", allocs)
	}
}

func BenchmarkWireDecodeBatch64(b *testing.B) {
	raw := buildNumericBatch(64)
	rd := bytes.NewReader(raw)
	var buf []byte
	var scratch entity.Entity
	b.ReportAllocs()
	b.SetBytes(int64(len(raw)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := decodeBatchFrame(rd, raw, &buf, &scratch); err != nil {
			b.Fatal(err)
		}
	}
}
