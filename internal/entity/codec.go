package entity

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Marshal encodes the entity into a compact binary record:
//
//	uvarint fieldCount
//	per field: uvarint attrId, byte kind, payload
//
// Integer and float payloads are fixed 8 bytes; strings are uvarint length
// plus bytes. The encoding is deterministic (fields are sorted by id).
func (e *Entity) Marshal(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(e.fields)))
	for _, f := range e.fields {
		dst = binary.AppendUvarint(dst, uint64(f.Attr))
		dst = append(dst, byte(f.Value.kind))
		switch f.Value.kind {
		case KindInt:
			dst = binary.LittleEndian.AppendUint64(dst, uint64(f.Value.i))
		case KindFloat:
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(f.Value.f))
		case KindString:
			dst = binary.AppendUvarint(dst, uint64(len(f.Value.s)))
			dst = append(dst, f.Value.s...)
		}
	}
	return dst
}

// Unmarshal decodes a record produced by Marshal. It returns the decoded
// entity and the number of bytes consumed.
func Unmarshal(src []byte) (*Entity, int, error) {
	e := &Entity{}
	n, err := UnmarshalInto(e, src)
	if err != nil {
		return nil, 0, err
	}
	return e, n, nil
}

// UnmarshalInto decodes a record produced by Marshal into dst, reusing
// dst's field storage. It returns the number of bytes consumed. On error
// dst is left in an unspecified state. In steady state (dst's field
// slice has grown to the workload's arity) a decode of numeric fields
// allocates nothing; each string value costs exactly one allocation —
// the copy out of the caller's (typically pooled and reused) buffer.
func UnmarshalInto(dst *Entity, src []byte) (int, error) {
	dst.fields = dst.fields[:0]
	dst.syn = nil
	dst.size = 0
	n, off := binary.Uvarint(src)
	if off <= 0 {
		return 0, fmt.Errorf("entity: corrupt record header")
	}
	// A field occupies at least 3 bytes (attr id, kind, empty-string
	// length), so any larger count is corrupt; checking up front bounds
	// the allocation below against hostile headers.
	if n > uint64(len(src)-off)/3 {
		return 0, fmt.Errorf("entity: field count %d exceeds record size", n)
	}
	// The header names the exact arity: size the field slice once instead
	// of letting append grow it a word at a time (scan decodes are the
	// hottest allocation site in the system).
	if uint64(cap(dst.fields)) < n {
		dst.fields = make([]Field, 0, n)
	}
	const maxAttr = 1 << 31 // dictionary ids are small and dense
	for i := uint64(0); i < n; i++ {
		attr, k := binary.Uvarint(src[off:])
		if k <= 0 {
			return 0, fmt.Errorf("entity: corrupt attribute id at offset %d", off)
		}
		if attr > maxAttr {
			return 0, fmt.Errorf("entity: implausible attribute id %d", attr)
		}
		off += k
		if off >= len(src) {
			return 0, fmt.Errorf("entity: truncated record")
		}
		kind := ValueKind(src[off])
		off++
		var v Value
		switch kind {
		case KindInt:
			if off+8 > len(src) {
				return 0, fmt.Errorf("entity: truncated int value")
			}
			v = Int(int64(binary.LittleEndian.Uint64(src[off:])))
			off += 8
		case KindFloat:
			if off+8 > len(src) {
				return 0, fmt.Errorf("entity: truncated float value")
			}
			v = Float(math.Float64frombits(binary.LittleEndian.Uint64(src[off:])))
			off += 8
		case KindString:
			l, k := binary.Uvarint(src[off:])
			if k <= 0 {
				return 0, fmt.Errorf("entity: corrupt string length at offset %d", off)
			}
			off += k
			// Compare in uint64 space: a hostile length must not be
			// truncated to a negative int before the bounds check.
			if l > uint64(len(src)-off) {
				return 0, fmt.Errorf("entity: truncated string value")
			}
			v = Str(string(src[off : off+int(l)]))
			off += int(l)
		default:
			return 0, fmt.Errorf("entity: unknown value kind %d", kind)
		}
		// Records are written sorted, so appending keeps the invariant;
		// fall back to Set if an out-of-order record sneaks in.
		if m := len(dst.fields); m > 0 && dst.fields[m-1].Attr >= int(attr) {
			dst.Set(int(attr), v)
			continue
		}
		dst.fields = append(dst.fields, Field{Attr: int(attr), Value: v})
		dst.size += fieldOverhead + v.Size()
	}
	return off, nil
}
