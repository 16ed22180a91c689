package storage

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPageInsertRead(t *testing.T) {
	p := NewPage()
	recs := [][]byte{[]byte("alpha"), []byte("beta"), []byte("gamma")}
	var slots []int
	for _, r := range recs {
		s, err := p.Insert(r)
		if err != nil {
			t.Fatal(err)
		}
		slots = append(slots, s)
	}
	if slots[0] != 0 || slots[1] != 1 || slots[2] != 2 {
		t.Fatalf("slots = %v", slots)
	}
	for i, r := range recs {
		got, ok := p.Read(slots[i])
		if !ok || !bytes.Equal(got, r) {
			t.Fatalf("Read(%d) = %q,%v want %q", slots[i], got, ok, r)
		}
	}
	if p.LiveRecords() != 3 {
		t.Fatalf("LiveRecords = %d", p.LiveRecords())
	}
	if p.LiveBytes() != 5+4+5 {
		t.Fatalf("LiveBytes = %d", p.LiveBytes())
	}
}

func TestPageReadOutOfRange(t *testing.T) {
	p := NewPage()
	if _, ok := p.Read(0); ok {
		t.Fatal("Read on empty page succeeded")
	}
	if _, ok := p.Read(-1); ok {
		t.Fatal("Read(-1) succeeded")
	}
}

func TestPageDelete(t *testing.T) {
	p := NewPage()
	s0, _ := p.Insert([]byte("one"))
	s1, _ := p.Insert([]byte("two"))
	if !p.Delete(s0) {
		t.Fatal("Delete failed")
	}
	if p.Delete(s0) {
		t.Fatal("double Delete succeeded")
	}
	if p.Delete(99) || p.Delete(-1) {
		t.Fatal("Delete out of range succeeded")
	}
	if _, ok := p.Read(s0); ok {
		t.Fatal("read deleted record")
	}
	// Slot numbers stay stable after deletion.
	if got, ok := p.Read(s1); !ok || string(got) != "two" {
		t.Fatalf("Read(s1) = %q,%v", got, ok)
	}
	if p.LiveRecords() != 1 {
		t.Fatalf("LiveRecords = %d", p.LiveRecords())
	}
}

func TestPageFull(t *testing.T) {
	p := NewPage()
	rec := make([]byte, 1000)
	n := 0
	for {
		if _, err := p.Insert(rec); err != nil {
			if err != ErrPageFull {
				t.Fatalf("err = %v, want ErrPageFull", err)
			}
			break
		}
		n++
	}
	// 8192-4 header; each record costs 1000+4 -> 8 records.
	if n != 8 {
		t.Fatalf("fit %d records, want 8", n)
	}
	if p.Fits(1000) {
		t.Fatal("Fits should be false")
	}
	if !p.Fits(100) {
		t.Fatal("Fits(100) should be true")
	}
}

func TestPageRecordTooLarge(t *testing.T) {
	p := NewPage()
	if _, err := p.Insert(make([]byte, MaxRecordSize+1)); err != ErrRecordTooLarge {
		t.Fatalf("err = %v, want ErrRecordTooLarge", err)
	}
	// Exactly max fits in an empty page.
	if _, err := p.Insert(make([]byte, MaxRecordSize)); err != nil {
		t.Fatalf("max record insert: %v", err)
	}
}

func TestPageEmptyRecord(t *testing.T) {
	// Zero-length payloads would be indistinguishable from tombstones, so
	// the table layer never writes them; pages treat them as deleted.
	p := NewPage()
	s, err := p.Insert([]byte{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.Read(s); ok {
		t.Log("zero-length record readable (acceptable)")
	}
}

func TestSegmentInsertReadDelete(t *testing.T) {
	st := &Stats{}
	seg := NewSegment(st)
	var ids []RecordID
	for i := 0; i < 100; i++ {
		id, err := seg.InsertTagged([]byte(fmt.Sprintf("record-%03d", i)), nil)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if seg.NumRecords() != 100 {
		t.Fatalf("NumRecords = %d", seg.NumRecords())
	}
	rec, err := seg.Read(ids[42])
	if err != nil || string(rec) != "record-042" {
		t.Fatalf("Read = %q,%v", rec, err)
	}
	if err := seg.Delete(ids[42]); err != nil {
		t.Fatal(err)
	}
	if _, err := seg.Read(ids[42]); err != ErrNotFound {
		t.Fatalf("Read deleted = %v, want ErrNotFound", err)
	}
	if err := seg.Delete(ids[42]); err != ErrNotFound {
		t.Fatalf("double Delete = %v", err)
	}
	if err := seg.Delete(RecordID{Page: 99, Slot: 0}); err != ErrNotFound {
		t.Fatalf("Delete bad page = %v", err)
	}
	if seg.NumRecords() != 99 {
		t.Fatalf("NumRecords = %d", seg.NumRecords())
	}
}

func TestSegmentSpansPages(t *testing.T) {
	seg := NewSegment(nil)
	rec := make([]byte, 2000)
	for i := 0; i < 20; i++ {
		if _, err := seg.InsertTagged(rec, nil); err != nil {
			t.Fatal(err)
		}
	}
	// 4 per page (2000+4 slot each within 8188 usable) -> 5 pages.
	if seg.NumPages() != 5 {
		t.Fatalf("NumPages = %d, want 5", seg.NumPages())
	}
	if seg.LiveBytes() != 40000 {
		t.Fatalf("LiveBytes = %d", seg.LiveBytes())
	}
}

func TestSegmentScan(t *testing.T) {
	seg := NewSegment(nil)
	var want []string
	for i := 0; i < 50; i++ {
		s := fmt.Sprintf("r%02d", i)
		want = append(want, s)
		if _, err := seg.InsertTagged([]byte(s), nil); err != nil {
			t.Fatal(err)
		}
	}
	var got []string
	seg.Scan(func(id RecordID, rec []byte) bool {
		got = append(got, string(rec))
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("scanned %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("scan order: got[%d]=%q want %q", i, got[i], want[i])
		}
	}
}

func TestSegmentScanEarlyStop(t *testing.T) {
	seg := NewSegment(nil)
	for i := 0; i < 10; i++ {
		seg.InsertTagged([]byte("x"), nil)
	}
	n := 0
	seg.Scan(func(RecordID, []byte) bool {
		n++
		return n < 3
	})
	if n != 3 {
		t.Fatalf("visited %d, want 3", n)
	}
}

func TestSegmentScanSkipsDeleted(t *testing.T) {
	seg := NewSegment(nil)
	var ids []RecordID
	for i := 0; i < 10; i++ {
		id, _ := seg.InsertTagged([]byte{byte('0' + i)}, nil)
		ids = append(ids, id)
	}
	seg.Delete(ids[3])
	seg.Delete(ids[7])
	n := 0
	seg.Scan(func(id RecordID, rec []byte) bool {
		if id == ids[3] || id == ids[7] {
			t.Fatal("scan visited deleted record")
		}
		n++
		return true
	})
	if n != 8 {
		t.Fatalf("scanned %d, want 8", n)
	}
}

func TestStatsAccounting(t *testing.T) {
	st := &Stats{}
	seg := NewSegment(st)
	seg.InsertTagged(make([]byte, 100), nil)
	seg.InsertTagged(make([]byte, 200), nil)
	_, pw, _, bw, _ := st.Snapshot()
	if pw != 2 || bw != 300 {
		t.Fatalf("writes: pages=%d bytes=%d", pw, bw)
	}
	st.Reset()
	seg.Scan(func(RecordID, []byte) bool { return true })
	pr, _, br, _, rr := st.Snapshot()
	if pr != 1 {
		t.Fatalf("PagesRead = %d, want 1", pr)
	}
	if br != 300 {
		t.Fatalf("BytesRead = %d, want 300", br)
	}
	if rr != 2 {
		t.Fatalf("RecordsRead = %d, want 2", rr)
	}
}

func TestSegmentSharedStats(t *testing.T) {
	st := &Stats{}
	a, b := NewSegment(st), NewSegment(st)
	a.InsertTagged(make([]byte, 10), nil)
	b.InsertTagged(make([]byte, 20), nil)
	_, pw, _, bw, _ := st.Snapshot()
	if pw != 2 || bw != 30 {
		t.Fatalf("shared stats: pages=%d bytes=%d", pw, bw)
	}
}

func TestPropPageRoundTrip(t *testing.T) {
	f := func(payloads [][]byte) bool {
		p := NewPage()
		type ins struct {
			slot int
			rec  []byte
		}
		var inserted []ins
		for _, r := range payloads {
			if len(r) == 0 || len(r) > 512 {
				continue
			}
			s, err := p.Insert(r)
			if err != nil {
				break
			}
			inserted = append(inserted, ins{s, r})
		}
		for _, in := range inserted {
			got, ok := p.Read(in.slot)
			if !ok || !bytes.Equal(got, in.rec) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPropSegmentLiveBytesInvariant(t *testing.T) {
	// LiveBytes always equals the sum of live record lengths, under any
	// interleaving of inserts and deletes.
	f := func(ops []uint16) bool {
		seg := NewSegment(nil)
		rng := rand.New(rand.NewSource(42))
		var ids []RecordID
		lens := map[RecordID]int{}
		for _, op := range ops {
			if op%3 != 0 || len(ids) == 0 {
				n := int(op%300) + 1
				id, err := seg.InsertTagged(make([]byte, n), nil)
				if err != nil {
					return false
				}
				ids = append(ids, id)
				lens[id] = n
			} else {
				i := rng.Intn(len(ids))
				id := ids[i]
				seg.Delete(id)
				delete(lens, id)
				ids = append(ids[:i], ids[i+1:]...)
			}
		}
		var want int64
		for _, n := range lens {
			want += int64(n)
		}
		return seg.LiveBytes() == want && seg.NumRecords() == len(lens)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSegmentInsert(b *testing.B) {
	seg := NewSegment(nil)
	rec := make([]byte, 120)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := seg.InsertTagged(rec, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSegmentScan(b *testing.B) {
	seg := NewSegment(nil)
	rec := make([]byte, 120)
	for i := 0; i < 10000; i++ {
		seg.InsertTagged(rec, nil)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		seg.Scan(func(RecordID, []byte) bool { n++; return true })
		if n != 10000 {
			b.Fatal("bad scan")
		}
	}
}

func TestSegmentVacuum(t *testing.T) {
	seg := NewSegment(nil)
	rec := make([]byte, 2000) // 4 per page
	var ids []RecordID
	for i := 0; i < 20; i++ {
		id, _ := seg.InsertTagged(rec, nil)
		ids = append(ids, id)
	}
	// Delete 3 of every 4 records: pages become mostly dead.
	kept := map[RecordID]bool{}
	for i, id := range ids {
		if i%4 == 0 {
			kept[id] = true
			continue
		}
		seg.Delete(id)
	}
	before := seg.NumPages()
	remap := seg.Vacuum()
	if len(remap) != len(kept) {
		t.Fatalf("remap size = %d, want %d", len(remap), len(kept))
	}
	if seg.NumPages() >= before {
		t.Fatalf("vacuum did not shrink: %d -> %d", before, seg.NumPages())
	}
	if seg.NumRecords() != len(kept) {
		t.Fatalf("records after vacuum = %d", seg.NumRecords())
	}
	for old, nid := range remap {
		if !kept[old] {
			t.Fatalf("vacuum kept deleted record %v", old)
		}
		if _, err := seg.Read(nid); err != nil {
			t.Fatalf("remapped record unreadable: %v", err)
		}
	}
	if seg.LiveBytes() != int64(len(kept)*2000) {
		t.Fatalf("LiveBytes = %d", seg.LiveBytes())
	}
}

func TestSegmentVacuumEmpty(t *testing.T) {
	seg := NewSegment(nil)
	if remap := seg.Vacuum(); len(remap) != 0 {
		t.Fatal("vacuum of empty segment returned mappings")
	}
	id, _ := seg.InsertTagged([]byte("x"), nil)
	seg.Delete(id)
	seg.Vacuum()
	if seg.NumPages() != 0 || seg.NumRecords() != 0 {
		t.Fatalf("fully-deleted segment not emptied: %d pages", seg.NumPages())
	}
}
