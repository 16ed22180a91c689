package storage

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"cinderella/internal/synopsis"
)

// buildSegment fills a segment with n deterministic records tagged with
// rotating synopses and returns the expected id → payload map.
func buildSegment(t *testing.T, stats *Stats, n int, seed int64) (*Segment, map[RecordID]string) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	seg := NewSegment(stats)
	want := make(map[RecordID]string, n)
	for i := 0; i < n; i++ {
		rec := fmt.Sprintf("record-%d-%d-%s", seed, i, string(make([]byte, rng.Intn(200))))
		id, err := seg.InsertTagged([]byte(rec), synopsis.Of(i%7))
		if err != nil {
			t.Fatal(err)
		}
		want[id] = rec
	}
	return seg, want
}

func TestColdFreezeScanRoundTrip(t *testing.T) {
	stats := &Stats{}
	seg, want := buildSegment(t, stats, 500, 1)
	cold := FreezeSegment(seg)

	if cold.NumRecords() != seg.NumRecords() || cold.LiveBytes() != seg.LiveBytes() {
		t.Fatalf("cold counters %d/%d, want %d/%d",
			cold.NumRecords(), cold.LiveBytes(), seg.NumRecords(), seg.LiveBytes())
	}
	if cold.CompressedBytes() >= cold.RawBytes() {
		t.Fatalf("no compression: %d >= %d", cold.CompressedBytes(), cold.RawBytes())
	}

	got := make(map[RecordID]string)
	v := cold.View()
	var sc BitmapScratch
	cands, _, err := v.ScanBitmap(allLive, &sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range cands {
		got[id] = string(v.Record(id))
	}
	if len(got) != len(want) {
		t.Fatalf("scanned %d records, want %d", len(got), len(want))
	}
	for id, rec := range want {
		if got[id] != rec {
			t.Fatalf("record %v = %q, want %q", id, got[id], rec)
		}
	}

	// The scan decompressed every block exactly once and charged the
	// cold counters for each raw page.
	cp, cb := stats.ColdSnapshot()
	if cp != int64(cold.NumPages()) || cb != cold.RawBytes() {
		t.Fatalf("cold charges %d pages/%d bytes, want %d/%d", cp, cb, cold.NumPages(), cold.RawBytes())
	}
	if cold.ColdReads() != int64(len(cold.blocks)) {
		t.Fatalf("ColdReads = %d, want %d blocks", cold.ColdReads(), len(cold.blocks))
	}
}

func TestColdThawPreservesRecordIDs(t *testing.T) {
	stats := &Stats{}
	seg, want := buildSegment(t, stats, 300, 2)
	cold := FreezeSegment(seg)
	thawed := cold.Thaw()

	if thawed.NumRecords() != len(want) {
		t.Fatalf("thawed %d records, want %d", thawed.NumRecords(), len(want))
	}
	for id, rec := range want {
		got, err := thawed.Read(id)
		if err != nil {
			t.Fatalf("read %v after thaw: %v", id, err)
		}
		if string(got) != rec {
			t.Fatalf("record %v changed across freeze/thaw", id)
		}
	}

	// The thawed segment is mutable and must not corrupt still-live
	// cold views: append and delete, then verify the cold view again.
	if _, err := thawed.InsertTagged([]byte("appended-after-thaw"), nil); err != nil {
		t.Fatal(err)
	}
	var anyID RecordID
	for id := range want {
		anyID = id
		break
	}
	if err := thawed.Delete(anyID); err != nil {
		t.Fatal(err)
	}
	v := cold.View()
	var sc BitmapScratch
	cands, _, err := v.ScanBitmap(allLive, &sc)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range cands {
		if string(v.Record(id)) != want[id] {
			t.Fatalf("cold view of %v changed after thawed-segment mutation", id)
		}
	}
	if len(cands) != len(want) {
		t.Fatalf("cold view sees %d records after mutations, want %d", len(cands), len(want))
	}
}

func TestColdEncodeDecodeRoundTrip(t *testing.T) {
	seg, _ := buildSegment(t, nil, 400, 3)
	cold := FreezeSegment(seg)
	img := cold.Encode()

	dec, err := DecodeColdSegment(img, nil)
	if err != nil {
		t.Fatal(err)
	}
	if dec.NumPages() != cold.NumPages() || dec.NumRecords() != cold.NumRecords() ||
		dec.LiveBytes() != cold.LiveBytes() || dec.CompressedBytes() != cold.CompressedBytes() {
		t.Fatalf("decoded counters differ: %+v", dec)
	}
	// Page images must round-trip exactly.
	for pi := 0; pi < cold.NumPages(); pi++ {
		if dec.page(pi).buf != cold.page(pi).buf {
			t.Fatalf("page %d differs after encode/decode", pi)
		}
	}
}

// TestColdCorruptionRefused flips, truncates, and extends the encoded
// image and requires every damaged variant to be refused with
// ErrColdCorrupt — the same torn-file contract as the shard manifest.
func TestColdCorruptionRefused(t *testing.T) {
	seg, _ := buildSegment(t, nil, 400, 4)
	img := FreezeSegment(seg).Encode()

	damage := map[string][]byte{
		"short-header":    img[:coldHeaderSize-10],
		"truncated-block": img[:len(img)-100],
		"trailing-bytes":  append(append([]byte(nil), img...), 0xAA),
		"empty":           {},
	}
	flip := func(at int) []byte {
		d := append([]byte(nil), img...)
		d[at] ^= 0xFF
		return d
	}
	damage["bad-magic"] = flip(0)
	damage["bad-header-field"] = flip(9)
	damage["bad-block-byte"] = flip(coldHeaderSize + 20)
	damage["bad-last-byte"] = flip(len(img) - 1)

	for name, d := range damage {
		if _, err := DecodeColdSegment(d, nil); !errors.Is(err, ErrColdCorrupt) {
			t.Fatalf("%s: err = %v, want ErrColdCorrupt", name, err)
		}
	}

	// The intact image still opens (the damage helpers copied).
	if _, err := DecodeColdSegment(img, nil); err != nil {
		t.Fatalf("intact image refused: %v", err)
	}
}

func TestColdOpenFile(t *testing.T) {
	dir := t.TempDir()
	seg, _ := buildSegment(t, nil, 200, 5)
	img := FreezeSegment(seg).Encode()
	path := filepath.Join(dir, "cold-1.seg")
	if err := os.WriteFile(path, img, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenColdSegmentFile(path, nil); err != nil {
		t.Fatal(err)
	}
	// Torn on disk: truncate in place.
	if err := os.Truncate(path, int64(len(img)-37)); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenColdSegmentFile(path, nil); !errors.Is(err, ErrColdCorrupt) {
		t.Fatalf("torn file err = %v, want ErrColdCorrupt", err)
	}
	// Missing file: the fs error, not a corruption verdict.
	if _, err := OpenColdSegmentFile(filepath.Join(dir, "absent.seg"), nil); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing file err = %v, want ErrNotExist", err)
	}
}

// TestColdPointReadChargesCache verifies the admission path: point
// reads touch the buffer cache under the cold identity and charge
// ordinary + cold I/O.
func TestColdPointReadChargesCache(t *testing.T) {
	stats := &Stats{}
	seg, want := buildSegment(t, stats, 100, 6)
	cache := NewBufferCache(32)
	seg.AttachCache(cache)
	cold := FreezeSegment(seg)

	var ids []RecordID
	for id := range want {
		ids = append(ids, id)
	}
	stats.Reset()
	cache.Reset()
	if _, err := cold.Read(ids[0]); err != nil {
		t.Fatal(err)
	}
	if _, m := cache.Stats(); m != 1 {
		t.Fatalf("first cold read cache misses = %d, want 1", m)
	}
	if _, err := cold.Read(ids[0]); err != nil {
		t.Fatal(err)
	}
	if h, _ := cache.Stats(); h != 1 {
		t.Fatalf("repeat cold read cache hits = %d, want 1", h)
	}
	pr, _, _, _, rr := stats.Snapshot()
	if pr != 2 || rr != 2 {
		t.Fatalf("ordinary charges pages=%d records=%d, want 2/2", pr, rr)
	}
	if cp, _ := stats.ColdSnapshot(); cp == 0 {
		t.Fatal("no cold pages charged for the first decompression")
	}
}
