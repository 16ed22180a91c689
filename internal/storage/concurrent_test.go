package storage

import (
	"fmt"
	"sync"
	"testing"
)

// TestSegmentConcurrentReaders validates the documented reader contract:
// Read and Scan from many goroutines at once (no writer) are race-free,
// including the internally synchronized Stats and BufferCache updates.
// Run under -race this guards the table layer's parallel scan workers.
func TestSegmentConcurrentReaders(t *testing.T) {
	stats := &Stats{}
	seg := NewSegment(stats)
	seg.AttachCache(NewBufferCache(4))
	var ids []RecordID
	for i := 0; i < 500; i++ {
		id, err := seg.InsertTagged([]byte(fmt.Sprintf("record-%04d-%s", i, "padding-padding-padding")), nil)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}

	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for iter := 0; iter < 20; iter++ {
				if r%2 == 0 {
					n := 0
					seg.Scan(func(_ RecordID, rec []byte) bool {
						if len(rec) == 0 {
							t.Error("empty record during concurrent scan")
							return false
						}
						n++
						return true
					})
					if n != len(ids) {
						t.Errorf("scan saw %d records, want %d", n, len(ids))
					}
				} else {
					for _, id := range ids {
						if _, err := seg.Read(id); err != nil {
							t.Errorf("Read(%v): %v", id, err)
						}
					}
				}
			}
		}(r)
	}
	wg.Wait()

	if got := seg.NumRecords(); got != len(ids) {
		t.Fatalf("NumRecords = %d, want %d", got, len(ids))
	}
}
