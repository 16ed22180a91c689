package storage

import (
	"testing"
)

func TestCacheHitMiss(t *testing.T) {
	c := NewBufferCache(2)
	if c.touch(1, 0) { // first access: miss
		t.Fatal("first access should miss")
	}
	if !c.touch(1, 0) { // second access: hit
		t.Fatal("repeat access should hit")
	}
	h, m := c.Stats()
	if h != 1 || m != 1 {
		t.Fatalf("stats = %d/%d", h, m)
	}
	if c.HitRatio() != 0.5 {
		t.Fatalf("ratio = %v", c.HitRatio())
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := NewBufferCache(2)
	c.touch(1, 0) // miss, cache [0]
	c.touch(1, 1) // miss, cache [1,0]
	c.touch(1, 0) // hit,  cache [0,1]
	c.touch(1, 2) // miss, evicts 1 -> cache [2,0]
	if !c.touch(1, 0) {
		t.Fatal("page 0 should still be resident")
	}
	if c.touch(1, 1) {
		t.Fatal("page 1 should have been evicted")
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d", c.Len())
	}
}

func TestCacheCapacityClamp(t *testing.T) {
	c := NewBufferCache(0)
	c.touch(1, 0)
	c.touch(1, 1)
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
	}
}

func TestCacheSegmentsIsolated(t *testing.T) {
	c := NewBufferCache(10)
	c.touch(1, 0)
	if c.touch(2, 0) {
		t.Fatal("page 0 of another segment should miss")
	}
}

func TestCacheEvictSegment(t *testing.T) {
	c := NewBufferCache(10)
	c.touch(1, 0)
	c.touch(1, 1)
	c.touch(2, 0)
	c.evictSegment(1)
	if c.Len() != 1 {
		t.Fatalf("Len = %d after evictSegment", c.Len())
	}
	if c.touch(1, 0) {
		t.Fatal("evicted page hit")
	}
	if !c.touch(2, 0) {
		t.Fatal("other segment's page evicted")
	}
}

func TestCacheReset(t *testing.T) {
	c := NewBufferCache(4)
	c.touch(1, 0)
	c.Reset()
	if h, m := c.Stats(); h != 0 || m != 0 {
		t.Fatal("Reset did not zero counters")
	}
	// Residency survives Reset.
	if !c.touch(1, 0) {
		t.Fatal("Reset evicted pages")
	}
	if c.HitRatio() != 1 {
		t.Fatalf("ratio = %v", c.HitRatio())
	}
}

func TestSegmentCacheIntegration(t *testing.T) {
	c := NewBufferCache(100)
	seg := NewSegment(nil)
	seg.AttachCache(c)
	rec := make([]byte, 3000)
	var ids []RecordID
	for i := 0; i < 6; i++ { // 2 per page -> 3 pages
		id, err := seg.InsertTagged(rec, nil)
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	seg.Scan(func(RecordID, []byte) bool { return true })
	_, m := c.Stats()
	if m != 3 {
		t.Fatalf("cold scan misses = %d, want 3", m)
	}
	seg.Scan(func(RecordID, []byte) bool { return true })
	h, _ := c.Stats()
	if h != 3 {
		t.Fatalf("warm scan hits = %d, want 3", h)
	}
	// Point reads touch the cache too.
	c.Reset()
	if _, err := seg.Read(ids[0]); err != nil {
		t.Fatal(err)
	}
	if h, _ := c.Stats(); h != 1 {
		t.Fatalf("point read hits = %d", h)
	}
}

func TestSegmentWithoutCache(t *testing.T) {
	seg := NewSegment(nil)
	seg.InsertTagged([]byte("x"), nil)
	// Must not panic without a cache attached.
	seg.Scan(func(RecordID, []byte) bool { return true })
	seg.DropFromCache()
}

func TestTwoSegmentsShareCache(t *testing.T) {
	c := NewBufferCache(1)
	a, b := NewSegment(nil), NewSegment(nil)
	a.AttachCache(c)
	b.AttachCache(c)
	a.InsertTagged([]byte("a"), nil)
	b.InsertTagged([]byte("b"), nil)
	a.Scan(func(RecordID, []byte) bool { return true }) // miss, resident: a0
	b.Scan(func(RecordID, []byte) bool { return true }) // miss, evicts a0
	a.Scan(func(RecordID, []byte) bool { return true }) // miss again
	h, m := c.Stats()
	if h != 0 || m != 3 {
		t.Fatalf("thrash stats = %d/%d, want 0/3", h, m)
	}
}
