package storage

import "cinderella/internal/synopsis"

// SegView is an immutable snapshot of a segment: the page chain, the
// attribute-presence matrix, and the live counters as of View(). It
// stays valid — and returns exactly the captured state — under any
// concurrent mutation of the segment, without locks:
//
//   - The view owns a private copy of the outer page array, so the
//     segment may grow or swap elements freely.
//   - Iteration is bounded by the matrix capture: the kernel walks only
//     positions below the captured slot count and maps them to pages
//     through the captured pageBase, so the mutable page header and any
//     appended slots/payloads are never read.
//   - Deletes and vacuums copy pages (and the live bitset) instead of
//     mutating them, so everything reachable from a view is frozen.
//
// ScanBitmap (bitmap.go) is the view's one scan entry point.
type SegView struct {
	pages   []*Page
	bm      bitmat
	live    int
	bytes   int64
	stats   *Stats
	cache   *BufferCache
	cacheID uint64
}

// View publishes the segment's current state as an immutable view. The
// caller must hold the segment's exclusive lock (the table layer calls it
// at the end of each mutation, before releasing the write lock).
func (s *Segment) View() SegView {
	s.bm.synShared = true
	pages := make([]*Page, len(s.pages))
	copy(pages, s.pages)
	return SegView{
		pages:   pages,
		bm:      s.bm,
		live:    s.live,
		bytes:   s.bytes,
		stats:   s.stats,
		cache:   s.cache,
		cacheID: s.cacheID,
	}
}

// NumRecords returns the live record count at capture time.
func (v *SegView) NumRecords() int { return v.live }

// LiveBytes returns the live payload bytes at capture time.
func (v *SegView) LiveBytes() int64 { return v.bytes }

// Synopsis returns the attributes the live records carried at capture
// time. The set is frozen; callers must not modify it.
func (v *SegView) Synopsis() *synopsis.Set { return v.bm.syn }

// Record returns the payload bytes of a candidate yielded by ScanBitmap.
// The slice aliases frozen page memory and stays valid for the view's
// lifetime. No additional I/O is charged: ScanBitmap already accounted
// for every live record of the view.
func (v *SegView) Record(id RecordID) []byte {
	off, n := v.pages[id.Page].slot(id.Slot)
	return v.pages[id.Page].buf[off : off+n]
}
