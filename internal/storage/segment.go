package storage

import (
	"errors"
	"sync/atomic"

	"cinderella/internal/synopsis"
)

// ErrNotFound is returned when a record id does not resolve to a live record.
var ErrNotFound = errors.New("storage: record not found")

// RecordID identifies a record inside a segment: page index + slot.
type RecordID struct {
	Page int
	Slot int
}

// Stats counts simulated I/O. All experiments read these counters to
// report "how much data was actually read", independent of wall time.
// The counters are atomics: parallel partition scans and lock-free
// snapshot readers charge them concurrently without serializing on a
// mutex (which used to be the single shared lock on the scan hot path).
type Stats struct {
	pagesRead   atomic.Int64
	pagesWrit   atomic.Int64
	bytesRead   atomic.Int64
	bytesWrit   atomic.Int64
	recordsRead atomic.Int64

	// Cold-tier reads: pages and raw bytes inflated from compressed
	// cold blocks, charged on top of the ordinary read counters so the
	// cost of touching the cold tier stays separately visible (and
	// "pruning read zero cold bytes" is a checkable claim).
	coldPagesRead atomic.Int64
	coldBytesRead atomic.Int64
}

// Reset zeroes all counters.
func (s *Stats) Reset() {
	s.pagesRead.Store(0)
	s.pagesWrit.Store(0)
	s.bytesRead.Store(0)
	s.bytesWrit.Store(0)
	s.recordsRead.Store(0)
	s.coldPagesRead.Store(0)
	s.coldBytesRead.Store(0)
}

// Snapshot returns a copy of the counters.
func (s *Stats) Snapshot() (pagesRead, pagesWrit, bytesRead, bytesWrit, recordsRead int64) {
	return s.pagesRead.Load(), s.pagesWrit.Load(), s.bytesRead.Load(),
		s.bytesWrit.Load(), s.recordsRead.Load()
}

// ColdSnapshot returns the cold-tier read counters: pages and raw bytes
// decompressed from frozen blocks since the last Reset.
func (s *Stats) ColdSnapshot() (coldPagesRead, coldBytesRead int64) {
	return s.coldPagesRead.Load(), s.coldBytesRead.Load()
}

func (s *Stats) addRead(pages, bytes, records int64) {
	s.pagesRead.Add(pages)
	s.bytesRead.Add(bytes)
	s.recordsRead.Add(records)
}

func (s *Stats) addColdRead(pages, bytes int64) {
	s.coldPagesRead.Add(pages)
	s.coldBytesRead.Add(bytes)
}

func (s *Stats) addWrite(pages, bytes int64) {
	s.pagesWrit.Add(pages)
	s.bytesWrit.Add(bytes)
}

// Segment is a heap file: an append-oriented chain of slotted pages. One
// segment backs one partition.
//
// Alongside the pages the segment maintains the attribute-presence
// matrix (see bitmap.go): one bitset per attribute over slot positions,
// which lets scans over a published view evaluate a query 64 records
// per word op and decode only records that can match.
//
// Concurrency: mutations (InsertTagged, Delete, Vacuum) require
// exclusive access. Lock-free readers never touch a Segment directly —
// they scan a SegView published by View() (see view.go), which stays
// valid under concurrent mutation because mutations follow two rules:
//
//   - Inserts only append: a new slot, its payload (written below the
//     previous free offset), the page header, and matrix bits at a fresh
//     position are the only memory touched, and no published view reads
//     any of it — views bound their iteration by the position count
//     captured at View() time.
//   - Everything else copies: Delete clones the 8 KiB page and the live
//     bitset and swaps the clones in; Vacuum rebuilds the chain and the
//     matrix from scratch. Nothing reachable from a view is mutated.
//
// A partition that a split or merge dissolves needs neither: its records
// are read in place, appended to their new segments, and the whole
// segment is dropped inside the same mutation (see table.onPlacement),
// so no view ever sees it half emptied and no page is cloned.
//
// The Stats counters and the optional BufferCache are internally
// synchronized, so callers holding a shared lock (Read, Scan) may run
// concurrently with each other.
type Segment struct {
	pages   []*Page
	bm      bitmat
	stats   *Stats
	live    int   // live record count
	bytes   int64 // live payload bytes
	cache   *BufferCache
	cacheID uint64
}

// NewSegment returns an empty segment charging I/O to stats. A nil stats
// is replaced with a private counter, so the zero-config path still works.
func NewSegment(stats *Stats) *Segment {
	if stats == nil {
		stats = &Stats{}
	}
	return &Segment{stats: stats}
}

// InsertTagged appends a record together with its attribute synopsis
// (nil = no attributes) and returns its id. Insertion tries the last
// page first and allocates a new page when the record does not fit,
// matching heap file append behaviour. The synopsis is transposed into
// the presence matrix and not retained.
func (s *Segment) InsertTagged(rec []byte, syn *synopsis.Set) (RecordID, error) {
	id, err := s.place(rec)
	if err != nil {
		return RecordID{}, err
	}
	if id.Slot == 0 {
		s.bm.notePage() // slots are never reused: slot 0 means a fresh page
	}
	s.bm.noteInsert(syn)
	return id, nil
}

// place writes rec into the page chain and updates the live counters,
// leaving the matrix to the caller.
func (s *Segment) place(rec []byte) (RecordID, error) {
	if len(rec) > MaxRecordSize {
		return RecordID{}, ErrRecordTooLarge
	}
	n := len(s.pages)
	if n == 0 || !s.pages[n-1].Fits(len(rec)) {
		s.pages = append(s.pages, NewPage())
		n++
	}
	slot, err := s.pages[n-1].Insert(rec)
	if err != nil {
		return RecordID{}, err
	}
	s.live++
	s.bytes += int64(len(rec))
	s.stats.addWrite(1, int64(len(rec)))
	return RecordID{Page: n - 1, Slot: slot}, nil
}

// Read returns the record bytes for id. The returned slice aliases page
// memory and is valid until the record is deleted.
func (s *Segment) Read(id RecordID) ([]byte, error) {
	if id.Page < 0 || id.Page >= len(s.pages) {
		return nil, ErrNotFound
	}
	rec, ok := s.pages[id.Page].Read(id.Slot)
	if !ok {
		return nil, ErrNotFound
	}
	s.touchPage(id.Page)
	s.stats.addRead(1, int64(len(rec)), 1)
	return rec, nil
}

// Delete tombstones the record for id. The page and the live bitset are
// copied, mutated, and swapped in — published views keep reading the
// pre-delete state.
func (s *Segment) Delete(id RecordID) error {
	if id.Page < 0 || id.Page >= len(s.pages) {
		return ErrNotFound
	}
	rec, ok := s.pages[id.Page].Read(id.Slot)
	if !ok {
		return ErrNotFound
	}
	n := int64(len(rec))
	np := s.pages[id.Page].clone()
	if !np.Delete(id.Slot) {
		return ErrNotFound
	}
	s.pages[id.Page] = np
	s.bm.noteDelete(id.Page, id.Slot)
	s.live--
	s.bytes -= n
	s.stats.addWrite(1, 0)
	return nil
}

// Scan iterates all live records in storage order, charging one page read
// per page and the live bytes of each visited record. Iteration stops
// early if fn returns false.
func (s *Segment) Scan(fn func(id RecordID, rec []byte) bool) {
	for pi, p := range s.pages {
		s.touchPage(pi)
		s.stats.addRead(1, 0, 0)
		for slot := 0; slot < p.NumSlots(); slot++ {
			rec, ok := p.Read(slot)
			if !ok {
				continue
			}
			s.stats.addRead(0, int64(len(rec)), 1)
			if !fn(RecordID{Page: pi, Slot: slot}, rec) {
				return
			}
		}
	}
}

// Vacuum rewrites the segment without tombstones, reclaiming the space of
// deleted records and dropping empty pages. The presence matrix moves
// with the records by position compaction (bitmat.compact). Record ids
// change; the returned map gives old → new ids for the caller to remap
// its indexes. The rewrite is charged to the write counters like a
// physical copy. Published views keep the old page chain and matrix.
func (s *Segment) Vacuum() map[RecordID]RecordID {
	remap := make(map[RecordID]RecordID, s.live)
	old := s.pages
	s.pages = nil
	s.live = 0
	s.bytes = 0
	s.DropFromCache()
	if s.cacheID != 0 {
		// Still-live views of the old chain keep touching the old
		// cacheID; a fresh identity stops them from aliasing the rebuilt
		// chain's pages in the cache.
		s.cacheID = segmentIDs.Add(1)
	}
	var pageBase []int
	for pi, p := range old {
		for slot := 0; slot < p.NumSlots(); slot++ {
			rec, ok := p.Read(slot)
			if !ok {
				continue
			}
			nid, err := s.place(rec)
			if err != nil {
				panic("storage: vacuum re-insert failed: " + err.Error())
			}
			if nid.Slot == 0 {
				pageBase = append(pageBase, len(remap))
			}
			remap[RecordID{Page: pi, Slot: slot}] = nid
		}
	}
	s.bm = s.bm.compact(pageBase, s.live)
	return remap
}

// NumPages returns the number of allocated pages.
func (s *Segment) NumPages() int { return len(s.pages) }

// NumRecords returns the number of live records.
func (s *Segment) NumRecords() int { return s.live }

// LiveBytes returns the payload bytes of live records: the SIZE() of the
// partition this segment backs.
func (s *Segment) LiveBytes() int64 { return s.bytes }

// Synopsis returns the attributes carried by at least one live record:
// empty once the segment has held a record, nil before. The set may
// change with the next mutation unless a view shares it, so callers
// read it under the segment's lock and must not modify it.
func (s *Segment) Synopsis() *synopsis.Set { return s.bm.syn }

// Attrs fills dst with the attribute set of the live record id (as
// given to InsertTagged) from the presence matrix and returns it.
func (s *Segment) Attrs(id RecordID, dst *synopsis.Set) *synopsis.Set {
	return s.bm.column(id.Page, id.Slot, dst)
}

// Stats returns the I/O counter the segment charges to.
func (s *Segment) Stats() *Stats { return s.stats }
