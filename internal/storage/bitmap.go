package storage

import (
	"errors"
	"math/bits"
	"slices"
	"sort"
	"sync/atomic"

	"cinderella/internal/synopsis"
)

// The attribute-presence bitmap matrix: a segment's per-record attribute
// sets, stored attribute-major.
//
// The matrix answers "which records have attribute a?" as one []uint64
// bitset per attribute over *slot positions* (a dense numbering of every
// slot in the page chain, in storage order). A query's predicate
// compiles into a handful of word operations: AND the required
// attributes' bitsets (OR for Select's union shape), fold in the live
// bitset, and every set bit of the result is a record that must be
// decoded — 64 records per machine word, no per-record pointer chases.
// It is the only per-record pruning structure the segment keeps.
//
// Maintenance:
//
//   - InsertTagged sets the live bit and one bit per attribute at the
//     record's fresh position.
//   - Delete copies the live bitset, clears the bit, and swaps the copy
//     in; the attribute bits go stale but are masked by live at
//     evaluation time.
//   - Vacuum compacts: the page chain is rebuilt without tombstones, so
//     the k-th live position becomes position k, and every attribute row
//     is rewritten by moving its live bits down to their ranks (see
//     compact). Freeze and thaw keep positions, so the matrix is carried
//     across as is.
//
// The matrix is also the partition's attribute synopsis — the only
// record of which attributes its members carry. Each row keeps a count
// of the live records carrying the attribute, so an insert or delete
// changes the synopsis in O(1) per attribute, when a count crosses zero.
//
// Concurrency follows the segment's append-only/copy-on-write
// discipline. A published view captures the matrix by value — slice
// headers plus the position count; the only memory a writer later
// touches in place are word-array elements at *fresh* positions (>= the
// captured count), which readers mask off. Those in-place bit stores use
// atomic writes and the kernel uses atomic loads, so the overlap is
// well-defined (on the word, never on the captured bits). Everything
// that cannot be expressed as a fresh-position store — clearing a live
// bit, growing the word arrays, registering a new attribute — copies and
// swaps like a page delete does. The counts are the writer's alone, and
// the synopsis is copied before its first change after a capture.

// bitmat is a segment's attribute-presence matrix. All word arrays
// (live and every attrs row) always have identical length, grown
// together, so the kernel indexes them uniformly. A struct copy taken
// under the segment's exclusive lock is an immutable capture: SegView
// and ColdSegment hold one.
type bitmat struct {
	ids      []int      // sorted attribute ids with a presence row; COW
	attrs    [][]uint64 // parallel to ids; outer COW, inner grown by COW
	live     []uint64   // live-record bitset (slot-directory tombstones folded in)
	pageBase []int      // position of each page's slot 0
	slots    int        // total positions (sum of per-page slot counts)

	// counts is parallel to ids: the live records carrying each
	// attribute. Writer-private — no view reads it — so it changes in
	// place; freeze and thaw hand the new owner a copy.
	counts []int
	// syn holds the ids whose count is non-zero: the partition's
	// attribute synopsis. Nil until the first insert. It is grown in
	// place until a capture (View, freeze, thaw) shares it; from then on
	// the next change clones it first (synShared).
	syn       *synopsis.Set
	synShared bool
}

// notePage registers a freshly appended page. Append may write one
// element past every captured header's length — memory no reader
// reaches — and is therefore safe without copying.
func (m *bitmat) notePage() {
	m.pageBase = append(m.pageBase, m.slots)
}

// setBit atomically sets bit pos in w. The writer is single (segment
// mutations are exclusive); the atomicity is for concurrent kernel
// loads of the same word.
func setBit(w []uint64, pos int) {
	i := pos >> 6
	atomic.StoreUint64(&w[i], atomic.LoadUint64(&w[i])|1<<(uint(pos)&63))
}

// wordsFor returns the word-array length covering positions [0, slots),
// never below the minimum allocation.
func wordsFor(slots int) int {
	return max((slots+63)>>6, 4)
}

// ensure grows every word array to cover position pos. Growth copies
// and swaps (captured views keep the old arrays, whose length covers
// every captured position by construction).
func (m *bitmat) ensure(pos int) {
	if pos>>6 < len(m.live) {
		return
	}
	words := max(len(m.live)*2, wordsFor(pos+1))
	grow := func(old []uint64) []uint64 {
		w := make([]uint64, words)
		copy(w, old)
		return w
	}
	m.live = grow(m.live)
	nattrs := make([][]uint64, len(m.attrs))
	for i, row := range m.attrs {
		nattrs[i] = grow(row)
	}
	m.attrs = nattrs
}

// attrRow returns the index of attribute id's presence row, registering
// the row (copy-on-write on the outer slices) on first sight.
func (m *bitmat) attrRow(id int) int {
	i := sort.SearchInts(m.ids, id)
	if i < len(m.ids) && m.ids[i] == id {
		return i
	}
	nids := make([]int, len(m.ids)+1)
	nattrs := make([][]uint64, len(m.attrs)+1)
	copy(nids, m.ids[:i])
	copy(nattrs, m.attrs[:i])
	nids[i] = id
	nattrs[i] = make([]uint64, len(m.live))
	copy(nids[i+1:], m.ids[i:])
	copy(nattrs[i+1:], m.attrs[i:])
	m.ids = nids
	m.attrs = nattrs
	m.counts = slices.Insert(m.counts, i, 0)
	return i
}

// flip adds (on) or removes attribute id from the synopsis, cloning it
// first when a capture shares it.
func (m *bitmat) flip(id int, on bool) {
	if m.synShared {
		m.syn, m.synShared = m.syn.Clone(), false
	}
	if on {
		m.syn.Add(id)
	} else {
		m.syn.Remove(id)
	}
}

// noteInsert records a fresh position: the record just appended at the
// end of the page chain, with its attribute set (nil = no attributes).
func (m *bitmat) noteInsert(syn *synopsis.Set) {
	pos := m.slots
	m.ensure(pos)
	setBit(m.live, pos)
	if m.syn == nil {
		m.syn = synopsis.New(0)
	}
	if syn != nil {
		syn.ForEach(func(id int) {
			i := m.attrRow(id)
			setBit(m.attrs[i], pos)
			if m.counts[i]++; m.counts[i] == 1 {
				m.flip(id, true)
			}
		})
	}
	m.slots++
}

// noteDelete clears the live bit for (page, slot) via copy-on-write and
// takes the record's attributes out of the counts. The attribute bits
// are left stale: live masks them out of every kernel evaluation.
func (m *bitmat) noteDelete(page, slot int) {
	pos := m.pageBase[page] + slot
	wi, bit := pos>>6, uint64(1)<<(uint(pos)&63)
	for i, row := range m.attrs {
		if row[wi]&bit == 0 {
			continue
		}
		if m.counts[i]--; m.counts[i] == 0 {
			m.flip(m.ids[i], false)
		}
	}
	nlive := make([]uint64, len(m.live))
	copy(nlive, m.live)
	nlive[wi] &^= bit
	m.live = nlive
}

// column fills dst with the attribute set of the record at (page,
// slot): one bit test per presence row.
func (m *bitmat) column(page, slot int, dst *synopsis.Set) *synopsis.Set {
	pos := m.pageBase[page] + slot
	wi, bit := pos>>6, uint64(1)<<(uint(pos)&63)
	dst.Reset()
	for i, row := range m.attrs {
		if row[wi]&bit != 0 {
			dst.Add(m.ids[i])
		}
	}
	return dst
}

// owned returns the matrix for a new owner — a frozen or thawed
// segment: the same arrays with a private copy of the counts, and the
// synopsis marked shared. The caller marks the giving side's synopsis
// shared as well.
func (m bitmat) owned() bitmat {
	m.counts = slices.Clone(m.counts)
	m.synShared = true
	return m
}

// compact returns the matrix of the vacuumed chain: the k-th live
// position of m becomes position k, so each attribute row is rewritten
// by moving its live bits down to their ranks in the live bitset.
// pageBase is the rebuilt chain's (it has no tombstones, so its slot
// total equals m's live count). Rows left without a live bit are
// dropped; the others keep their counts, so the synopsis carries over.
// Every array is fresh; captures of m are untouched.
func (m *bitmat) compact(pageBase []int, slots int) bitmat {
	nw := (m.slots + 63) >> 6
	words := wordsFor(slots)
	out := bitmat{
		live:      make([]uint64, words),
		pageBase:  pageBase,
		slots:     slots,
		syn:       m.syn,
		synShared: m.synShared,
	}
	for wi := 0; wi < slots>>6; wi++ {
		out.live[wi] = ^uint64(0)
	}
	if tail := uint(slots) & 63; tail != 0 {
		out.live[slots>>6] = 1<<tail - 1
	}
	// rank[wi] is the number of live positions below word wi.
	rank := make([]int, nw)
	n := 0
	for wi := 0; wi < nw; wi++ {
		rank[wi] = n
		n += bits.OnesCount64(m.live[wi])
	}
	for i, row := range m.attrs {
		var nrow []uint64
		for wi := 0; wi < nw; wi++ {
			live := m.live[wi]
			for w := row[wi] & live; w != 0; w &= w - 1 {
				below := live & (w&-w - 1)
				npos := rank[wi] + bits.OnesCount64(below)
				if nrow == nil {
					nrow = make([]uint64, words)
				}
				nrow[npos>>6] |= 1 << (uint(npos) & 63)
			}
		}
		if nrow != nil {
			out.ids = append(out.ids, m.ids[i])
			out.attrs = append(out.attrs, nrow)
			out.counts = append(out.counts, m.counts[i])
		}
	}
	return out
}

// BitmapProgram is a compiled scan predicate for the word-parallel
// kernel: the attribute ids whose presence rows are combined, and the
// combiner. Disjunction=true is Select's union shape ("has any of
// these"); false is SelectWhere's conjunction shape ("has all of
// these"), whose empty form keeps every live record (ScanAll).
type BitmapProgram struct {
	Attrs       []int
	Disjunction bool
}

// BitmapScratch holds the kernel's reusable per-scan buffers: the
// resolved attribute rows, the candidate bitset, and the candidate
// list. The table layer pools these so the steady-state scan loop does
// not allocate.
type BitmapScratch struct {
	sets  [][]uint64
	cand  []uint64
	cands []RecordID
}

// run evaluates prog over the matrix and returns the candidates — the
// live records the program could not rule out, in storage order
// (aliasing sc's buffers, valid until sc is reused) — plus the number
// of 64-bit word operations performed. Presence rows are exact, so a
// candidate provably satisfies the program.
func (bm *bitmat) run(prog BitmapProgram, sc *BitmapScratch) (cands []RecordID, words int64) {
	nw := (bm.slots + 63) >> 6
	if nw == 0 {
		return sc.cands[:0], 0
	}

	// Resolve the program's attributes to presence rows. A nil entry is
	// an attribute this partition has never seen: identically zero.
	sets := sc.sets[:0]
	for _, id := range prog.Attrs {
		i := sort.SearchInts(bm.ids, id)
		if i < len(bm.ids) && bm.ids[i] == id {
			sets = append(sets, bm.attrs[i])
		} else {
			sets = append(sets, nil)
		}
	}
	sc.sets = sets

	// Phase 1: the candidate bitset, one word at a time —
	//
	//	cand = combine(attr rows) & live
	//
	// Word loads from the matrix are atomic: a concurrent insert may
	// store fresh bits into the final word, which the slots mask below
	// hides. words counts every 64-bit operation, the kernel's unit of
	// work for the scan_bitmap_words counter.
	if cap(sc.cand) < nw {
		sc.cand = make([]uint64, nw)
	}
	cand := sc.cand[:nw]
	for wi := 0; wi < nw; wi++ {
		var w uint64
		if prog.Disjunction {
			for _, s := range sets {
				if s != nil {
					w |= atomic.LoadUint64(&s[wi])
				}
			}
		} else {
			w = ^uint64(0)
			for _, s := range sets {
				if s == nil {
					w = 0
					break
				}
				w &= atomic.LoadUint64(&s[wi])
			}
		}
		w &= atomic.LoadUint64(&bm.live[wi])
		cand[wi] = w
		words += int64(len(sets)) + 1
	}
	if tail := uint(bm.slots) & 63; tail != 0 {
		cand[nw-1] &= 1<<tail - 1
	}

	// Phase 2: walk the set bits in position order, translating each to
	// (page, slot) with a monotone cursor over pageBase.
	out := sc.cands[:0]
	pi := 0
	for wi, w := range cand {
		for ; w != 0; w &= w - 1 {
			pos := wi<<6 + bits.TrailingZeros64(w)
			for pi+1 < len(bm.pageBase) && pos >= bm.pageBase[pi+1] {
				pi++
			}
			out = append(out, RecordID{Page: pi, Slot: pos - bm.pageBase[pi]})
		}
	}
	sc.cands = out
	return out, words
}

// ErrNoMatrix is returned by ScanBitmap when the segment carries no
// presence matrix: a cold segment rebuilt by DecodeColdSegment, which
// exists to verify a file image and must never be scanned.
var ErrNoMatrix = errors.New("storage: segment has no presence matrix to scan")

// ScanBitmap runs the word-parallel kernel over the view: it charges
// the partition's full visit — every page, every live record, every
// live byte, exactly (NumPages, LiveBytes, NumRecords) — in one bulk
// operation, then returns the candidate records the program could not
// rule out. The caller decodes candidates via Record; everything else
// was skipped at 64 records per word op. Skipping avoids decode CPU
// only, never simulated I/O.
//
// The returned slice aliases sc's buffers and is valid until sc's next
// use. words is the number of 64-bit word operations performed. The
// error is always nil for a hot view; it is part of the signature the
// table layer shares with ColdView.
func (v *SegView) ScanBitmap(prog BitmapProgram, sc *BitmapScratch) (cands []RecordID, words int64, err error) {
	if v.cache != nil {
		for pi := range v.pages {
			v.cache.touch(v.cacheID, pi)
		}
	}
	v.stats.addRead(int64(len(v.pages)), v.bytes, int64(v.live))
	cands, words = v.bm.run(prog, sc)
	return cands, words, nil
}

// ScanBitmap is ColdView's kernel entry point. The ordinary charges are
// identical to the hot path, and the matrix is hot, so a frozen
// partition whose candidates all fall in a few blocks only ever
// inflates those blocks (Record charges the cold counters on
// inflation). A segment without the matrix (a decoded file image)
// returns ErrNoMatrix and charges nothing.
func (v ColdView) ScanBitmap(prog BitmapProgram, sc *BitmapScratch) (cands []RecordID, words int64, err error) {
	c := v.c
	if c.bm.live == nil && c.live > 0 {
		return nil, 0, ErrNoMatrix
	}
	if c.cache != nil {
		for pi := 0; pi < c.numPages; pi++ {
			c.cache.touch(c.cacheID, pi)
		}
	}
	c.stats.addRead(int64(c.numPages), c.bytes, int64(c.live))
	cands, words = c.bm.run(prog, sc)
	return cands, words, nil
}
