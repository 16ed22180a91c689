package table

import (
	"runtime"
	"sort"
	"sync/atomic"

	"cinderella/internal/core"
	"cinderella/internal/obs"
	"cinderella/internal/storage"
	"cinderella/internal/synopsis"
)

// Epoch-based snapshot reads.
//
// Queries do not take the table lock. Instead, every mutation publishes —
// still under the write lock, as its last step — an immutable per-
// partition snapshot: the partition's pruning synopsis plus a frozen view
// of its segment (page chain, attribute-presence matrix, live counters).
// Readers capture a consistent cut of these snapshots with three atomic
// ingredients and no locks:
//
//   - partHandle: one atomic pointer per partition, swapped to the
//     partition's latest partSnap at the end of each mutation that
//     touched it. partSnap contents are immutable after publication
//     (segment views are copy-on-write, and the attribute synopsis they
//     carry is copy-on-flip; see storage.SegView and storage's bitmat).
//
//   - partDir: the atomic partition directory, an id-ordered handle
//     slice rebuilt only when a partition is created or dropped — the
//     common mutation (an insert into an existing partition) republishes
//     one handle and leaves the directory untouched.
//
//   - snapSeq: a seqlock. Writers make it odd in beginMut and even again
//     in endMut after publishing; a reader captures the directory and
//     every handle, then retries if the sequence was odd or moved. That
//     makes the multi-partition cut atomic — a split that moves records
//     between partitions can never be observed half-applied, so
//     QueryReport and EFFICIENCY accounting stay exact under concurrent
//     writes.
//
// A reader that keeps losing the seqlock race (pathological write storm)
// falls back to capturing under the shared read lock — correctness never
// depends on the optimistic path winning.
//
// Memory reclamation is garbage collection: a captured snapshot pins the
// superseded pages and matrix arrays it references, and they are freed
// when the last in-flight query drops them. Nothing is recycled in
// place, so there is no epoch-advance or hazard-pointer protocol to get
// wrong.

// captureRetries bounds the optimistic seqlock attempts before a reader
// falls back to the read lock.
const captureRetries = 16

// partSnap is one partition's published snapshot. Immutable. Exactly
// one of view and cold is populated: hot partitions publish a segment
// view, frozen partitions a cold view over the compressed tier.
type partSnap struct {
	pid  core.PartitionID
	syn  *synopsis.Set // attribute synopsis for pruning, the view's (frozen)
	view storage.SegView
	cold storage.ColdView
}

// recView is the scan surface shared by hot segment views and cold
// partition views; scanPart is tier-agnostic behind it. ScanBitmap is
// the word-parallel kernel entry (see bitmap.go); Record fetches a
// candidate's payload.
type recView interface {
	ScanBitmap(prog storage.BitmapProgram, sc *storage.BitmapScratch) ([]storage.RecordID, int64, error)
	Record(id storage.RecordID) []byte
	NumRecords() int
	LiveBytes() int64
}

// reader returns the snapshot's tier-appropriate scan handle.
func (ps *partSnap) reader() recView {
	if ps.cold.Cold() {
		return ps.cold
	}
	return &ps.view
}

// partHandle is the stable per-partition publication slot.
type partHandle struct {
	pid  core.PartitionID
	snap atomic.Pointer[partSnap]
}

// partDir is the atomic partition directory, handles ordered by id.
type partDir struct {
	handles []*partHandle
}

// tableSnap is a consistent cut: every partition's snapshot at one
// logical instant.
type tableSnap struct {
	parts []*partSnap
}

// beginMut opens a mutation: the seqlock goes odd so concurrent captures
// retry instead of observing a half-published cut. Callers hold the
// write lock.
func (t *Table) beginMut() {
	t.snapSeq.Add(1)
}

// markDirty records that pid's segment or synopsis changed and must be
// republished at endMut. Callers hold the write lock.
func (t *Table) markDirty(pid core.PartitionID) {
	t.dirty[pid] = struct{}{}
}

// endMut republishes every dirty partition, rebuilds the directory when
// partitions were created or dropped, and closes the seqlock. Callers
// hold the write lock.
func (t *Table) endMut() {
	changed := len(t.dirty) > 0 || t.dirChanged
	for pid := range t.dirty {
		h := t.handles[pid]
		var ps *partSnap
		if seg, ok := t.segs[pid]; ok {
			v := seg.View()
			ps = &partSnap{pid: pid, syn: v.Synopsis(), view: v}
		} else if cs, ok := t.cold[pid]; ok {
			// Frozen partition: publish the cold view (the segment is
			// immutable, so the view is just a handle).
			ps = &partSnap{pid: pid, syn: cs.Synopsis(), cold: cs.View()}
		} else {
			// Partition dropped.
			if h != nil {
				delete(t.handles, pid)
				t.dirChanged = true
			}
			continue
		}
		if h == nil {
			h = &partHandle{pid: pid}
			t.handles[pid] = h
			t.dirChanged = true
		}
		h.snap.Store(ps)
	}
	clear(t.dirty)
	if t.dirChanged {
		hs := make([]*partHandle, 0, len(t.handles))
		for _, h := range t.handles {
			hs = append(hs, h)
		}
		sort.Slice(hs, func(i, j int) bool { return hs[i].pid < hs[j].pid })
		t.dir.Store(&partDir{handles: hs})
		t.dirChanged = false
	}
	t.snapSeq.Add(1)
	if changed {
		t.observer().SetGauge(obs.GSnapshotEpoch, int64(t.epoch.Add(1)))
	}
}

// capture returns a consistent cut of all partition snapshots without
// blocking writers. The optimistic path costs one directory load plus
// one pointer load per partition; contention falls back to the read
// lock.
func (t *Table) capture() tableSnap {
	for try := 0; try < captureRetries; try++ {
		s1 := t.snapSeq.Load()
		if s1&1 != 0 {
			runtime.Gosched()
			continue
		}
		snap := t.loadSnaps()
		if t.snapSeq.Load() == s1 {
			return snap
		}
	}
	// Pathological write pressure: capture under the read lock, which
	// excludes writers (and therefore any open seqlock window).
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.loadSnaps()
}

// loadSnaps loads the directory and every handle's current snapshot.
func (t *Table) loadSnaps() tableSnap {
	dir := t.dir.Load()
	parts := make([]*partSnap, len(dir.handles))
	for i, h := range dir.handles {
		parts[i] = h.snap.Load()
	}
	return tableSnap{parts: parts}
}

// SnapshotEpoch returns the number of snapshot publications so far (the
// epoch gauge exported to telemetry).
func (t *Table) SnapshotEpoch() uint64 { return t.epoch.Load() }
