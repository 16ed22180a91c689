package table

import (
	"slices"
	"sort"

	"cinderella/internal/core"
	"cinderella/internal/obs"
	"cinderella/internal/storage"
)

// The table half of heat-driven tiered storage: freeze/thaw transitions
// between the hot tier (mutable heap segments) and the cold tier
// (compressed, read-only storage.ColdSegments), driven by the tiering
// manager (internal/tier) against the partition heat map.
//
// The transitions keep three invariants:
//
//   - A partition lives in exactly one tier: t.segs XOR t.cold.
//   - Everything pruning needs stays hot regardless of tier — the
//     partition attribute synopsis and the attribute-presence matrix —
//     so SelectWhere prunes a frozen partition without touching a
//     single cold byte.
//   - Record ids survive both transitions. Freeze vacuums first (so the
//     frozen page chain is compact and tombstone-free) and remaps the
//     row index once; Thaw rebuilds the identical page chain, so the
//     row index needs no change at all.
//
// Each transition is one ordinary mutation — write lock, seqlock
// bracket, snapshot republish — so lock-free readers move between tiers
// atomically: a query captured before the freeze keeps scanning the old
// hot view, one captured after scans the cold view. Mutations reaching
// a frozen partition thaw it transparently inside seg(), which every
// write path goes through.

// TierState describes one partition's storage tier for the tiering
// manager and the /debug/tier surface.
type TierState struct {
	Partition core.PartitionID `json:"partition"`
	Frozen    bool             `json:"frozen"`
	Entities  int              `json:"entities"`
	Bytes     int64            `json:"bytes"` // live payload bytes (SIZE())
	// ResidentBytes is the tier-dependent memory footprint: raw page
	// bytes when hot, compressed block bytes when frozen.
	ResidentBytes int64 `json:"resident_bytes"`
	// RawBytes is the uncompressed page footprint in either tier.
	RawBytes int64 `json:"raw_bytes"`
	// ColdReads counts block decompressions since the freeze — the
	// manager's reheat signal. Always 0 for hot partitions.
	ColdReads int64 `json:"cold_reads"`
}

// TierStates snapshots every partition's tier, ordered by id.
func (t *Table) TierStates() []TierState {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]TierState, 0, len(t.segs)+len(t.cold))
	for pid, seg := range t.segs {
		out = append(out, TierState{
			Partition:     pid,
			Entities:      seg.NumRecords(),
			Bytes:         seg.LiveBytes(),
			ResidentBytes: int64(seg.NumPages()) * storage.PageSize,
			RawBytes:      int64(seg.NumPages()) * storage.PageSize,
		})
	}
	for pid, cs := range t.cold {
		out = append(out, TierState{
			Partition:     pid,
			Frozen:        true,
			Entities:      cs.NumRecords(),
			Bytes:         cs.LiveBytes(),
			ResidentBytes: cs.CompressedBytes(),
			RawBytes:      cs.RawBytes(),
			ColdReads:     cs.ColdReads(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Partition < out[j].Partition })
	return out
}

// TierCounters returns the cumulative freeze and thaw transition counts.
func (t *Table) TierCounters() (freezes, thaws int64) {
	return t.tierFreezes.Load(), t.tierThaws.Load()
}

// FrozenPartitions returns the ids of all frozen partitions, ascending.
func (t *Table) FrozenPartitions() []core.PartitionID {
	t.mu.RLock()
	defer t.mu.RUnlock()
	pids := make([]core.PartitionID, 0, len(t.cold))
	for pid := range t.cold {
		pids = append(pids, pid)
	}
	slices.Sort(pids)
	return pids
}

// FrozenImage serializes pid's cold segment to its checksummed file
// image (see storage.ColdSegment.Encode); the durable layer writes it
// under the tier manifest. Nil when pid is not frozen.
func (t *Table) FrozenImage(pid core.PartitionID) []byte {
	t.mu.RLock()
	defer t.mu.RUnlock()
	cs, ok := t.cold[pid]
	if !ok {
		return nil
	}
	return cs.Encode()
}

// FreezePartition compacts pid's segment and freezes it into the cold
// tier: the vacuumed page chain is deflate-compressed block by block
// and the hot segment is dropped (its buffer-cache pages with it),
// leaving only the compressed blocks plus the hot pruning metadata
// resident. Returns false when pid has no hot segment (unknown or
// already frozen) or holds no live records.
func (t *Table) FreezePartition(pid core.PartitionID) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	seg, ok := t.segs[pid]
	if !ok || seg.NumRecords() == 0 {
		return false
	}
	t.beginMut()
	defer t.endMut()
	// Vacuum first: the frozen chain must be compact (cold bytes are
	// forever — until a thaw — so tombstones would be frozen waste), and
	// the remap below is the last time record ids change in this tier.
	t.remapRows(map[core.PartitionID]map[storage.RecordID]storage.RecordID{pid: seg.Vacuum()})
	cs := storage.FreezeSegment(seg)
	delete(t.segs, pid)
	t.cold[pid] = cs
	t.markDirty(pid)
	t.tierFreezes.Add(1)
	t.observer().Add(obs.CTierFreezes, 1)
	return true
}

// ThawPartition rebuilds pid's hot segment from the cold tier (reheat).
// Returns false when pid is not frozen.
func (t *Table) ThawPartition(pid core.PartitionID) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	cs, ok := t.cold[pid]
	if !ok {
		return false
	}
	t.beginMut()
	defer t.endMut()
	t.thawLocked(pid, cs)
	return true
}

// thawLocked swaps pid from the cold tier back to a hot segment. Record
// ids are preserved (Thaw rebuilds the identical page chain), so the
// row index stays untouched. Callers hold the write lock; the republish
// happens at the enclosing endMut.
func (t *Table) thawLocked(pid core.PartitionID, cs *storage.ColdSegment) *storage.Segment {
	seg := cs.Thaw()
	cs.DropFromCache()
	delete(t.cold, pid)
	t.segs[pid] = seg
	t.markDirty(pid)
	t.tierThaws.Add(1)
	t.observer().Add(obs.CTierThaws, 1)
	return seg
}
