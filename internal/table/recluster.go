package table

import (
	"fmt"

	"cinderella/internal/core"
)

// The table half of background reclustering: per-entity re-rate-and-move
// primitives the reclusterer (internal/recluster) drives in bounded
// batches. Each move is one ordinary mutation — write lock, seqlock
// bracket, placement listener — so concurrent snapshot readers and
// writers observe it exactly like an Update; the durable layer wraps it
// with a WAL append so recovery replays it.

// ReclusterMove describes one entity a recluster step relocated: what
// the durable layer needs to log the move as a WAL update op.
type ReclusterMove struct {
	ID   core.EntityID
	From core.PartitionID
	To   core.PartitionID
	Data []byte // marshaled entity content, as a WAL update op carries it
}

// ReclusterResult aggregates one bounded victim batch.
type ReclusterResult struct {
	Examined int // entities re-rated (moved or kept)
	Moved    int
	Moves    []ReclusterMove
}

// PartitionMembers snapshots the member ids of one partition, in
// insertion order. Nil when the assigner is not a Cinderella
// partitioner or the partition does not exist.
func (t *Table) PartitionMembers(pid core.PartitionID) []core.EntityID {
	t.mu.RLock()
	defer t.mu.RUnlock()
	c, ok := t.assigner.(*core.Cinderella)
	if !ok {
		return nil
	}
	return c.Members(pid)
}

// ReclusterEntity re-rates one entity against the workload-blended
// objective and moves it if a better partition (or a fresh one) wins.
// It only acts if the entity still lives in expect — the member
// snapshot it came from may be stale by the time the batch reaches it.
// Each call is one self-contained mutation under the write lock and
// seqlock bracket, so writers interleave between calls rather than
// stalling for a whole batch.
func (t *Table) ReclusterEntity(id core.EntityID, expect core.PartitionID, blender core.RatingBlender) (mv ReclusterMove, examined, moved bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if _, ok := t.assigner.(*core.Cinderella); !ok {
		return ReclusterMove{}, false, false
	}
	loc, ok := t.rows[id]
	if !ok || loc.pid != expect {
		return ReclusterMove{}, false, false
	}
	rec, err := t.seg(loc.pid).Read(loc.rid)
	if err != nil {
		panic(fmt.Sprintf("table: reclustering entity %d: %v", id, err))
	}
	gotID, e, err := decodeRecord(rec)
	if err != nil || gotID != id {
		panic(fmt.Sprintf("table: corrupt record for entity %d: %v", id, err))
	}

	t.beginMut()
	defer t.endMut()
	if pid := t.replace(id, loc, e, blender); pid != expect {
		return ReclusterMove{ID: id, From: expect, To: pid, Data: e.Marshal(nil)}, true, true
	}
	return ReclusterMove{}, true, false
}

// ReclusterBatch re-rates up to max members of partition pid (all of
// them when max <= 0) against the blended objective. Locking is
// per-entity, so concurrent writers make progress mid-batch.
func (t *Table) ReclusterBatch(pid core.PartitionID, max int, blender core.RatingBlender) ReclusterResult {
	members := t.PartitionMembers(pid)
	if max > 0 && len(members) > max {
		members = members[:max]
	}
	var res ReclusterResult
	for _, id := range members {
		mv, examined, moved := t.ReclusterEntity(id, pid, blender)
		if examined {
			res.Examined++
		}
		if moved {
			res.Moved++
			res.Moves = append(res.Moves, mv)
		}
	}
	return res
}
