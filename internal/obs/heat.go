package obs

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The partition heat map: always-on per-partition access accounting.
//
// Every finished query folds its per-partition scan stats (PartSpan,
// the same data that feeds span trees) into one heatEntry per
// (shard, partition). The map answers the reclusterer's question —
// which partitions are read a lot but rarely relevant — directly: each
// entry carries Definition 1's per-partition numerator (records
// relevant) and denominator (records read), plus the decode/skip split
// and byte volumes, and the snapshot epoch at last touch.
//
// The write path is two atomic adds per counter per touched partition
// behind an RWMutex read-lock map lookup; entries are created once and
// never removed (partition ids are not reused, and the live set is
// bounded), so steady state is lock-free in practice.

// heatKey identifies one partition in one shard (-1 = the root handle:
// span roots and library tables opened without a shard view).
type heatKey struct {
	shard int32
	pid   uint64
}

// heatEntry is one partition's cumulative access counters.
type heatEntry struct {
	queries       atomic.Int64
	read          atomic.Int64 // records visited by scans (Definition 1 denominator)
	relevant      atomic.Int64 // records returned (Definition 1 numerator)
	decoded       atomic.Int64
	skipped       atomic.Int64
	bytesRead     atomic.Int64
	bytesRelevant atomic.Int64
	bytesSkipped  atomic.Int64
	lastEpoch     atomic.Int64 // snapshot epoch at last touch
	lastQuery     atomic.Int64 // CQueries value at last touch
}

type heatMap struct {
	mu sync.RWMutex
	m  map[heatKey]*heatEntry

	// Exponential decay state. halfLifeNs == 0 leaves counters
	// cumulative (the pre-decay behavior); when armed, every read-side
	// snapshot first folds in 0.5^(elapsed/halfLife) so the map ranks
	// partitions by the *recent* workload — the reclusterer must not
	// chase a partition that was only cold last week. nowNs is swapped
	// out by tests to drive virtual time.
	halfLifeNs atomic.Int64
	lastDecay  atomic.Int64 // nowNs() at the last applied decay
	nowNs      func() int64
}

func newHeatMap() *heatMap {
	h := &heatMap{
		m:     make(map[heatKey]*heatEntry),
		nowNs: func() int64 { return time.Now().UnixNano() },
	}
	return h
}

// scale multiplies every cumulative counter by factor (the last-touch
// markers are timestamps, not volumes, and keep their values). Counts
// round down, so idle partitions decay all the way to zero and fall
// below ColdestPartitions' min-queries floor.
func (e *heatEntry) scale(factor float64) {
	for _, c := range []*atomic.Int64{
		&e.queries, &e.read, &e.relevant, &e.decoded, &e.skipped,
		&e.bytesRead, &e.bytesRelevant, &e.bytesSkipped,
	} {
		c.Store(int64(float64(c.Load()) * factor))
	}
}

func (h *heatMap) decay(factor float64) {
	if !(factor >= 0) || factor >= 1 {
		return
	}
	h.mu.Lock()
	for _, e := range h.m {
		e.scale(factor)
	}
	h.mu.Unlock()
}

// maybeDecay applies any half-life decay owed since the last
// application. It runs on the snapshot path (not the per-query hot
// path) and batches elapsed time into quarter-half-life steps so the
// factor stays meaningfully below 1.
func (h *heatMap) maybeDecay() {
	hl := h.halfLifeNs.Load()
	if hl <= 0 {
		return
	}
	now := h.nowNs()
	last := h.lastDecay.Load()
	elapsed := now - last
	if elapsed < hl/4 {
		return
	}
	if !h.lastDecay.CompareAndSwap(last, now) {
		return // another snapshot is decaying
	}
	h.decay(math.Exp2(-float64(elapsed) / float64(hl)))
}

func (h *heatMap) entry(k heatKey) *heatEntry {
	h.mu.RLock()
	e := h.m[k]
	h.mu.RUnlock()
	if e != nil {
		return e
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if e = h.m[k]; e == nil {
		e = &heatEntry{}
		h.m[k] = e
	}
	return e
}

// note folds one query's partition stats in. parts carry their shard id
// already stamped by FinishQuery.
func (h *heatMap) note(parts []PartSpan, epoch, querySeq int64) {
	for i := range parts {
		p := &parts[i]
		e := h.entry(heatKey{shard: p.Shard, pid: p.Partition})
		e.queries.Add(1)
		e.read.Add(p.Scanned)
		e.relevant.Add(p.Returned)
		e.decoded.Add(p.Decoded)
		e.skipped.Add(p.Skipped)
		e.bytesRead.Add(p.BytesRead)
		e.bytesRelevant.Add(p.BytesRelevant)
		e.bytesSkipped.Add(p.BytesSkipped)
		e.lastEpoch.Store(epoch)
		e.lastQuery.Store(querySeq)
	}
}

// PartitionHeat is one partition's row in the heat snapshot — the
// /debug/heat wire format and the reclusterer's input.
type PartitionHeat struct {
	Shard           int32  `json:"shard"`
	Partition       uint64 `json:"partition"`
	Queries         int64  `json:"queries"`
	RecordsRead     int64  `json:"records_read"`
	RecordsRelevant int64  `json:"records_relevant"`
	RecordsDecoded  int64  `json:"records_decoded"`
	RecordsSkipped  int64  `json:"records_skipped"`
	BytesRead       int64  `json:"bytes_read"`
	BytesRelevant   int64  `json:"bytes_relevant"`
	BytesDecoded    int64  `json:"bytes_decoded"`
	BytesSkipped    int64  `json:"bytes_skipped"`
	// ReadRatio is Definition 1 restricted to this partition:
	// records relevant / records read. 1 when never read.
	ReadRatio        float64 `json:"read_ratio"`
	LastTouchedEpoch int64   `json:"last_touched_epoch"`
	LastQuerySeq     int64   `json:"last_query_seq"`
}

// SetHeatHalfLife arms exponential heat decay: counters lose half
// their weight every d of wall time, so heat rankings follow the
// recent workload. d <= 0 disarms decay (counters stay cumulative,
// the historical behavior). Nil-safe.
func (r *Registry) SetHeatHalfLife(d time.Duration) {
	if r == nil {
		return
	}
	r.heat.lastDecay.Store(r.heat.nowNs())
	r.heat.halfLifeNs.Store(int64(d))
}

// HeatHalfLife reports the armed decay half-life (0 = disarmed).
func (r *Registry) HeatHalfLife() time.Duration {
	if r == nil {
		return 0
	}
	return time.Duration(r.heat.halfLifeNs.Load())
}

// ResetHeat zeroes one partition's heat counters. The reclusterer
// calls it after migrating a victim: the old counters described a
// membership that no longer exists, and fresh queries should measure
// the partition from scratch. Nil-safe; unknown keys are a no-op.
func (r *Registry) ResetHeat(shard int32, pid uint64) {
	if r == nil {
		return
	}
	h := r.heat
	h.mu.RLock()
	e := h.m[heatKey{shard: shard, pid: pid}]
	h.mu.RUnlock()
	if e != nil {
		e.scale(0)
	}
}

// HeatRatio returns the current relevant/read ratio for one partition
// and whether the partition has been read at all since its counters
// were last reset. Nil-safe.
func (r *Registry) HeatRatio(shard int32, pid uint64) (float64, bool) {
	if r == nil {
		return 0, false
	}
	h := r.heat
	h.mu.RLock()
	e := h.m[heatKey{shard: shard, pid: pid}]
	h.mu.RUnlock()
	if e == nil {
		return 0, false
	}
	read := e.read.Load()
	if read == 0 {
		return 0, false
	}
	return effRatio(e.relevant.Load(), read), true
}

// HeatSnapshot returns one row per (shard, partition) ever touched by a
// query, ordered by shard then partition id. Nil-safe.
func (r *Registry) HeatSnapshot() []PartitionHeat {
	if r == nil {
		return nil
	}
	h := r.heat
	h.maybeDecay()
	h.mu.RLock()
	out := make([]PartitionHeat, 0, len(h.m))
	for k, e := range h.m {
		read := e.read.Load()
		rel := e.relevant.Load()
		bytesRead := e.bytesRead.Load()
		bytesSkipped := e.bytesSkipped.Load()
		out = append(out, PartitionHeat{
			Shard:            k.shard,
			Partition:        k.pid,
			Queries:          e.queries.Load(),
			RecordsRead:      read,
			RecordsRelevant:  rel,
			RecordsDecoded:   e.decoded.Load(),
			RecordsSkipped:   e.skipped.Load(),
			BytesRead:        bytesRead,
			BytesRelevant:    e.bytesRelevant.Load(),
			BytesDecoded:     bytesRead - bytesSkipped,
			BytesSkipped:     bytesSkipped,
			ReadRatio:        effRatio(rel, read),
			LastTouchedEpoch: e.lastEpoch.Load(),
			LastQuerySeq:     e.lastQuery.Load(),
		})
	}
	h.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Shard != out[j].Shard {
			return out[i].Shard < out[j].Shard
		}
		return out[i].Partition < out[j].Partition
	})
	return out
}

// ColdestPartitions returns up to n heat rows with the lowest
// relevant/read ratio among partitions that served at least minQueries
// queries — the reclusterer's worst-offender shortlist, coldest first
// (ties broken by higher read volume, then shard/partition id for
// determinism). Nil-safe.
func (r *Registry) ColdestPartitions(n, minQueries int) []PartitionHeat {
	rows := r.HeatSnapshot()
	if len(rows) == 0 || n <= 0 {
		return nil
	}
	filtered := rows[:0]
	for _, row := range rows {
		if row.Queries >= int64(minQueries) && row.RecordsRead > 0 {
			filtered = append(filtered, row)
		}
	}
	sort.SliceStable(filtered, func(i, j int) bool {
		if filtered[i].ReadRatio != filtered[j].ReadRatio {
			return filtered[i].ReadRatio < filtered[j].ReadRatio
		}
		return filtered[i].RecordsRead > filtered[j].RecordsRead
	})
	if len(filtered) > n {
		filtered = filtered[:n]
	}
	return filtered
}
