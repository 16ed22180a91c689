package obs

// Reclustering support: the query-shape mix recorder (what does the
// recent workload ask for?) and the victim-outcome ring behind the
// /metrics efficiency-before/after gauges. The data lives
// here rather than in internal/recluster so the ops surface (metrics,
// debug endpoints) can render it without importing the control loop.

import (
	"sort"

	"cinderella/internal/synopsis"
)

// qmixCap bounds the query-shape ring: enough recent queries to
// estimate the mix, small enough that a full aggregation per recluster
// round is trivial.
const qmixCap = 512

// qmixShape is one recorded query attribute set, stamped with the
// shard handle that recorded it (-1 = the root handle: span roots and
// library tables opened without a shard view).
type qmixShape struct {
	shard int32
	attrs []int
}

// NoteQueryShape records one query's attribute set into the recent-mix
// ring, stamped with this handle's shard. The table's select path
// calls it once per query; it is one short lock plus one small copy.
// Nil-safe.
func (r *Registry) NoteQueryShape(q *synopsis.Set) {
	if r == nil || q == nil || q.Empty() {
		return
	}
	r.qmix.add(qmixShape{shard: r.shard, attrs: q.Elements(nil)})
}

// QueryShape is one distinct query attribute set in the recent mix,
// with its multiplicity. Attribute ids are ids of the store's one
// dictionary; QueryMix still filters by shard because heat is per
// shard, and each shard's reclusterer blends its own recent mix.
type QueryShape struct {
	Shard int32 `json:"shard"`
	Attrs []int `json:"attrs"`
	Count int64 `json:"count"`
}

// QueryMix aggregates the recent query-shape ring for one shard into
// up to max distinct shapes, most frequent first (ties by ascending
// attribute set, for determinism). Nil-safe.
func (r *Registry) QueryMix(shard int32, max int) []QueryShape {
	if r == nil || max <= 0 {
		return nil
	}
	shapes, _ := r.qmix.dump()
	byKey := make(map[string]*QueryShape)
	for i := range shapes {
		s := &shapes[i]
		if s.shard != shard {
			continue
		}
		key := attrKey(s.attrs)
		sh := byKey[key]
		if sh == nil {
			sh = &QueryShape{Shard: shard, Attrs: append([]int(nil), s.attrs...)}
			byKey[key] = sh
		}
		sh.Count++
	}
	out := make([]QueryShape, 0, len(byKey))
	for _, sh := range byKey {
		out = append(out, *sh)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Count != out[j].Count {
			return out[i].Count > out[j].Count
		}
		return lessInts(out[i].Attrs, out[j].Attrs)
	})
	if len(out) > max {
		out = out[:max]
	}
	return out
}

// attrKey encodes an ascending attribute-id slice (Elements order) as
// a map key. Varint-ish byte packing would be overkill: the mix is
// aggregated once per recluster round, not per query.
func attrKey(attrs []int) string {
	b := make([]byte, 0, len(attrs)*3)
	for _, a := range attrs {
		for a >= 0x80 {
			b = append(b, byte(a)|0x80)
			a >>= 7
		}
		b = append(b, byte(a))
	}
	return string(b)
}

func lessInts(a, b []int) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// reclusterOutcomeCap bounds the victim-outcome ring (newest wins).
const reclusterOutcomeCap = 64

// ReclusterOutcome records one victim partition's migration and the
// efficiency it was selected at versus the efficiency measured from
// fresh queries afterwards. RatioAfter is only meaningful once the
// partition has been read again post-migration (AfterKnown).
type ReclusterOutcome struct {
	Shard       int32   `json:"shard"`
	Partition   uint64  `json:"partition"`
	RatioBefore float64 `json:"ratio_before"`
	RatioAfter  float64 `json:"ratio_after"`
	AfterKnown  bool    `json:"after_known"`
	Examined    int64   `json:"examined"`
	Moved       int64   `json:"moved"`
}

// RecordReclusterOutcome appends one victim outcome to the bounded
// ring rendered on /metrics and /debug/recluster. Nil-safe.
func (r *Registry) RecordReclusterOutcome(o ReclusterOutcome) {
	if r == nil {
		return
	}
	r.outcomes.add(o)
}

// ReclusterOutcomes returns the retained victim outcomes, oldest
// first. Nil-safe.
func (r *Registry) ReclusterOutcomes() []ReclusterOutcome {
	if r == nil {
		return nil
	}
	out, _ := r.outcomes.dump()
	return out
}
