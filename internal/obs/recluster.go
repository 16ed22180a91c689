package obs

// Reclustering support: the query-shape mix recorder (what does the
// recent workload ask for?), the victim-outcome ring behind the
// /metrics efficiency-before/after gauges, and the /debug/recluster
// status-provider hook the recluster manager installs. The data lives
// here rather than in internal/recluster so the ops surface (metrics,
// debug endpoints) can render it without importing the control loop.

import (
	"sort"
	"sync"

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

type qmixRing struct {
	mu   sync.Mutex
	buf  []qmixShape
	next int
	len  int
}

func newQmixRing(n int) *qmixRing {
	return &qmixRing{buf: make([]qmixShape, n)}
}

// NoteQueryShape records one query's attribute set into the recent-mix
// ring, stamped with this handle's shard. The table's select path
// calls it once per query; it is one short lock plus one small copy,
// and a no-op when the heat map (and with it the reclusterer's whole
// input surface) is disabled. Nil-safe.
func (r *Registry) NoteQueryShape(q *synopsis.Set) {
	if r == nil || r.qmix == nil || q == nil || q.Empty() {
		return
	}
	attrs := q.Elements(nil)
	qm := r.qmix
	qm.mu.Lock()
	qm.buf[qm.next] = qmixShape{shard: r.shard, attrs: attrs}
	qm.next = (qm.next + 1) % len(qm.buf)
	if qm.len < len(qm.buf) {
		qm.len++
	}
	qm.mu.Unlock()
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
	if r == nil || r.qmix == nil || max <= 0 {
		return nil
	}
	qm := r.qmix
	qm.mu.Lock()
	byKey := make(map[string]*QueryShape)
	for i := 0; i < qm.len; i++ {
		s := &qm.buf[i]
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
	qm.mu.Unlock()
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
	r.reclMu.Lock()
	if r.reclOutcomes == nil {
		r.reclOutcomes = make([]ReclusterOutcome, reclusterOutcomeCap)
	}
	r.reclOutcomes[r.reclNext] = o
	r.reclNext = (r.reclNext + 1) % len(r.reclOutcomes)
	if r.reclLen < len(r.reclOutcomes) {
		r.reclLen++
	}
	r.reclMu.Unlock()
}

// ReclusterOutcomes returns the retained victim outcomes, oldest
// first. Nil-safe.
func (r *Registry) ReclusterOutcomes() []ReclusterOutcome {
	if r == nil {
		return nil
	}
	r.reclMu.Lock()
	defer r.reclMu.Unlock()
	out := make([]ReclusterOutcome, 0, r.reclLen)
	start := r.reclNext - r.reclLen
	for i := 0; i < r.reclLen; i++ {
		out = append(out, r.reclOutcomes[(start+i+len(r.reclOutcomes))%len(r.reclOutcomes)])
	}
	return out
}

// SetReclusterStatus installs (or, with nil, removes) the live status
// provider behind /debug/recluster. The recluster manager installs a
// closure over its Status method; registration order relative to Mux
// does not matter. Nil-safe.
func (r *Registry) SetReclusterStatus(f func() any) {
	if r == nil {
		return
	}
	if f == nil {
		r.reclusterStatus.Store(nil)
		return
	}
	r.reclusterStatus.Store(&f)
}

// reclusterStatusValue resolves the installed provider, reporting
// whether a reclusterer is attached at all.
func (r *Registry) reclusterStatusValue() (any, bool) {
	if r == nil {
		return nil, false
	}
	f := r.reclusterStatus.Load()
	if f == nil {
		return nil, false
	}
	return (*f)(), true
}
