package obs

import "time"

// Query spans: the per-query trace model.
//
// A QuerySpan follows one query end-to-end — ingress (server/wire),
// shard fan-out, per-partition prune verdicts, and the segment scans
// with their decoded-vs-kernel-skipped split. The tracer is tiered so
// the always-on cost stays near zero:
//
//   - Heat accounting (heat.go) is unconditional: every query's
//     per-partition scan stats feed the heat map regardless of
//     sampling. It is the signal the background reclusterer consumes,
//     so it can never be sampled away.
//
//   - A span skeleton (one allocation, aggregate counters, per-shard
//     children) is built for every query while the tracer is enabled,
//     so the slow-query log always captures a full tree.
//
//   - Expensive detail — prune rationale per pruned partition, the
//     query description string — is recorded only when the span is
//     sampled (1-in-N) or the slow log is armed.
//
//   - Per-partition scan timing (a clock read per partition) is
//     recorded only for sampled spans.
//
// Sampled root spans land in a bounded recent-traces ring; spans whose
// total latency crosses the slow threshold land in the slow-query ring.
// Both are exposed by /debug/slow (http.go). Forced spans (the server's
// ?trace=1, the wire protocol's trace flag) bypass sampling and are
// returned inline to the caller.

// SpanKind names the query shape a span covers.
type SpanKind string

// Span kinds, matching the table layer's three read paths.
const (
	KindSelect      SpanKind = "select"
	KindSelectWhere SpanKind = "select-where"
	KindScanAll     SpanKind = "scan-all"
)

// PruneReason explains why a partition was skipped without reading it.
type PruneReason uint8

// Prune verdicts recorded on sampled spans.
const (
	// PruneSynopsisDisjoint: the partition's attribute synopsis shares no
	// attribute with the query (Select's OR shape).
	PruneSynopsisDisjoint PruneReason = iota
	// PruneSynopsisMissing: the partition's synopsis misses a predicate
	// attribute, so no member can satisfy the conjunction.
	PruneSynopsisMissing
)

func (pr PruneReason) String() string {
	switch pr {
	case PruneSynopsisDisjoint:
		return "synopsis-disjoint"
	case PruneSynopsisMissing:
		return "synopsis-missing-attr"
	}
	return "unknown"
}

// PruneSpan is one pruned partition's verdict.
type PruneSpan struct {
	Partition uint64 `json:"partition"`
	Reason    string `json:"reason"`
}

// PartSpan is one scanned partition's contribution to a query: the
// records visited, the decoded/kernel-skipped split, and the byte
// volumes charged. The same struct feeds the heat map and the span
// tree. ScanNs is populated only on sampled spans.
type PartSpan struct {
	Shard         int32  `json:"shard"`
	Partition     uint64 `json:"partition"`
	Scanned       int64  `json:"records_scanned"`
	Returned      int64  `json:"records_returned"`
	Decoded       int64  `json:"records_decoded"`
	Skipped       int64  `json:"records_skipped"`
	BytesRead     int64  `json:"bytes_read"`
	BytesRelevant int64  `json:"bytes_relevant"`
	BytesSkipped  int64  `json:"bytes_skipped"`
	ScanNs        int64  `json:"scan_ns,omitempty"`
	// Bitmap-kernel attribution (see internal/table bitmap.go): word
	// operations performed and candidates yielded for this partition.
	BitmapWords int64 `json:"bitmap_words,omitempty"`
	BitmapHits  int64 `json:"bitmap_hits,omitempty"`
}

// QueryAgg is the aggregate side of one finished query, mirroring the
// table layer's QueryReport.
type QueryAgg struct {
	PartitionsTotal   int64
	PartitionsTouched int64
	PartitionsPruned  int64
	EntitiesScanned   int64
	EntitiesReturned  int64
	BytesRead         int64
	BytesRelevant     int64
}

// QuerySpan is one query's trace node. Roots cover a whole query; a
// sharded query's root holds one child span per shard, in shard order
// (the fan-out merge is deterministic). All exported fields are the
// /debug/slow and inline-trace wire format.
type QuerySpan struct {
	ID                uint64       `json:"trace_id"`
	Kind              SpanKind     `json:"kind"`
	Query             string       `json:"query,omitempty"`
	Shard             int32        `json:"shard"` // -1 on roots and library tables
	Sampled           bool         `json:"sampled"`
	DurationNs        int64        `json:"duration_ns"`
	PartitionsTotal   int64        `json:"partitions_total"`
	PartitionsTouched int64        `json:"partitions_touched"`
	PartitionsPruned  int64        `json:"partitions_pruned"`
	EntitiesScanned   int64        `json:"entities_scanned"`
	EntitiesReturned  int64        `json:"entities_returned"`
	BytesRead         int64        `json:"bytes_read"`
	BytesRelevant     int64        `json:"bytes_relevant"`
	Parts             []PartSpan   `json:"partitions,omitempty"`
	Prunes            []PruneSpan  `json:"prunes,omitempty"`
	Children          []*QuerySpan `json:"shards,omitempty"`

	child  bool // a fan-out child: the parent owns retention and slow-logging
	detail bool // record prune rationale and the query description
}

// WantDetail reports whether the span wants the query description and
// per-partition prune rationale (sampled, or the slow log is armed).
// Nil-safe: a nil span wants nothing.
func (sp *QuerySpan) WantDetail() bool { return sp != nil && sp.detail }

// TimeScans reports whether per-partition scan timing should be
// recorded (sampled spans only). Nil-safe.
func (sp *QuerySpan) TimeScans() bool { return sp != nil && sp.Sampled }

// SetQuery attaches the human-readable query description. Nil-safe.
func (sp *QuerySpan) SetQuery(q string) {
	if sp != nil {
		sp.Query = q
	}
}

// Prune records one pruned partition's verdict. No-op unless the span
// wants detail. Nil-safe.
func (sp *QuerySpan) Prune(pid uint64, reason PruneReason) {
	if sp == nil || !sp.detail {
		return
	}
	sp.Prunes = append(sp.Prunes, PruneSpan{Partition: pid, Reason: reason.String()})
}

// NewChild creates the per-shard child span for a fan-out. The caller
// creates children serially (in shard order) before launching the
// fan-out goroutines; each goroutine then writes only its own child.
// Nil-safe: a nil parent yields a nil child.
func (sp *QuerySpan) NewChild(shard int32) *QuerySpan {
	if sp == nil {
		return nil
	}
	c := &QuerySpan{
		ID:      sp.ID,
		Kind:    sp.Kind,
		Shard:   shard,
		Sampled: sp.Sampled,
		child:   true,
		detail:  sp.detail,
	}
	sp.Children = append(sp.Children, c)
	return c
}

// sumChildren folds the per-shard children's aggregates into the root.
func (sp *QuerySpan) sumChildren() {
	for _, c := range sp.Children {
		sp.PartitionsTotal += c.PartitionsTotal
		sp.PartitionsTouched += c.PartitionsTouched
		sp.PartitionsPruned += c.PartitionsPruned
		sp.EntitiesScanned += c.EntitiesScanned
		sp.EntitiesReturned += c.EntitiesReturned
		sp.BytesRead += c.BytesRead
		sp.BytesRelevant += c.BytesRelevant
	}
}

// StartQuery begins a span for one query, making the 1-in-N sampling
// decision. Returns nil when the registry is nil or the span tracer is
// disabled (Options.TraceSampleEvery < 0) — heat accounting and slow
// synthesis still happen in FinishQuery. The span's Shard is the
// handle's shard id.
func (r *Registry) StartQuery(kind SpanKind) *QuerySpan {
	if r == nil || r.traceEvery == 0 {
		return nil
	}
	sampled := r.traceEvery == 1 || (r.sampleTick.Add(1)-1)%uint64(r.traceEvery) == 0
	return &QuerySpan{
		ID:      r.traceID.Add(1),
		Kind:    kind,
		Shard:   r.shard,
		Sampled: sampled,
		detail:  sampled || r.slowNs.Load() > 0,
	}
}

// StartQueryForced begins a span that bypasses sampling — the server's
// ?trace=1 and the wire protocol's trace flag. The span is treated as
// sampled (full detail, per-partition timing) and is returned inline to
// the caller in addition to normal retention. Nil-safe.
func (r *Registry) StartQueryForced(kind SpanKind) *QuerySpan {
	if r == nil {
		return nil
	}
	return &QuerySpan{
		ID:      r.traceID.Add(1),
		Kind:    kind,
		Shard:   r.shard,
		Sampled: true,
		detail:  true,
	}
}

// FinishQuery completes one query's span bookkeeping:
//
//   - feeds parts into the always-on heat map (keyed by this handle's
//     shard id),
//   - fills sp's duration, aggregates, and partition details,
//   - on root spans: retains sampled spans in the recent ring and
//     over-threshold spans in the slow-query ring (children are merged
//     and retained by their parent's FinishQuery).
//
// A sharded root passes parts == nil (its children carry the parts) and
// its aggregates are summed from the children. When sp is nil (tracer
// disabled) the heat map is still fed, and a minimal span is
// synthesized for the slow log if the query crossed the threshold.
// Nil-safe.
func (r *Registry) FinishQuery(sp *QuerySpan, ns int64, agg QueryAgg, parts []PartSpan) {
	if r == nil {
		return
	}
	if len(parts) > 0 {
		for i := range parts {
			parts[i].Shard = r.shard
		}
		r.heat.note(parts, r.gauge(GSnapshotEpoch).Load(), r.counters[CQueries].Load())
	}
	slowNs := r.slowNs.Load()
	if sp == nil {
		if slowNs > 0 && ns >= slowNs {
			sp = &QuerySpan{Shard: r.shard, DurationNs: ns, Parts: parts}
			sp.applyAgg(agg)
			r.counters[CSlowQueries].Add(1)
			r.slow.add(sp)
		}
		return
	}
	sp.DurationNs = ns
	sp.Parts = parts
	if len(sp.Children) > 0 {
		sp.sumChildren()
	} else {
		sp.applyAgg(agg)
	}
	if sp.child {
		return
	}
	if sp.Sampled {
		r.counters[CTraceSampled].Add(1)
		r.recent.add(sp)
	}
	if slowNs > 0 && ns >= slowNs {
		r.counters[CSlowQueries].Add(1)
		r.slow.add(sp)
	}
}

func (sp *QuerySpan) applyAgg(agg QueryAgg) {
	sp.PartitionsTotal = agg.PartitionsTotal
	sp.PartitionsTouched = agg.PartitionsTouched
	sp.PartitionsPruned = agg.PartitionsPruned
	sp.EntitiesScanned = agg.EntitiesScanned
	sp.EntitiesReturned = agg.EntitiesReturned
	sp.BytesRead = agg.BytesRead
	sp.BytesRelevant = agg.BytesRelevant
}

// SetSlowThreshold arms (d > 0) or disarms (d <= 0) the slow-query log.
// Queries whose total latency reaches d are retained in the slow ring
// with their full span tree. Nil-safe.
func (r *Registry) SetSlowThreshold(d time.Duration) {
	if r == nil {
		return
	}
	r.slowNs.Store(int64(d))
}

// SlowThreshold returns the armed slow-query threshold (0 = disarmed).
func (r *Registry) SlowThreshold() time.Duration {
	if r == nil {
		return 0
	}
	return time.Duration(r.slowNs.Load())
}

// SlowDump returns the retained slow-query spans, oldest first, plus
// the total number of slow queries ever observed (the ring may retain
// fewer). Nil-safe.
func (r *Registry) SlowDump() ([]*QuerySpan, uint64) {
	if r == nil {
		return nil, 0
	}
	return r.slow.dump()
}

// RecentTraces returns the retained sampled root spans, oldest first.
// Nil-safe.
func (r *Registry) RecentTraces() []*QuerySpan {
	if r == nil {
		return nil
	}
	spans, _ := r.recent.dump()
	return spans
}

// TraceSampleEvery returns the sampling period (every N-th query is
// traced in detail); 0 means the span tracer is disabled.
func (r *Registry) TraceSampleEvery() int {
	if r == nil {
		return 0
	}
	return int(r.traceEvery)
}
