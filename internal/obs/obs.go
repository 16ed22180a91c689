// Package obs is the live telemetry layer: a zero-allocation-in-steady-
// state instrumentation registry threaded through the insert path, the
// query path, storage, and the write-ahead log.
//
// The paper's entire argument rests on one number — EFFICIENCY
// (Definition 1: relevant bytes / bytes read) — which package metrics
// computes offline after a run ends. The Registry maintains the same
// numerator and denominator incrementally per query, so the metric is
// readable at any moment: cumulative since start, and windowed over the
// last N queries. Around it sit atomic counters and fixed-bucket latency
// histograms for the hot operations, a bounded event trace recording
// structured partitioner decisions (see trace.go), and an opt-in HTTP
// ops endpoint (see http.go) exposing Prometheus text metrics, expvar,
// and pprof without external dependencies.
//
// Every producer-side method is nil-safe: a nil *Registry is a no-op, so
// the library layers stay dependency-free and uninstrumented hot paths
// pay only a nil check.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Counter identifies one monotonic counter in the registry.
type Counter uint8

// Registry counters. The partitioner-side counters (inserts through
// ratings) are published by core.Cinderella; the query-side counters are
// published by the table layer; the WAL counters by wal.Writer.
const (
	CInserts Counter = iota
	CUpdates
	CDeletes
	CUpdateMoves
	CSplits
	CSplitCascades
	CSplitMoves // entities relocated by splits or merges
	CMerges
	CPartitionsCreated
	CPartitionsDropped
	CRatings // entity/partition ratings computed

	CQueries
	CPartitionsScanned
	CPartitionsPruned
	CEntitiesScanned
	CEntitiesReturned
	CBytesRead         // live record bytes scanned by queries
	CBytesRelevant     // live record bytes of returned (relevant) records
	CScanDecoded       // records decoded by query scans
	CScanDecodeSkipped // records the bitmap kernel ruled out without decoding
	CScanBitmapWords   // 64-bit word operations performed by the bitmap scan kernel
	CScanBitmapHits    // candidate records yielded by the bitmap scan kernel

	CWALAppends
	CWALAppendBytes
	CWALSyncs

	// Server-side counters, published by internal/server and the group
	// committer.
	CSrvRequests
	CSrvRejected
	CSrvErrors
	CGroupCommits
	CGroupCommitOps

	// Per-protocol traffic accounting and the binary wire protocol's
	// frame/op counters, published by internal/server (http) and
	// internal/wire (binary). The byte counters export as one labeled
	// family per direction: cinderella_server_bytes_{in,out}_total{proto=...}.
	CBytesInHTTP
	CBytesOutHTTP
	CBytesInWire
	CBytesOutWire
	CWireFrames
	CWireOps
	CWireErrors
	CWireRejected

	// Query-tracing counters, published by FinishQuery (span.go).
	CTraceSampled
	CSlowQueries

	// Reclustering counters, published by internal/recluster
	// (recluster.go).
	CReclusterRounds
	CReclusterBatches
	CReclusterMoves
	CReclusterExamined

	// Tiered-storage counters, published by the table layer's freeze
	// and thaw transitions (internal/table tier.go).
	CTierFreezes
	CTierThaws

	numCounters
)

// counterNames maps counters to their Prometheus metric names.
var counterNames = [numCounters]string{
	CInserts:           "cinderella_inserts_total",
	CUpdates:           "cinderella_updates_total",
	CDeletes:           "cinderella_deletes_total",
	CUpdateMoves:       "cinderella_update_moves_total",
	CSplits:            "cinderella_splits_total",
	CSplitCascades:     "cinderella_split_cascades_total",
	CSplitMoves:        "cinderella_split_moves_total",
	CMerges:            "cinderella_merges_total",
	CPartitionsCreated: "cinderella_partitions_created_total",
	CPartitionsDropped: "cinderella_partitions_dropped_total",
	CRatings:           "cinderella_ratings_total",
	CQueries:           "cinderella_queries_total",
	CPartitionsScanned: "cinderella_partitions_scanned_total",
	CPartitionsPruned:  "cinderella_partitions_pruned_total",
	CEntitiesScanned:   "cinderella_entities_scanned_total",
	CEntitiesReturned:  "cinderella_entities_returned_total",
	CBytesRead:         "cinderella_query_bytes_read_total",
	CBytesRelevant:     "cinderella_query_bytes_relevant_total",
	CScanDecoded:       "cinderella_scan_records_decoded_total",
	CScanDecodeSkipped: "cinderella_scan_decode_skipped_total",
	CScanBitmapWords:   "cinderella_scan_bitmap_words_total",
	CScanBitmapHits:    "cinderella_scan_bitmap_hits_total",
	CWALAppends:        "cinderella_wal_appends_total",
	CWALAppendBytes:    "cinderella_wal_append_bytes_total",
	CWALSyncs:          "cinderella_wal_syncs_total",
	CSrvRequests:       "cinderella_server_requests_total",
	CSrvRejected:       "cinderella_server_rejected_total",
	CSrvErrors:         "cinderella_server_errors_total",
	CGroupCommits:      "cinderella_server_group_commits_total",
	CGroupCommitOps:    "cinderella_server_group_commit_ops_total",
	// Labeled names ('{' present) are skipped by the generic /metrics
	// loop and rendered as proper labeled families in WriteMetrics; the
	// expvar snapshot uses them verbatim as map keys.
	CBytesInHTTP:  `cinderella_server_bytes_in_total{proto="http"}`,
	CBytesOutHTTP: `cinderella_server_bytes_out_total{proto="http"}`,
	CBytesInWire:  `cinderella_server_bytes_in_total{proto="binary"}`,
	CBytesOutWire: `cinderella_server_bytes_out_total{proto="binary"}`,
	CWireFrames:   "cinderella_wire_frames_total",
	CWireOps:      "cinderella_wire_ops_total",
	CWireErrors:   "cinderella_wire_errors_total",
	CWireRejected: "cinderella_wire_rejected_total",
	CTraceSampled: "cinderella_trace_sampled_total",
	CSlowQueries:  "cinderella_slow_queries_total",

	CReclusterRounds:   "cinderella_recluster_rounds_total",
	CReclusterBatches:  "cinderella_recluster_batches_total",
	CReclusterMoves:    "cinderella_recluster_moves_total",
	CReclusterExamined: "cinderella_recluster_examined_total",

	CTierFreezes: "cinderella_tier_freezes_total",
	CTierThaws:   "cinderella_tier_thaws_total",
}

// counterHelp documents each counter for the /metrics HELP lines.
var counterHelp = [numCounters]string{
	CInserts:           "Entities inserted through the partitioner.",
	CUpdates:           "Entity updates processed by the partitioner.",
	CDeletes:           "Entity deletes processed by the partitioner.",
	CUpdateMoves:       "Updates that relocated the entity to another partition.",
	CSplits:            "Partition splits performed (Algorithm 1 lines 26-33).",
	CSplitCascades:     "Splits triggered while redistributing another split.",
	CSplitMoves:        "Entities physically relocated by splits or merges.",
	CMerges:            "Partition merges performed by Compact.",
	CPartitionsCreated: "Partitions created.",
	CPartitionsDropped: "Partitions dropped.",
	CRatings:           "Entity/partition ratings computed (Section IV kernel invocations).",
	CQueries:           "Attribute-set and predicate queries executed.",
	CPartitionsScanned: "Partitions scanned by queries (survived synopsis pruning).",
	CPartitionsPruned:  "Partitions pruned by queries without touching data.",
	CEntitiesScanned:   "Live records visited by query scans.",
	CEntitiesReturned:  "Records returned by queries (relevant to the query).",
	CBytesRead:         "Live record bytes read by query scans.",
	CBytesRelevant:     "Live record bytes of records relevant to their query.",
	CScanDecoded:       "Records decoded by query scans.",
	CScanDecodeSkipped: "Records the bitmap scan kernel pruned without decoding.",
	CScanBitmapWords:   "64-bit word operations performed by the word-parallel bitmap scan kernel.",
	CScanBitmapHits:    "Candidate records the bitmap scan kernel could not rule out (decoded).",
	CWALAppends:        "Operations appended to the write-ahead log.",
	CWALAppendBytes:    "Payload bytes appended to the write-ahead log.",
	CWALSyncs:          "Write-ahead-log fsyncs.",
	CSrvRequests:       "HTTP API requests admitted and served.",
	CSrvRejected:       "HTTP API requests rejected with 503 (inflight bound reached, or an admin write during drain).",
	CSrvErrors:         "HTTP API requests answered with a 4xx/5xx error status.",
	CGroupCommits:      "Group-commit batches flushed (one WAL fsync each, at most).",
	CGroupCommitOps:    "Acknowledged operations covered by group-commit batches.",
	CBytesInHTTP:       "Request bytes received, by protocol.",
	CBytesOutHTTP:      "Response bytes sent, by protocol.",
	CBytesInWire:       "Request bytes received, by protocol.",
	CBytesOutWire:      "Response bytes sent, by protocol.",
	CWireFrames:        "Binary wire protocol frames served.",
	CWireOps:           "Operations applied through the binary wire protocol.",
	CWireErrors:        "Binary wire frames answered with an error status (or dropped as malformed).",
	CWireRejected:      "Binary wire write frames rejected with a retryable status (draining).",
	CTraceSampled:      "Root query spans captured by the 1-in-N span tracer.",
	CSlowQueries:       "Queries at or over the slow-query threshold, retained in the slow log.",
	CReclusterRounds:   "Reclusterer rounds completed (one heat-map victim scan each).",
	CReclusterBatches:  "Victim-partition migration batches executed by the reclusterer.",
	CReclusterMoves:    "Entities relocated to another partition by reclustering.",
	CReclusterExamined: "Entities re-rated by the reclusterer (moved or kept in place).",
	CTierFreezes:       "Partitions frozen into the compressed cold storage tier.",
	CTierThaws:         "Partitions thawed back into the hot tier (mutation or reheat).",
}

// effSample is one query's contribution to the windowed estimator.
type effSample struct {
	relevant, read int64 // Definition 1 units (entity counts)
}

// Options sizes a Registry. The zero value picks the defaults.
type Options struct {
	// EffWindow is the number of most-recent queries in the windowed
	// EFFICIENCY estimate. Default 256.
	EffWindow int
	// TraceCap bounds the event trace ring. Default 4096; negative
	// disables tracing entirely.
	TraceCap int
	// TraceSampleEvery is the query span tracer's sampling period: every
	// N-th query gets a detailed span (prune rationale, per-partition
	// scan timing). Default 64; 1 traces everything; negative disables
	// the span tracer (heat accounting and slow-query synthesis remain).
	TraceSampleEvery int
	// SlowLogCap bounds the slow-query span ring. Default 128.
	SlowLogCap int
	// TraceRecentCap bounds the recent-sampled-traces ring. Default 64.
	TraceRecentCap int
	// DisableHeat turns off the per-partition heat map. It exists only
	// so overhead benchmarks can measure an untraced baseline; the heat
	// map is meant to stay on unconditionally in production.
	DisableHeat bool
}

// Registry aggregates live telemetry for one table (or one process — it
// is safe for concurrent use by any number of producers and readers).
//
// A Registry is a handle over shared state: ShardView returns additional
// handles that feed the same aggregate totals but also attribute a core
// subset of the counters to one shard and stamp the shard id onto trace
// events. All handles of one registry family are interchangeable for
// reading; producers hold the handle for the shard they belong to.
type Registry struct {
	*state
	shard int32      // shard id stamped on trace events; -1 = the root handle
	slot  *shardSlot // per-shard counter block; nil on the root handle
}

// state is the shared body behind every handle of one registry family.
type state struct {
	counters   [numCounters]atomic.Int64
	partitions atomic.Int64 // gauge: current partition count (root-handle writers)

	// Per-shard counter blocks, created by ShardView. Append-only under
	// shardMu; the slots themselves are atomic.
	shardMu sync.Mutex
	shards  []*shardSlot

	// Server gauge, maintained by internal/server: requests currently
	// executing.
	srvInflight atomic.Int64

	// snapEpoch is the table's snapshot-publication epoch: how many times
	// a mutation republished partition snapshots for lock-free readers.
	snapEpoch atomic.Int64

	// wireConns is the open-binary-connections gauge, maintained by
	// internal/wire.
	wireConns atomic.Int64

	insertNs    Histogram
	queryNs     Histogram
	walAppendNs Histogram
	walSyncNs   Histogram
	serverNs    Histogram
	batchSize   Histogram // group-commit batch sizes (unit: operations)
	wireBatch   Histogram // binary wire batch sizes (unit: operations per frame)

	// Streaming EFFICIENCY (Definition 1). The cumulative sums use the
	// paper's entity-count SIZE() units, mirroring the offline
	// metrics.Efficiency computation exactly; the byte-valued sums are
	// kept in the counters (CBytesRelevant / CBytesRead).
	effMu       sync.Mutex
	effRelevant int64
	effRead     int64
	effRing     []effSample
	effNext     int
	effLen      int

	trace *Trace

	// Query tracing (span.go) and the partition heat map (heat.go).
	// traceEvery is immutable after New (0 = tracer disabled); slowNs is
	// the armed slow-query threshold (0 = disarmed).
	traceEvery int64
	sampleTick atomic.Uint64
	traceID    atomic.Uint64
	slowNs     atomic.Int64
	slow       *spanRing
	recent     *spanRing
	heat       *heatMap // nil when Options.DisableHeat

	// Reclustering support (recluster.go): the recent query-shape mix
	// the workload-blended rating is derived from, the victim-outcome
	// ring rendered on /metrics and /debug/recluster, and the live
	// status provider installed by the recluster manager. qmix is nil
	// when the heat map is disabled — both exist for the reclusterer.
	qmix            *qmixRing
	reclMu          sync.Mutex
	reclOutcomes    []ReclusterOutcome
	reclNext        int
	reclLen         int
	reclusterStatus atomic.Pointer[func() any]

	// tierStatus is the live status provider behind /debug/tier,
	// installed by the tiering manager (internal/tier).
	tierStatus atomic.Pointer[func() any]
}

// shardSlot attributes a core counter subset to one shard. The aggregate
// totals in state.counters remain exact; slots are an additional
// attribution dimension, not a partition of every counter.
type shardSlot struct {
	id          int32
	inserts     atomic.Int64
	deletes     atomic.Int64
	updates     atomic.Int64
	queries     atomic.Int64
	walAppends  atomic.Int64
	scanDecoded atomic.Int64 // records decoded by this shard's query scans
	scanSkipped atomic.Int64 // records its kernel pruned without decoding
	partitions  atomic.Int64 // gauge: this shard's partition count
}

// New returns a Registry sized by opts.
func New(opts Options) *Registry {
	if opts.EffWindow <= 0 {
		opts.EffWindow = 256
	}
	if opts.TraceCap == 0 {
		opts.TraceCap = 4096
	}
	if opts.TraceSampleEvery == 0 {
		opts.TraceSampleEvery = 64
	}
	if opts.SlowLogCap <= 0 {
		opts.SlowLogCap = 128
	}
	if opts.TraceRecentCap <= 0 {
		opts.TraceRecentCap = 64
	}
	st := &state{
		insertNs:    newLatencyHistogram(),
		queryNs:     newLatencyHistogram(),
		walAppendNs: newLatencyHistogram(),
		walSyncNs:   newLatencyHistogram(),
		serverNs:    newLatencyHistogram(),
		batchSize:   newBatchHistogram(),
		wireBatch:   newBatchHistogram(),
		effRing:     make([]effSample, opts.EffWindow),
		slow:        newSpanRing(opts.SlowLogCap),
		recent:      newSpanRing(opts.TraceRecentCap),
	}
	if opts.TraceSampleEvery > 0 {
		st.traceEvery = int64(opts.TraceSampleEvery)
	}
	if !opts.DisableHeat {
		st.heat = newHeatMap()
		st.qmix = newQmixRing(qmixCap)
	}
	if opts.TraceCap > 0 {
		st.trace = newTrace(opts.TraceCap)
	}
	return &Registry{state: st, shard: -1}
}

// ShardView returns a handle that feeds this registry's aggregate state
// and additionally attributes inserts/deletes/updates/queries/WAL appends
// and the partition gauge to shard id, stamping the id onto trace events.
// Repeated calls with the same id share one slot. Nil-safe (returns nil).
func (r *Registry) ShardView(id int) *Registry {
	if r == nil {
		return nil
	}
	r.shardMu.Lock()
	defer r.shardMu.Unlock()
	for _, s := range r.shards {
		if s.id == int32(id) {
			return &Registry{state: r.state, shard: int32(id), slot: s}
		}
	}
	s := &shardSlot{id: int32(id)}
	r.shards = append(r.shards, s)
	return &Registry{state: r.state, shard: int32(id), slot: s}
}

// Add increments counter c by n. Nil-safe no-op.
func (r *Registry) Add(c Counter, n int64) {
	if r == nil || n == 0 {
		return
	}
	r.counters[c].Add(n)
	if r.slot != nil {
		switch c {
		case CInserts:
			r.slot.inserts.Add(n)
		case CDeletes:
			r.slot.deletes.Add(n)
		case CUpdates:
			r.slot.updates.Add(n)
		case CWALAppends:
			r.slot.walAppends.Add(n)
		case CScanDecoded:
			r.slot.scanDecoded.Add(n)
		case CScanDecodeSkipped:
			r.slot.scanSkipped.Add(n)
		}
	}
}

// Counter returns the current value of c; 0 on a nil registry.
func (r *Registry) Counter(c Counter) int64 {
	if r == nil {
		return 0
	}
	return r.counters[c].Load()
}

// SetPartitions updates the current-partition-count gauge. A shard view
// writes its shard's gauge; the aggregate reported by Partitions is the
// root handle's gauge plus the per-shard gauges. Nil-safe.
func (r *Registry) SetPartitions(n int64) {
	if r == nil {
		return
	}
	if r.slot != nil {
		r.slot.partitions.Store(n)
		return
	}
	r.partitions.Store(n)
}

// Partitions returns the partition-count gauge summed across the
// root-handle writer and all shard views.
func (r *Registry) Partitions() int64 {
	if r == nil {
		return 0
	}
	n := r.partitions.Load()
	r.shardMu.Lock()
	for _, s := range r.shards {
		n += s.partitions.Load()
	}
	r.shardMu.Unlock()
	return n
}

// ObserveInsertNs records one insert's wall time. Nil-safe.
func (r *Registry) ObserveInsertNs(ns int64) {
	if r == nil {
		return
	}
	r.insertNs.Observe(ns)
}

// ObserveWALAppendNs records one WAL append's wall time. Nil-safe.
func (r *Registry) ObserveWALAppendNs(ns int64) {
	if r == nil {
		return
	}
	r.walAppendNs.Observe(ns)
}

// ObserveWALSyncNs records one WAL fsync's wall time. Nil-safe.
func (r *Registry) ObserveWALSyncNs(ns int64) {
	if r == nil {
		return
	}
	r.walSyncNs.Observe(ns)
}

// ObserveServerNs records one served HTTP request's wall time. Nil-safe.
func (r *Registry) ObserveServerNs(ns int64) {
	if r == nil {
		return
	}
	r.serverNs.Observe(ns)
}

// ObserveBatchSize records one group-commit batch's operation count.
// Nil-safe.
func (r *Registry) ObserveBatchSize(ops int64) {
	if r == nil {
		return
	}
	r.batchSize.Observe(ops)
}

// ObserveWireBatch records one binary wire batch frame's operation
// count. Nil-safe.
func (r *Registry) ObserveWireBatch(ops int64) {
	if r == nil {
		return
	}
	r.wireBatch.Observe(ops)
}

// AddWireConns adjusts the open-binary-connections gauge by delta
// (+1 on accept, -1 on close). Nil-safe.
func (r *Registry) AddWireConns(delta int64) {
	if r == nil {
		return
	}
	r.wireConns.Add(delta)
}

// WireConns returns the number of currently open binary wire
// connections.
func (r *Registry) WireConns() int64 {
	if r == nil {
		return 0
	}
	return r.wireConns.Load()
}

// AddServerInflight adjusts the executing-requests gauge by delta
// (+1 on admit, -1 on completion). Nil-safe.
func (r *Registry) AddServerInflight(delta int64) {
	if r == nil {
		return
	}
	r.srvInflight.Add(delta)
}

// ServerInflight returns the number of requests currently executing.
func (r *Registry) ServerInflight() int64 {
	if r == nil {
		return 0
	}
	return r.srvInflight.Load()
}

// SetSnapshotEpoch updates the snapshot-publication-epoch gauge (the
// table layer calls it after publishing new partition snapshots).
// Nil-safe.
func (r *Registry) SetSnapshotEpoch(n int64) {
	if r == nil {
		return
	}
	r.snapEpoch.Store(n)
}

// SnapshotEpoch returns the snapshot-publication-epoch gauge.
func (r *Registry) SnapshotEpoch() int64 {
	if r == nil {
		return 0
	}
	return r.snapEpoch.Load()
}

// NoteQuery folds one executed query into the registry: the pruning and
// volume counters, the query latency histogram, and the streaming
// EFFICIENCY estimator.
//
// relevant and read are Definition 1's per-query numerator and
// denominator in entity-count units: the number of entities relevant to
// the query, and the number of live entities in all partitions the query
// had to read. Because partition synopses are exact, the table layer's
// EntitiesReturned/EntitiesScanned counters are precisely these sums,
// so the cumulative estimate equals the offline metrics.Efficiency of
// the replayed workload. Nil-safe.
func (r *Registry) NoteQuery(touched, pruned, relevant, read, bytesRelevant, bytesRead, ns int64) {
	if r == nil {
		return
	}
	r.counters[CQueries].Add(1)
	r.counters[CPartitionsScanned].Add(touched)
	r.counters[CPartitionsPruned].Add(pruned)
	r.counters[CEntitiesReturned].Add(relevant)
	r.counters[CEntitiesScanned].Add(read)
	r.counters[CBytesRelevant].Add(bytesRelevant)
	r.counters[CBytesRead].Add(bytesRead)
	r.queryNs.Observe(ns)
	if r.slot != nil {
		r.slot.queries.Add(1)
	}

	r.effMu.Lock()
	r.effRelevant += relevant
	r.effRead += read
	r.effRing[r.effNext] = effSample{relevant: relevant, read: read}
	r.effNext = (r.effNext + 1) % len(r.effRing)
	if r.effLen < len(r.effRing) {
		r.effLen++
	}
	r.effMu.Unlock()
}

// Efficiency returns the cumulative streaming EFFICIENCY (Definition 1)
// over every query observed so far, in entity-count SIZE() units. Like
// metrics.Efficiency, an empty denominator (no query read anything)
// yields 1 — vacuously perfect. A nil registry reports 1.
func (r *Registry) Efficiency() float64 {
	if r == nil {
		return 1
	}
	r.effMu.Lock()
	rel, read := r.effRelevant, r.effRead
	r.effMu.Unlock()
	return effRatio(rel, read)
}

// WindowEfficiency returns the EFFICIENCY over the last-N-queries window
// (N = Options.EffWindow), plus how many queries the window holds.
func (r *Registry) WindowEfficiency() (eff float64, queries int) {
	if r == nil {
		return 1, 0
	}
	r.effMu.Lock()
	var rel, read int64
	for i := 0; i < r.effLen; i++ {
		rel += r.effRing[i].relevant
		read += r.effRing[i].read
	}
	n := r.effLen
	r.effMu.Unlock()
	return effRatio(rel, read), n
}

// EfficiencyBytes returns the cumulative EFFICIENCY with SIZE() in
// record bytes: query-relevant bytes over bytes read.
func (r *Registry) EfficiencyBytes() float64 {
	if r == nil {
		return 1
	}
	return effRatio(r.Counter(CBytesRelevant), r.Counter(CBytesRead))
}

func effRatio(relevant, read int64) float64 {
	if read == 0 {
		return 1
	}
	return float64(relevant) / float64(read)
}

// TraceEvent appends a partitioner decision to the event trace ring,
// stamping the handle's shard id (-1 on the root handle). Nil-safe; a
// no-op when tracing is disabled.
func (r *Registry) TraceEvent(ev Event) {
	if r == nil || r.trace == nil {
		return
	}
	ev.Shard = r.shard
	r.trace.add(ev)
}

// TraceDump snapshots the event trace, oldest first. Nil (and
// trace-disabled) registries return nil.
func (r *Registry) TraceDump() []Event {
	if r == nil || r.trace == nil {
		return nil
	}
	return r.trace.Dump()
}

// TraceSeq returns the total number of events ever traced (the ring may
// retain fewer).
func (r *Registry) TraceSeq() uint64 {
	if r == nil || r.trace == nil {
		return 0
	}
	return r.trace.Seq()
}

// HistogramSnapshot is the JSON-friendly state of one latency histogram.
type HistogramSnapshot struct {
	Count    int64   `json:"count"`
	MeanNs   float64 `json:"mean_ns"`
	BoundsNs []int64 `json:"bounds_ns"`
	Counts   []int64 `json:"counts"` // len(BoundsNs)+1, last is overflow
}

// ShardSnapshot is the per-shard attribution block of a Snapshot.
type ShardSnapshot struct {
	Shard       int32 `json:"shard"`
	Inserts     int64 `json:"inserts"`
	Deletes     int64 `json:"deletes"`
	Updates     int64 `json:"updates"`
	Queries     int64 `json:"queries"`
	WALAppends  int64 `json:"wal_appends"`
	ScanDecoded int64 `json:"scan_decoded"`
	ScanSkipped int64 `json:"scan_decode_skipped"`
	Partitions  int64 `json:"partitions"`
}

// Snapshot is a point-in-time JSON-serializable view of the registry,
// published under "cinderella" at /debug/vars.
type Snapshot struct {
	Counters         map[string]int64             `json:"counters"`
	Partitions       int64                        `json:"partitions"`
	ServerInflight   int64                        `json:"server_inflight"`
	WireConns        int64                        `json:"wire_connections"`
	SnapshotEpoch    int64                        `json:"snapshot_epoch"`
	Efficiency       float64                      `json:"efficiency"`
	EfficiencyBytes  float64                      `json:"efficiency_bytes"`
	WindowEfficiency float64                      `json:"window_efficiency"`
	WindowQueries    int                          `json:"window_queries"`
	Histograms       map[string]HistogramSnapshot `json:"histograms"`
	TraceEvents      uint64                       `json:"trace_events"`
	Shards           []ShardSnapshot              `json:"shards,omitempty"`
	SlowThresholdNs  int64                        `json:"slow_threshold_ns,omitempty"`
	Heat             []PartitionHeat              `json:"heat,omitempty"`
}

// ShardSnapshots returns the per-shard attribution blocks, ordered by
// shard id. Empty when no shard views exist.
func (r *Registry) ShardSnapshots() []ShardSnapshot {
	if r == nil {
		return nil
	}
	r.shardMu.Lock()
	out := make([]ShardSnapshot, 0, len(r.shards))
	for _, s := range r.shards {
		out = append(out, ShardSnapshot{
			Shard:       s.id,
			Inserts:     s.inserts.Load(),
			Deletes:     s.deletes.Load(),
			Updates:     s.updates.Load(),
			Queries:     s.queries.Load(),
			WALAppends:  s.walAppends.Load(),
			ScanDecoded: s.scanDecoded.Load(),
			ScanSkipped: s.scanSkipped.Load(),
			Partitions:  s.partitions.Load(),
		})
	}
	r.shardMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Shard < out[j].Shard })
	return out
}

// Snapshot captures the registry. Nil registries return a zero snapshot.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{Efficiency: 1, EfficiencyBytes: 1, WindowEfficiency: 1}
	}
	s := Snapshot{
		Counters:        make(map[string]int64, int(numCounters)),
		Partitions:      r.Partitions(),
		ServerInflight:  r.ServerInflight(),
		WireConns:       r.WireConns(),
		SnapshotEpoch:   r.SnapshotEpoch(),
		Efficiency:      r.Efficiency(),
		EfficiencyBytes: r.EfficiencyBytes(),
		Histograms:      make(map[string]HistogramSnapshot, 6),
		TraceEvents:     r.TraceSeq(),
	}
	s.WindowEfficiency, s.WindowQueries = r.WindowEfficiency()
	s.Shards = r.ShardSnapshots()
	s.SlowThresholdNs = int64(r.SlowThreshold())
	s.Heat = r.HeatSnapshot()
	for c := Counter(0); c < numCounters; c++ {
		s.Counters[counterNames[c]] = r.counters[c].Load()
	}
	for _, h := range r.histograms() {
		s.Histograms[h.name] = h.hist.snapshot()
	}
	return s
}

// namedHist pairs a histogram with its Prometheus family name. scale
// divides raw sample values on export: 1e9 turns nanosecond samples
// into seconds (the Prometheus duration convention); 1 leaves unit-less
// samples (batch sizes) untouched.
type namedHist struct {
	name  string
	help  string
	hist  *Histogram
	scale float64
}

func (r *Registry) histograms() []namedHist {
	return []namedHist{
		{"cinderella_insert_duration_seconds", "Wall time of table inserts (placement incl. splits).", &r.insertNs, 1e9},
		{"cinderella_query_duration_seconds", "Wall time of table queries (pruning + scan + merge).", &r.queryNs, 1e9},
		{"cinderella_wal_append_duration_seconds", "Wall time of WAL record appends.", &r.walAppendNs, 1e9},
		{"cinderella_wal_sync_duration_seconds", "Wall time of WAL fsyncs.", &r.walSyncNs, 1e9},
		{"cinderella_server_request_duration_seconds", "Wall time of served HTTP API requests (admission wait incl.).", &r.serverNs, 1e9},
		{"cinderella_server_group_commit_batch_size", "Operations acknowledged per group-commit batch.", &r.batchSize, 1},
		{"cinderella_wire_batch_ops", "Operations per binary wire batch frame.", &r.wireBatch, 1},
	}
}
