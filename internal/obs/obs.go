// Package obs is the live telemetry layer: a zero-allocation-in-steady-
// state instrumentation registry threaded through the insert path, the
// query path, storage, and the write-ahead log.
//
// The paper's entire argument rests on one number — EFFICIENCY
// (Definition 1: relevant bytes / bytes read) — which package metrics
// computes offline after a run ends. The Registry maintains the same
// numerator and denominator incrementally per query, so the metric is
// readable at any moment: cumulative since start, and windowed over the
// last N queries. Around it sit atomic counters, gauges and fixed-bucket
// histograms, each declared once in a table below (one row per metric;
// /metrics and the expvar snapshot are generated from the tables), a
// bounded event trace recording structured partitioner decisions (see
// trace.go), and an opt-in HTTP ops endpoint (see http.go) exposing
// Prometheus text metrics, expvar, and pprof without external
// dependencies.
//
// Every producer-side method is nil-safe: a nil *Registry is a no-op, so
// the library layers stay dependency-free and uninstrumented hot paths
// pay only a nil check.
package obs

import (
	"cmp"
	"slices"
	"strings"
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
	// internal/wire (binary). The byte counters are samples of one
	// labeled family per direction.
	CBytesInHTTP
	CBytesInWire
	CBytesOutHTTP
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

// Gauge identifies one stored gauge in the registry.
type Gauge uint8

// Registry gauges.
const (
	GPartitions     Gauge = iota // current partition count (table layer)
	GSnapshotEpoch               // snapshot publications (table layer)
	GServerInflight              // HTTP requests executing (internal/server)
	GWireConns                   // open binary connections (internal/wire)

	numGauges
)

// Hist identifies one histogram in the registry.
type Hist uint8

// Registry histograms. The *Ns ones take nanosecond samples.
const (
	HInsertNs Hist = iota
	HQueryNs
	HWALAppendNs
	HWALSyncNs
	HServerNs
	HCommitBatch // operations per group-commit batch
	HWireBatch   // operations per binary wire batch frame

	numHists
)

// metricDef declares one stored counter or gauge: its Prometheus family
// name, the label pair of its sample when the family has several (rows
// of one family are adjacent), HELP text, and whether a shard view also
// keeps it per shard, exported as cinderella_shard_*{shard="i"}.
type metricDef struct {
	name, label, help string
	perShard          bool
}

// sample is the row's sample name: the family name plus its label.
func (d metricDef) sample() string {
	if d.label == "" {
		return d.name
	}
	return d.name + "{" + d.label + "}"
}

// shardName is the family name of the row's per-shard series.
func (d metricDef) shardName() string {
	return "cinderella_shard_" + strings.TrimPrefix(d.name, "cinderella_")
}

var counterDefs = [numCounters]metricDef{
	CInserts:           {name: "cinderella_inserts_total", help: "Entities inserted through the partitioner.", perShard: true},
	CUpdates:           {name: "cinderella_updates_total", help: "Entity updates processed by the partitioner.", perShard: true},
	CDeletes:           {name: "cinderella_deletes_total", help: "Entity deletes processed by the partitioner.", perShard: true},
	CUpdateMoves:       {name: "cinderella_update_moves_total", help: "Updates that relocated the entity to another partition."},
	CSplits:            {name: "cinderella_splits_total", help: "Partition splits performed (Algorithm 1 lines 26-33)."},
	CSplitCascades:     {name: "cinderella_split_cascades_total", help: "Splits triggered while redistributing another split."},
	CSplitMoves:        {name: "cinderella_split_moves_total", help: "Entities physically relocated by splits or merges."},
	CMerges:            {name: "cinderella_merges_total", help: "Partition merges performed by Compact."},
	CPartitionsCreated: {name: "cinderella_partitions_created_total", help: "Partitions created."},
	CPartitionsDropped: {name: "cinderella_partitions_dropped_total", help: "Partitions dropped."},
	CRatings:           {name: "cinderella_ratings_total", help: "Entity/partition ratings computed (Section IV kernel invocations)."},
	CQueries:           {name: "cinderella_queries_total", help: "Attribute-set and predicate queries executed.", perShard: true},
	CPartitionsScanned: {name: "cinderella_partitions_scanned_total", help: "Partitions scanned by queries (survived synopsis pruning)."},
	CPartitionsPruned:  {name: "cinderella_partitions_pruned_total", help: "Partitions pruned by queries without touching data."},
	CEntitiesScanned:   {name: "cinderella_entities_scanned_total", help: "Live records visited by query scans."},
	CEntitiesReturned:  {name: "cinderella_entities_returned_total", help: "Records returned by queries (relevant to the query)."},
	CBytesRead:         {name: "cinderella_query_bytes_read_total", help: "Live record bytes read by query scans."},
	CBytesRelevant:     {name: "cinderella_query_bytes_relevant_total", help: "Live record bytes of records relevant to their query."},
	CScanDecoded:       {name: "cinderella_scan_records_decoded_total", help: "Records decoded by query scans.", perShard: true},
	CScanDecodeSkipped: {name: "cinderella_scan_decode_skipped_total", help: "Records the bitmap scan kernel pruned without decoding.", perShard: true},
	CScanBitmapWords:   {name: "cinderella_scan_bitmap_words_total", help: "64-bit word operations performed by the word-parallel bitmap scan kernel."},
	CScanBitmapHits:    {name: "cinderella_scan_bitmap_hits_total", help: "Candidate records the bitmap scan kernel could not rule out (decoded)."},
	CWALAppends:        {name: "cinderella_wal_appends_total", help: "Operations appended to the write-ahead log.", perShard: true},
	CWALAppendBytes:    {name: "cinderella_wal_append_bytes_total", help: "Payload bytes appended to the write-ahead log."},
	CWALSyncs:          {name: "cinderella_wal_syncs_total", help: "Write-ahead-log fsyncs."},
	CSrvRequests:       {name: "cinderella_server_requests_total", help: "HTTP API requests admitted and served."},
	CSrvRejected:       {name: "cinderella_server_rejected_total", help: "HTTP API requests rejected with 503 (inflight bound reached, or an admin write during drain)."},
	CSrvErrors:         {name: "cinderella_server_errors_total", help: "HTTP API requests answered with a 4xx/5xx error status."},
	CGroupCommits:      {name: "cinderella_server_group_commits_total", help: "Group-commit batches flushed (one WAL fsync each, at most)."},
	CGroupCommitOps:    {name: "cinderella_server_group_commit_ops_total", help: "Acknowledged operations covered by group-commit batches."},
	CBytesInHTTP:       {name: "cinderella_server_bytes_in_total", label: `proto="http"`, help: "Request bytes received, by protocol."},
	CBytesInWire:       {name: "cinderella_server_bytes_in_total", label: `proto="binary"`, help: "Request bytes received, by protocol."},
	CBytesOutHTTP:      {name: "cinderella_server_bytes_out_total", label: `proto="http"`, help: "Response bytes sent, by protocol."},
	CBytesOutWire:      {name: "cinderella_server_bytes_out_total", label: `proto="binary"`, help: "Response bytes sent, by protocol."},
	CWireFrames:        {name: "cinderella_wire_frames_total", help: "Binary wire protocol frames served."},
	CWireOps:           {name: "cinderella_wire_ops_total", help: "Operations applied through the binary wire protocol."},
	CWireErrors:        {name: "cinderella_wire_errors_total", help: "Binary wire frames answered with an error status (or dropped as malformed)."},
	CWireRejected:      {name: "cinderella_wire_rejected_total", help: "Binary wire write frames rejected with a retryable status (draining)."},
	CTraceSampled:      {name: "cinderella_trace_sampled_total", help: "Root query spans captured by the 1-in-N span tracer."},
	CSlowQueries:       {name: "cinderella_slow_queries_total", help: "Queries at or over the slow-query threshold, retained in the slow log."},
	CReclusterRounds:   {name: "cinderella_recluster_rounds_total", help: "Reclusterer rounds completed (one heat-map victim scan each)."},
	CReclusterBatches:  {name: "cinderella_recluster_batches_total", help: "Victim-partition migration batches executed by the reclusterer."},
	CReclusterMoves:    {name: "cinderella_recluster_moves_total", help: "Entities relocated to another partition by reclustering."},
	CReclusterExamined: {name: "cinderella_recluster_examined_total", help: "Entities re-rated by the reclusterer (moved or kept in place)."},
	CTierFreezes:       {name: "cinderella_tier_freezes_total", help: "Partitions frozen into the compressed cold storage tier."},
	CTierThaws:         {name: "cinderella_tier_thaws_total", help: "Partitions thawed back into the hot tier (mutation or reheat)."},
}

// gaugeDefs declares the stored gauges. A per-shard gauge is written
// through each shard's view, and the family reports the root handle's
// value plus every shard's.
var gaugeDefs = [numGauges]metricDef{
	GPartitions:     {name: "cinderella_partitions", help: "Current partition count.", perShard: true},
	GSnapshotEpoch:  {name: "cinderella_snapshot_epoch", help: "Snapshot publications of the lock-free read path (summed over shards).", perShard: true},
	GServerInflight: {name: "cinderella_server_inflight", help: "HTTP API requests currently executing."},
	GWireConns:      {name: "cinderella_wire_connections", help: "Open binary wire protocol connections."},
}

// histDefs declares the histograms. scale divides raw samples on
// export: 1e9 turns nanoseconds into seconds (the Prometheus duration
// convention); 1 leaves operation counts as they are.
var histDefs = [numHists]struct {
	name, help string
	bounds     []int64
	scale      float64
}{
	HInsertNs:    {"cinderella_insert_duration_seconds", "Wall time of table inserts (placement incl. splits).", latencyBoundsNs, 1e9},
	HQueryNs:     {"cinderella_query_duration_seconds", "Wall time of table queries (pruning + scan + merge).", latencyBoundsNs, 1e9},
	HWALAppendNs: {"cinderella_wal_append_duration_seconds", "Wall time of WAL record appends.", latencyBoundsNs, 1e9},
	HWALSyncNs:   {"cinderella_wal_sync_duration_seconds", "Wall time of WAL fsyncs.", latencyBoundsNs, 1e9},
	HServerNs:    {"cinderella_server_request_duration_seconds", "Wall time of served HTTP API requests.", latencyBoundsNs, 1e9},
	HCommitBatch: {"cinderella_server_group_commit_batch_size", "Operations acknowledged per group-commit batch.", batchBounds, 1},
	HWireBatch:   {"cinderella_wire_batch_ops", "Operations per binary wire batch frame.", batchBounds, 1},
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
}

// Registry aggregates live telemetry for one table (or one process — it
// is safe for concurrent use by any number of producers and readers).
//
// A Registry is a handle over shared state: ShardView returns additional
// handles that feed the same aggregate totals but also keep the
// per-shard rows of the counter and gauge tables for one shard and
// stamp the shard id onto trace events. All handles of one registry
// family are interchangeable for reading; producers hold the handle for
// the shard they belong to.
type Registry struct {
	*state
	shard int32      // shard id stamped on trace events; -1 = the root handle
	slot  *shardSlot // per-shard block; nil on the root handle
}

// state is the shared body behind every handle of one registry family.
type state struct {
	counters [numCounters]atomic.Int64
	gauges   [numGauges]atomic.Int64 // the root handle's gauge values
	hists    [numHists]histogram

	// Per-shard blocks, created by ShardView and kept ordered by id.
	// The slice is guarded by shardMu; the blocks themselves are atomic.
	shardMu sync.Mutex
	shards  []*shardSlot

	// The windowed EFFICIENCY estimate (Definition 1). The cumulative
	// one is the CEntitiesReturned / CEntitiesScanned counter pair.
	effWindow *ring[effSample]

	trace *ring[Event] // nil when Options.TraceCap < 0

	// Query tracing (span.go) and the partition heat map (heat.go).
	// traceEvery is immutable after New (0 = tracer disabled); slowNs is
	// the armed slow-query threshold (0 = disarmed).
	traceEvery int64
	sampleTick atomic.Uint64
	traceID    atomic.Uint64
	slowNs     atomic.Int64
	slow       *ring[*QuerySpan]
	recent     *ring[*QuerySpan]
	heat       *heatMap

	// Reclustering support (recluster.go): the recent query-shape mix
	// the workload-blended rating is derived from, and the victim-outcome
	// ring rendered on /metrics and /debug/recluster.
	qmix     *ring[qmixShape]
	outcomes *ring[ReclusterOutcome]

	// status holds the live status providers behind /debug/<name>
	// (name → func() any), installed by SetStatus.
	status sync.Map
}

// shardSlot is one shard's block: only the perShard rows of the counter
// and gauge tables are written. The aggregate counters in state remain
// exact; a slot is an additional attribution dimension.
type shardSlot struct {
	id       int32
	counters [numCounters]atomic.Int64
	gauges   [numGauges]atomic.Int64
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
		effWindow: newRing[effSample](opts.EffWindow),
		slow:      newRing[*QuerySpan](opts.SlowLogCap),
		recent:    newRing[*QuerySpan](opts.TraceRecentCap),
		heat:      newHeatMap(),
		qmix:      newRing[qmixShape](qmixCap),
		outcomes:  newRing[ReclusterOutcome](reclusterOutcomeCap),
	}
	for h, d := range histDefs {
		st.hists[h] = newHistogram(d.bounds)
	}
	if opts.TraceSampleEvery > 0 {
		st.traceEvery = int64(opts.TraceSampleEvery)
	}
	if opts.TraceCap > 0 {
		st.trace = newRing[Event](opts.TraceCap)
	}
	return &Registry{state: st, shard: -1}
}

// ShardView returns a handle that feeds this registry's aggregate state
// and additionally keeps the perShard counter and gauge rows for shard
// id, stamping the id onto trace events. Repeated calls with the same
// id share one slot. Nil-safe (returns nil).
func (r *Registry) ShardView(id int) *Registry {
	if r == nil {
		return nil
	}
	r.shardMu.Lock()
	defer r.shardMu.Unlock()
	i, found := slices.BinarySearchFunc(r.shards, int32(id), func(s *shardSlot, id int32) int { return cmp.Compare(s.id, id) })
	if !found {
		r.shards = slices.Insert(r.shards, i, &shardSlot{id: int32(id)})
	}
	return &Registry{state: r.state, shard: int32(id), slot: r.shards[i]}
}

// shardSlots returns the per-shard blocks, ordered by shard id.
func (r *Registry) shardSlots() []*shardSlot {
	r.shardMu.Lock()
	defer r.shardMu.Unlock()
	return slices.Clone(r.shards)
}

// Add increments counter c by n. Nil-safe no-op.
func (r *Registry) Add(c Counter, n int64) {
	if r == nil || n == 0 {
		return
	}
	r.counters[c].Add(n)
	if r.slot != nil && counterDefs[c].perShard {
		r.slot.counters[c].Add(n)
	}
}

// Counter returns the current value of c; 0 on a nil registry.
func (r *Registry) Counter(c Counter) int64 {
	if r == nil {
		return 0
	}
	return r.counters[c].Load()
}

// SetGauge sets gauge g to v. Through a shard view a per-shard gauge
// sets that shard's value. Nil-safe.
func (r *Registry) SetGauge(g Gauge, v int64) {
	if r == nil {
		return
	}
	r.gauge(g).Store(v)
}

// AddGauge adjusts gauge g by delta (+1 on open, -1 on close, …).
// Nil-safe.
func (r *Registry) AddGauge(g Gauge, delta int64) {
	if r == nil {
		return
	}
	r.gauge(g).Add(delta)
}

// gauge is the cell this handle writes g to.
func (r *Registry) gauge(g Gauge) *atomic.Int64 {
	if r.slot != nil && gaugeDefs[g].perShard {
		return &r.slot.gauges[g]
	}
	return &r.gauges[g]
}

// Gauge returns gauge g: for a per-shard gauge, the root handle's value
// plus every shard's. 0 on a nil registry.
func (r *Registry) Gauge(g Gauge) int64 {
	if r == nil {
		return 0
	}
	v := r.gauges[g].Load()
	if gaugeDefs[g].perShard {
		for _, s := range r.shardSlots() {
			v += s.gauges[g].Load()
		}
	}
	return v
}

// Observe records one sample in histogram h (nanoseconds for the *Ns
// histograms, operation counts for the batch ones). Nil-safe.
func (r *Registry) Observe(h Hist, v int64) {
	if r == nil {
		return
	}
	r.hists[h].observe(v)
}

// NoteQuery folds one executed query into the registry: the pruning and
// volume counters, the query latency histogram, and the EFFICIENCY
// window.
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
	r.Add(CQueries, 1)
	r.Add(CPartitionsScanned, touched)
	r.Add(CPartitionsPruned, pruned)
	// Denominators before numerators: the efficiency readers load the
	// numerator first, so a concurrent reader never sees a ratio above 1.
	r.Add(CEntitiesScanned, read)
	r.Add(CEntitiesReturned, relevant)
	r.Add(CBytesRead, bytesRead)
	r.Add(CBytesRelevant, bytesRelevant)
	r.hists[HQueryNs].observe(ns)
	r.effWindow.add(effSample{relevant: relevant, read: read})
}

// Efficiency returns the cumulative streaming EFFICIENCY (Definition 1)
// over every query observed so far, in entity-count SIZE() units. Like
// metrics.Efficiency, an empty denominator (no query read anything)
// yields 1 — vacuously perfect. A nil registry reports 1.
func (r *Registry) Efficiency() float64 {
	if r == nil {
		return 1
	}
	// Arguments evaluate left to right, so the numerator is read first;
	// see NoteQuery.
	return effRatio(r.Counter(CEntitiesReturned), r.Counter(CEntitiesScanned))
}

// WindowEfficiency returns the EFFICIENCY over the last-N-queries window
// (N = Options.EffWindow), plus how many queries the window holds.
func (r *Registry) WindowEfficiency() (eff float64, queries int) {
	if r == nil {
		return 1, 0
	}
	samples, _ := r.effWindow.dump()
	var rel, read int64
	for _, s := range samples {
		rel += s.relevant
		read += s.read
	}
	return effRatio(rel, read), len(samples)
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

// TraceDump snapshots the event trace, oldest first, each event stamped
// with its sequence number. Nil (and trace-disabled) registries return
// nil.
func (r *Registry) TraceDump() []Event {
	if r == nil || r.trace == nil {
		return nil
	}
	evs, total := r.trace.dump()
	first := total - uint64(len(evs))
	for i := range evs {
		evs[i].Seq = first + uint64(i)
	}
	return evs
}

// TraceSeq returns the total number of events ever traced (the ring may
// retain fewer).
func (r *Registry) TraceSeq() uint64 {
	if r == nil || r.trace == nil {
		return 0
	}
	return r.trace.total()
}

// HistogramSnapshot is the JSON-friendly state of one histogram.
type HistogramSnapshot struct {
	Count    int64   `json:"count"`
	MeanNs   float64 `json:"mean_ns"`
	BoundsNs []int64 `json:"bounds_ns"`
	Counts   []int64 `json:"counts"` // len(BoundsNs)+1, last is overflow
}

// Snapshot is a point-in-time JSON-serializable view of the registry,
// published under "cinderella" at /debug/vars. Counters are keyed by
// sample name, gauges and histograms by family name, and Shards maps a
// shard id to its per-shard series keyed by family name
// (cinderella_shard_…).
type Snapshot struct {
	Counters         map[string]int64             `json:"counters"`
	Gauges           map[string]int64             `json:"gauges"`
	Histograms       map[string]HistogramSnapshot `json:"histograms"`
	Shards           map[int32]map[string]int64   `json:"shards,omitempty"`
	Efficiency       float64                      `json:"efficiency"`
	EfficiencyBytes  float64                      `json:"efficiency_bytes"`
	WindowEfficiency float64                      `json:"window_efficiency"`
	WindowQueries    int                          `json:"window_queries"`
	TraceEvents      uint64                       `json:"trace_events"`
	SlowThresholdNs  int64                        `json:"slow_threshold_ns,omitempty"`
	Heat             []PartitionHeat              `json:"heat,omitempty"`
}

// Snapshot captures the registry. Nil registries return a zero snapshot.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{Efficiency: 1, EfficiencyBytes: 1, WindowEfficiency: 1}
	}
	s := Snapshot{
		Counters:        make(map[string]int64, int(numCounters)),
		Gauges:          make(map[string]int64, int(numGauges)),
		Histograms:      make(map[string]HistogramSnapshot, int(numHists)),
		Shards:          make(map[int32]map[string]int64),
		Efficiency:      r.Efficiency(),
		EfficiencyBytes: r.EfficiencyBytes(),
		TraceEvents:     r.TraceSeq(),
		SlowThresholdNs: int64(r.SlowThreshold()),
		Heat:            r.HeatSnapshot(),
	}
	s.WindowEfficiency, s.WindowQueries = r.WindowEfficiency()
	for c, d := range counterDefs {
		s.Counters[d.sample()] = r.Counter(Counter(c))
	}
	for g, d := range gaugeDefs {
		s.Gauges[d.name] = r.Gauge(Gauge(g))
	}
	for h, d := range histDefs {
		s.Histograms[d.name] = r.hists[h].snapshot()
	}
	slots := r.shardSlots()
	for _, slot := range slots {
		s.Shards[slot.id] = make(map[string]int64)
	}
	shardRows(func(d metricDef, _ string, cell func(*shardSlot) *atomic.Int64) {
		for _, slot := range slots {
			s.Shards[slot.id][d.shardName()] = cell(slot).Load()
		}
	})
	return s
}

// shardRows calls f for each perShard row of the counter and gauge
// tables, with its Prometheus type and its cell in a shard's block.
func shardRows(f func(d metricDef, typ string, cell func(*shardSlot) *atomic.Int64)) {
	for c, d := range counterDefs {
		if d.perShard {
			f(d, "counter", func(s *shardSlot) *atomic.Int64 { return &s.counters[c] })
		}
	}
	for g, d := range gaugeDefs {
		if d.perShard {
			f(d, "gauge", func(s *shardSlot) *atomic.Int64 { return &s.gauges[g] })
		}
	}
}
