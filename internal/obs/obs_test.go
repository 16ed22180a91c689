package obs

import (
	"encoding/json"
	"io"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

// TestNilRegistryIsNoOp: every producer-side method must be callable on a
// nil registry — the library layers rely on this to stay uninstrumented
// for free.
func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	r.Add(CInserts, 1)
	r.SetGauge(GPartitions, 7)
	r.Observe(HInsertNs, 100)
	r.Observe(HWALAppendNs, 100)
	r.Observe(HWALSyncNs, 100)
	r.NoteQuery(1, 2, 3, 4, 5, 6, 7)
	r.TraceEvent(Event{Kind: EvInsert})
	if got := r.Counter(CInserts); got != 0 {
		t.Fatalf("nil Counter = %d, want 0", got)
	}
	if got := r.Gauge(GPartitions); got != 0 {
		t.Fatalf("nil Partitions = %d, want 0", got)
	}
	if got := r.Efficiency(); got != 1 {
		t.Fatalf("nil Efficiency = %v, want 1 (vacuously perfect)", got)
	}
	if got := r.EfficiencyBytes(); got != 1 {
		t.Fatalf("nil EfficiencyBytes = %v, want 1", got)
	}
	if eff, n := r.WindowEfficiency(); eff != 1 || n != 0 {
		t.Fatalf("nil WindowEfficiency = %v,%d, want 1,0", eff, n)
	}
	if d := r.TraceDump(); d != nil {
		t.Fatalf("nil TraceDump = %v, want nil", d)
	}
	s := r.Snapshot()
	if s.Efficiency != 1 {
		t.Fatalf("nil Snapshot.Efficiency = %v, want 1", s.Efficiency)
	}
}

func TestCountersAndGauge(t *testing.T) {
	r := New(Options{})
	r.Add(CRatings, 5)
	r.Add(CRatings, 3)
	r.Add(CSplits, 0) // zero adds are dropped but harmless
	if got := r.Counter(CRatings); got != 8 {
		t.Fatalf("CRatings = %d, want 8", got)
	}
	r.SetGauge(GPartitions, 12)
	if got := r.Gauge(GPartitions); got != 12 {
		t.Fatalf("Partitions = %d, want 12", got)
	}
}

// TestEfficiencyStreaming validates Definition 1's streaming form:
// cumulative sums, the read==0 → 1 convention, and the windowed ring.
func TestEfficiencyStreaming(t *testing.T) {
	r := New(Options{EffWindow: 2})
	if got := r.Efficiency(); got != 1 {
		t.Fatalf("no queries: Efficiency = %v, want 1", got)
	}

	// q1: 3 relevant of 10 read; q2: 7 of 10.
	r.NoteQuery(1, 0, 3, 10, 30, 100, 0)
	r.NoteQuery(1, 0, 7, 10, 70, 100, 0)
	if got, want := r.Efficiency(), float64(10)/float64(20); got != want {
		t.Fatalf("Efficiency = %v, want %v", got, want)
	}
	if got, want := r.EfficiencyBytes(), float64(100)/float64(200); got != want {
		t.Fatalf("EfficiencyBytes = %v, want %v", got, want)
	}

	// q3 evicts q1 from the window: window = q2,q3.
	r.NoteQuery(1, 0, 1, 10, 10, 100, 0)
	eff, n := r.WindowEfficiency()
	if want := float64(8) / float64(20); eff != want || n != 2 {
		t.Fatalf("WindowEfficiency = %v,%d, want %v,2", eff, n, want)
	}
	// Cumulative is unaffected by eviction.
	if got, want := r.Efficiency(), float64(11)/float64(30); got != want {
		t.Fatalf("cumulative Efficiency = %v, want %v", got, want)
	}

	// Counters were fed too.
	if got := r.Counter(CQueries); got != 3 {
		t.Fatalf("CQueries = %d, want 3", got)
	}
	if got := r.Counter(CEntitiesScanned); got != 30 {
		t.Fatalf("CEntitiesScanned = %d, want 30", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := newHistogram(latencyBoundsNs)
	h.observe(500)           // ≤ 1µs bucket
	h.observe(1_000)         // boundary: still ≤ 1µs
	h.observe(1_001)         // 2µs bucket
	h.observe(2_000_000_000) // beyond 1s: overflow
	s := h.snapshot()
	if got := s.Count; got != 4 {
		t.Fatalf("Count = %d, want 4", got)
	}
	if s.Counts[0] != 2 {
		t.Fatalf("first bucket = %d, want 2", s.Counts[0])
	}
	if s.Counts[1] != 1 {
		t.Fatalf("second bucket = %d, want 1", s.Counts[1])
	}
	if s.Counts[len(s.Counts)-1] != 1 {
		t.Fatalf("overflow bucket = %d, want 1", s.Counts[len(s.Counts)-1])
	}
	wantMean := float64(500+1_000+1_001+2_000_000_000) / 4
	if math.Abs(s.MeanNs-wantMean) > 1e-9 {
		t.Fatalf("MeanNs = %v, want %v", s.MeanNs, wantMean)
	}
}

// TestTraceWraparound: once more events than capacity have been added,
// the ring must retain exactly the newest cap events, oldest first, with
// contiguous sequence numbers.
func TestTraceWraparound(t *testing.T) {
	const cap = 8
	r := New(Options{TraceCap: cap})
	const total = 3*cap + 5
	for i := 0; i < total; i++ {
		r.TraceEvent(Event{Kind: EvInsert, Entity: uint64(i)})
	}
	if got := r.TraceSeq(); got != total {
		t.Fatalf("TraceSeq = %d, want %d", got, total)
	}
	dump := r.TraceDump()
	if len(dump) != cap {
		t.Fatalf("dump has %d events, want %d", len(dump), cap)
	}
	for i, ev := range dump {
		wantSeq := uint64(total - cap + i)
		if ev.Seq != wantSeq {
			t.Fatalf("dump[%d].Seq = %d, want %d", i, ev.Seq, wantSeq)
		}
		if ev.Entity != wantSeq {
			t.Fatalf("dump[%d].Entity = %d, want %d (payload must ride with its seq)", i, ev.Entity, wantSeq)
		}
	}
}

// TestTracePartialFill: before wraparound, Dump returns everything added
// so far in insertion order.
func TestTracePartialFill(t *testing.T) {
	r := New(Options{TraceCap: 16})
	for i := 0; i < 5; i++ {
		r.TraceEvent(Event{Kind: EvNewPartition, To: uint64(i)})
	}
	dump := r.TraceDump()
	if len(dump) != 5 {
		t.Fatalf("dump has %d events, want 5", len(dump))
	}
	for i, ev := range dump {
		if ev.Seq != uint64(i) || ev.To != uint64(i) {
			t.Fatalf("dump[%d] = %+v, want seq/to %d", i, ev, i)
		}
	}
}

// TestTraceDisabled: a negative TraceCap disables tracing entirely.
func TestTraceDisabled(t *testing.T) {
	r := New(Options{TraceCap: -1})
	r.TraceEvent(Event{Kind: EvInsert})
	if got := r.TraceSeq(); got != 0 {
		t.Fatalf("disabled TraceSeq = %d, want 0", got)
	}
	if d := r.TraceDump(); d != nil {
		t.Fatalf("disabled TraceDump = %v, want nil", d)
	}
}

// TestTraceConcurrentWriters hammers the ring from many goroutines; under
// -race this validates the locking, and afterwards the ring must hold
// exactly the last cap sequence numbers with no duplicates or gaps.
func TestTraceConcurrentWriters(t *testing.T) {
	const cap = 64
	r := New(Options{TraceCap: cap})
	const writers = 8
	const perWriter = 1000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				r.TraceEvent(Event{Kind: EvMove, Entity: uint64(w), From: uint64(i)})
			}
		}(w)
	}
	wg.Wait()

	if got := r.TraceSeq(); got != writers*perWriter {
		t.Fatalf("TraceSeq = %d, want %d", got, writers*perWriter)
	}
	dump := r.TraceDump()
	if len(dump) != cap {
		t.Fatalf("dump has %d events, want %d", len(dump), cap)
	}
	for i, ev := range dump {
		wantSeq := uint64(writers*perWriter - cap + i)
		if ev.Seq != wantSeq {
			t.Fatalf("dump[%d].Seq = %d, want %d", i, ev.Seq, wantSeq)
		}
	}
}

// TestSnapshotJSON: the snapshot must round-trip through encoding/json —
// /debug/vars publishes it through expvar.
func TestSnapshotJSON(t *testing.T) {
	r := New(Options{})
	r.Add(CInserts, 2)
	r.SetGauge(GPartitions, 3)
	r.Observe(HInsertNs, 1500)
	r.NoteQuery(2, 1, 4, 9, 40, 90, 2500)
	r.TraceEvent(Event{Kind: EvSplit, From: 1, To: 2, To2: 3})

	b, err := json.Marshal(r.Snapshot())
	if err != nil {
		t.Fatalf("marshal snapshot: %v", err)
	}
	var back Snapshot
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("unmarshal snapshot: %v", err)
	}
	if back.Counters["cinderella_inserts_total"] != 2 {
		t.Fatalf("round-tripped inserts = %d, want 2", back.Counters["cinderella_inserts_total"])
	}
	if back.Gauges["cinderella_partitions"] != 3 {
		t.Fatalf("round-tripped partitions = %d, want 3", back.Gauges["cinderella_partitions"])
	}
	if want := float64(4) / float64(9); back.Efficiency != want {
		t.Fatalf("round-tripped efficiency = %v, want %v", back.Efficiency, want)
	}
	if back.TraceEvents != 1 {
		t.Fatalf("round-tripped trace events = %d, want 1", back.TraceEvents)
	}
}

// TestMetricsEndpoint drives the ops mux through httptest and checks the
// Prometheus exposition: the acceptance-named families must be present
// with correct values, and histograms must expose cumulative buckets.
func TestMetricsEndpoint(t *testing.T) {
	r := New(Options{})
	r.Add(CRatings, 42)
	r.SetGauge(GPartitions, 5)
	r.NoteQuery(1, 3, 2, 4, 20, 40, 1000)
	r.Observe(HWALSyncNs, 3_000_000) // lands in the 10ms bucket

	srv := httptest.NewServer(r.Mux())
	defer srv.Close()

	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q, want text/plain", ct)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	body := string(raw)

	for _, want := range []string{
		"cinderella_ratings_total 42",
		"cinderella_partitions 5",
		"cinderella_efficiency 0.5",
		"cinderella_queries_total 1",
		"cinderella_partitions_pruned_total 3",
		"cinderella_wal_sync_duration_seconds_bucket{le=\"0.01\"} 1",
		"cinderella_wal_sync_duration_seconds_bucket{le=\"+Inf\"} 1",
		"cinderella_wal_sync_duration_seconds_count 1",
		"# TYPE cinderella_efficiency gauge",
		"# TYPE cinderella_ratings_total counter",
		"# TYPE cinderella_wal_sync_duration_seconds histogram",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// Buckets below 10ms must not have counted the 3ms fsync's family
	// neighbours: the 1ms bucket stays at 0 cumulative.
	if !strings.Contains(body, "cinderella_wal_sync_duration_seconds_bucket{le=\"0.001\"} 0") {
		t.Errorf("/metrics: 1ms sync bucket should be 0")
	}

	// /debug/vars must serve the published snapshot.
	resp2, err := srv.Client().Get(srv.URL + "/debug/vars")
	if err != nil {
		t.Fatalf("GET /debug/vars: %v", err)
	}
	defer resp2.Body.Close()
	var vars map[string]json.RawMessage
	if err := json.NewDecoder(resp2.Body).Decode(&vars); err != nil {
		t.Fatalf("decode /debug/vars: %v", err)
	}
	cvar, ok := vars["cinderella"]
	if !ok {
		t.Fatal("/debug/vars has no cinderella var")
	}
	var snap Snapshot
	if err := json.Unmarshal(cvar, &snap); err != nil {
		t.Fatalf("decode cinderella var: %v", err)
	}
	if snap.Counters["cinderella_ratings_total"] != 42 {
		t.Fatalf("expvar snapshot ratings = %d, want 42", snap.Counters["cinderella_ratings_total"])
	}

	// pprof index responds.
	resp3, err := srv.Client().Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatalf("GET /debug/pprof/: %v", err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != 200 {
		t.Fatalf("GET /debug/pprof/: status %d", resp3.StatusCode)
	}
}

// TestSnapshotEpochSumsShards: the snapshot epoch is a per-shard gauge.
// Each shard's table publishes its own epoch through its view, and the
// family reports their sum, so under several shards it neither flips
// between them nor goes backwards.
func TestSnapshotEpochSumsShards(t *testing.T) {
	r := New(Options{})
	r.ShardView(0).SetGauge(GSnapshotEpoch, 5)
	r.ShardView(1).SetGauge(GSnapshotEpoch, 3)
	var buf strings.Builder
	r.WriteMetrics(&buf)
	for _, want := range []string{
		"\ncinderella_snapshot_epoch 8\n",
		"\ncinderella_shard_snapshot_epoch{shard=\"0\"} 5\n",
		"\ncinderella_shard_snapshot_epoch{shard=\"1\"} 3\n",
	} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("/metrics missing %q", strings.TrimSpace(want))
		}
	}
	snap := r.Snapshot()
	if got := snap.Gauges["cinderella_snapshot_epoch"]; got != 8 {
		t.Errorf("expvar snapshot epoch = %d, want 8", got)
	}
	if got := snap.Shards[0]["cinderella_shard_snapshot_epoch"]; got != 5 {
		t.Errorf("expvar shard 0 snapshot epoch = %d, want 5", got)
	}
}

// TestHotTelemetryAllocFree: the calls the insert and query paths make
// on every operation allocate nothing on a shard view.
func TestHotTelemetryAllocFree(t *testing.T) {
	sv := New(Options{}).ShardView(1)
	for name, f := range map[string]func(){
		"Add":        func() { sv.Add(CInserts, 1) },
		"Observe":    func() { sv.Observe(HInsertNs, 1500) },
		"SetGauge":   func() { sv.SetGauge(GPartitions, 7) },
		"TraceEvent": func() { sv.TraceEvent(Event{Kind: EvInsert, Entity: 1, To: 2}) },
		"NoteQuery":  func() { sv.NoteQuery(1, 2, 3, 4, 5, 6, 7) },
	} {
		if n := testing.AllocsPerRun(1000, f); n != 0 {
			t.Errorf("%s allocates %v per call, want 0", name, n)
		}
	}
}

// TestEfficiencyNeverAboveOneUnderWriters: EFFICIENCY is stored once, as
// the entity and byte counter pairs. Readers take the numerator first and
// NoteQuery adds the denominator first, so a reader racing writers whose
// every query is fully relevant never sees a ratio above 1.
func TestEfficiencyNeverAboveOneUnderWriters(t *testing.T) {
	r := New(Options{})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sv := r.ShardView(w)
			for {
				select {
				case <-stop:
					return
				default:
					sv.NoteQuery(1, 0, 3, 3, 30, 30, 1)
				}
			}
		}()
	}
	for i := 0; i < 20000; i++ {
		if e, b := r.Efficiency(), r.EfficiencyBytes(); e > 1 || b > 1 {
			t.Errorf("read %d: Efficiency = %v, EfficiencyBytes = %v, want <= 1", i, e, b)
			break
		}
	}
	close(stop)
	wg.Wait()
}
