package obs

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// finishOne runs one fake query through the registry: a span from
// StartQuery, one scanned partition, and aggregates consistent with it.
func finishOne(r *Registry, pid uint64, scanned, returned, ns int64) *QuerySpan {
	sp := r.StartQuery(KindSelect)
	parts := []PartSpan{{
		Partition: pid,
		Scanned:   scanned,
		Returned:  returned,
		Decoded:   returned,
		Skipped:   scanned - returned,
		BytesRead: scanned * 10, BytesRelevant: returned * 10, BytesSkipped: (scanned - returned) * 10,
	}}
	r.FinishQuery(sp, ns, QueryAgg{
		PartitionsTotal: 1, PartitionsTouched: 1,
		EntitiesScanned: scanned, EntitiesReturned: returned,
		BytesRead: scanned * 10, BytesRelevant: returned * 10,
	}, parts)
	return sp
}

// TestTraceSamplingCadence pins the 1-in-N contract: with
// TraceSampleEvery=4, exactly every fourth StartQuery is sampled, every
// query still gets a span skeleton, and only sampled roots land in the
// recent-traces ring and the sampled counter.
func TestTraceSamplingCadence(t *testing.T) {
	r := New(Options{TraceSampleEvery: 4})
	if got := r.TraceSampleEvery(); got != 4 {
		t.Fatalf("TraceSampleEvery = %d, want 4", got)
	}
	var sampled int
	for i := 0; i < 8; i++ {
		sp := finishOne(r, 1, 10, 2, 1000)
		if sp == nil {
			t.Fatalf("query %d: no span skeleton while tracer enabled", i)
		}
		if sp.Sampled {
			sampled++
			if !sp.WantDetail() {
				t.Fatalf("query %d: sampled span does not want detail", i)
			}
			if !sp.TimeScans() {
				t.Fatalf("query %d: sampled span does not time scans", i)
			}
		} else {
			// Slow log disarmed: unsampled spans skip the expensive detail.
			if sp.WantDetail() || sp.TimeScans() {
				t.Fatalf("query %d: unsampled span records detail with slow log disarmed", i)
			}
		}
	}
	if sampled != 2 {
		t.Fatalf("sampled %d of 8 queries at 1-in-4, want 2", sampled)
	}
	if got := r.Counter(CTraceSampled); got != 2 {
		t.Fatalf("CTraceSampled = %d, want 2", got)
	}
	recent := r.RecentTraces()
	if len(recent) != 2 {
		t.Fatalf("recent ring holds %d spans, want 2", len(recent))
	}
	// Retained spans carry the filled-in skeleton: duration, aggregates,
	// and the per-partition scan rows.
	for _, sp := range recent {
		if sp.DurationNs != 1000 || sp.EntitiesScanned != 10 || sp.EntitiesReturned != 2 {
			t.Fatalf("retained span not filled: %+v", sp)
		}
		if len(sp.Parts) != 1 || sp.Parts[0].Partition != 1 {
			t.Fatalf("retained span parts = %+v, want partition 1", sp.Parts)
		}
	}

	// Arming the slow log upgrades unsampled spans to detail (the slow
	// ring must capture prune rationale even for the unsampled majority).
	r.SetSlowThreshold(time.Second)
	var unsampledDetail bool
	for i := 0; i < 4; i++ {
		if sp := r.StartQuery(KindSelect); !sp.Sampled && sp.WantDetail() {
			unsampledDetail = true
		}
	}
	if !unsampledDetail {
		t.Fatal("no unsampled span wanted detail with the slow log armed")
	}
}

// TestTraceDisabledStillFeedsHeatAndSlowLog pins the tiering contract
// for TraceSampleEvery < 0: StartQuery yields nil, but FinishQuery keeps
// feeding the always-on heat map, and an over-threshold query still gets
// a synthesized span in the slow ring.
func TestTraceDisabledStillFeedsHeatAndSlowLog(t *testing.T) {
	r := New(Options{TraceSampleEvery: -1})
	if sp := r.StartQuery(KindSelect); sp != nil {
		t.Fatalf("StartQuery returned %+v with the tracer disabled", sp)
	}
	if got := r.TraceSampleEvery(); got != 0 {
		t.Fatalf("TraceSampleEvery = %d with tracer disabled, want 0", got)
	}

	finishOne(r, 7, 100, 25, 1000)
	heat := r.HeatSnapshot()
	if len(heat) != 1 || heat[0].Partition != 7 {
		t.Fatalf("heat = %+v, want exactly partition 7", heat)
	}
	h := heat[0]
	if h.Queries != 1 || h.RecordsRead != 100 || h.RecordsRelevant != 25 {
		t.Fatalf("heat row = %+v, want queries=1 read=100 relevant=25", h)
	}
	if h.ReadRatio != 0.25 {
		t.Fatalf("ReadRatio = %v, want 0.25", h.ReadRatio)
	}
	if h.BytesDecoded != h.BytesRead-h.BytesSkipped {
		t.Fatalf("BytesDecoded = %d, want read-skipped = %d", h.BytesDecoded, h.BytesRead-h.BytesSkipped)
	}

	// Under the threshold: nothing synthesized.
	r.SetSlowThreshold(time.Millisecond)
	finishOne(r, 7, 10, 1, int64(time.Millisecond)-1)
	if slow, total := r.SlowDump(); len(slow) != 0 || total != 0 {
		t.Fatalf("slow ring = %d/%d after a fast query", len(slow), total)
	}
	// Over it: a minimal span appears with aggregates and parts attached.
	finishOne(r, 7, 10, 1, int64(2*time.Millisecond))
	slow, total := r.SlowDump()
	if len(slow) != 1 || total != 1 {
		t.Fatalf("slow ring = %d/%d after a slow query, want 1/1", len(slow), total)
	}
	if sp := slow[0]; sp.DurationNs != int64(2*time.Millisecond) || sp.EntitiesScanned != 10 || len(sp.Parts) != 1 {
		t.Fatalf("synthesized slow span = %+v", sp)
	}
	if got := r.Counter(CSlowQueries); got != 1 {
		t.Fatalf("CSlowQueries = %d, want 1", got)
	}
}

// TestTraceForcedBypassesSampling pins the ?trace=1 path: a forced span
// is fully sampled and detailed even when the tracer is disabled.
func TestTraceForcedBypassesSampling(t *testing.T) {
	r := New(Options{TraceSampleEvery: -1})
	sp := r.StartQueryForced(KindSelectWhere)
	if sp == nil || !sp.Sampled || !sp.WantDetail() || !sp.TimeScans() {
		t.Fatalf("forced span = %+v, want sampled with detail", sp)
	}
	sp.Prune(3, PruneSynopsisMissing)
	r.FinishQuery(sp, 500, QueryAgg{PartitionsTotal: 2, PartitionsPruned: 1}, nil)
	if len(sp.Prunes) != 1 || sp.Prunes[0].Reason != "synopsis-missing-attr" {
		t.Fatalf("prunes = %+v", sp.Prunes)
	}
	// Forced spans also count as sampled retention.
	if got := r.Counter(CTraceSampled); got != 1 {
		t.Fatalf("CTraceSampled = %d, want 1", got)
	}
}

// TestTraceSlowRingBounded overflows the slow ring and checks bounded
// retention with an exact total and oldest-first dump order.
func TestTraceSlowRingBounded(t *testing.T) {
	r := New(Options{TraceSampleEvery: -1, SlowLogCap: 2})
	r.SetSlowThreshold(time.Nanosecond)
	for i := 1; i <= 5; i++ {
		finishOne(r, uint64(i), int64(i), 0, int64(time.Millisecond))
	}
	slow, total := r.SlowDump()
	if total != 5 {
		t.Fatalf("slow total = %d, want 5", total)
	}
	if len(slow) != 2 {
		t.Fatalf("slow ring retained %d, want cap 2", len(slow))
	}
	// Oldest-first: queries 4 then 5 (identified by their scan volume).
	if slow[0].EntitiesScanned != 4 || slow[1].EntitiesScanned != 5 {
		t.Fatalf("slow dump order = [%d, %d], want [4, 5]",
			slow[0].EntitiesScanned, slow[1].EntitiesScanned)
	}
	if got := r.Counter(CSlowQueries); got != 5 {
		t.Fatalf("CSlowQueries = %d, want 5", got)
	}
}

// TestTraceShardFanOutMerge builds a sharded root span by hand the way
// internal/shard does — children created in shard order, each finished
// by its shard's registry handle — and checks the root sums the children
// while the heat map attributes each partition to its shard.
func TestTraceShardFanOutMerge(t *testing.T) {
	r := New(Options{TraceSampleEvery: 1})
	sv := []*Registry{r.ShardView(0), r.ShardView(1)}

	root := r.StartQuery(KindSelect)
	root.SetQuery("select(a)")
	children := []*QuerySpan{root.NewChild(0), root.NewChild(1)}
	for i, c := range children {
		if c.Shard != int32(i) || !c.Sampled {
			t.Fatalf("child %d = %+v", i, c)
		}
		parts := []PartSpan{{Partition: uint64(10 + i), Scanned: 10, Returned: int64(i)}}
		sv[i].FinishQuery(c, 100, QueryAgg{
			PartitionsTotal: 3, PartitionsTouched: 1, PartitionsPruned: 2,
			EntitiesScanned: 10, EntitiesReturned: int64(i),
		}, parts)
		// Children are merged by the parent, never retained on their own.
		if got := len(r.RecentTraces()); got != 0 {
			t.Fatalf("child %d retained itself: recent ring has %d spans", i, got)
		}
		if parts[0].Shard != int32(i) {
			t.Fatalf("child %d part shard = %d, want %d (stamped by the shard handle)", i, parts[0].Shard, i)
		}
	}
	r.FinishQuery(root, 250, QueryAgg{}, nil)

	if root.PartitionsTotal != 6 || root.PartitionsTouched != 2 || root.PartitionsPruned != 4 {
		t.Fatalf("root partition sums = %d/%d/%d, want 6/2/4",
			root.PartitionsTotal, root.PartitionsTouched, root.PartitionsPruned)
	}
	if root.EntitiesScanned != 20 || root.EntitiesReturned != 1 {
		t.Fatalf("root entity sums = %d/%d, want 20/1", root.EntitiesScanned, root.EntitiesReturned)
	}
	if root.Shard != -1 {
		t.Fatalf("root shard = %d, want -1", root.Shard)
	}
	if got := r.RecentTraces(); len(got) != 1 || got[0] != root {
		t.Fatalf("recent ring = %v, want just the root", got)
	}

	heat := r.HeatSnapshot()
	if len(heat) != 2 {
		t.Fatalf("heat rows = %d, want 2 (one per shard)", len(heat))
	}
	for i, h := range heat {
		if h.Shard != int32(i) || h.Partition != uint64(10+i) {
			t.Fatalf("heat[%d] = shard %d partition %d, want shard %d partition %d",
				i, h.Shard, h.Partition, i, 10+i)
		}
	}

	// The span tree is the wire format: it must round-trip as JSON with
	// the children under "shards".
	b, err := json.Marshal(root)
	if err != nil {
		t.Fatalf("marshal root span: %v", err)
	}
	var back QuerySpan
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("unmarshal root span: %v", err)
	}
	if len(back.Children) != 2 || back.Children[1].Parts[0].Partition != 11 {
		t.Fatalf("round-tripped span tree = %s", b)
	}
}

// TestTraceDebugEndpoints drives /debug/heat and /debug/slow through
// httptest and checks the JSON shapes the README documents.
func TestTraceDebugEndpoints(t *testing.T) {
	r := New(Options{TraceSampleEvery: 1})
	r.SetSlowThreshold(time.Nanosecond)
	finishOne(r, 1, 100, 80, int64(time.Millisecond)) // warm partition
	finishOne(r, 2, 100, 5, int64(time.Millisecond))  // cold partition

	srv := httptest.NewServer(r.Mux())
	defer srv.Close()

	var heat struct {
		Enabled    bool            `json:"enabled"`
		Partitions int             `json:"partitions"`
		Heat       []PartitionHeat `json:"heat"`
	}
	getJSON(t, srv.URL+"/debug/heat", &heat)
	if !heat.Enabled || heat.Partitions != 2 || len(heat.Heat) != 2 {
		t.Fatalf("/debug/heat = %+v", heat)
	}

	// ?by=ratio&limit=1 returns just the coldest partition.
	getJSON(t, srv.URL+"/debug/heat?by=ratio&limit=1", &heat)
	if len(heat.Heat) != 1 || heat.Heat[0].Partition != 2 {
		t.Fatalf("/debug/heat?by=ratio&limit=1 = %+v, want partition 2", heat.Heat)
	}
	// ?min filters by query count.
	getJSON(t, srv.URL+"/debug/heat?min=2", &heat)
	if len(heat.Heat) != 0 {
		t.Fatalf("/debug/heat?min=2 = %+v, want empty (each partition saw 1 query)", heat.Heat)
	}

	var slow struct {
		ThresholdNs int64        `json:"threshold_ns"`
		SlowTotal   uint64       `json:"slow_total"`
		Slow        []*QuerySpan `json:"slow"`
		SampleEvery int          `json:"sample_every"`
		Sampled     []*QuerySpan `json:"sampled"`
	}
	getJSON(t, srv.URL+"/debug/slow", &slow)
	if slow.ThresholdNs != 1 || slow.SlowTotal != 2 || len(slow.Slow) != 2 {
		t.Fatalf("/debug/slow = threshold %d, %d/%d slow", slow.ThresholdNs, len(slow.Slow), slow.SlowTotal)
	}
	if slow.SampleEvery != 1 || len(slow.Sampled) != 2 {
		t.Fatalf("/debug/slow sampled ring = every %d, %d spans", slow.SampleEvery, len(slow.Sampled))
	}
	if sp := slow.Slow[0]; sp.Kind != KindSelect || len(sp.Parts) != 1 {
		t.Fatalf("slow span over the wire = %+v", sp)
	}
}

func getJSON(t *testing.T, url string, into any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(into); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
}

// TestMetricsHelpTypeCoverage parses the full /metrics exposition and
// requires every sample to belong to a family announced by a preceding
// HELP and TYPE pair — no orphan samples, no duplicate headers — and
// pins the family list the dashboards depend on, including the tracing
// gauges, the heat families, and the per-shard decode attribution.
func TestMetricsHelpTypeCoverage(t *testing.T) {
	r := New(Options{TraceSampleEvery: 1})
	r.SetSlowThreshold(time.Millisecond)
	// Exercise every conditional family: shard views with decode
	// attribution, heat rows, and one of everything countable.
	for c := Counter(0); c < numCounters; c++ {
		r.Add(c, 1)
	}
	sv := r.ShardView(0)
	sv.Add(CScanDecoded, 7)
	sv.Add(CScanDecodeSkipped, 3)
	sv.SetGauge(GPartitions, 2)
	sp := sv.StartQuery(KindSelect)
	sv.FinishQuery(sp, int64(2*time.Millisecond), QueryAgg{PartitionsTotal: 1, PartitionsTouched: 1},
		[]PartSpan{{Partition: 4, Scanned: 10, Returned: 1, Decoded: 7, Skipped: 3, BytesRead: 100, BytesSkipped: 30}})
	r.NoteQuery(1, 0, 1, 10, 10, 100, 1000)
	r.Observe(HInsertNs, 100)
	r.Observe(HWALAppendNs, 100)
	r.Observe(HWALSyncNs, 100)
	r.Observe(HServerNs, 100)
	r.Observe(HCommitBatch, 4)
	r.Observe(HWireBatch, 4)

	var buf strings.Builder
	r.WriteMetrics(&buf)

	type family struct{ help, typ bool }
	families := map[string]*family{}
	ensure := func(name string) *family {
		f := families[name]
		if f == nil {
			f = &family{}
			families[name] = f
		}
		return f
	}
	for ln, line := range strings.Split(strings.TrimRight(buf.String(), "\n"), "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			rest := strings.TrimPrefix(line, "# HELP ")
			name, help, ok := strings.Cut(rest, " ")
			if !ok || help == "" {
				t.Fatalf("line %d: HELP without text: %q", ln+1, line)
			}
			f := ensure(name)
			if f.help {
				t.Fatalf("line %d: duplicate HELP for %s", ln+1, name)
			}
			f.help = true
		case strings.HasPrefix(line, "# TYPE "):
			rest := strings.TrimPrefix(line, "# TYPE ")
			name, typ, ok := strings.Cut(rest, " ")
			if !ok {
				t.Fatalf("line %d: malformed TYPE: %q", ln+1, line)
			}
			switch typ {
			case "counter", "gauge", "histogram":
			default:
				t.Fatalf("line %d: unknown type %q for %s", ln+1, typ, name)
			}
			f := ensure(name)
			if !f.help {
				t.Fatalf("line %d: TYPE before HELP for %s", ln+1, name)
			}
			if f.typ {
				t.Fatalf("line %d: duplicate TYPE for %s", ln+1, name)
			}
			f.typ = true
		case strings.HasPrefix(line, "#"):
			t.Fatalf("line %d: unexpected comment %q", ln+1, line)
		case line == "":
			t.Fatalf("line %d: blank line in exposition", ln+1)
		default:
			// Sample: "<name>[{labels}] <value>". Histogram samples use
			// the family name plus a _bucket/_sum/_count suffix.
			name := line
			if i := strings.IndexAny(name, "{ "); i >= 0 {
				name = name[:i]
			}
			base := name
			for _, suf := range []string{"_bucket", "_sum", "_count"} {
				if b := strings.TrimSuffix(name, suf); b != name && families[b] != nil {
					base = b
					break
				}
			}
			f := families[base]
			if f == nil || !f.help || !f.typ {
				t.Fatalf("line %d: sample %q without preceding HELP+TYPE", ln+1, line)
			}
		}
	}
	for name, f := range families {
		if !f.typ {
			t.Errorf("family %s has HELP but no TYPE", name)
		}
		if !strings.HasPrefix(name, "cinderella_") {
			t.Errorf("family %s outside the cinderella_ namespace", name)
		}
	}

	// The golden family list: everything a dashboard or the verify gate
	// references must be announced. Growing the list is fine; losing a
	// family is a break.
	for _, want := range []string{
		"cinderella_inserts_total",
		"cinderella_queries_total",
		"cinderella_scan_records_decoded_total",
		"cinderella_scan_decode_skipped_total",
		"cinderella_server_bytes_in_total",
		"cinderella_server_bytes_out_total",
		"cinderella_partitions",
		"cinderella_snapshot_epoch",
		"cinderella_efficiency",
		"cinderella_efficiency_bytes",
		"cinderella_trace_sampled_total",
		"cinderella_slow_queries_total",
		"cinderella_slow_threshold_seconds",
		"cinderella_trace_sample_period",
		"cinderella_heat_partitions",
		"cinderella_partition_read_ratio",
		"cinderella_partition_heat_queries_total",
		"cinderella_partition_heat_records_read_total",
		"cinderella_shard_queries_total",
		"cinderella_shard_scan_records_decoded_total",
		"cinderella_shard_scan_decode_skipped_total",
		"cinderella_shard_partitions",
		"cinderella_query_duration_seconds",
		"cinderella_insert_duration_seconds",
	} {
		if f := families[want]; f == nil || !f.help || !f.typ {
			t.Errorf("required family %s missing from /metrics", want)
		}
	}

	// The per-shard decode attribution (the PR-4 ShardView pattern) must
	// carry exactly what the shard handle's scan path recorded via Add;
	// FinishQuery feeds the heat map, not the counters.
	body := buf.String()
	for _, want := range []string{
		`cinderella_shard_scan_records_decoded_total{shard="0"} 7`,
		`cinderella_shard_scan_decode_skipped_total{shard="0"} 3`,
		`cinderella_partition_read_ratio{shard="0",partition="4"} 0.1`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestTraceStartQueryNilRegistry pins nil-safety across the span API.
func TestTraceStartQueryNilRegistry(t *testing.T) {
	var r *Registry
	if sp := r.StartQuery(KindSelect); sp != nil {
		t.Fatal("nil registry produced a span")
	}
	if sp := r.StartQueryForced(KindSelect); sp != nil {
		t.Fatal("nil registry produced a forced span")
	}
	r.FinishQuery(nil, 1, QueryAgg{}, []PartSpan{{Partition: 1}})
	r.SetSlowThreshold(time.Second)
	if d := r.SlowThreshold(); d != 0 {
		t.Fatalf("nil SlowThreshold = %v", d)
	}
	if slow, total := r.SlowDump(); slow != nil || total != 0 {
		t.Fatal("nil SlowDump not empty")
	}
	if r.RecentTraces() != nil || r.TraceSampleEvery() != 0 || r.HeatSnapshot() != nil {
		t.Fatal("nil registry trace accessors not empty")
	}
	var sp *QuerySpan
	if sp.WantDetail() || sp.TimeScans() {
		t.Fatal("nil span wants work")
	}
	sp.SetQuery("q")
	sp.Prune(1, PruneSynopsisMissing)
	if c := sp.NewChild(0); c != nil {
		t.Fatal("nil span produced a child")
	}
}

// TestStatusEndpoints pins the JSON of /debug/recluster and /debug/tier
// with and without an installed status provider.
func TestStatusEndpoints(t *testing.T) {
	r := New(Options{})
	r.Add(CReclusterRounds, 2)
	r.Add(CTierThaws, 1)
	r.RecordReclusterOutcome(ReclusterOutcome{Shard: 1, Partition: 9, Moved: 4})
	srv := httptest.NewServer(r.Mux())
	defer srv.Close()

	check := func(path, want string) {
		t.Helper()
		var got map[string]any
		getJSON(t, srv.URL+path, &got)
		b, _ := json.Marshal(got)
		if string(b) != want {
			t.Errorf("%s = %s, want %s", path, b, want)
		}
	}
	recl := `"counters":{"batches":0,"examined":0,"moves":0,"rounds":2},`
	outcomes := `"outcomes":[{"after_known":false,"examined":0,"moved":4,"partition":9,"ratio_after":0,"ratio_before":0,"shard":1}]`
	tier := `{"counters":{"freezes":0,"thaws":1},`
	check("/debug/recluster", `{`+recl+`"enabled":false,`+outcomes+`,"status":null}`)
	check("/debug/tier", tier+`"enabled":false,"status":null}`)

	r.SetStatus("recluster", func() any { return map[string]int{"batch_size": 8} })
	r.SetStatus("tier", func() any { return map[string]int{"hot_resident_bytes": 42} })
	check("/debug/recluster", `{`+recl+`"enabled":true,`+outcomes+`,"status":{"batch_size":8}}`)
	check("/debug/tier", tier+`"enabled":true,"status":{"hot_resident_bytes":42}}`)

	r.SetStatus("tier", nil)
	check("/debug/tier", tier+`"enabled":false,"status":null}`)
}
