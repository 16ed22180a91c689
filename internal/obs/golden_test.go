package obs

import (
	"flag"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/metrics.golden from the current /metrics output")

// metricsFixture fills a registry with one of everything /metrics can
// export: every counter on the root handle, the shard-attributed
// counters and gauges through two shard views, every stored gauge and
// histogram, heat rows in both shards, recluster outcomes (one victim
// seen twice, one whose after-ratio is unknown) and an armed slow
// threshold. The snapshot epoch is set on the root handle only.
func metricsFixture() *Registry {
	r := New(Options{TraceSampleEvery: 1})
	r.SetSlowThreshold(2 * time.Millisecond)
	sv := []*Registry{r.ShardView(0), r.ShardView(1)}
	// Each counter's value is its sample name's rank, so every series
	// differs and the golden does not depend on the enum order. The
	// query-volume counters are left to their one producer, NoteQuery,
	// since they are EFFICIENCY's numerator and denominator.
	var names []string
	for c := Counter(0); c < numCounters; c++ {
		names = append(names, counterDefs[c].sample())
	}
	sort.Strings(names)
	rank := func(c Counter) int64 { return int64(sort.SearchStrings(names, counterDefs[c].sample())) + 1 }
	for c := Counter(0); c < numCounters; c++ {
		switch c {
		case CQueries, CPartitionsScanned, CPartitionsPruned, CEntitiesScanned, CEntitiesReturned, CBytesRead, CBytesRelevant:
		default:
			r.Add(c, rank(c))
		}
	}
	for i, v := range sv {
		for _, c := range []Counter{CInserts, CDeletes, CUpdates, CWALAppends, CScanDecoded, CScanDecodeSkipped} {
			v.Add(c, int64(100*(i+1))+rank(c))
		}
	}

	r.SetGauge(GPartitions, 4)
	sv[0].SetGauge(GPartitions, 5)
	sv[1].SetGauge(GPartitions, 6)
	r.SetGauge(GSnapshotEpoch, 9)
	r.AddGauge(GServerInflight, 2)
	r.AddGauge(GWireConns, 3)

	for _, ns := range []int64{1_500, 40_000, 3_000_000_000} {
		r.Observe(HInsertNs, ns)
		r.Observe(HWALAppendNs, ns/2)
		r.Observe(HWALSyncNs, ns*2)
		r.Observe(HServerNs, ns+7)
	}
	for _, ops := range []int64{1, 3, 64, 1000} {
		r.Observe(HCommitBatch, ops)
		r.Observe(HWireBatch, ops+1)
	}

	r.NoteQuery(2, 1, 3, 8, 30, 80, 1_200)
	sv[0].NoteQuery(1, 2, 1, 4, 10, 40, 900)
	sv[1].NoteQuery(3, 0, 5, 5, 50, 50, 50_000)
	for i, v := range sv {
		sp := v.StartQuery(KindSelect)
		ns := int64(time.Millisecond) * int64(2*i+1) // shard 1's query is slow
		v.FinishQuery(sp, ns, QueryAgg{PartitionsTotal: 2, PartitionsTouched: 2, EntitiesScanned: 30, EntitiesReturned: 6},
			[]PartSpan{
				{Partition: uint64(20 + i), Scanned: 10, Returned: 5, Decoded: 5, Skipped: 5, BytesRead: 100, BytesRelevant: 50, BytesSkipped: 50},
				{Partition: uint64(30 + i), Scanned: 20, Returned: 1, Decoded: 1, Skipped: 19, BytesRead: 200, BytesRelevant: 10, BytesSkipped: 190},
			})
	}

	r.RecordReclusterOutcome(ReclusterOutcome{Shard: 0, Partition: 30, RatioBefore: 0.05, RatioAfter: 0.5, AfterKnown: true, Examined: 20, Moved: 12})
	r.RecordReclusterOutcome(ReclusterOutcome{Shard: 1, Partition: 31, RatioBefore: 0.25, Examined: 20, Moved: 3})
	r.RecordReclusterOutcome(ReclusterOutcome{Shard: 0, Partition: 30, RatioBefore: 0.5, RatioAfter: 0.75, AfterKnown: true, Examined: 8, Moved: 2})
	return r
}

// exposition reduces a /metrics body to what the golden pins: each
// family's TYPE line and every sample line (name, labels, value), sorted.
// HELP text is left out; TestMetricsHelpTypeCoverage requires it.
func exposition(body string) string {
	var lines []string
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") {
			continue
		}
		lines = append(lines, line)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n") + "\n"
}

// TestMetricsGolden pins the /metrics exposition of metricsFixture:
// every sample and every family's type. Run with -update to rewrite
// the golden after an intended change, and review the diff.
func TestMetricsGolden(t *testing.T) {
	var buf strings.Builder
	metricsFixture().WriteMetrics(&buf)
	got := exposition(buf.String())

	path := filepath.Join("testdata", "metrics.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (run with -update to create it): %v", err)
	}
	if got == string(want) {
		return
	}
	gotSet := map[string]bool{}
	for _, l := range strings.Split(got, "\n") {
		gotSet[l] = true
	}
	wantSet := map[string]bool{}
	for _, l := range strings.Split(string(want), "\n") {
		wantSet[l] = true
		if !gotSet[l] {
			t.Errorf("missing from /metrics: %s", l)
		}
	}
	for _, l := range strings.Split(got, "\n") {
		if !wantSet[l] {
			t.Errorf("not in golden: %s", l)
		}
	}
}
