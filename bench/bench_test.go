package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"slices"
	"testing"
)

// streams serializes a run's generated inputs: the documents in arrival
// order, the probe lists, two readers' query streams across the shift
// point, and the mixed workload's write sequence.
func streams(t *testing.T, seed int64) []byte {
	t.Helper()
	ds, err := generate(3000)
	if err != nil {
		t.Fatal(err)
	}
	var readers [][]int
	for r := 0; r < 2; r++ {
		s := newQueryStream(seed, r, ds)
		var draws []int
		for i := 0; i < 500; i++ {
			draws = append(draws, s.next(i >= 250))
		}
		readers = append(readers, draws)
	}
	b, err := json.Marshal(map[string]any{
		"docs":    ds.docs,
		"queries": ds.queries(),
		"probe":   probeList(seed, ds, 200, false),
		"shifted": probeList(seed, ds, 200, true),
		"readers": readers,
		"ops":     mixedOps(seed, 2000, 800),
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSameSeedSameStreams(t *testing.T) {
	a, b := streams(t, 7), streams(t, 7)
	if string(a) != string(b) {
		t.Fatal("two generations from one seed differ")
	}
	if string(a) == string(streams(t, 8)) {
		t.Fatal("another seed gives the same streams")
	}
}

// The stream realizes the stated mix: 80 % selective, the top rank the
// most frequent, and after the shift the bottom rank.
func TestQueryStreamMix(t *testing.T) {
	ds, err := generate(3000)
	if err != nil {
		t.Fatal(err)
	}
	const n = 10000
	for _, shifted := range []bool{false, true} {
		s := newQueryStream(1, 0, ds)
		count := make([]int, len(ds.queries()))
		for i := 0; i < n; i++ {
			count[s.next(shifted)]++
		}
		selective := 0
		for _, c := range count[:len(ds.sel)] {
			selective += c
		}
		if selective < n*79/100 || selective > n*81/100 {
			t.Errorf("shifted=%v: %d of %d draws are selective, want 80 %%", shifted, selective, n)
		}
		hot, cold := 0, len(ds.sel)-1
		if shifted {
			hot, cold = cold, hot
		}
		if count[hot] <= count[cold] {
			t.Errorf("shifted=%v: rank %d drawn %d times, rank %d %d times", shifted, hot, count[hot], cold, count[cold])
		}
	}
}

func TestMixedOpsTouchEachTargetOnce(t *testing.T) {
	seen := make(map[int]bool)
	kinds := make(map[byte]int)
	for _, op := range mixedOps(3, 5000, 10000) {
		kinds[op.Kind]++
		if op.Kind == opInsert {
			continue
		}
		if seen[op.Target] {
			t.Fatalf("preloaded document %d is the target of two writes", op.Target)
		}
		seen[op.Target] = true
	}
	if kinds[opInsert] < 7800 || kinds[opUpdate] < 1300 || kinds[opDelete] < 400 {
		t.Errorf("mix %v is not 80/15/5", kinds)
	}
}

// A percentile is reported only with at least ten samples beyond it.
func TestSupportedTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{50, 0}, {99, 0}, {100, 0.9}, {199, 0.9}, {200, 0.95}, {999, 0.95},
		{1000, 0.99}, {9999, 0.99}, {10000, 0.999}, {100000, 0.9999},
	} {
		if got := supportedTail(c.n); got != c.want {
			t.Errorf("supportedTail(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	var samples []float64
	for i := 1; i <= 1000; i++ {
		samples = append(samples, float64(i))
	}
	got := summarize(samples)
	if got.P50 != 500 || got.P99 != 990 || got.Tail != 0.99 || got.TailValue != 990 {
		t.Errorf("summarize(1..1000) = %+v", got)
	}
}

// Self time is a span's duration minus the union of its children's
// intervals clipped to it.
func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "apply", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "apply", Start: 25, End: 40},  // overlaps its sibling
		{ID: 4, Parent: 1, Name: "wait", Start: 60, End: 120},  // runs past its parent
		{ID: 5, Parent: 4, Name: "sync", Start: 70, End: 80},   // a grandchild
		{ID: 6, Name: "background", Start: 0, End: 50},         // a second root
		{ID: 7, Parent: 99, Name: "orphan", Start: 0, End: 10}, // parent not recorded
	}
	want := map[string]layerTime{
		"root":       {Count: 1, Total: 100, Self: 100 - 30 - 40}, // [10,40) and [60,100) covered
		"apply":      {Count: 2, Total: 35, Self: 35},
		"wait":       {Count: 1, Total: 60, Self: 50},
		"sync":       {Count: 1, Total: 10, Self: 10},
		"background": {Count: 1, Total: 50, Self: 50},
		"orphan":     {Count: 1, Total: 10, Self: 10},
	}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v\nwant %v", got, want)
	}
}

// tiny runs every workload in about a second.
var tiny = sizes{
	Preload: 1000, IngestDocs: 1500, SetupRepeats: 1, Conns: 2, Batch: 64,
	MixedRate: 800, MixedBatch: 16, Burst: 300, VerifySample: 100, Reopens: 1, Probe: 30,
}

// specNames reads the metric names BENCHMARK.json declares under key.
func specNames(t *testing.T, key string) []string {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec map[string]json.RawMessage
	var metrics []struct{ Name string }
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(spec[key], &metrics); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range metrics {
		names = append(names, m.Name)
	}
	slices.Sort(names)
	return names
}

func metricNames(m map[string]metric) []string {
	var names []string
	for n := range m {
		names = append(names, n)
	}
	slices.Sort(names)
	return names
}

// Every workload, at a tiny scale, against a real spawned daemon, and
// one through the traced in-process stack: every answer correct, and
// exactly the metrics BENCHMARK.json declares, the end-to-end ones
// never zero.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns daemons")
	}
	bin, err := buildDaemon(".", t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(reapAll)
	endToEnd := specNames(t, "end_to_end")
	for _, name := range workloadNames {
		rep, err := runOne(context.Background(), name, bin, t.TempDir(), t.TempDir(), tiny, 1, 1, false)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !rep.Correct {
			t.Errorf("%s: %d of %d operations failed: %s", name, rep.Failed, rep.Attempted, rep.FirstErr)
		}
		if got := metricNames(rep.Metrics); !slices.Equal(got, endToEnd) {
			t.Errorf("%s reports %v\nBENCHMARK.json declares %v", name, got, endToEnd)
		}
		for n, m := range rep.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", name, n, m.Value)
			}
		}
	}
	rep, err := runOne(context.Background(), "mixed", bin, t.TempDir(), t.TempDir(), tiny, 1, 2, true)
	if err != nil {
		t.Fatalf("traced mixed: %v", err)
	}
	if !rep.Correct {
		t.Errorf("traced mixed: %d of %d operations failed: %s", rep.Failed, rep.Attempted, rep.FirstErr)
	}
	if got, want := metricNames(rep.Metrics), specNames(t, "per_layer"); !slices.Equal(got, want) {
		t.Errorf("traced mixed reports %v\nBENCHMARK.json declares %v", got, want)
	}
	for _, n := range []string{"wire_self_us_per_frame", "store_apply_us_per_doc", "commit_wait_us_p50",
		"sync_ms_p50", "query_store_us", "findbest_ns_per_doc", "replay_docs_per_s", "trace_coverage"} {
		if rep.Metrics[n].Value <= 0 {
			t.Errorf("traced mixed: %s = %v, want > 0", n, rep.Metrics[n].Value)
		}
	}
}
