package table

import (
	"math/rand"
	"testing"

	"cinderella/internal/core"
	"cinderella/internal/entity"
	"cinderella/internal/metrics"
	"cinderella/internal/obs"
	"cinderella/internal/storage"
	"cinderella/internal/synopsis"
)

// sizedSnapshot captures the table's live contents as metrics.Sized
// slices — entities and partitions, in both entity-count and record-byte
// SIZE() units — for the offline Definition 1 computation.
func sizedSnapshot(t *testing.T, tbl *Table) (entCnt, entByte, partCnt, partByte []metrics.Sized) {
	t.Helper()
	tbl.mu.RLock()
	defer tbl.mu.RUnlock()
	for pid, seg := range tbl.segs {
		syn := seg.Synopsis()
		var n, b int64
		seg.Scan(func(_ storage.RecordID, rec []byte) bool {
			_, e, err := decodeRecord(rec)
			if err != nil {
				t.Fatalf("corrupt record: %v", err)
			}
			entCnt = append(entCnt, metrics.Sized{Syn: e.Synopsis(), Size: 1})
			entByte = append(entByte, metrics.Sized{Syn: e.Synopsis(), Size: int64(len(rec))})
			n++
			b += int64(len(rec))
			return true
		})
		if syn == nil {
			if n != 0 {
				t.Fatalf("partition %d has %d records but no synopsis", pid, n)
			}
			continue
		}
		partCnt = append(partCnt, metrics.Sized{Syn: syn, Size: n})
		partByte = append(partByte, metrics.Sized{Syn: syn, Size: b})
	}
	return
}

// TestStreamingEfficiencyMatchesMetrics is the exactness property test:
// replaying a random attribute-set workload against a loaded table, the
// registry's streaming EFFICIENCY must equal the offline
// metrics.Efficiency of Definition 1 bit-for-bit — in entity-count units
// and in record-byte units. This holds because partition synopses are
// exact: a query scans a partition iff the synopsis intersects, and every
// record it returns is exactly a Definition 1 relevant entity.
func TestStreamingEfficiencyMatchesMetrics(t *testing.T) {
	for _, seed := range []int64{1, 7, 23} {
		rng := rand.New(rand.NewSource(seed))
		reg := obs.New(obs.Options{EffWindow: 1024})
		tbl := New(Config{
			Partitioner: core.NewCinderella(core.Config{Weight: 0.5, MaxSize: 50}),
			Obs:         reg,
		})
		fillTable(tbl, 1500, seed)

		// Static partitioning from here on: snapshot it for the offline
		// computation, then replay the workload.
		entCnt, entByte, partCnt, partByte := sizedSnapshot(t, tbl)

		var workload []*synopsis.Set
		for q := 0; q < 60; q++ {
			attrs := make([]int, 1+rng.Intn(4))
			for i := range attrs {
				attrs[i] = rng.Intn(140)
			}
			workload = append(workload, synopsis.Of(attrs...))
		}

		retBefore := reg.Counter(obs.CEntitiesReturned)
		scanBefore := reg.Counter(obs.CEntitiesScanned)
		for _, q := range workload {
			tbl.SelectWithReport(q)
		}

		// Integer sums must match the offline double loop exactly.
		var rel, read int64
		for _, q := range workload {
			for _, e := range entCnt {
				if synopsis.Intersects(e.Syn, q) {
					rel += e.Size
				}
			}
			for _, p := range partCnt {
				if synopsis.Intersects(p.Syn, q) {
					read += p.Size
				}
			}
		}
		if got := reg.Counter(obs.CEntitiesReturned) - retBefore; got != rel {
			t.Fatalf("seed %d: streamed relevant = %d, offline = %d", seed, got, rel)
		}
		if got := reg.Counter(obs.CEntitiesScanned) - scanBefore; got != read {
			t.Fatalf("seed %d: streamed read = %d, offline = %d", seed, got, read)
		}

		// And the ratios are therefore identical floats, not just close.
		offline := metrics.Efficiency(entCnt, partCnt, workload)
		if got := reg.Efficiency(); got != offline {
			t.Fatalf("seed %d: streaming EFFICIENCY %v != offline %v", seed, got, offline)
		}
		offlineBytes := metrics.Efficiency(entByte, partByte, workload)
		if got := reg.EfficiencyBytes(); got != offlineBytes {
			t.Fatalf("seed %d: streaming byte EFFICIENCY %v != offline %v", seed, got, offlineBytes)
		}

		// The window holds the whole replay, so it agrees too.
		winEff, winN := reg.WindowEfficiency()
		if winN != len(workload) || winEff != offline {
			t.Fatalf("seed %d: window EFFICIENCY %v over %d queries, want %v over %d",
				seed, winEff, winN, offline, len(workload))
		}

		// The partition gauge tracks the live catalog.
		if got, want := reg.Gauge(obs.GPartitions), int64(tbl.NumPartitions()); got != want {
			t.Fatalf("seed %d: partitions gauge = %d, table has %d", seed, got, want)
		}
	}
}

// TestTraceLifecycle drives a partition through its whole life —
// creation, inserts, a split with physical moves, deletes, and the final
// drop — and checks the event ring recorded the story in order.
func TestTraceLifecycle(t *testing.T) {
	reg := obs.New(obs.Options{TraceCap: 1 << 16})
	tbl := New(Config{
		Partitioner: core.NewCinderella(core.Config{Weight: 0.5, MaxSize: 50}),
		Obs:         reg,
	})

	rng := rand.New(rand.NewSource(5))
	var ids []core.EntityID
	for i := 0; i < 1000; i++ {
		class := rng.Intn(4)
		e := &entity.Entity{}
		base := 8 + class*16
		for j := 0; j < 5; j++ {
			a := base + rng.Intn(16)
			e.Set(a, entity.Int(int64(a)))
		}
		ids = append(ids, tbl.Insert(e))
	}
	for _, id := range ids {
		if !tbl.Delete(id) {
			t.Fatalf("delete of %d failed", id)
		}
	}

	if n := tbl.Len(); n != 0 {
		t.Fatalf("table still holds %d entities", n)
	}
	if n := tbl.NumPartitions(); n != 0 {
		t.Fatalf("table still holds %d partitions", n)
	}
	if got := reg.Gauge(obs.GPartitions); got != 0 {
		t.Fatalf("partitions gauge = %d, want 0", got)
	}

	dump := reg.TraceDump()
	if len(dump) == 0 {
		t.Fatal("empty trace")
	}

	// The very first events: a partition is born, then the first entity
	// moves in.
	if dump[0].Kind != obs.EvNewPartition {
		t.Fatalf("first event is %s, want new-partition", dump[0].Kind)
	}
	if dump[1].Kind != obs.EvInsert || dump[1].To != dump[0].To {
		t.Fatalf("second event is %+v, want insert into partition %d", dump[1], dump[0].To)
	}

	// Sequence numbers are contiguous (nothing was evicted at this cap).
	for i, ev := range dump {
		if ev.Seq != uint64(i) {
			t.Fatalf("dump[%d].Seq = %d; eviction unexpected at cap %d", i, ev.Seq, 1<<16)
		}
	}

	first := map[obs.EventKind]int{}
	last := map[obs.EventKind]int{}
	for i, ev := range dump {
		if _, ok := first[ev.Kind]; !ok {
			first[ev.Kind] = i
		}
		last[ev.Kind] = i
	}
	for _, k := range []obs.EventKind{obs.EvNewPartition, obs.EvInsert, obs.EvSplit, obs.EvMove, obs.EvDelete, obs.EvDrop} {
		if _, ok := first[k]; !ok {
			t.Fatalf("no %s event in trace", k)
		}
	}

	// Lifecycle order: inserts precede the first split, which precedes
	// the deletes, and the trace ends with the last partition dropping
	// right after the delete that emptied it.
	if !(first[obs.EvInsert] < first[obs.EvSplit]) {
		t.Fatalf("first split (%d) before first insert (%d)", first[obs.EvSplit], first[obs.EvInsert])
	}
	if !(first[obs.EvSplit] < first[obs.EvDelete]) {
		t.Fatalf("first delete (%d) before first split (%d)", first[obs.EvDelete], first[obs.EvSplit])
	}
	lastEv := dump[len(dump)-1]
	if lastEv.Kind != obs.EvDrop {
		t.Fatalf("last event is %s, want drop", lastEv.Kind)
	}
	if prev := dump[len(dump)-2]; prev.Kind != obs.EvDelete || prev.From != lastEv.From {
		t.Fatalf("penultimate event %+v should be the delete emptying partition %d", prev, lastEv.From)
	}

	// A split names its source and both targets, and the moves that
	// redistribute it reference real partitions.
	sp := dump[first[obs.EvSplit]]
	if sp.From == 0 && sp.To == 0 {
		t.Fatalf("split event carries no partitions: %+v", sp)
	}
	if sp.To == sp.To2 {
		t.Fatalf("split targets identical: %+v", sp)
	}

	// Counters agree with what the trace witnessed.
	if got := reg.Counter(obs.CInserts); got != 1000 {
		t.Fatalf("CInserts = %d, want 1000", got)
	}
	if got := reg.Counter(obs.CDeletes); got != 1000 {
		t.Fatalf("CDeletes = %d, want 1000", got)
	}
	if reg.Counter(obs.CSplits) < 1 {
		t.Fatal("no splits counted")
	}
	if created, dropped := reg.Counter(obs.CPartitionsCreated), reg.Counter(obs.CPartitionsDropped); created != dropped {
		t.Fatalf("created %d partitions but dropped %d; table is empty", created, dropped)
	}
	if got := reg.Counter(obs.CRatings); got == 0 {
		t.Fatal("no ratings counted")
	}

	// The insert latency histogram saw every insert.
	snap := reg.Snapshot()
	if got := snap.Histograms["cinderella_insert_duration_seconds"].Count; got != 1000 {
		t.Fatalf("insert histogram count = %d, want 1000", got)
	}
}

// benchmarkInsert drives the full insert path (placement, storage write,
// synopsis upkeep) with or without telemetry; the pair quantifies the
// instrumentation overhead the obs acceptance budget caps at 5 %.
func benchmarkInsert(b *testing.B, reg *obs.Registry) {
	rng := rand.New(rand.NewSource(2))
	pool := make([]*entity.Entity, 4096)
	for i := range pool {
		class := rng.Intn(8)
		e := &entity.Entity{}
		base := 8 + class*16
		for j := 0; j < 5; j++ {
			a := base + rng.Intn(16)
			e.Set(a, entity.Int(int64(a)))
		}
		pool[i] = e
	}
	tbl := New(Config{
		Partitioner: core.NewCinderella(core.Config{Weight: 0.5, MaxSize: 5000}),
		Obs:         reg,
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.Insert(pool[i%len(pool)].Clone())
	}
}

func BenchmarkInsertUninstrumented(b *testing.B) { benchmarkInsert(b, nil) }

func BenchmarkInsertInstrumented(b *testing.B) {
	benchmarkInsert(b, obs.New(obs.Options{}))
}
