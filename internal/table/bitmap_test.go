package table

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"cinderella/internal/core"
	"cinderella/internal/entity"
	"cinderella/internal/obs"
	"cinderella/internal/storage"
	"cinderella/internal/synopsis"
)

// buildOracleTable deterministically grows one table for the oracle
// property test: random entities, churn (deletes and updates), and two
// frozen partitions, so every probe crosses both tiers. The table
// carries a telemetry registry so the decode set is checked too.
func buildOracleTable(seed int64) *Table {
	rng := rand.New(rand.NewSource(seed))
	tbl := New(Config{
		Partitioner: core.NewCinderella(core.Config{Weight: 0.35, MaxSize: 60}),
		Obs:         obs.New(obs.Options{}),
	})
	var ids []core.EntityID
	for i := 0; i < 600; i++ {
		ids = append(ids, tbl.Insert(randomTestEntity(rng)))
	}
	for _, id := range ids {
		switch rng.Intn(4) {
		case 0:
			tbl.Delete(id)
		case 1:
			tbl.Update(id, randomTestEntity(rng))
		}
	}
	// Freeze the two largest partitions.
	parts := tbl.Partitions()
	sort.Slice(parts, func(i, j int) bool { return parts[i].Entities > parts[j].Entities })
	for _, pv := range parts[:2] {
		if !tbl.FreezePartition(pv.ID) {
			panic("fixture: freeze refused")
		}
	}
	return tbl
}

func sameResults(a, b []Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || !a[i].Entity.Equal(b[i].Entity) {
			return false
		}
	}
	return true
}

// TestQueriesMatchOracle is the read path's property test: on several
// seeds, Select, SelectWhere and ScanAll over a churned table spanning
// both storage tiers return exactly the brute-force oracle's results,
// QueryReport, simulated-I/O deltas — ordinary and cold-tier — and
// decode set (see oracle_test.go).
func TestQueriesMatchOracle(t *testing.T) {
	for _, seed := range []int64{1, 3, 7, 17, 42, 99} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			tbl := buildOracleTable(seed)
			for p := 0; p < 12; p++ {
				q := synopsis.Of(p%12, (p+5)%12)
				checkOracle(t, fmt.Sprintf("select probe %d", p), tbl, oracleSelect(q),
					func() ([]Result, QueryReport) { return tbl.SelectWithReport(q) })

				preds := []Pred{{Attr: p % 12, Op: CmpOp(p % 5), Value: entity.Int(int64(p * 9 % 100))}}
				if p%3 == 0 {
					preds = append(preds, Pred{Attr: (p + 3) % 12, Op: Ge, Value: entity.Int(0)})
				}
				checkOracle(t, fmt.Sprintf("where probe %d", p), tbl, oracleWhere(preds),
					func() ([]Result, QueryReport) { return tbl.SelectWhere(preds) })
			}
			checkOracle(t, "scan-all", tbl, oracleScanAll(), scanAllRun(tbl))
		})
	}
}

// TestBitmapScanConcurrentChurn scans captured snapshots while writers
// churn the table with deletes, updates, vacuums, and tier transitions.
// On every snapshot the kernel's answer to a Select program must equal
// a decode-everything-and-filter pass over the same snapshot, and the
// race detector must stay quiet across the kernel's atomic word loads.
func TestBitmapScanConcurrentChurn(t *testing.T) {
	tbl := newTestTable(0.35, 50)
	rng := rand.New(rand.NewSource(5))
	var ids []core.EntityID
	var idMu sync.Mutex
	for i := 0; i < 400; i++ {
		ids = append(ids, tbl.Insert(randomTestEntity(rng)))
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		wrng := rand.New(rand.NewSource(6))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			idMu.Lock()
			id := ids[wrng.Intn(len(ids))]
			switch i % 3 {
			case 0:
				tbl.Delete(id)
			case 1:
				tbl.Update(id, randomTestEntity(wrng))
			default:
				ids = append(ids, tbl.Insert(randomTestEntity(wrng)))
			}
			idMu.Unlock()
			if i%97 == 0 {
				tbl.Vacuum()
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			for _, pv := range tbl.Partitions() {
				if i%2 == 0 {
					tbl.FreezePartition(pv.ID)
				} else {
					tbl.ThawPartition(pv.ID)
				}
				break
			}
		}
	}()

	for i := 0; i < 300; i++ {
		q := synopsis.Of(i%12, (i+4)%12)
		prog := storage.BitmapProgram{Attrs: q.Elements(nil), Disjunction: true}
		snap := tbl.capture()
		for _, ps := range snap.parts {
			all := scanPart(ps, storage.BitmapProgram{}, nil)
			var want []Result
			var wantBytes int64
			for _, r := range all.hits {
				if synopsis.Intersects(r.Entity.Synopsis(), q) {
					want = append(want, r)
					wantBytes += int64(len(encodeRecord(r.ID, r.Entity)))
				}
			}
			got := scanPart(ps, prog, nil)
			if !sameResults(got.hits, want) ||
				got.scanned != all.scanned || got.bytesRead != all.bytesRead ||
				got.decoded != len(want) || got.skipped != all.scanned-len(want) ||
				got.bytesHit != wantBytes || got.bytesSkip != all.bytesRead-wantBytes {
				t.Errorf("snapshot %d partition %d: kernel scan and decode-all-and-filter disagree", i, ps.pid)
			}
		}
		if t.Failed() {
			break
		}
	}
	close(stop)
	wg.Wait()
}

// TestBitmapScanSteadyStateZeroAlloc enforces the pooled-scratch
// guarantee through the unified routine: once the pool is warm, a
// partition scan plus its merge-and-charge step performs zero heap
// allocations when nothing is decoded — for each of the three shapes
// Select, SelectWhere and ScanAll compile to.
func TestBitmapScanSteadyStateZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under -race; the plain build checks this")
	}
	tbl := newTestTable(0.5, 5000)
	for i := 0; i < 2000; i++ {
		tbl.Insert(mkEnt(i%7, 7+i%5))
	}
	populated := tbl.capture().parts[0]
	if populated.view.NumRecords() == 0 {
		t.Fatal("fixture: first partition is empty")
	}
	// ScanAll decodes every live record, so its no-decode case is a
	// segment whose records are all tombstoned: the kernel still walks
	// every word of the matrix.
	seg := storage.NewSegment(nil)
	for i := 0; i < 500; i++ {
		id, err := seg.InsertTagged(encodeRecord(core.EntityID(i+1), mkEnt(i%7)), synopsis.Of(i%7))
		if err != nil {
			t.Fatal(err)
		}
		if err := seg.Delete(id); err != nil {
			t.Fatal(err)
		}
	}
	emptied := &partSnap{pid: 1, view: seg.View()}

	preds := []Pred{{Attr: 999, Op: Eq, Value: entity.Int(1)}}
	shapes := []struct {
		name  string
		ps    *partSnap
		prog  storage.BitmapProgram
		match func(*entity.Entity) bool
	}{
		{"select", populated, storage.BitmapProgram{Attrs: []int{999}, Disjunction: true}, nil},
		{"where", populated, storage.BitmapProgram{Attrs: []int{999}}, func(e *entity.Entity) bool { return entityMatches(e, preds) }},
		{"scan-all", emptied, storage.BitmapProgram{}, nil},
	}
	for _, sh := range shapes {
		parts := make([]partScan, 1)
		run := func() {
			parts[0] = scanPart(sh.ps, sh.prog, sh.match)
			if parts[0].decoded != 0 || parts[0].bitmapWords == 0 {
				t.Fatalf("%s: decoded %d records in %d word ops, want a pure kernel pass",
					sh.name, parts[0].decoded, parts[0].bitmapWords)
			}
			var rep QueryReport
			tbl.settle(nil, parts, &rep, time.Time{}, sh.match != nil)
		}
		run() // warm the pool and the scratch buffers
		if n := testing.AllocsPerRun(200, run); n != 0 {
			t.Fatalf("%s: steady-state scan allocates %.1f times per run, want 0", sh.name, n)
		}
	}
}
