package table

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"cinderella/internal/core"
	"cinderella/internal/entity"
	"cinderella/internal/synopsis"
)

// fillTable inserts n entities spread over k attribute classes so the
// partitioner produces many partitions and queries prune some of them.
func fillTable(tbl *Table, n int, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < n; i++ {
		class := rng.Intn(8)
		e := &entity.Entity{}
		e.Set(0, entity.Int(int64(i)))
		base := 8 + class*16
		for j := 0; j < 5; j++ {
			a := base + rng.Intn(16)
			e.Set(a, entity.Int(int64(a)))
		}
		e.Set(1, entity.Float(float64(rng.Intn(1000))))
		tbl.Insert(e)
	}
}

func newParTable(parallelism int) *Table {
	return New(Config{
		Partitioner: core.NewCinderella(core.Config{Weight: 0.5, MaxSize: 50}),
		Parallelism: parallelism,
	})
}

// TestParallelSelectMatchesSerial: the parallel scan must be
// indistinguishable from the serial one — same results in the same order
// and identical QueryReport counters.
func TestParallelSelectMatchesSerial(t *testing.T) {
	serial := newParTable(1)
	parallel := newParTable(8)
	fillTable(serial, 2000, 42)
	fillTable(parallel, 2000, 42)

	queries := [][]int{{8}, {8, 24, 40}, {0}, {99}, {10, 11, 12, 13}}
	for qi, attrs := range queries {
		sres, srep := serial.SelectWithReport(synopsis.Of(attrs...))
		pres, prep := parallel.SelectWithReport(synopsis.Of(attrs...))
		if srep != prep {
			t.Fatalf("query %d: report mismatch: serial %+v, parallel %+v", qi, srep, prep)
		}
		if len(sres) != len(pres) {
			t.Fatalf("query %d: %d results serial, %d parallel", qi, len(sres), len(pres))
		}
		for i := range sres {
			if sres[i].ID != pres[i].ID || !sres[i].Entity.Equal(pres[i].Entity) {
				t.Fatalf("query %d: result %d differs: %v vs %v", qi, i, sres[i], pres[i])
			}
		}
	}

	// Same for predicate queries.
	preds := []Pred{{Attr: 1, Op: Lt, Value: entity.Float(250)}}
	sres, srep := serial.SelectWhere(preds)
	pres, prep := parallel.SelectWhere(preds)
	if srep != prep {
		t.Fatalf("SelectWhere report mismatch: %+v vs %+v", srep, prep)
	}
	if len(sres) != len(pres) {
		t.Fatalf("SelectWhere: %d serial, %d parallel", len(sres), len(pres))
	}
	for i := range sres {
		if sres[i].ID != pres[i].ID || !sres[i].Entity.Equal(pres[i].Entity) {
			t.Fatalf("SelectWhere result %d differs", i)
		}
	}

	// And full scans.
	sall, pall := serial.ScanAll(), parallel.ScanAll()
	if len(sall) != len(pall) {
		t.Fatalf("ScanAll: %d serial, %d parallel", len(sall), len(pall))
	}
	for i := range sall {
		if sall[i].ID != pall[i].ID {
			t.Fatalf("ScanAll order differs at %d: %d vs %d", i, sall[i].ID, pall[i].ID)
		}
	}
}

// TestSelectsOverlap asserts that two Selects can run concurrently: a
// Select completes while another reader holds the table's read lock,
// which would deadlock if Select still took the exclusive lock.
func TestSelectsOverlap(t *testing.T) {
	tbl := newParTable(0)
	fillTable(tbl, 500, 7)

	tbl.mu.RLock()
	done := make(chan int, 1)
	go func() {
		done <- len(tbl.Select(8))
	}()
	select {
	case <-done:
		// Select finished under a held read lock: reads overlap.
	case <-time.After(5 * time.Second):
		tbl.mu.RUnlock()
		t.Fatal("Select blocked behind a read lock; reads do not overlap")
	}
	tbl.mu.RUnlock()
}

// TestConcurrentReadersOneWriter races read-only queries against a
// mutating writer; run under -race this validates the RWMutex conversion
// and the parallel scan workers.
func TestConcurrentReadersOneWriter(t *testing.T) {
	tbl := newParTable(0)
	fillTable(tbl, 800, 11)

	stop := make(chan struct{})
	var wg sync.WaitGroup

	// One writer: inserts, deletes, updates, compaction.
	wg.Add(1)
	go func() {
		defer wg.Done()
		rng := rand.New(rand.NewSource(99))
		var ids []core.EntityID
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			switch i % 5 {
			case 0, 1, 2:
				e := &entity.Entity{}
				a := 8 + rng.Intn(64)
				e.Set(a, entity.Int(int64(a)))
				e.Set(1, entity.Float(float64(rng.Intn(1000))))
				ids = append(ids, tbl.Insert(e))
			case 3:
				if len(ids) > 0 {
					tbl.Delete(ids[rng.Intn(len(ids))])
				}
			case 4:
				tbl.Compact(0.25)
			}
		}
	}()

	// Several readers hammering every read path.
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				switch rng.Intn(5) {
				case 0:
					tbl.Select(8 + rng.Intn(64))
				case 1:
					tbl.Get(core.EntityID(1 + rng.Intn(800)))
				case 2:
					tbl.ScanAll()
				case 3:
					tbl.SelectWhere([]Pred{{Attr: 1, Op: Lt, Value: entity.Float(500)}})
				case 4:
					tbl.Partitions()
				}
			}
		}(int64(r))
	}

	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// BenchmarkSelectParallel compares the serial scan against the pooled
// parallel scan on the same data and query.
func BenchmarkSelectParallel(b *testing.B) {
	for _, par := range []int{1, 0} {
		name := "serial"
		if par == 0 {
			name = fmt.Sprintf("parallel-%d", newParTable(0).parallelism)
		}
		b.Run(name, func(b *testing.B) {
			tbl := newParTable(par)
			fillTable(tbl, 20000, 5)
			q := synopsis.Of(8, 24, 40, 56, 72, 88, 104, 120)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, _ := tbl.SelectWithReport(q)
				if len(res) == 0 {
					b.Fatal("empty result")
				}
			}
		})
	}
}
