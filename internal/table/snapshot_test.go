package table

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"cinderella/internal/core"
	"cinderella/internal/entity"
	"cinderella/internal/storage"
	"cinderella/internal/synopsis"
)

// snapContents scans every partition of a captured snapshot and returns
// its full contents by entity id.
func snapContents(snap tableSnap) map[core.EntityID]*entity.Entity {
	out := make(map[core.EntityID]*entity.Entity)
	for _, ps := range snap.parts {
		sc := scanPart(ps, storage.BitmapProgram{}, nil)
		for _, r := range sc.hits {
			out[r.ID] = r.Entity
		}
	}
	return out
}

func randomTestEntity(rng *rand.Rand) *entity.Entity {
	e := &entity.Entity{}
	n := 1 + rng.Intn(5)
	for i := 0; i < n; i++ {
		attr := rng.Intn(12)
		switch rng.Intn(3) {
		case 0:
			e.Set(attr, entity.Int(int64(rng.Intn(100))))
		case 1:
			e.Set(attr, entity.Float(rng.Float64()*100))
		default:
			e.Set(attr, entity.Str(string(rune('a'+rng.Intn(26)))))
		}
	}
	return e
}

// TestSnapshotSeesPreMutationState is the core isolation property: a
// snapshot captured before deletes, updates, splits, compaction, and
// vacuum keeps returning exactly the pre-mutation contents.
func TestSnapshotSeesPreMutationState(t *testing.T) {
	tbl := newTestTable(0.35, 40)
	rng := rand.New(rand.NewSource(11))

	var ids []core.EntityID
	want := make(map[core.EntityID]*entity.Entity)
	for i := 0; i < 300; i++ {
		e := randomTestEntity(rng)
		id := tbl.Insert(e)
		ids = append(ids, id)
		want[id] = e.Clone()
	}

	snap := tbl.capture()

	// Mutate heavily: deletes, updates, enough inserts to force splits
	// (MaxSize 40), then compaction and vacuum.
	for i, id := range ids {
		switch i % 3 {
		case 0:
			tbl.Delete(id)
		case 1:
			tbl.Update(id, randomTestEntity(rng))
		}
	}
	for i := 0; i < 400; i++ {
		tbl.Insert(randomTestEntity(rng))
	}
	tbl.Compact(0.9)
	tbl.Vacuum()

	got := snapContents(snap)
	if len(got) != len(want) {
		t.Fatalf("snapshot has %d entities, want pre-mutation %d", len(got), len(want))
	}
	for id, we := range want {
		ge, ok := got[id]
		if !ok {
			t.Fatalf("snapshot lost entity %d", id)
		}
		if !ge.Equal(we) {
			t.Fatalf("snapshot entity %d = %v, want pre-mutation %v", id, ge, we)
		}
	}
}

// TestSnapshotConcurrentWritersReaders races continuous mutators against
// lock-free ScanAll/Select/SelectWhere readers. Run under -race it is
// the data-race guard for the whole publication protocol; without -race
// it still checks the per-query report invariants under concurrency.
func TestSnapshotConcurrentWritersReaders(t *testing.T) {
	tbl := newTestTable(0.35, 50)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 200; i++ {
		tbl.Insert(randomTestEntity(rng))
	}

	const writers = 4
	const readers = 4
	const opsPerWriter = 400
	var wwg, rwg sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < writers; w++ {
		wwg.Add(1)
		go func(seed int64) {
			defer wwg.Done()
			rng := rand.New(rand.NewSource(seed))
			var mine []core.EntityID
			for i := 0; i < opsPerWriter; i++ {
				switch {
				case len(mine) > 0 && rng.Intn(4) == 0:
					k := rng.Intn(len(mine))
					tbl.Delete(mine[k])
					mine = append(mine[:k], mine[k+1:]...)
				case len(mine) > 0 && rng.Intn(4) == 0:
					tbl.Update(mine[rng.Intn(len(mine))], randomTestEntity(rng))
				default:
					mine = append(mine, tbl.Insert(randomTestEntity(rng)))
				}
			}
		}(int64(100 + w))
	}

	errs := make(chan error, readers)
	for r := 0; r < readers; r++ {
		rwg.Add(1)
		go func(seed int64) {
			defer rwg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				switch rng.Intn(3) {
				case 0:
					res := tbl.ScanAll()
					for _, r := range res {
						if r.Entity == nil {
							errs <- fmt.Errorf("ScanAll returned nil entity for id %d", r.ID)
							return
						}
					}
				case 1:
					q := synopsis.Of(rng.Intn(12))
					res, rep := tbl.SelectWithReport(q)
					if len(res) != rep.EntitiesReturned {
						errs <- fmt.Errorf("returned %d results, report says %d", len(res), rep.EntitiesReturned)
						return
					}
					if rep.PartitionsTouched+rep.PartitionsPruned != rep.PartitionsTotal {
						errs <- fmt.Errorf("inconsistent report %+v", rep)
						return
					}
				default:
					preds := []Pred{{Attr: rng.Intn(12), Op: Ge, Value: entity.Int(int64(rng.Intn(100)))}}
					res, rep := tbl.SelectWhere(preds)
					if len(res) != rep.EntitiesReturned {
						errs <- fmt.Errorf("where returned %d results, report says %d", len(res), rep.EntitiesReturned)
						return
					}
				}
			}
		}(int64(200 + r))
	}

	// Readers run for as long as the writers keep mutating.
	wwg.Wait()
	close(stop)
	rwg.Wait()

	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	// After the dust settles, every query kind agrees with the oracle.
	checkOracle(t, "scan-all after churn", tbl, oracleScanAll(), scanAllRun(tbl))
	q := synopsis.Of(3, 8)
	checkOracle(t, "select after churn", tbl, oracleSelect(q),
		func() ([]Result, QueryReport) { return tbl.SelectWithReport(q) })
	preds := []Pred{{Attr: 5, Op: Ge, Value: entity.Int(10)}}
	checkOracle(t, "where after churn", tbl, oracleWhere(preds),
		func() ([]Result, QueryReport) { return tbl.SelectWhere(preds) })
}
