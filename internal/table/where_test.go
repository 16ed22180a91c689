package table

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"cinderella/internal/core"
	"cinderella/internal/entity"
)

func predI(attr int, op CmpOp, v int64) Pred {
	return Pred{Attr: attr, Op: op, Value: entity.Int(v)}
}

func predS(attr int, op CmpOp, s string) Pred {
	return Pred{Attr: attr, Op: op, Value: entity.Str(s)}
}

func TestSelectWhereBasic(t *testing.T) {
	tbl := newTestTable(0.5, 100)
	for i := 0; i < 10; i++ {
		e := &entity.Entity{}
		e.Set(1, entity.Int(int64(i)))
		e.Set(2, entity.Str("x"))
		tbl.Insert(e)
	}
	res, _ := tbl.SelectWhere([]Pred{predI(1, Lt, 3)})
	if len(res) != 3 {
		t.Fatalf("Lt 3 = %d rows", len(res))
	}
	res, _ = tbl.SelectWhere([]Pred{predI(1, Eq, 7)})
	if len(res) != 1 {
		t.Fatalf("Eq 7 = %d rows", len(res))
	}
	res, _ = tbl.SelectWhere([]Pred{predI(1, Ge, 8), predS(2, Eq, "x")})
	if len(res) != 2 {
		t.Fatalf("conjunction = %d rows", len(res))
	}
	res, _ = tbl.SelectWhere([]Pred{predI(1, Gt, 100)})
	if len(res) != 0 {
		t.Fatalf("Gt 100 = %d rows", len(res))
	}
}

func TestSelectWhereMissingAttributeIsFalse(t *testing.T) {
	tbl := newTestTable(0.5, 100)
	e := &entity.Entity{}
	e.Set(1, entity.Int(5))
	tbl.Insert(e)
	// Predicate on attribute 9, which the entity lacks.
	res, _ := tbl.SelectWhere([]Pred{predI(9, Eq, 0)})
	if len(res) != 0 {
		t.Fatalf("missing-attr predicate matched %d rows", len(res))
	}
}

func TestSelectWhereKindMismatchFalse(t *testing.T) {
	tbl := newTestTable(0.5, 100)
	e := &entity.Entity{}
	e.Set(1, entity.Str("five"))
	tbl.Insert(e)
	res, _ := tbl.SelectWhere([]Pred{predI(1, Eq, 5)})
	if len(res) != 0 {
		t.Fatalf("numeric pred on string matched %d", len(res))
	}
	res, _ = tbl.SelectWhere([]Pred{predS(1, Eq, "five")})
	if len(res) != 1 {
		t.Fatalf("string pred = %d", len(res))
	}
}

func TestSelectWhereSynopsisPruning(t *testing.T) {
	tbl := newTestTable(0.5, 100)
	for i := 0; i < 5; i++ {
		a := &entity.Entity{}
		a.Set(1, entity.Int(int64(i)))
		tbl.Insert(a)
		b := &entity.Entity{}
		b.Set(50, entity.Int(int64(i)))
		tbl.Insert(b)
	}
	if tbl.NumPartitions() != 2 {
		t.Fatalf("setup partitions = %d", tbl.NumPartitions())
	}
	_, rep := tbl.SelectWhere([]Pred{predI(1, Ge, 0)})
	if rep.PartitionsTouched != 1 || rep.PartitionsPruned != 1 {
		t.Fatalf("synopsis pruning: %+v", rep)
	}
}

func TestSelectWhereStringZones(t *testing.T) {
	tbl := newTestTable(0.5, 100)
	for _, s := range []string{"apple", "banana", "cherry"} {
		e := &entity.Entity{}
		e.Set(1, entity.Str(s))
		tbl.Insert(e)
	}
	res, _ := tbl.SelectWhere([]Pred{predS(1, Ge, "b")})
	if len(res) != 2 {
		t.Fatalf("Ge b = %d", len(res))
	}
	res, _ = tbl.SelectWhere([]Pred{predS(1, Gt, "zzz")})
	if len(res) != 0 {
		t.Fatalf("out-of-range string probe = %d", len(res))
	}
}

// TestSelectWhereNumericComparison pins the comparison rules: two
// integers compare exactly, even where float64 cannot tell them apart,
// and NaN satisfies no operator on either side.
func TestSelectWhereNumericComparison(t *testing.T) {
	tbl := newTestTable(0.5, 100)
	big := &entity.Entity{}
	big.Set(1, entity.Int(1<<53))
	bigID := tbl.Insert(big)
	nan := &entity.Entity{}
	nan.Set(1, entity.Float(math.NaN()))
	tbl.Insert(nan)
	for _, tc := range []struct {
		pred Pred
		want []core.EntityID
	}{
		{predI(1, Eq, 1<<53+1), nil},
		{predI(1, Eq, 1<<53), []core.EntityID{bigID}},
		{Pred{Attr: 1, Op: Eq, Value: entity.Float(math.NaN())}, nil},
		{predI(1, Le, 0), nil},
	} {
		res, _ := tbl.SelectWhere([]Pred{tc.pred})
		var got []core.EntityID
		for _, r := range res {
			got = append(got, r.ID)
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("attr 1 %v %v: got %v, want %v", tc.pred.Op, tc.pred.Value, got, tc.want)
		}
	}
}

func TestSelectWhereEmptyPredsPanics(t *testing.T) {
	tbl := newTestTable(0.5, 100)
	defer func() {
		if recover() == nil {
			t.Fatal("empty predicate list accepted")
		}
	}()
	tbl.SelectWhere(nil)
}

func TestSelectWhereAgreesWithBruteForce(t *testing.T) {
	tbl := newTestTable(0.3, 50)
	rng := rand.New(rand.NewSource(8))
	type rec struct {
		id   core.EntityID
		vals map[int]int64
	}
	var recs []rec
	for i := 0; i < 800; i++ {
		e := &entity.Entity{}
		vals := map[int]int64{}
		for _, a := range []int{1, 2, 3} {
			if rng.Float64() < 0.7 {
				v := int64(rng.Intn(1000))
				e.Set(a, entity.Int(v))
				vals[a] = v
			}
		}
		if e.NumAttrs() == 0 {
			e.Set(1, entity.Int(0))
			vals[1] = 0
		}
		id := tbl.Insert(e)
		recs = append(recs, rec{id, vals})
	}
	for trial := 0; trial < 50; trial++ {
		attr := 1 + rng.Intn(3)
		op := CmpOp(rng.Intn(5))
		val := int64(rng.Intn(1000))
		res, _ := tbl.SelectWhere([]Pred{predI(attr, op, val)})
		got := map[core.EntityID]bool{}
		for _, r := range res {
			got[r.ID] = true
		}
		for _, r := range recs {
			v, has := r.vals[attr]
			want := has && cmpMatch(op, cmp.Compare(v, val))
			if got[r.id] != want {
				t.Fatalf("trial %d: attr=%d op=%v val=%d entity=%d: got %v want %v",
					trial, attr, op, val, r.id, got[r.id], want)
			}
		}
	}
}

// TestSelectWhereSurvivesConcurrentCompaction races snapshot SelectWhere
// readers against a writer that repeatedly creates, hollows out, and
// compacts partitions — every round drops a partition whose surviving
// rows move to a peer. Rows confirmed inserted (and never deleted) before
// a query starts must always be in its result: pruning must judge each
// partition by the captured cut alone, never by state a concurrent drop
// already removed.
func TestSelectWhereSurvivesConcurrentCompaction(t *testing.T) {
	tbl := newTestTable(0.35, 60)
	preds := []Pred{predI(3, Ge, 0)}

	var mu sync.Mutex
	confirmed := make(map[core.EntityID]bool)

	stop := make(chan struct{})
	var wwg, rwg sync.WaitGroup
	wwg.Add(1)
	go func() {
		defer wwg.Done()
		defer close(stop)
		rng := rand.New(rand.NewSource(77))
		for round := 0; round < 150; round++ {
			var churn []core.EntityID
			for i := 0; i < 30; i++ {
				e := &entity.Entity{}
				e.Set(3, entity.Int(int64(rng.Intn(100))))
				e.Set(4+round%3, entity.Int(1))
				id := tbl.Insert(e)
				if i%10 == 0 {
					mu.Lock()
					confirmed[id] = true
					mu.Unlock()
				} else {
					churn = append(churn, id)
				}
			}
			for _, id := range churn {
				tbl.Delete(id)
			}
			tbl.Compact(0.95)
		}
	}()

	errs := make(chan error, 4)
	for r := 0; r < 4; r++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				mu.Lock()
				want := make([]core.EntityID, 0, len(confirmed))
				for id := range confirmed {
					want = append(want, id)
				}
				mu.Unlock()
				res, _ := tbl.SelectWhere(preds)
				got := make(map[core.EntityID]bool, len(res))
				for _, h := range res {
					got[h.ID] = true
				}
				for _, id := range want {
					if !got[id] {
						errs <- fmt.Errorf("SelectWhere lost entity %d during concurrent compaction", id)
						return
					}
				}
			}
		}()
	}

	wwg.Wait()
	rwg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
}

func TestCmpOpString(t *testing.T) {
	ops := map[CmpOp]string{Eq: "=", Lt: "<", Le: "<=", Gt: ">", Ge: ">="}
	for op, want := range ops {
		if op.String() != want {
			t.Errorf("%v", op)
		}
	}
	if CmpOp(99).String() != "?" {
		t.Error("unknown op")
	}
}
