package table

import (
	"math/rand"
	"testing"

	"cinderella/internal/core"
	"cinderella/internal/entity"
	"cinderella/internal/synopsis"
)

// TestModelRandomOps drives a long random workload against the table and
// a trivial in-memory model, checking after every phase that contents,
// point lookups, attribute queries, and predicate queries agree exactly.
// This is the end-to-end guard for the interplay of splits, moves,
// deletes, updates, and compaction.
func TestModelRandomOps(t *testing.T) {
	for _, strat := range []struct {
		name string
		mk   func() core.Assigner
	}{
		{"cinderella", func() core.Assigner {
			return core.NewCinderella(core.Config{Weight: 0.35, MaxSize: 40})
		}},
		{"schemaexact", func() core.Assigner { return core.NewSchemaExact(40, core.SizeCount) }},
		{"hash", func() core.Assigner { return core.NewHash(5, core.SizeCount) }},
	} {
		strat := strat
		t.Run(strat.name, func(t *testing.T) {
			runModel(t, strat.mk())
		})
	}
}

func runModel(t *testing.T, assigner core.Assigner) {
	t.Helper()
	tbl := New(Config{Partitioner: assigner})
	model := map[core.EntityID]*entity.Entity{}
	rng := rand.New(rand.NewSource(99))
	var ids []core.EntityID

	randomEntity := func() *entity.Entity {
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

	check := func() {
		t.Helper()
		if tbl.Len() != len(model) {
			t.Fatalf("Len = %d, model %d", tbl.Len(), len(model))
		}
		// Point lookups.
		for id, want := range model {
			got, ok := tbl.Get(id)
			if !ok || !got.Equal(want) {
				t.Fatalf("Get(%d) = %v,%v; model %v", id, got, ok, want)
			}
		}
		// Attribute query agrees with the model for a few probes.
		for probe := 0; probe < 12; probe += 3 {
			res := tbl.Select(probe)
			want := 0
			for _, e := range model {
				if e.Has(probe) {
					want++
				}
			}
			if len(res) != want {
				t.Fatalf("Select(%d) = %d, model %d", probe, len(res), want)
			}
		}
		// Predicate query agrees for a numeric probe.
		preds := []Pred{{Attr: 3, Op: Lt, Value: entity.Int(50)}}
		res, _ := tbl.SelectWhere(preds)
		want := 0
		for _, e := range model {
			if entityMatches(e, preds) {
				want++
			}
		}
		if len(res) != want {
			t.Fatalf("SelectWhere = %d, model %d", len(res), want)
		}
	}

	for phase := 0; phase < 8; phase++ {
		for op := 0; op < 400; op++ {
			switch r := rng.Intn(10); {
			case r < 6 || len(ids) == 0: // insert
				e := randomEntity()
				id := tbl.Insert(e)
				if _, dup := model[id]; dup {
					t.Fatalf("id %d reused", id)
				}
				model[id] = e
				ids = append(ids, id)
			case r < 8: // delete
				i := rng.Intn(len(ids))
				id := ids[i]
				ok := tbl.Delete(id)
				_, inModel := model[id]
				if ok != inModel {
					t.Fatalf("Delete(%d) = %v, model has %v", id, ok, inModel)
				}
				delete(model, id)
				ids = append(ids[:i], ids[i+1:]...)
			default: // update
				i := rng.Intn(len(ids))
				id := ids[i]
				e := randomEntity()
				if !tbl.Update(id, e) {
					t.Fatalf("Update(%d) failed", id)
				}
				model[id] = e
			}
		}
		if phase%3 == 2 {
			tbl.Compact(0.3)
		}
		check()
	}
}

// TestModelWorkloadBased runs the model test under workload-based
// synopses, where placement and pruning use different synopses.
func TestModelWorkloadBased(t *testing.T) {
	queries := []*synopsis.Set{synopsis.Of(0, 1), synopsis.Of(5), synopsis.Of(9, 10, 11)}
	tbl := New(Config{
		Partitioner: core.NewCinderella(core.Config{Weight: 0.4, MaxSize: 30}),
		Synopsizer:  WorkloadBased{Queries: queries},
	})
	model := map[core.EntityID]*entity.Entity{}
	rng := rand.New(rand.NewSource(44))
	for i := 0; i < 1500; i++ {
		e := &entity.Entity{}
		for a := 0; a < 12; a++ {
			if rng.Float64() < 0.25 {
				e.Set(a, entity.Int(int64(a)))
			}
		}
		if e.NumAttrs() == 0 {
			e.Set(0, entity.Int(0))
		}
		id := tbl.Insert(e)
		model[id] = e
	}
	for probe := 0; probe < 12; probe++ {
		res := tbl.Select(probe)
		want := 0
		for _, e := range model {
			if e.Has(probe) {
				want++
			}
		}
		if len(res) != want {
			t.Fatalf("Select(%d) = %d, model %d", probe, len(res), want)
		}
	}
}
