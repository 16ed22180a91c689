package table

import (
	"math/rand"
	"strings"
	"testing"

	"cinderella/internal/core"
	"cinderella/internal/datagen"
	"cinderella/internal/entity"
	"cinderella/internal/synopsis"
)

func newTestTable(w float64, b int64) *Table {
	return New(Config{Partitioner: core.NewCinderella(core.Config{Weight: w, MaxSize: b})})
}

func mkEnt(attrs ...int) *entity.Entity {
	e := &entity.Entity{}
	for _, a := range attrs {
		e.Set(a, entity.Int(int64(a)))
	}
	return e
}

func TestInsertGet(t *testing.T) {
	tbl := newTestTable(0.5, 100)
	e := mkEnt(1, 2, 3)
	id := tbl.Insert(e)
	got, ok := tbl.Get(id)
	if !ok {
		t.Fatal("Get missed")
	}
	if !got.Equal(e) {
		t.Fatalf("Get = %v, want %v", got, e)
	}
	if tbl.Len() != 1 {
		t.Fatalf("Len = %d", tbl.Len())
	}
	if _, ok := tbl.Get(999); ok {
		t.Fatal("Get(999) succeeded")
	}
}

func TestInsertAssignsDistinctIDs(t *testing.T) {
	tbl := newTestTable(0.5, 100)
	seen := map[core.EntityID]bool{}
	for i := 0; i < 100; i++ {
		id := tbl.Insert(mkEnt(i % 7))
		if seen[id] {
			t.Fatalf("duplicate id %d", id)
		}
		seen[id] = true
	}
}

func TestDelete(t *testing.T) {
	tbl := newTestTable(0.5, 100)
	id := tbl.Insert(mkEnt(1, 2))
	if !tbl.Delete(id) {
		t.Fatal("Delete failed")
	}
	if tbl.Delete(id) {
		t.Fatal("double Delete succeeded")
	}
	if _, ok := tbl.Get(id); ok {
		t.Fatal("Get after Delete succeeded")
	}
	if tbl.Len() != 0 {
		t.Fatalf("Len = %d", tbl.Len())
	}
}

func TestUpdateInPlaceRewritesContent(t *testing.T) {
	tbl := newTestTable(0.5, 100)
	id := tbl.Insert(mkEnt(1, 2))
	tbl.Insert(mkEnt(1, 2))
	e2 := mkEnt(1, 2)
	e2.Set(1, entity.Str("updated"))
	if !tbl.Update(id, e2) {
		t.Fatal("Update failed")
	}
	got, _ := tbl.Get(id)
	if v, _ := got.Get(1); v.AsString() != "updated" {
		t.Fatalf("updated value = %v", v)
	}
	if tbl.Update(999, e2) {
		t.Fatal("Update of unknown id succeeded")
	}
}

func TestUpdateMovesAcrossPartitions(t *testing.T) {
	tbl := newTestTable(0.5, 100)
	id := tbl.Insert(mkEnt(1, 2, 3))
	tbl.Insert(mkEnt(1, 2, 3))
	tbl.Insert(mkEnt(50, 51))
	tbl.Insert(mkEnt(50, 51))
	if tbl.NumPartitions() != 2 {
		t.Fatalf("setup: partitions = %d", tbl.NumPartitions())
	}
	if !tbl.Update(id, mkEnt(50, 51)) {
		t.Fatal("Update failed")
	}
	got, _ := tbl.Get(id)
	if !got.Synopsis().Equal(synopsis.Of(50, 51)) {
		t.Fatalf("entity after move = %v", got)
	}
	// All entities still retrievable and the moved one joined its peers.
	res := tbl.Select(50)
	if len(res) != 3 {
		t.Fatalf("Select(50) = %d results, want 3", len(res))
	}
}

func TestSelectBasic(t *testing.T) {
	tbl := newTestTable(0.5, 100)
	tbl.Insert(mkEnt(1, 2))
	tbl.Insert(mkEnt(2, 3))
	tbl.Insert(mkEnt(7))
	res := tbl.Select(2)
	if len(res) != 2 {
		t.Fatalf("Select(2) = %d results", len(res))
	}
	// OR semantics.
	res = tbl.Select(1, 7)
	if len(res) != 2 {
		t.Fatalf("Select(1,7) = %d results", len(res))
	}
	if res := tbl.Select(99); len(res) != 0 {
		t.Fatalf("Select(99) = %d results", len(res))
	}
}

func TestSelectPrunesPartitions(t *testing.T) {
	tbl := newTestTable(0.5, 100)
	for i := 0; i < 10; i++ {
		tbl.Insert(mkEnt(1, 2, 3))
		tbl.Insert(mkEnt(50, 51, 52))
	}
	if tbl.NumPartitions() != 2 {
		t.Fatalf("partitions = %d, want 2", tbl.NumPartitions())
	}
	_, rep := tbl.SelectWithReport(synopsis.Of(1))
	if rep.PartitionsTouched != 1 || rep.PartitionsPruned != 1 {
		t.Fatalf("report = %+v, want touch 1 prune 1", rep)
	}
	if rep.EntitiesScanned != 10 {
		t.Fatalf("scanned %d entities, want 10 (pruning failed)", rep.EntitiesScanned)
	}
	qs := tbl.QueryStats()
	if qs.Queries != 1 || qs.PartitionsPruned != 1 {
		t.Fatalf("query stats = %+v", qs)
	}
}

func TestSelectAfterDeleteKeepsPruningSound(t *testing.T) {
	tbl := newTestTable(0.9, 100)
	a := tbl.Insert(mkEnt(1, 2))
	tbl.Insert(mkEnt(1, 2, 3))
	tbl.Delete(a)
	// Attribute 1 still present via the second entity.
	if res := tbl.Select(1); len(res) != 1 {
		t.Fatalf("Select(1) = %d", len(res))
	}
}

func TestScanAll(t *testing.T) {
	tbl := newTestTable(0.5, 10)
	n := 57
	for i := 0; i < n; i++ {
		tbl.Insert(mkEnt(i%5, 5+i%3))
	}
	res := tbl.ScanAll()
	if len(res) != n {
		t.Fatalf("ScanAll = %d, want %d", len(res), n)
	}
	seen := map[core.EntityID]bool{}
	for _, r := range res {
		if seen[r.ID] {
			t.Fatalf("duplicate entity %d in scan", r.ID)
		}
		seen[r.ID] = true
	}
}

func TestSplitsKeepRecordsIntact(t *testing.T) {
	// Small partitions force many physical splits; every record must
	// survive with content intact.
	tbl := newTestTable(0.5, 8)
	rng := rand.New(rand.NewSource(4))
	want := map[core.EntityID]*entity.Entity{}
	for i := 0; i < 400; i++ {
		e := mkEnt(rng.Intn(6), 6+rng.Intn(6), 12+rng.Intn(12))
		e.Set(30, entity.Str("payload"))
		id := tbl.Insert(e)
		want[id] = e
	}
	if tbl.Len() != 400 {
		t.Fatalf("Len = %d", tbl.Len())
	}
	for id, w := range want {
		got, ok := tbl.Get(id)
		if !ok || !got.Equal(w) {
			t.Fatalf("entity %d corrupted after splits", id)
		}
	}
	// Partition views must account exactly for all entities.
	total := 0
	for _, pv := range tbl.Partitions() {
		total += pv.Entities
	}
	if total != 400 {
		t.Fatalf("partition views sum to %d", total)
	}
}

func TestPartitionViewSynopses(t *testing.T) {
	tbl := newTestTable(0.5, 100)
	tbl.Insert(mkEnt(1, 2))
	tbl.Insert(mkEnt(2, 3))
	pvs := tbl.Partitions()
	if len(pvs) != 1 {
		t.Fatalf("partitions = %d", len(pvs))
	}
	if !pvs[0].Synopsis.Equal(synopsis.Of(1, 2, 3)) {
		t.Fatalf("synopsis = %v", pvs[0].Synopsis)
	}
	if pvs[0].Bytes <= 0 || pvs[0].Pages <= 0 {
		t.Fatalf("view = %+v", pvs[0])
	}
	ms := tbl.MemberSynopses(pvs[0].ID)
	if len(ms) != 2 {
		t.Fatalf("member synopses = %d", len(ms))
	}
	if es := tbl.EntitySynopses(); len(es) != 2 {
		t.Fatalf("entity synopses = %d", len(es))
	}
}

func TestWorkloadBasedSynopsizer(t *testing.T) {
	queries := []*synopsis.Set{synopsis.Of(1), synopsis.Of(5)}
	wb := WorkloadBased{Queries: queries}
	// Entity with attr 1 and 9: relevant only to query 0.
	s := wb.Synopsis(mkEnt(1, 9))
	if !s.Equal(synopsis.Of(0)) {
		t.Fatalf("workload synopsis = %v, want {0}", s)
	}
	// Entities relevant to the same queries cluster even with different
	// attributes.
	tbl := New(Config{
		Partitioner: core.NewCinderella(core.Config{Weight: 0.5, MaxSize: 100}),
		Synopsizer:  wb,
	})
	tbl.Insert(mkEnt(1, 100)) // relevant to q0
	tbl.Insert(mkEnt(1, 200)) // relevant to q0
	tbl.Insert(mkEnt(5, 300)) // relevant to q1
	if tbl.NumPartitions() != 2 {
		t.Fatalf("workload-based partitions = %d, want 2", tbl.NumPartitions())
	}
	// Attribute pruning still works: query on attr 5 touches one
	// partition.
	_, rep := tbl.SelectWithReport(synopsis.Of(5))
	if rep.PartitionsTouched != 1 {
		t.Fatalf("workload-based pruning: %+v", rep)
	}
}

func TestBaselinePartitionersWork(t *testing.T) {
	for name, mk := range map[string]func() core.Assigner{
		"single":      func() core.Assigner { return core.NewSingle(core.SizeCount) },
		"hash":        func() core.Assigner { return core.NewHash(4, core.SizeCount) },
		"roundrobin":  func() core.Assigner { return core.NewRoundRobin(16, core.SizeCount) },
		"schemaexact": func() core.Assigner { return core.NewSchemaExact(0, core.SizeCount) },
	} {
		tbl := New(Config{Partitioner: mk()})
		ids := make([]core.EntityID, 0, 64)
		for i := 0; i < 64; i++ {
			ids = append(ids, tbl.Insert(mkEnt(i%4, 4+i%2)))
		}
		if tbl.Len() != 64 {
			t.Fatalf("%s: Len = %d", name, tbl.Len())
		}
		if res := tbl.Select(0); len(res) != 16 {
			t.Fatalf("%s: Select(0) = %d, want 16", name, len(res))
		}
		tbl.Delete(ids[0])
		if res := tbl.Select(0); len(res) != 15 {
			t.Fatalf("%s: Select(0) after delete = %d", name, len(res))
		}
	}
}

func TestDefaultsWork(t *testing.T) {
	tbl := New(Config{})
	id := tbl.Insert(mkEnt(1))
	if _, ok := tbl.Get(id); !ok {
		t.Fatal("default-config table broken")
	}
	if tbl.Dict() == nil || tbl.Stats() == nil {
		t.Fatal("default accessors nil")
	}
}

// TestIntegrationDBpediaLike loads a small irregular data set and checks
// the core paper claim end-to-end: selective queries touch far fewer
// partitions (and scan far less data) than the universal table.
func TestIntegrationDBpediaLike(t *testing.T) {
	ds, err := datagen.Generate(datagen.Config{NumEntities: 5000, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	ds.Shuffle(3)

	// w = 0.2 is the paper's best balance for the DBpedia-like data.
	cind := New(Config{
		Dict:        ds.Dict,
		Partitioner: core.NewCinderella(core.Config{Weight: 0.2, MaxSize: 500}),
	})
	universal := New(Config{
		Dict:        ds.Dict,
		Partitioner: core.NewSingle(core.SizeCount),
	})
	for _, e := range ds.Entities {
		cind.Insert(e.Clone())
		universal.Insert(e.Clone())
	}
	if cind.Len() != 5000 || universal.Len() != 5000 {
		t.Fatal("load failed")
	}

	// A rare attribute: very selective query.
	rareAttr, ok := ds.Dict.Lookup("rare_50")
	if !ok {
		t.Fatal("rare attribute missing")
	}
	wantRes := universal.Select(rareAttr)
	gotRes := cind.Select(rareAttr)
	if len(gotRes) != len(wantRes) {
		t.Fatalf("result mismatch: cinderella %d vs universal %d", len(gotRes), len(wantRes))
	}

	_, repC := cind.SelectWithReport(synopsis.Of(rareAttr))
	_, repU := universal.SelectWithReport(synopsis.Of(rareAttr))
	if repU.EntitiesScanned != 5000 {
		t.Fatalf("universal scanned %d", repU.EntitiesScanned)
	}
	if repC.EntitiesScanned >= repU.EntitiesScanned/2 {
		t.Fatalf("selective query scanned %d of %d entities: pruning ineffective",
			repC.EntitiesScanned, repU.EntitiesScanned)
	}
	if repC.PartitionsPruned == 0 {
		t.Fatal("no partitions pruned")
	}
}

func BenchmarkTableInsert(b *testing.B) {
	tbl := newTestTable(0.5, 5000)
	rng := rand.New(rand.NewSource(1))
	ents := make([]*entity.Entity, 512)
	for i := range ents {
		ents[i] = mkEnt(rng.Intn(10), 10+rng.Intn(10), 20+rng.Intn(40))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.Insert(ents[i%len(ents)])
	}
}

func BenchmarkSelectSelective(b *testing.B) {
	tbl := newTestTable(0.5, 500)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		tbl.Insert(mkEnt(rng.Intn(10), 10+rng.Intn(10), 20+rng.Intn(40)))
	}
	q := synopsis.Of(25)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.SelectSynopsis(q)
	}
}

func TestTableVacuum(t *testing.T) {
	tbl := newTestTable(0.5, 10000)
	var ids []core.EntityID
	for i := 0; i < 2000; i++ {
		e := mkEnt(1, 2)
		e.Set(3, entity.Str("padding padding padding padding"))
		ids = append(ids, tbl.Insert(e))
	}
	for i, id := range ids {
		if i%5 != 0 {
			tbl.Delete(id)
		}
	}
	pagesBefore := 0
	for _, pv := range tbl.Partitions() {
		pagesBefore += pv.Pages
	}
	released := tbl.Vacuum()
	if released <= 0 {
		t.Fatalf("vacuum released %d pages (before: %d)", released, pagesBefore)
	}
	// Every surviving entity still retrievable with intact content.
	n := 0
	for i, id := range ids {
		if i%5 != 0 {
			continue
		}
		n++
		got, ok := tbl.Get(id)
		if !ok || !got.Has(3) {
			t.Fatalf("entity %d broken after vacuum", id)
		}
	}
	if res := tbl.Select(1); len(res) != n {
		t.Fatalf("Select after vacuum = %d, want %d", len(res), n)
	}

	// Many partitions: every one is vacuumed and its rows remapped.
	multi := newTestTable(0.5, 100)
	all := map[core.EntityID]*entity.Entity{}
	pad := entity.Str(strings.Repeat("p", 300)) // several pages per partition
	for i := 0; i < 1200; i++ {
		e := mkEnt(i%3, 3+i%4)
		e.Set(10, pad)
		all[multi.Insert(e)] = e
	}
	kept := map[core.EntityID]*entity.Entity{}
	for id, e := range all {
		if id%5 == 0 {
			kept[id] = e
		} else {
			multi.Delete(id)
		}
	}
	if multi.NumPartitions() < 4 {
		t.Fatalf("fixture: %d partitions", multi.NumPartitions())
	}
	if released := multi.Vacuum(); released < multi.NumPartitions() {
		t.Fatalf("vacuum of %d partitions released %d pages", multi.NumPartitions(), released)
	}
	for id, e := range kept {
		if got, ok := multi.Get(id); !ok || !got.Equal(e) {
			t.Fatalf("entity %d broken after vacuum", id)
		}
	}
	if res := multi.ScanAll(); len(res) != len(kept) {
		t.Fatalf("ScanAll after vacuum = %d, want %d", len(res), len(kept))
	}
}
