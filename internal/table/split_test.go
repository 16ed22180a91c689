package table

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"cinderella/internal/core"
	"cinderella/internal/datagen"
	"cinderella/internal/entity"
	"cinderella/internal/synopsis"
)

// The fixed split stream: 40 000 generated documents (seed 1, the end-to-
// end benchmark's population) inserted in generation order into one
// table at the paper's B = 500, w = 0.2, which splits a few hundred
// times on the way.
const streamDocs = 40000

var (
	streamOnce sync.Once
	streamSet  *datagen.Dataset
)

func splitStream() *datagen.Dataset {
	streamOnce.Do(func() {
		ds, err := datagen.Generate(datagen.Config{NumEntities: streamDocs, Seed: 1})
		if err != nil {
			panic(err)
		}
		streamSet = ds
	})
	return streamSet
}

func newStreamTable(ds *datagen.Dataset) *Table {
	return New(Config{
		Dict:        ds.Dict,
		Partitioner: core.NewCinderella(core.Config{Weight: 0.2, MaxSize: 500}),
	})
}

// splitLayoutGolden is layoutHash after TestSplitLayoutGolden's stream,
// recorded while every split still moved its records with a point
// delete each. Placement and physical layout (record ids included) must
// not depend on how a split relocates records.
const splitLayoutGolden uint64 = 0x2315455d8bb724d2

// layoutHash is an FNV-1a hash of the row index (entity id → partition,
// page, slot, ascending id) followed by Partitions(). CompressedBytes is
// left out: it measures the compressor, not the layout.
func layoutHash(t *Table) uint64 {
	h := fnv.New64a()
	var buf []byte
	put := func(vs ...uint64) {
		buf = buf[:0]
		for _, v := range vs {
			buf = binary.AppendUvarint(buf, v)
		}
		h.Write(buf)
	}
	t.mu.RLock()
	ids := make([]core.EntityID, 0, len(t.rows))
	for id := range t.rows {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		loc := t.rows[id]
		put(uint64(id), uint64(loc.pid), uint64(loc.rid.Page), uint64(loc.rid.Slot))
	}
	t.mu.RUnlock()
	for _, pv := range t.Partitions() {
		cold := uint64(0)
		if pv.Cold {
			cold = 1
		}
		put(uint64(pv.ID), uint64(pv.Entities), uint64(pv.Bytes), uint64(pv.Pages), cold)
		for _, a := range pv.Synopsis.Elements(nil) {
			put(uint64(a))
		}
	}
	return h.Sum64()
}

// TestSplitLayoutGolden runs the fixed split stream with a Compact and
// five freezes half way — so later splits dissolve merged and frozen
// partitions too — and requires the exact layout recorded in
// splitLayoutGolden. On the same state it checks the table's
// bookkeeping against the stored records: the row index agrees with the
// partitioner, every attribute synopsis is the exact union of its
// members', and queries match the oracle.
func TestSplitLayoutGolden(t *testing.T) {
	ds := splitStream()
	tbl := newStreamTable(ds)
	for i, e := range ds.Entities {
		if i == streamDocs/2 {
			if tbl.Compact(0.3) == 0 {
				t.Fatal("fixture: Compact merged nothing")
			}
			for _, pv := range tbl.Partitions()[:5] {
				if !tbl.FreezePartition(pv.ID) {
					t.Fatalf("fixture: freeze of partition %d refused", pv.ID)
				}
			}
		}
		tbl.Insert(e)
	}
	if _, thaws := tbl.TierCounters(); thaws == 0 {
		t.Fatal("fixture: no frozen partition was reached by a later insert")
	}
	if got := layoutHash(tbl); got != splitLayoutGolden {
		t.Fatalf("layout hash %#x, want %#x: placement or physical layout changed", got, splitLayoutGolden)
	}

	checkTableBookkeeping(t, tbl)
	for p := 0; p < 6; p++ {
		q := synopsis.Of(2+p, 13+11*p)
		checkOracle(t, fmt.Sprintf("select probe %d", p), tbl, oracleSelect(q),
			func() ([]Result, QueryReport) { return tbl.SelectWithReport(q) })
		// Attribute 1 holds integers in [0, 100000).
		preds := []Pred{{Attr: 1, Op: CmpOp(p % 5), Value: entity.Int(int64(16000 * p))}}
		checkOracle(t, fmt.Sprintf("where probe %d", p), tbl, oracleWhere(preds),
			func() ([]Result, QueryReport) { return tbl.SelectWhere(preds) })
	}
	checkOracle(t, "scan-all", tbl, oracleScanAll(), scanAllRun(tbl))
}

// checkTableBookkeeping decodes every stored record and checks the
// per-partition state derived from them (see TestSplitLayoutGolden).
func checkTableBookkeeping(tb testing.TB, t *Table) {
	tb.Helper()
	t.mu.RLock()
	defer t.mu.RUnlock()
	c := t.assigner.(*core.Cinderella)
	syns := make(map[core.PartitionID]*synopsis.Set)
	for id, loc := range t.rows {
		if pid, _ := c.Locate(id); pid != loc.pid {
			tb.Fatalf("entity %d: row index says partition %d, partitioner says %d", id, loc.pid, pid)
		}
		var rec []byte
		var err error
		if seg, hot := t.segs[loc.pid]; hot {
			rec, err = seg.Read(loc.rid)
		} else {
			rec, err = t.cold[loc.pid].Read(loc.rid)
		}
		if err != nil {
			tb.Fatalf("entity %d: %v", id, err)
		}
		gotID, e, err := decodeRecord(rec)
		if err != nil || gotID != id {
			tb.Fatalf("entity %d: stored record is (%d, %v)", id, gotID, err)
		}
		if syns[loc.pid] == nil {
			syns[loc.pid] = synopsis.New(0)
		}
		syns[loc.pid].UnionWith(e.Synopsis())
	}
	parts := t.loadSnaps().parts
	if len(parts) != len(syns) {
		tb.Fatalf("%d published partitions for %d non-empty partitions", len(parts), len(syns))
	}
	for _, ps := range parts {
		if want := syns[ps.pid]; want == nil || ps.syn == nil || !ps.syn.Equal(want) {
			tb.Fatalf("partition %d: published synopsis %v, members' union %v", ps.pid, ps.syn, want)
		}
	}
}

// TestCascadedSplitKeepsEveryRecord drives a split whose redistribution
// splits one of its own successors, so two dissolutions nest. Byte
// sizing makes that possible (see the core listener test's cascade
// case): records of 24, 24, 100 and 100 bytes fill B = 250, the first
// is deleted, and a third 100-byte record splits the partition.
func TestCascadedSplitKeepsEveryRecord(t *testing.T) {
	c := core.NewCinderella(core.Config{Weight: 0.5, MaxSize: 250, SizeMode: core.SizeBytes})
	tbl := New(Config{Partitioner: c})
	sized := func(pad int) *entity.Entity {
		e := mkEnt(1)
		e.Set(2, entity.Str(strings.Repeat("x", pad)))
		return e
	}
	first := tbl.Insert(sized(0))
	for _, pad := range []int{0, 76, 76} {
		tbl.Insert(sized(pad))
	}
	tbl.Delete(first)
	tbl.Insert(sized(76))
	if st := c.Stats(); st.Splits != 2 || st.SplitCascades != 1 {
		t.Fatalf("fixture: %d splits, %d cascaded; want 2, 1", st.Splits, st.SplitCascades)
	}
	if tbl.Len() != 4 {
		t.Fatalf("Len = %d, want 4", tbl.Len())
	}
	checkTableBookkeeping(t, tbl)
	checkOracle(t, "scan-all", tbl, oracleScanAll(), scanAllRun(tbl))
}

// TestInsertAllocBudget holds the insert path — splits included — to an
// allocation budget per document on the fixed split stream, measured as
// a runtime.MemStats delta over the whole stream.
func TestInsertAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own; the plain build checks this")
	}
	const maxBytes, maxMallocs = 1792, 12
	ds := splitStream()
	tbl := newStreamTable(ds)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, e := range ds.Entities {
		tbl.Insert(e)
	}
	runtime.ReadMemStats(&after)
	n := float64(len(ds.Entities))
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / n
	mallocs := float64(after.Mallocs-before.Mallocs) / n
	t.Logf("%.0f B and %.1f mallocs per inserted document", bytes, mallocs)
	if bytes > maxBytes || mallocs > maxMallocs {
		t.Fatalf("%.0f B and %.1f mallocs per inserted document, budget %d B and %d", bytes, mallocs, maxBytes, maxMallocs)
	}
}

// TestTableHeapPerDoc holds the live heap a built table retains to a
// budget per document: the 30 000-document population (seed 1) at
// B = 500, w = 0.2, measured as the HeapAlloc delta around the build
// with two collections on each side. The documents' own attribute sets
// are built before the first reading, so the delta is the table's:
// pages, presence matrices, the row index and the partitioner catalog.
// Attribute membership is held once per partition, in the presence
// matrix; a second per-entity or per-partition copy breaks the budget.
func TestTableHeapPerDoc(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own; the plain build checks this")
	}
	const maxBytes = 400
	ds, err := datagen.Generate(datagen.Config{NumEntities: 30000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ds.Entities {
		e.Synopsis()
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	tbl := newStreamTable(ds)
	for _, e := range ds.Entities {
		tbl.Insert(e)
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(tbl)
	perDoc := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(len(ds.Entities))
	t.Logf("%.0f B of live heap per document", perDoc)
	if perDoc > maxBytes {
		t.Fatalf("%.0f B of live heap per document, budget %d B", perDoc, maxBytes)
	}
}
