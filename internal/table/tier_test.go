package table

import (
	"sync"
	"testing"

	"cinderella/internal/core"
	"cinderella/internal/entity"
	"cinderella/internal/storage"
	"cinderella/internal/synopsis"
)

// tierFixture builds a table with two well-separated partitions: ~n
// entities on attrs {1,2,3} and ~n on attrs {50,51}. Returns the table,
// its stats, and the partition id holding the {50,51} family.
func tierFixture(t *testing.T, n int) (*Table, *storage.Stats, core.PartitionID) {
	t.Helper()
	stats := &storage.Stats{}
	tbl := New(Config{
		Partitioner: core.NewCinderella(core.Config{Weight: 0.5, MaxSize: 1000}),
		Stats:       stats,
	})
	for i := 0; i < n; i++ {
		tbl.Insert(mkEnt(1, 2, 3))
		tbl.Insert(mkEnt(50, 51))
	}
	cold := core.PartitionID(0)
	for _, pv := range tbl.Partitions() {
		if synopsis.Intersects(pv.Synopsis, synopsis.Of(50)) {
			cold = pv.ID
		}
	}
	if cold == 0 {
		t.Fatal("fixture: no partition holds attr 50")
	}
	return tbl, stats, cold
}

func TestFreezeThawRoundTrip(t *testing.T) {
	tbl, _, coldPID := tierFixture(t, 50)
	before := tbl.Select(50, 51)
	if len(before) != 50 {
		t.Fatalf("setup: Select(50,51) = %d hits", len(before))
	}

	if !tbl.FreezePartition(coldPID) {
		t.Fatal("FreezePartition refused")
	}
	if tbl.FreezePartition(coldPID) {
		t.Fatal("double freeze succeeded")
	}
	if tbl.FreezePartition(9999) {
		t.Fatal("freeze of unknown partition succeeded")
	}

	// The cold tier returns the identical result set, and every query
	// kind agrees with the oracle across the tier boundary.
	after := tbl.Select(50, 51)
	if !sameResults(after, before) {
		t.Fatalf("%d hits after freeze differ from the %d before", len(after), len(before))
	}
	checkTiers := func(stage string) {
		t.Helper()
		for _, q := range []*synopsis.Set{synopsis.Of(50, 51), synopsis.Of(1), synopsis.Of(3, 50), synopsis.Of(7)} {
			checkOracle(t, stage+": select "+q.String(), tbl, oracleSelect(q),
				func() ([]Result, QueryReport) { return tbl.SelectWithReport(q) })
		}
		preds := []Pred{{Attr: 51, Op: Ge, Value: entity.Int(0)}}
		checkOracle(t, stage+": where", tbl, oracleWhere(preds),
			func() ([]Result, QueryReport) { return tbl.SelectWhere(preds) })
		checkOracle(t, stage+": scan-all", tbl, oracleScanAll(), scanAllRun(tbl))
	}
	checkTiers("frozen")

	// Point reads work against the frozen partition.
	anyID := before[0].ID
	if e, ok := tbl.Get(anyID); !ok || e == nil {
		t.Fatalf("Get(%d) failed on frozen partition", anyID)
	}

	// The tier report sees one frozen, compressed partition.
	var frozen int
	for _, ts := range tbl.TierStates() {
		if !ts.Frozen {
			continue
		}
		frozen++
		if ts.Partition != coldPID {
			t.Fatalf("frozen partition %d, want %d", ts.Partition, coldPID)
		}
		if ts.ResidentBytes >= ts.RawBytes {
			t.Fatalf("no compression: resident %d >= raw %d", ts.ResidentBytes, ts.RawBytes)
		}
	}
	if frozen != 1 {
		t.Fatalf("%d frozen partitions, want 1", frozen)
	}
	fz, th := tbl.TierCounters() // checkOracle cycles the tier; count from here

	if !tbl.ThawPartition(coldPID) {
		t.Fatal("ThawPartition refused")
	}
	if tbl.ThawPartition(coldPID) {
		t.Fatal("double thaw succeeded")
	}
	if got := tbl.Select(50, 51); !sameResults(got, before) {
		t.Fatalf("%d hits after thaw differ from the %d before the freeze", len(got), len(before))
	}
	if f2, th2 := tbl.TierCounters(); f2 != fz || th2 != th+1 {
		t.Fatalf("tier counters = %d/%d after one thaw from %d/%d", f2, th2, fz, th)
	}
	checkTiers("thawed")
}

// TestFrozenPartitionPrunesWithoutColdBytes is the tentpole's central
// claim: a query the synopsis prunes never decompresses a cold block,
// while a query that needs the frozen partition pays the (visible)
// cold-read charge.
func TestFrozenPartitionPrunesWithoutColdBytes(t *testing.T) {
	tbl, stats, coldPID := tierFixture(t, 40)
	if !tbl.FreezePartition(coldPID) {
		t.Fatal("freeze refused")
	}

	stats.Reset()
	if got := tbl.Select(1); len(got) != 40 {
		t.Fatalf("Select(1) = %d hits", len(got))
	}
	if cp, cb := stats.ColdSnapshot(); cp != 0 || cb != 0 {
		t.Fatalf("pruned query read %d cold pages / %d cold bytes", cp, cb)
	}

	// SelectWhere prunes by synopsis, still zero cold I/O.
	pruned := []Pred{{Attr: 2, Op: Ge, Value: entity.Int(0)}}
	res, rep := tbl.SelectWhere(pruned)
	if len(res) != 40 || rep.PartitionsPruned == 0 {
		t.Fatalf("SelectWhere = %d hits, pruned %d", len(res), rep.PartitionsPruned)
	}
	if cp, cb := stats.ColdSnapshot(); cp != 0 || cb != 0 {
		t.Fatalf("pruned SelectWhere read %d cold pages / %d cold bytes", cp, cb)
	}

	// The oracle agrees on both — results, report, and the zero cold
	// delta — and on a query that needs the frozen partition.
	checkOracle(t, "pruned select", tbl, oracleSelect(synopsis.Of(1)),
		func() ([]Result, QueryReport) { return tbl.SelectWithReport(synopsis.Of(1)) })
	checkOracle(t, "pruned where", tbl, oracleWhere(pruned),
		func() ([]Result, QueryReport) { return tbl.SelectWhere(pruned) })
	checkOracle(t, "cold select", tbl, oracleSelect(synopsis.Of(50)),
		func() ([]Result, QueryReport) { return tbl.SelectWithReport(synopsis.Of(50)) })

	// A scan that needs the cold tier charges the cold counters. Freeze
	// afresh so the per-segment resident-block cache is empty and the
	// decompression is guaranteed to happen inside the measured window.
	tbl.ThawPartition(coldPID)
	if !tbl.FreezePartition(coldPID) {
		t.Fatal("re-freeze refused")
	}
	stats.Reset()
	if got := tbl.Select(50); len(got) != 40 {
		t.Fatalf("Select(50) = %d hits", len(got))
	}
	if cp, cb := stats.ColdSnapshot(); cp == 0 || cb == 0 {
		t.Fatalf("cold scan charged %d pages / %d bytes, want > 0", cp, cb)
	}
}

func TestMutationsThawFrozenPartition(t *testing.T) {
	tbl, _, coldPID := tierFixture(t, 30)
	victims := tbl.Select(50, 51)
	if !tbl.FreezePartition(coldPID) {
		t.Fatal("freeze refused")
	}

	// Delete reaches the frozen partition and transparently thaws it.
	if !tbl.Delete(victims[0].ID) {
		t.Fatal("Delete on frozen partition failed")
	}
	if got := len(tbl.FrozenPartitions()); got != 0 {
		t.Fatalf("%d frozen partitions after delete, want 0", got)
	}
	if _, th := tbl.TierCounters(); th != 1 {
		t.Fatalf("thaws = %d, want 1", th)
	}
	if got := tbl.Select(50, 51); len(got) != len(victims)-1 {
		t.Fatalf("%d hits after delete, want %d", len(got), len(victims)-1)
	}

	// Update against a re-frozen partition thaws it too.
	if !tbl.FreezePartition(coldPID) {
		t.Fatal("re-freeze refused")
	}
	if !tbl.Update(victims[1].ID, mkEnt(50, 51)) {
		t.Fatal("Update on frozen partition failed")
	}
	if got := len(tbl.FrozenPartitions()); got != 0 {
		t.Fatalf("%d frozen partitions after update, want 0", got)
	}
	if got := tbl.Select(50, 51); len(got) != len(victims)-1 {
		t.Fatalf("%d hits after update, want %d", len(got), len(victims)-1)
	}
}

// TestVacuumSkipsFrozenPartitions: table-wide vacuum must leave the
// cold tier alone (it was vacuumed at freeze) and not lose any rows.
func TestVacuumSkipsFrozenPartitions(t *testing.T) {
	tbl, _, coldPID := tierFixture(t, 30)
	hot := tbl.Select(1)
	for i := 0; i < 10; i++ {
		tbl.Delete(hot[i].ID)
	}
	if !tbl.FreezePartition(coldPID) {
		t.Fatal("freeze refused")
	}
	tbl.Vacuum()
	if got := len(tbl.FrozenPartitions()); got != 1 {
		t.Fatalf("%d frozen partitions after vacuum, want 1", got)
	}
	if got := len(tbl.Select(50, 51)); got != 30 {
		t.Fatalf("%d cold hits after vacuum, want 30", got)
	}
	if got := len(tbl.Select(1)); got != 20 {
		t.Fatalf("%d hot hits after vacuum, want 20", got)
	}
}

// TestTierTransitionsUnderConcurrentReaders drives freeze/thaw cycles
// against lock-free snapshot readers; run with -race this doubles as
// the tier's publication-safety test.
func TestTierTransitionsUnderConcurrentReaders(t *testing.T) {
	tbl, _, coldPID := tierFixture(t, 40)
	probe := tbl.Select(50, 51)[0].ID

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if got := len(tbl.Select(50, 51)); got != 40 {
					panic("reader observed partial freeze")
				}
				if _, ok := tbl.Get(probe); !ok {
					panic("point read lost during tier transition")
				}
			}
		}()
	}
	for i := 0; i < 50; i++ {
		if !tbl.FreezePartition(coldPID) {
			t.Fatal("freeze refused mid-loop")
		}
		if !tbl.ThawPartition(coldPID) {
			t.Fatal("thaw refused mid-loop")
		}
	}
	close(stop)
	wg.Wait()
	if got := len(tbl.ScanAll()); got != 80 {
		t.Fatalf("%d entities after transition storm, want 80", got)
	}
}
