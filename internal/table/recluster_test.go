package table

import (
	"fmt"
	"testing"

	"cinderella/internal/core"
	"cinderella/internal/entity"
	"cinderella/internal/obs"
	"cinderella/internal/synopsis"
)

// chaseFamily is a rating blender that chases one attribute family: an
// entity only rates partitions already holding its attribute of that
// family; everywhere else it scores negative, which seeds a new
// partition. Re-rating a mixed partition under it migrates entities.
type chaseFamily struct{ family *synopsis.Set }

func (c chaseFamily) Blend(e *core.Entity, _ core.PartitionID, pSyn *synopsis.Set, attrScore float64) float64 {
	mine := e.Syn.Clone()
	mine.IntersectWith(c.family)
	if !synopsis.Intersects(mine, pSyn) {
		return -1
	}
	return attrScore
}

// TestReclusterMovesMatchOracle interleaves recluster batches with
// oracle-checked reads: mid-migration — records tombstoned in one
// partition and re-tagged in another, partitions created and dropped —
// every query kind still returns exactly the brute-force answer, report
// and I/O charges.
func TestReclusterMovesMatchOracle(t *testing.T) {
	tbl := New(Config{
		Partitioner: core.NewCinderella(core.Config{Weight: 0.5, MaxSize: 16}),
		Obs:         obs.New(obs.Options{}),
	})
	// Two common attributes plus one from each of two independent
	// families (a: 10..17, b: 20..27), as in the root package's race test.
	for i := 0; i < 256; i++ {
		tbl.Insert(mkEnt(0, 1, 10+i%8, 20+(i/8)%8))
	}
	family := synopsis.Of(20, 21, 22, 23, 24, 25, 26, 27)

	moved := 0
	for round := 0; round < 6; round++ {
		for _, pv := range tbl.Partitions() {
			moved += tbl.ReclusterBatch(pv.ID, 8, chaseFamily{family}).Moved
		}
		// A frozen partition mid-migration crosses the tier boundary too.
		if parts := tbl.Partitions(); round%2 == 1 && len(parts) > 0 {
			tbl.FreezePartition(parts[len(parts)/2].ID)
		}
		for i := 0; i < 8; i += 3 {
			for _, attr := range []int{10 + i, 20 + i} {
				q := synopsis.Of(attr)
				checkOracle(t, fmt.Sprintf("round %d select %d", round, attr), tbl, oracleSelect(q),
					func() ([]Result, QueryReport) { return tbl.SelectWithReport(q) })
			}
		}
		preds := []Pred{{Attr: 20 + round, Op: Ge, Value: entity.Int(0)}, {Attr: 0, Op: Eq, Value: entity.Int(0)}}
		checkOracle(t, fmt.Sprintf("round %d where", round), tbl, oracleWhere(preds),
			func() ([]Result, QueryReport) { return tbl.SelectWhere(preds) })
		checkOracle(t, fmt.Sprintf("round %d scan-all", round), tbl, oracleScanAll(), scanAllRun(tbl))
	}
	if moved == 0 {
		t.Fatal("recluster batches never moved an entity; the test proved nothing")
	}
}
