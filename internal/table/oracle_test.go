package table

import (
	"slices"
	"sort"
	"testing"

	"cinderella/internal/core"
	"cinderella/internal/entity"
	"cinderella/internal/obs"
	"cinderella/internal/storage"
	"cinderella/internal/synopsis"
)

// The read path's single oracle: a brute-force decode-and-filter that
// shares nothing with the code under test — no snapshot, no presence
// matrix, no kernel. It walks the row index under the table's read
// lock, point-reads and decodes every live record of every partition in
// either tier, and derives the expected results, QueryReport and
// simulated-I/O charges from first principles.

// oracleQuery states a query the way Definition 1 does: which
// partitions the pruning metadata lets it skip, which records carry the
// attributes it needs (and so must be decoded), and which of those it
// returns.
type oracleQuery struct {
	// prune reports whether a partition is skipped given the union of
	// its members' attribute sets; nil touches every partition.
	prune func(syn *synopsis.Set) bool
	// decode reports whether a record with these attributes must be
	// decoded to answer the query.
	decode func(attrs *synopsis.Set) bool
	// hit reports whether a decoded record is returned.
	hit func(e *entity.Entity) bool
}

func oracleSelect(q *synopsis.Set) oracleQuery {
	return oracleQuery{
		prune:  func(syn *synopsis.Set) bool { return !synopsis.Intersects(syn, q) },
		decode: func(attrs *synopsis.Set) bool { return synopsis.Intersects(attrs, q) },
		hit:    func(e *entity.Entity) bool { return synopsis.Intersects(e.Synopsis(), q) },
	}
}

func oracleWhere(preds []Pred) oracleQuery {
	need := synopsis.New(0)
	for _, p := range preds {
		need.Add(p.Attr)
	}
	return oracleQuery{
		prune:  func(syn *synopsis.Set) bool { return !synopsis.Subset(need, syn) },
		decode: func(attrs *synopsis.Set) bool { return synopsis.Subset(need, attrs) },
		hit:    func(e *entity.Entity) bool { return entityMatches(e, preds) },
	}
}

func oracleScanAll() oracleQuery {
	return oracleQuery{
		decode: func(*synopsis.Set) bool { return true },
		hit:    func(*entity.Entity) bool { return true },
	}
}

// oracleAnswer is everything a query must produce. io is the Stats
// delta (pages, bytes, records read, cold pages, cold bytes) of a scan
// that finds every touched frozen partition's block cache empty;
// decoded is the size of the decode set.
type oracleAnswer struct {
	res     []Result
	rep     QueryReport
	io      [5]int64
	decoded int
}

// oracleBlockPages mirrors the cold tier's compression block size (16
// pages): a frozen partition inflates exactly the blocks holding records
// the query decodes.
const oracleBlockPages = 16

func (t *Table) oracle(oq oracleQuery) oracleAnswer {
	t.mu.RLock()
	defer t.mu.RUnlock()

	type row struct {
		id  core.EntityID
		rid storage.RecordID
	}
	members := make(map[core.PartitionID][]row)
	for id, loc := range t.rows {
		members[loc.pid] = append(members[loc.pid], row{id, loc.rid})
	}
	var pids []core.PartitionID
	for pid := range t.segs {
		pids = append(pids, pid)
	}
	for pid := range t.cold {
		pids = append(pids, pid)
	}
	slices.Sort(pids)

	var ans oracleAnswer
	ans.rep.PartitionsTotal = len(pids)
	for _, pid := range pids {
		rows := members[pid]
		sort.Slice(rows, func(i, j int) bool {
			a, b := rows[i].rid, rows[j].rid
			return a.Page < b.Page || a.Page == b.Page && a.Slot < b.Slot
		})
		seg, cs := t.segs[pid], t.cold[pid]

		// Decode the whole partition: entities, stored sizes, synopsis.
		ents := make([]*entity.Entity, len(rows))
		sizes := make([]int64, len(rows))
		syn := synopsis.New(0)
		for i, r := range rows {
			var rec []byte
			var err error
			if seg != nil {
				rec, err = seg.Read(r.rid)
			} else {
				rec, err = cs.Read(r.rid)
			}
			if err != nil {
				panic(err)
			}
			id, e, err := decodeRecord(rec)
			if err != nil || id != r.id {
				panic("oracle: row index and stored record disagree")
			}
			ents[i], sizes[i] = e, int64(len(rec))
			syn.UnionWith(e.Synopsis())
		}

		if oq.prune != nil && oq.prune(syn) {
			ans.rep.PartitionsPruned++
			continue
		}
		ans.rep.PartitionsTouched++
		pages := 0
		if seg != nil {
			pages = seg.NumPages()
		} else {
			pages = cs.NumPages()
		}
		ans.io[0] += int64(pages)
		blocks := make(map[int]bool)
		for i, e := range ents {
			ans.rep.EntitiesScanned++
			ans.rep.BytesRead += sizes[i]
			if !oq.decode(e.Synopsis()) {
				continue
			}
			ans.decoded++
			blocks[rows[i].rid.Page/oracleBlockPages] = true
			if oq.hit(e) {
				ans.res = append(ans.res, Result{ID: rows[i].id, Entity: e})
				ans.rep.EntitiesReturned++
				ans.rep.BytesRelevant += sizes[i]
			}
		}
		if cs != nil {
			for b := range blocks {
				ans.io[3] += int64(min(oracleBlockPages, pages-b*oracleBlockPages))
			}
		}
	}
	ans.io[1] = ans.rep.BytesRead
	ans.io[2] = int64(ans.rep.EntitiesScanned)
	ans.io[4] = ans.io[3] * storage.PageSize
	return ans
}

// ioDelta runs fn and returns the Stats deltas it caused: pages, bytes
// and records read, then cold pages and cold bytes.
func ioDelta(stats *storage.Stats, fn func()) [5]int64 {
	p0, _, b0, _, r0 := stats.Snapshot()
	cp0, cb0 := stats.ColdSnapshot()
	fn()
	p1, _, b1, _, r1 := stats.Snapshot()
	cp1, cb1 := stats.ColdSnapshot()
	return [5]int64{p1 - p0, b1 - b0, r1 - r0, cp1 - cp0, cb1 - cb0}
}

// refreeze cycles every frozen partition through thaw and freeze so its
// decompressed-block cache is empty, the state oracleAnswer.io assumes.
// Record ids survive (thaw preserves them; the re-freeze's vacuum finds
// no tombstones).
func refreeze(t *Table) {
	for _, pid := range t.FrozenPartitions() {
		t.ThawPartition(pid)
		t.FreezePartition(pid)
	}
}

// checkOracle runs one query against the table and requires its
// results (ids, entities, order), every QueryReport field, the ordinary
// and cold Stats deltas, and — when the table has a telemetry registry —
// the number of records decoded to equal the oracle's. ScanAll returns
// no report (see scanAllRun), so its report is not compared.
func checkOracle(tb testing.TB, desc string, t *Table, oq oracleQuery, run func() ([]Result, QueryReport)) {
	tb.Helper()
	refreeze(t)
	var res []Result
	var rep QueryReport
	reg := t.observer()
	decoded := reg.Counter(obs.CScanDecoded)
	io := ioDelta(t.Stats(), func() { res, rep = run() })
	decoded = reg.Counter(obs.CScanDecoded) - decoded
	want := t.oracle(oq)

	if len(res) != len(want.res) {
		tb.Fatalf("%s: %d results, oracle says %d", desc, len(res), len(want.res))
	}
	for i := range res {
		if res[i].ID != want.res[i].ID || !res[i].Entity.Equal(want.res[i].Entity) {
			tb.Fatalf("%s: result %d is (%d,%v), oracle says (%d,%v)",
				desc, i, res[i].ID, res[i].Entity, want.res[i].ID, want.res[i].Entity)
		}
	}
	if oq.prune != nil && rep != want.rep {
		tb.Fatalf("%s: report %+v, oracle says %+v", desc, rep, want.rep)
	}
	if io != want.io {
		tb.Fatalf("%s: Stats delta (pages, bytes, records, cold pages, cold bytes) %v, oracle says %v", desc, io, want.io)
	}
	if reg != nil && decoded != int64(want.decoded) {
		tb.Fatalf("%s: decoded %d records, oracle's decode set has %d", desc, decoded, want.decoded)
	}
}

// scanAllRun adapts ScanAll, which returns no report, to checkOracle.
func scanAllRun(t *Table) func() ([]Result, QueryReport) {
	return func() ([]Result, QueryReport) { return t.ScanAll(), QueryReport{} }
}
