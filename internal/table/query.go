package table

import (
	"strconv"
	"strings"
	"time"

	"cinderella/internal/core"
	"cinderella/internal/entity"
	"cinderella/internal/obs"
	"cinderella/internal/storage"
	"cinderella/internal/synopsis"
)

// Result is one query hit: the entity id and a decoded copy.
type Result struct {
	ID     core.EntityID
	Entity *entity.Entity
}

// QueryReport describes one query execution for experiments and the
// streaming EFFICIENCY estimator. The json tags are the service-layer
// wire format (GET /v1/query-report).
type QueryReport struct {
	PartitionsTotal   int `json:"partitions_total"`
	PartitionsTouched int `json:"partitions_touched"`
	PartitionsPruned  int `json:"partitions_pruned"`
	EntitiesScanned   int `json:"entities_scanned"`
	EntitiesReturned  int `json:"entities_returned"`
	// BytesRead is the live record bytes of every record visited in the
	// non-pruned partitions — Definition 1's per-query denominator with
	// SIZE() in bytes. BytesRelevant is the subset belonging to returned
	// (relevant) records, the matching numerator.
	BytesRead     int64 `json:"bytes_read"`
	BytesRelevant int64 `json:"bytes_relevant"`
}

// Select returns all entities instantiating at least one of the given
// attributes — the paper's
//
//	SELECT … WHERE a1 IS NOT NULL OR a2 IS NOT NULL …
//
// query shape. Partitions whose attribute synopsis is disjoint from the
// query are pruned without touching their data.
func (t *Table) Select(attrs ...int) []Result {
	res, _ := t.SelectWithReport(synopsis.Of(attrs...))
	return res
}

// SelectSynopsis runs Select for a prepared query synopsis.
func (t *Table) SelectSynopsis(q *synopsis.Set) []Result {
	res, _ := t.SelectWithReport(q)
	return res
}

// SelectWithReport runs the query and also returns execution counters.
// Surviving partitions are scanned by the worker pool (see parallel.go);
// results arrive in ascending partition-id order, identical to a serial
// scan. The query runs against a captured consistent cut and never takes
// the table lock.
func (t *Table) SelectWithReport(q *synopsis.Set) ([]Result, QueryReport) {
	return t.SelectSpanned(q, t.observer().StartQuery(obs.KindSelect))
}

// SelectSpanned runs SelectWithReport filling an externally created
// query span — a shard fan-out child or a forced trace. sp may be nil
// (heat accounting still happens). Root spans are retained by the
// registry in FinishQuery; child spans by their parent's coordinator.
func (t *Table) SelectSpanned(q *synopsis.Set, sp *obs.QuerySpan) ([]Result, QueryReport) {
	if sp.WantDetail() {
		sp.SetQuery(t.describeSelect(q))
	}
	// Record the query's attribute shape into the recent-mix ring; the
	// reclusterer derives its workload-relevance term from it.
	t.observer().NoteQueryShape(q)
	prune := func(ps *partSnap) (obs.PruneReason, bool) {
		return obs.PruneSynopsisDisjoint, ps.syn == nil || !synopsis.Intersects(ps.syn, q)
	}
	// Presence rows are the entities' exact attribute sets, so every
	// candidate of the union program is a hit: no post-decode test.
	return t.runQuery(sp, prune, storage.BitmapProgram{Attrs: q.Elements(nil), Disjunction: true}, nil)
}

// ScanAll returns every live entity (a full table scan over all
// partitions, no pruning possible). Partitions are scanned in parallel
// like Select; the result order is ascending partition id, then storage
// order within the partition.
func (t *Table) ScanAll() []Result {
	return t.ScanAllSpanned(t.observer().StartQuery(obs.KindScanAll))
}

// ScanAllSpanned runs ScanAll filling an externally created query span
// (sp may be nil). Full scans feed the heat map and span trees but do
// not enter the query counters or the EFFICIENCY estimator — they have
// no pruning decision to measure.
func (t *Table) ScanAllSpanned(sp *obs.QuerySpan) []Result {
	if sp.WantDetail() {
		sp.SetQuery("scan-all")
	}
	// The empty conjunction: every live record is a candidate and a hit.
	out, _ := t.runQuery(sp, nil, storage.BitmapProgram{}, nil)
	return out
}

// pruneFn decides from a partition's published pruning metadata whether
// the partition can be skipped without reading it, and why.
type pruneFn func(ps *partSnap) (why obs.PruneReason, pruned bool)

// runQuery is the table's one read path, behind Select, SelectWhere and
// ScanAll: capture a consistent cut, prune partitions by metadata, scan
// the survivors with the bitmap kernel (prog selects the candidate
// records, match — nil accepts all — tests each decoded candidate), and
// merge and charge the result. A nil prune keeps every partition and
// marks the query as uncounted (see settle).
func (t *Table) runQuery(sp *obs.QuerySpan, prune pruneFn, prog storage.BitmapProgram, match func(*entity.Entity) bool) ([]Result, QueryReport) {
	start := t.obsStart()

	// Pruning reads only the captured snapshots' own synopses, so the
	// verdicts are consistent with the cut by construction.
	survivors := t.capture().parts
	rep := QueryReport{PartitionsTotal: len(survivors)}
	if prune != nil {
		kept := survivors[:0]
		for _, ps := range survivors {
			if why, pruned := prune(ps); pruned {
				rep.PartitionsPruned++
				sp.Prune(uint64(ps.pid), why)
				continue
			}
			kept = append(kept, ps)
		}
		survivors = kept
	}
	rep.PartitionsTouched = len(survivors)

	parts := t.scanParts(survivors, prog, match, sp.TimeScans())
	out := t.settle(sp, parts, &rep, start, prune != nil)
	return out, rep
}

// settle is the one merge-and-charge routine: it concatenates the
// per-partition hit buffers in slot (= partition-id) order, folds their
// counters into rep, and publishes the query to telemetry — the query
// counters and streaming EFFICIENCY estimator (counted queries only),
// the decode/skip and kernel counters, the always-on heat map, and the
// query span — before returning the pooled scan buffers. The decode-side
// counters are CPU signals only; they never enter QueryReport.
func (t *Table) settle(sp *obs.QuerySpan, parts []partScan, rep *QueryReport, start time.Time, counted bool) []Result {
	var out []Result
	total := 0
	for i := range parts {
		total += len(parts[i].hits)
	}
	if total > 0 {
		out = make([]Result, 0, total)
	}
	var dec, skip, words int64
	for i := range parts {
		p := &parts[i]
		rep.EntitiesScanned += p.scanned
		rep.EntitiesReturned += len(p.hits)
		rep.BytesRead += p.bytesRead
		rep.BytesRelevant += p.bytesHit
		out = append(out, p.hits...)
		dec += int64(p.decoded)
		skip += int64(p.skipped)
		words += p.bitmapWords
	}

	ns := lapNs(start)
	if counted {
		t.noteQuery(*rep, ns)
	}
	if r := t.observer(); r != nil {
		r.Add(obs.CScanDecoded, dec)
		r.Add(obs.CScanDecodeSkipped, skip)
		r.Add(obs.CScanBitmapWords, words)
		r.Add(obs.CScanBitmapHits, dec)

		var spans []obs.PartSpan
		if len(parts) > 0 {
			spans = make([]obs.PartSpan, len(parts))
			for i := range parts {
				p := &parts[i]
				spans[i] = obs.PartSpan{
					Partition:     uint64(p.pid),
					Scanned:       int64(p.scanned),
					Returned:      int64(len(p.hits)),
					Decoded:       int64(p.decoded),
					Skipped:       int64(p.skipped),
					BytesRead:     p.bytesRead,
					BytesRelevant: p.bytesHit,
					BytesSkipped:  p.bytesSkip,
					ScanNs:        p.ns,
					BitmapWords:   p.bitmapWords,
					BitmapHits:    int64(p.decoded),
				}
			}
		}
		r.FinishQuery(sp, ns, obs.QueryAgg{
			PartitionsTotal:   int64(rep.PartitionsTotal),
			PartitionsTouched: int64(rep.PartitionsTouched),
			PartitionsPruned:  int64(rep.PartitionsPruned),
			EntitiesScanned:   int64(rep.EntitiesScanned),
			EntitiesReturned:  int64(rep.EntitiesReturned),
			BytesRead:         rep.BytesRead,
			BytesRelevant:     rep.BytesRelevant,
		}, spans)
	}

	// The hits were copied out above; clear the pooled buffers so they do
	// not pin decoded entities.
	for i := range parts {
		sc := parts[i].scratch
		parts[i].scratch, parts[i].hits = nil, nil
		clear(sc.hits)
		sc.hits = sc.hits[:0]
		scanScratchPool.Put(sc)
	}
	return out
}

// describeSelect renders the query for span trees: attribute names when
// the table has a dictionary, raw ids otherwise. Built only when a span
// wants detail — never on the unsampled hot path.
func (t *Table) describeSelect(q *synopsis.Set) string {
	var b strings.Builder
	b.WriteString("select(")
	first := true
	q.ForEach(func(id int) {
		if !first {
			b.WriteByte(',')
		}
		first = false
		b.WriteString(t.attrName(id))
	})
	b.WriteByte(')')
	return b.String()
}

// describeWhere renders a predicate conjunction for span trees.
func (t *Table) describeWhere(preds []Pred) string {
	var b strings.Builder
	b.WriteString("where(")
	for i, p := range preds {
		if i > 0 {
			b.WriteString(" AND ")
		}
		b.WriteString(t.attrName(p.Attr))
		b.WriteString(p.Op.String())
		b.WriteString(p.Value.String())
	}
	b.WriteByte(')')
	return b.String()
}

func (t *Table) attrName(id int) string {
	if t.dict != nil && id >= 0 && id < t.dict.Len() {
		return t.dict.Name(id)
	}
	return "#" + strconv.Itoa(id)
}
