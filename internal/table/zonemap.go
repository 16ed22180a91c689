package table

import (
	"fmt"
	"sort"

	"cinderella/internal/core"
	"cinderella/internal/entity"
	"cinderella/internal/obs"
	"cinderella/internal/storage"
	"cinderella/internal/synopsis"
)

// The paper's future work names "further aspects of physical database
// design like caching or indexing". Zone maps are the natural first
// index for a partitioned universal table: per partition and attribute,
// the min/max of stored values. Value-predicate queries can then prune
// partitions both by attribute synopsis (the paper's mechanism) and by
// value range.
//
// Zone maps are maintained additively: inserts and move-ins widen them;
// deletes and move-outs do not shrink them (a conservative over-
// approximation that never prunes wrongly). RebuildZoneMaps recomputes
// exact bounds, e.g. after heavy churn.

// zoneEntry is the value range of one attribute within one partition.
type zoneEntry struct {
	hasNum         bool
	minNum, maxNum float64
	hasStr         bool
	minStr, maxStr string
}

func (z *zoneEntry) widen(v entity.Value) {
	switch v.Kind() {
	case entity.KindInt, entity.KindFloat:
		f := v.AsFloat()
		if !z.hasNum || f < z.minNum {
			z.minNum = f
		}
		if !z.hasNum || f > z.maxNum {
			z.maxNum = f
		}
		z.hasNum = true
	case entity.KindString:
		s := v.AsString()
		if !z.hasStr || s < z.minStr {
			z.minStr = s
		}
		if !z.hasStr || s > z.maxStr {
			z.maxStr = s
		}
		z.hasStr = true
	}
}

// CmpOp is a comparison operator for value predicates.
type CmpOp uint8

// Supported predicate operators.
const (
	Eq CmpOp = iota
	Lt
	Le
	Gt
	Ge
)

// String renders the operator.
func (op CmpOp) String() string {
	switch op {
	case Eq:
		return "="
	case Lt:
		return "<"
	case Le:
		return "<="
	case Gt:
		return ">"
	case Ge:
		return ">="
	}
	return "?"
}

// Pred is one value predicate: attr op value. An entity satisfies the
// predicate only if it instantiates the attribute (SQL-like null
// semantics: comparisons with an absent attribute are false).
type Pred struct {
	Attr  int
	Op    CmpOp
	Value entity.Value
}

// evalValue applies the predicate to a concrete value.
func (p Pred) evalValue(v entity.Value) bool {
	// Numeric predicates apply to numeric values, string predicates to
	// strings; kind mismatches are false.
	switch p.Value.Kind() {
	case entity.KindInt, entity.KindFloat:
		if v.Kind() != entity.KindInt && v.Kind() != entity.KindFloat {
			return false
		}
		a, b := v.AsFloat(), p.Value.AsFloat()
		return cmpMatch(p.Op, compareFloat(a, b))
	case entity.KindString:
		if v.Kind() != entity.KindString {
			return false
		}
		return cmpMatch(p.Op, compareString(v.AsString(), p.Value.AsString()))
	}
	return false
}

func compareFloat(a, b float64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func compareString(a, b string) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func cmpMatch(op CmpOp, c int) bool {
	switch op {
	case Eq:
		return c == 0
	case Lt:
		return c < 0
	case Le:
		return c <= 0
	case Gt:
		return c > 0
	case Ge:
		return c >= 0
	}
	return false
}

// overlapZone reports whether any value inside the zone can satisfy the
// predicate; false allows pruning the partition.
func (p Pred) overlapZone(z *zoneEntry) bool {
	if z == nil {
		return false
	}
	switch p.Value.Kind() {
	case entity.KindInt, entity.KindFloat:
		if !z.hasNum {
			return false
		}
		b := p.Value.AsFloat()
		switch p.Op {
		case Eq:
			return z.minNum <= b && b <= z.maxNum
		case Lt:
			return z.minNum < b
		case Le:
			return z.minNum <= b
		case Gt:
			return z.maxNum > b
		case Ge:
			return z.maxNum >= b
		}
	case entity.KindString:
		if !z.hasStr {
			return false
		}
		b := p.Value.AsString()
		switch p.Op {
		case Eq:
			return z.minStr <= b && b <= z.maxStr
		case Lt:
			return z.minStr < b
		case Le:
			return z.minStr <= b
		case Gt:
			return z.maxStr > b
		case Ge:
			return z.maxStr >= b
		}
	}
	return false
}

// zoneWiden updates the zone maps of pid with an entity's fields.
// Callers hold the table write lock; zmu additionally excludes lock-free
// readers consulting the maps through zonesOverlap.
func (t *Table) zoneWiden(pid core.PartitionID, e *entity.Entity) {
	t.zmu.Lock()
	defer t.zmu.Unlock()
	zm := t.zones[pid]
	if zm == nil {
		zm = make(map[int]*zoneEntry)
		t.zones[pid] = zm
	}
	widenInto(zm, e)
}

// zoneAbsorb widens dst's zone map by every entry of src's: the range
// of each attribute over both partitions' records. A split or merge
// calls it once per (target, source) instead of decoding each moved
// record.
func (t *Table) zoneAbsorb(dst, src core.PartitionID) {
	t.zmu.Lock()
	defer t.zmu.Unlock()
	zm := t.zones[dst]
	if zm == nil {
		zm = make(map[int]*zoneEntry)
		t.zones[dst] = zm
	}
	for a, from := range t.zones[src] {
		z := zm[a]
		if z == nil {
			z = &zoneEntry{}
			zm[a] = z
		}
		if from.hasNum {
			z.widen(entity.Float(from.minNum))
			z.widen(entity.Float(from.maxNum))
		}
		if from.hasStr {
			z.widen(entity.Str(from.minStr))
			z.widen(entity.Str(from.maxStr))
		}
	}
}

// zoneTrim drops pid's zone entries for attributes outside its
// attribute synopsis — entries an absorbed source contributed but no
// member carries. Only safe while pid is unpublished: a snapshot
// captured earlier may hold records the current synopsis lacks.
func (t *Table) zoneTrim(pid core.PartitionID) {
	syn := t.attrSyn[pid]
	t.zmu.Lock()
	defer t.zmu.Unlock()
	for a := range t.zones[pid] {
		if !syn.Contains(a) {
			delete(t.zones[pid], a)
		}
	}
}

func widenInto(zm map[int]*zoneEntry, e *entity.Entity) {
	for _, f := range e.Fields() {
		z := zm[f.Attr]
		if z == nil {
			z = &zoneEntry{}
			zm[f.Attr] = z
		}
		z.widen(f.Value)
	}
}

// RebuildZoneMaps recomputes exact zone maps for every partition by
// scanning the data. Useful after many deletes or updates have made the
// additive maps loose. The fresh maps are swapped in atomically under
// zmu, and the zone generation is bumped so snapshot SelectWhere calls
// that pruned against the old maps re-prune (zones only ever widen
// between rebuilds, which keeps them conservative for any snapshot; a
// rebuild is the one event that can shrink them).
func (t *Table) RebuildZoneMaps() {
	t.mu.Lock()
	defer t.mu.Unlock()
	fresh := make(map[core.PartitionID]map[int]*zoneEntry)
	for pid, seg := range t.segs {
		zm := make(map[int]*zoneEntry)
		seg.Scan(func(_ storage.RecordID, rec []byte) bool {
			_, e, err := decodeRecord(rec)
			if err != nil {
				panic("table: corrupt record during zone rebuild: " + err.Error())
			}
			widenInto(zm, e)
			return true
		})
		fresh[pid] = zm
	}
	t.zmu.Lock()
	// Frozen partitions carry their existing maps over untouched: they
	// are immutable (no churn to tighten away), and rescanning them here
	// would decompress the whole cold tier for nothing.
	for pid := range t.cold {
		if zm := t.zones[pid]; zm != nil {
			fresh[pid] = zm
		}
	}
	t.zones = fresh
	t.zmu.Unlock()
	t.zoneGen.Add(1)
}

// predNeed validates preds and returns the set of predicate attributes.
// An entity lacking any of them cannot satisfy the conjunction (SQL null
// semantics), so the set prunes both partitions (against the partition
// synopsis) and individual records (as the kernel's conjunction program).
func predNeed(preds []Pred) *synopsis.Set {
	if len(preds) == 0 {
		panic("table: SelectWhere needs at least one predicate")
	}
	need := synopsis.New(0)
	for _, p := range preds {
		if p.Attr < 0 {
			panic(fmt.Sprintf("table: negative attribute %d", p.Attr))
		}
		need.Add(p.Attr)
	}
	return need
}

// SelectWhere returns entities satisfying ALL predicates (conjunction).
// Partitions are pruned when (a) their attribute synopsis misses any
// predicate attribute or (b) any predicate cannot overlap the
// partition's value zone for that attribute. Within surviving
// partitions the bitmap kernel skips — without decoding — records
// lacking a predicate attribute.
func (t *Table) SelectWhere(preds []Pred) ([]Result, QueryReport) {
	return t.SelectWhereSpanned(preds, t.observer().StartQuery(obs.KindSelectWhere))
}

// SelectWhereSpanned runs SelectWhere filling an externally created
// query span (a fan-out child or a forced trace); sp may be nil.
func (t *Table) SelectWhereSpanned(preds []Pred, sp *obs.QuerySpan) ([]Result, QueryReport) {
	if sp.WantDetail() {
		sp.SetQuery(t.describeWhere(preds))
	}
	need := predNeed(preds)
	prune := func(ps *partSnap) (obs.PruneReason, bool) {
		if ps.syn == nil || !synopsis.Subset(need, ps.syn) {
			return obs.PruneSynopsisMissing, true
		}
		return obs.PruneZoneMiss, !t.zonesOverlap(ps.pid, preds)
	}
	match := func(e *entity.Entity) bool { return entityMatches(e, preds) }
	return t.runQuery(sp, prune, storage.BitmapProgram{Attrs: need.Elements(nil)}, match)
}

func (t *Table) zonesOverlap(pid core.PartitionID, preds []Pred) bool {
	t.zmu.Lock()
	defer t.zmu.Unlock()
	zm := t.zones[pid]
	if zm == nil {
		// Absent zone info must be conservative: a concurrently dropped
		// partition loses its zone map before the post-drop snapshot is
		// published, and a pre-mutation cut may still carry its records.
		// Treating nil as overlapping keeps the snapshot path correct
		// even without the zoneGen retry; partitions with no records
		// were already pruned by the synopsis check.
		return true
	}
	for _, p := range preds {
		if !p.overlapZone(zm[p.Attr]) {
			return false
		}
	}
	return true
}

func entityMatches(e *entity.Entity, preds []Pred) bool {
	for _, p := range preds {
		v, ok := e.Get(p.Attr)
		if !ok || !p.evalValue(v) {
			return false
		}
	}
	return true
}

func sortPIDs(pids []core.PartitionID) {
	sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })
}
