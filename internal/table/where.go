package table

import (
	"cmp"
	"fmt"
	"math"

	"cinderella/internal/entity"
	"cinderella/internal/obs"
	"cinderella/internal/storage"
	"cinderella/internal/synopsis"
)

// Value predicates ride on the paper's attribute-set pruning: a
// conjunction can only hold for an entity carrying every predicate
// attribute, so partitions are pruned by their attribute synopsis and
// records by their presence-matrix rows, and only the surviving records
// are decoded and compared.

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
	// strings; kind mismatches are false. Two integers compare exactly
	// (float64 conflates integers above 2^53); any other numeric pair
	// compares as float64, and NaN on either side satisfies no operator.
	switch p.Value.Kind() {
	case entity.KindInt, entity.KindFloat:
		if v.Kind() == entity.KindInt && p.Value.Kind() == entity.KindInt {
			return cmpMatch(p.Op, cmp.Compare(v.AsInt(), p.Value.AsInt()))
		}
		if v.Kind() != entity.KindInt && v.Kind() != entity.KindFloat {
			return false
		}
		a, b := v.AsFloat(), p.Value.AsFloat()
		if math.IsNaN(a) || math.IsNaN(b) {
			return false
		}
		return cmpMatch(p.Op, cmp.Compare(a, b))
	case entity.KindString:
		if v.Kind() != entity.KindString {
			return false
		}
		return cmpMatch(p.Op, cmp.Compare(v.AsString(), p.Value.AsString()))
	}
	return false
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
// Partitions whose attribute synopsis misses a predicate attribute are
// pruned; within the surviving partitions the bitmap kernel skips —
// without decoding — records lacking a predicate attribute, and the
// remaining records are decoded and compared.
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
		return obs.PruneSynopsisMissing, ps.syn == nil || !synopsis.Subset(need, ps.syn)
	}
	match := func(e *entity.Entity) bool { return entityMatches(e, preds) }
	return t.runQuery(sp, prune, storage.BitmapProgram{Attrs: need.Elements(nil)}, match)
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
