package cinderella

import (
	"fmt"

	"cinderella/internal/table"
)

// Cond is one value condition for QueryWhere: attribute Op value.
// Conditions combine conjunctively (AND). An entity satisfies a condition
// only if it instantiates the attribute.
type Cond struct {
	Attr  string
	Op    string // "=", "<", "<=", ">", ">="
	Value any    // int, int64, float64, or string
}

// Where is shorthand for building a Cond.
func Where(attr, op string, value any) Cond {
	return Cond{Attr: attr, Op: op, Value: value}
}

// QueryWhere returns all documents satisfying every condition. Partitions
// whose attribute synopsis lacks a condition's attribute are skipped, as
// are records lacking one; the remaining records are decoded and their
// values compared. Two integers compare exactly; other numeric pairs
// compare as float64, and NaN satisfies no condition. Unknown attribute
// names match nothing.
func (t *Table) QueryWhere(conds ...Cond) ([]Record, QueryReport) {
	if len(conds) == 0 {
		panic("cinderella: QueryWhere needs at least one condition")
	}
	preds := make([]table.Pred, 0, len(conds))
	for _, c := range conds {
		attr, ok := t.dict.Lookup(c.Attr)
		if !ok {
			// The attribute has never been seen: nothing can match.
			return nil, QueryReport{}
		}
		op, err := parseOp(c.Op)
		if err != nil {
			panic("cinderella: " + err.Error())
		}
		v, err := toValue(c.Value)
		if err != nil || v.IsNull() {
			panic(fmt.Sprintf("cinderella: condition on %q: bad value %v", c.Attr, c.Value))
		}
		preds = append(preds, table.Pred{Attr: attr, Op: op, Value: v})
	}
	res, rep := t.inner.SelectWhere(preds)
	out := make([]Record, len(res))
	for i, r := range res {
		out[i] = Record{ID: r.ID, Doc: t.toDoc(r.Entity)}
	}
	return out, rep
}

func parseOp(op string) (table.CmpOp, error) {
	switch op {
	case "=", "==":
		return table.Eq, nil
	case "<":
		return table.Lt, nil
	case "<=":
		return table.Le, nil
	case ">":
		return table.Gt, nil
	case ">=":
		return table.Ge, nil
	}
	return 0, fmt.Errorf("unknown operator %q", op)
}
