package cinderella

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

func TestOpenDefaultsAndCRUD(t *testing.T) {
	tbl := Open(Config{})
	id := tbl.Insert(Doc{"name": "Canon PowerShot S120", "aperture": 2.0, "screen": 3})
	if tbl.Len() != 1 {
		t.Fatalf("Len = %d", tbl.Len())
	}
	doc, ok := tbl.Get(id)
	if !ok {
		t.Fatal("Get missed")
	}
	if doc["name"] != "Canon PowerShot S120" || doc["aperture"] != 2.0 || doc["screen"] != int64(3) {
		t.Fatalf("doc = %v", doc)
	}
	if !tbl.Update(id, Doc{"name": "updated", "weight": 198}) {
		t.Fatal("Update failed")
	}
	doc, _ = tbl.Get(id)
	if doc["name"] != "updated" || doc["weight"] != int64(198) {
		t.Fatalf("doc after update = %v", doc)
	}
	if _, has := doc["aperture"]; has {
		t.Fatal("update kept removed attribute")
	}
	if !tbl.Delete(id) || tbl.Delete(id) {
		t.Fatal("Delete semantics wrong")
	}
	if _, ok := tbl.Get(id); ok {
		t.Fatal("Get after Delete")
	}
}

func TestNilValuesIgnored(t *testing.T) {
	tbl := Open(Config{})
	id := tbl.Insert(Doc{"a": 1, "b": nil})
	doc, _ := tbl.Get(id)
	if _, has := doc["b"]; has {
		t.Fatal("nil attribute stored")
	}
}

func TestUnsupportedValuePanics(t *testing.T) {
	tbl := Open(Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("unsupported value accepted")
		}
	}()
	tbl.Insert(Doc{"a": []int{1}})
}

func TestUnknownStrategyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown strategy accepted")
		}
	}()
	Open(Config{Strategy: Strategy(99)})
}

func TestQueryORSemantics(t *testing.T) {
	tbl := Open(Config{})
	tbl.Insert(Doc{"aperture": 2.0, "sensor": "CMOS"})
	tbl.Insert(Doc{"tuner": "DVB-T"})
	tbl.Insert(Doc{"aperture": 1.8})
	if got := len(tbl.Query("aperture")); got != 2 {
		t.Fatalf("Query(aperture) = %d", got)
	}
	if got := len(tbl.Query("aperture", "tuner")); got != 3 {
		t.Fatalf("Query(aperture, tuner) = %d", got)
	}
	if got := len(tbl.Query("nonexistent")); got != 0 {
		t.Fatalf("Query(nonexistent) = %d", got)
	}
	if got := len(tbl.Query()); got != 0 {
		t.Fatalf("Query() = %d", got)
	}
}

func TestPartitioningSeparatesSchemas(t *testing.T) {
	tbl := Open(Config{PartitionSizeLimit: 100})
	for i := 0; i < 20; i++ {
		tbl.Insert(Doc{"name": "camera", "aperture": 2.0, "sensor": "CMOS"})
		tbl.Insert(Doc{"name": "disk", "rpm": 7200, "capacity": "4TB"})
	}
	parts := tbl.Partitions()
	if len(parts) != 2 {
		t.Fatalf("partitions = %d, want 2", len(parts))
	}
	_, rep := tbl.QueryWithReport("rpm")
	if rep.PartitionsPruned != 1 || rep.PartitionsTouched != 1 {
		t.Fatalf("report = %+v", rep)
	}
}

func TestStrategies(t *testing.T) {
	for _, s := range []Strategy{
		StrategyCinderella, StrategyUniversal, StrategyHash,
		StrategyRoundRobin, StrategySchemaExact,
	} {
		tbl := Open(Config{Strategy: s, PartitionSizeLimit: 10})
		var ids []ID
		for i := 0; i < 50; i++ {
			ids = append(ids, tbl.Insert(Doc{
				fmt.Sprintf("attr%d", i%4): i,
				"common":                   "x",
			}))
		}
		if tbl.Len() != 50 {
			t.Fatalf("strategy %d: Len = %d", s, tbl.Len())
		}
		if got := len(tbl.Query("common")); got != 50 {
			t.Fatalf("strategy %d: Query = %d", s, got)
		}
		tbl.Delete(ids[0])
		if got := len(tbl.Query("common")); got != 49 {
			t.Fatalf("strategy %d: Query after delete = %d", s, got)
		}
	}
}

func TestWorkloadBasedConfig(t *testing.T) {
	tbl := Open(Config{
		WorkloadQueries: [][]string{{"aperture"}, {"rpm"}},
	})
	tbl.Insert(Doc{"aperture": 2.0, "x": 1})
	tbl.Insert(Doc{"aperture": 1.8, "y": 2})
	tbl.Insert(Doc{"rpm": 7200})
	if got := len(tbl.Partitions()); got != 2 {
		t.Fatalf("workload-based partitions = %d, want 2", got)
	}
}

func TestIOStats(t *testing.T) {
	tbl := Open(Config{})
	tbl.Insert(Doc{"a": 1})
	_, pw, _, bw := tbl.IOStats()
	if pw == 0 || bw == 0 {
		t.Fatalf("write stats empty: %d %d", pw, bw)
	}
	tbl.ResetIOStats()
	tbl.Query("a")
	pr, _, br, _ := tbl.IOStats()
	if pr == 0 || br == 0 {
		t.Fatalf("read stats empty: %d %d", pr, br)
	}
}

func TestPartitionStats(t *testing.T) {
	tbl := Open(Config{})
	tbl.Insert(Doc{"a": 1, "b": "two"})
	parts := tbl.Partitions()
	if len(parts) != 1 || parts[0].Records != 1 {
		t.Fatalf("parts = %+v", parts)
	}
	if len(parts[0].Attributes) != 2 {
		t.Fatalf("attrs = %v", parts[0].Attributes)
	}
	if parts[0].Bytes <= 0 || parts[0].Pages <= 0 {
		t.Fatalf("sizes = %+v", parts[0])
	}
}

func TestConcurrentUse(t *testing.T) {
	tbl := Open(Config{PartitionSizeLimit: 50})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 200; i++ {
				id := tbl.Insert(Doc{
					fmt.Sprintf("attr%d", rng.Intn(6)): i,
					"shared":                           g,
				})
				if rng.Intn(4) == 0 {
					tbl.Delete(id)
				}
				if rng.Intn(8) == 0 {
					tbl.Query("shared")
				}
			}
		}(g)
	}
	wg.Wait()
	if got := len(tbl.Query("shared")); got != tbl.Len() {
		t.Fatalf("Query(shared) = %d, Len = %d", got, tbl.Len())
	}
}

func TestQueryWhere(t *testing.T) {
	tbl := Open(Config{})
	tbl.Insert(Doc{"price": 10.0, "category": "camera"})
	tbl.Insert(Doc{"price": 99.5, "category": "camera"})
	tbl.Insert(Doc{"price": 50.0, "category": "tv"})

	rows, _ := tbl.QueryWhere(Where("price", "<", 60.0))
	if len(rows) != 2 {
		t.Fatalf("price<60 = %d", len(rows))
	}
	rows, _ = tbl.QueryWhere(Where("price", ">=", 50.0), Where("category", "=", "camera"))
	if len(rows) != 1 || rows[0].Doc["price"] != 99.5 {
		t.Fatalf("conjunction = %v", rows)
	}
	rows, _ = tbl.QueryWhere(Where("never_seen", "=", 1))
	if len(rows) != 0 {
		t.Fatalf("unknown attr = %d", len(rows))
	}
	rows, _ = tbl.QueryWhere(Where("price", "=", 50.0))
	if len(rows) != 1 {
		t.Fatalf("price=50 = %d", len(rows))
	}
}

// TestQueryWhereNumericComparison: integers above 2^53 compare exactly,
// and a NaN value matches no condition.
func TestQueryWhereNumericComparison(t *testing.T) {
	tbl := Open(Config{})
	tbl.Insert(Doc{"n": int64(1 << 53)})
	tbl.Insert(Doc{"n": math.NaN()})
	if rows, _ := tbl.QueryWhere(Where("n", "=", int64(1<<53+1))); len(rows) != 0 {
		t.Fatalf("n = 2^53+1 matched %v", rows)
	}
	if rows, _ := tbl.QueryWhere(Where("n", "<=", 0)); len(rows) != 0 {
		t.Fatalf("n <= 0 matched %v", rows)
	}
}

func TestQueryWhereBadOpPanics(t *testing.T) {
	tbl := Open(Config{})
	tbl.Insert(Doc{"a": 1})
	defer func() {
		if recover() == nil {
			t.Fatal("bad operator accepted")
		}
	}()
	tbl.QueryWhere(Where("a", "!=", 1))
}

func TestQueryWhereEmptyPanics(t *testing.T) {
	tbl := Open(Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("empty QueryWhere accepted")
		}
	}()
	tbl.QueryWhere()
}

func TestCompactFacade(t *testing.T) {
	tbl := Open(Config{PartitionSizeLimit: 50})
	var ids []ID
	for i := 0; i < 200; i++ {
		ids = append(ids, tbl.Insert(Doc{"a": 1, "b": 2}))
	}
	for i, id := range ids {
		if i%40 != 0 {
			tbl.Delete(id)
		}
	}
	before := len(tbl.Partitions())
	merges := tbl.Compact(0.3)
	if before > 1 && merges == 0 {
		t.Fatalf("no merges on %d fragmented partitions", before)
	}
	if got := len(tbl.Query("a")); got != 5 {
		t.Fatalf("Query after compact = %d", got)
	}
	// Non-Cinderella strategies are a no-op.
	u := Open(Config{Strategy: StrategyUniversal})
	u.Insert(Doc{"a": 1})
	if u.Compact(1.0) != 0 {
		t.Fatal("universal strategy compacted")
	}
}

func TestCacheStatsFacade(t *testing.T) {
	tbl := Open(Config{CachePages: 8})
	for i := 0; i < 100; i++ {
		tbl.Insert(Doc{"a": i})
	}
	tbl.Query("a")
	tbl.Query("a")
	h, m := tbl.CacheStats()
	if m == 0 || h == 0 {
		t.Fatalf("cache stats = %d/%d", h, m)
	}
	// Without a cache: zeros.
	plain := Open(Config{})
	plain.Insert(Doc{"a": 1})
	plain.Query("a")
	if h, m := plain.CacheStats(); h != 0 || m != 0 {
		t.Fatalf("uncached stats = %d/%d", h, m)
	}
}
