package core

import (
	"math/rand"
	"testing"

	"cinderella/internal/synopsis"
)

func cfg(w float64, b int64) Config { return Config{Weight: w, MaxSize: b} }

func ent(id EntityID, attrs ...int) Entity {
	return Entity{ID: id, Syn: synopsis.Of(attrs...), Size: int64(8 * len(attrs))}
}

func TestInsertFirstEntityCreatesPartition(t *testing.T) {
	c := NewCinderella(cfg(0.5, 100))
	pid := c.Insert(ent(1, 1, 2, 3))
	if pid == NoPartition {
		t.Fatal("no partition assigned")
	}
	if c.NumPartitions() != 1 {
		t.Fatalf("NumPartitions = %d", c.NumPartitions())
	}
	ps := c.Partitions()
	if ps[0].Entities != 1 || !ps[0].Synopsis.Equal(synopsis.Of(1, 2, 3)) {
		t.Fatalf("partition info = %+v", ps[0])
	}
	if got, ok := c.Locate(1); !ok || got != pid {
		t.Fatalf("Locate = %v,%v", got, ok)
	}
}

func TestInsertZeroIDPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Insert(id=0) did not panic")
		}
	}()
	NewCinderella(cfg(0.5, 10)).Insert(Entity{ID: 0, Syn: synopsis.Of(1)})
}

func TestInsertDuplicatePanics(t *testing.T) {
	c := NewCinderella(cfg(0.5, 10))
	c.Insert(ent(1, 1))
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate Insert did not panic")
		}
	}()
	c.Insert(ent(1, 2))
}

func TestNewCinderellaInvalidConfigPanics(t *testing.T) {
	cases := []Config{
		{Weight: -0.1, MaxSize: 10},
		{Weight: 1.1, MaxSize: 10},
		{Weight: 0.5, MaxSize: 0},
		{Weight: 0.5, MaxSize: 10, SizeMode: 7},
	}
	for i, bad := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: invalid config accepted", i)
				}
			}()
			NewCinderella(bad)
		}()
	}
}

func TestHomogeneousEntitiesShareAPartition(t *testing.T) {
	c := NewCinderella(cfg(0.5, 1000))
	for i := EntityID(1); i <= 50; i++ {
		c.Insert(ent(i, 1, 2, 3))
	}
	if c.NumPartitions() != 1 {
		t.Fatalf("NumPartitions = %d, want 1", c.NumPartitions())
	}
	if c.Partitions()[0].Entities != 50 {
		t.Fatalf("Entities = %d", c.Partitions()[0].Entities)
	}
}

func TestDisjointEntitiesGetSeparatePartitions(t *testing.T) {
	c := NewCinderella(cfg(0.5, 1000))
	c.Insert(ent(1, 1, 2, 3))
	c.Insert(ent(2, 10, 11, 12))
	c.Insert(ent(3, 20, 21, 22))
	if c.NumPartitions() != 3 {
		t.Fatalf("NumPartitions = %d, want 3", c.NumPartitions())
	}
}

func TestWeightZeroYieldsPerfectHomogeneity(t *testing.T) {
	// Paper: "In the extreme case of w = 0 all created partitions are
	// completely homogeneous."
	c := NewCinderella(cfg(0, 1000))
	rng := rand.New(rand.NewSource(5))
	sigs := [][]int{{1, 2}, {1, 2, 3}, {4, 5}, {1}, {2, 3, 4, 5}}
	for i := EntityID(1); i <= 200; i++ {
		c.Insert(ent(i, sigs[rng.Intn(len(sigs))]...))
	}
	if got := c.NumPartitions(); got != len(sigs) {
		t.Fatalf("NumPartitions = %d, want %d", got, len(sigs))
	}
	// Every partition synopsis must exactly match each member's synopsis:
	// sparseness 0.
	for _, p := range c.Partitions() {
		if p.Entities == 0 {
			t.Fatalf("empty partition %d in catalog", p.ID)
		}
	}
}

func TestSimilarEntitiesClusterDespiteNoise(t *testing.T) {
	// Camera-ish entities share a core schema with per-entity extras; they
	// should co-locate under a medium weight rather than each opening a
	// partition.
	c := NewCinderella(cfg(0.5, 1000))
	for i := EntityID(1); i <= 30; i++ {
		attrs := []int{1, 2, 3, 4, 5}
		attrs = append(attrs, 100+int(i%7)) // one uncommon attribute each
		c.Insert(ent(i, attrs...))
	}
	if got := c.NumPartitions(); got != 1 {
		t.Fatalf("NumPartitions = %d, want 1 (noise split the cluster)", got)
	}
}

func TestSplitOnCapacity(t *testing.T) {
	c := NewCinderella(cfg(0.5, 4))
	// Two clearly different schemas arriving interleaved; capacity 4
	// forces a split on the 5th entity even if they all co-locate first.
	c.Insert(ent(1, 1, 2))
	c.Insert(ent(2, 1, 2))
	c.Insert(ent(3, 1, 2))
	c.Insert(ent(4, 1, 2))
	before := c.Stats().Splits
	c.Insert(ent(5, 1, 2)) // exceeds B=4 → split
	if c.Stats().Splits != before+1 {
		t.Fatalf("Splits = %d, want %d", c.Stats().Splits, before+1)
	}
	// All five entities remain placed, none lost.
	total := 0
	for _, p := range c.Partitions() {
		total += p.Entities
		if p.Size > 4 {
			t.Fatalf("partition %d over capacity: %d", p.ID, p.Size)
		}
	}
	if total != 5 {
		t.Fatalf("total entities = %d, want 5", total)
	}
}

func TestSplitSeparatesSchemas(t *testing.T) {
	// Mixed partition of two schemas at capacity: the split should pull
	// the schemas apart (starters are the most-different pair).
	// Two schemas overlapping in {1,2} co-locate at w = 0.9 until the
	// partition fills; the split must then pull them apart because the
	// starters are the most-different pair.
	c := NewCinderella(cfg(0.9, 8))
	id := EntityID(1)
	for i := 0; i < 4; i++ {
		c.Insert(ent(id, 1, 2, 3, 4))
		id++
		c.Insert(ent(id, 1, 2, 7, 8))
		id++
	}
	if c.NumPartitions() != 1 {
		t.Fatalf("setup: schemas did not co-locate, %d partitions", c.NumPartitions())
	}
	c.Insert(ent(id, 1, 2, 3, 4))
	if c.Stats().Splits == 0 {
		t.Fatal("expected a split")
	}
	// After the split, at least one partition must be schema-pure.
	pure := 0
	for _, p := range c.Partitions() {
		if p.Synopsis.Equal(synopsis.Of(1, 2, 3, 4)) || p.Synopsis.Equal(synopsis.Of(1, 2, 7, 8)) {
			pure++
		}
	}
	if pure == 0 {
		t.Fatalf("split did not separate schemas: %+v", c.Partitions())
	}
}

func TestSplitPreservesAllEntities(t *testing.T) {
	c := NewCinderella(cfg(0.5, 10))
	rng := rand.New(rand.NewSource(99))
	n := 500
	for i := 1; i <= n; i++ {
		attrs := []int{rng.Intn(5), 5 + rng.Intn(5), 10 + rng.Intn(10)}
		c.Insert(ent(EntityID(i), attrs...))
	}
	total := 0
	for _, p := range c.Partitions() {
		total += p.Entities
	}
	if total != n {
		t.Fatalf("entities after many splits = %d, want %d", total, n)
	}
	for i := 1; i <= n; i++ {
		if _, ok := c.Locate(EntityID(i)); !ok {
			t.Fatalf("entity %d lost", i)
		}
	}
}

func TestSingletonOversizeSplit(t *testing.T) {
	// Capacity 1: every second entity forces a split of a singleton
	// partition; the algorithm must not panic and must keep both entities.
	c := NewCinderella(cfg(0.5, 1))
	c.Insert(ent(1, 1, 2))
	c.Insert(ent(2, 1, 2))
	total := 0
	for _, p := range c.Partitions() {
		total += p.Entities
		if p.Entities > 1 {
			t.Fatalf("partition over entity capacity: %+v", p)
		}
	}
	if total != 2 {
		t.Fatalf("total = %d, want 2", total)
	}
}

func TestDeleteRemovesEntity(t *testing.T) {
	c := NewCinderella(cfg(0.5, 100))
	c.Insert(ent(1, 1, 2))
	c.Insert(ent(2, 1, 2))
	c.Delete(1)
	if _, ok := c.Locate(1); ok {
		t.Fatal("deleted entity still located")
	}
	if c.Partitions()[0].Entities != 1 {
		t.Fatalf("Entities = %d", c.Partitions()[0].Entities)
	}
	c.Delete(1) // no-op
	c.Delete(99)
	if c.Stats().Deletes != 1 {
		t.Fatalf("Deletes = %d, want 1", c.Stats().Deletes)
	}
}

func TestDeleteDropsEmptyPartition(t *testing.T) {
	c := NewCinderella(cfg(0.5, 100))
	c.Insert(ent(1, 1, 2))
	c.Insert(ent(2, 50, 51))
	if c.NumPartitions() != 2 {
		t.Fatalf("NumPartitions = %d", c.NumPartitions())
	}
	c.Delete(1)
	if c.NumPartitions() != 1 {
		t.Fatalf("empty partition not dropped: %d", c.NumPartitions())
	}
}

func TestDeleteShrinksSynopsis(t *testing.T) {
	// Synopses are exact (refcounted), so removing the only entity with an
	// attribute removes the attribute from the partition synopsis — keeps
	// pruning sound after deletions.
	c := NewCinderella(cfg(0.9, 100))
	c.Insert(ent(1, 1, 2))
	c.Insert(ent(2, 1, 2, 3))
	if c.NumPartitions() != 1 {
		t.Fatalf("setup: NumPartitions = %d", c.NumPartitions())
	}
	c.Delete(2)
	if !c.Partitions()[0].Synopsis.Equal(synopsis.Of(1, 2)) {
		t.Fatalf("synopsis after delete = %v", c.Partitions()[0].Synopsis)
	}
}

func TestUpdateInPlace(t *testing.T) {
	c := NewCinderella(cfg(0.5, 100))
	p1 := c.Insert(ent(1, 1, 2, 3))
	c.Insert(ent(2, 1, 2, 3))
	// Minor change: still fits best where it is.
	got := c.Update(ent(1, 1, 2, 3, 4))
	if got != p1 {
		t.Fatalf("update moved entity: %v -> %v", p1, got)
	}
	if c.Stats().UpdateMoves != 0 {
		t.Fatalf("UpdateMoves = %d, want 0", c.Stats().UpdateMoves)
	}
	// Synopsis reflects the new attribute.
	if !c.Partitions()[0].Synopsis.Contains(4) {
		t.Fatal("partition synopsis missing updated attribute")
	}
}

func TestUpdateMovesOnSchemaChange(t *testing.T) {
	c := NewCinderella(cfg(0.5, 100))
	c.Insert(ent(1, 1, 2, 3))
	c.Insert(ent(2, 1, 2, 3))
	p2 := c.Insert(ent(3, 50, 51, 52))
	// Entity 1 mutates into the other schema: must move to p2.
	got := c.Update(ent(1, 50, 51, 52))
	if got != p2 {
		t.Fatalf("update placed entity in %v, want %v", got, p2)
	}
	if c.Stats().UpdateMoves != 1 {
		t.Fatalf("UpdateMoves = %d, want 1", c.Stats().UpdateMoves)
	}
}

func TestUpdateUnknownInserts(t *testing.T) {
	c := NewCinderella(cfg(0.5, 100))
	pid := c.Update(ent(1, 1, 2))
	if pid == NoPartition {
		t.Fatal("Update of unknown entity did not insert")
	}
	if _, ok := c.Locate(1); !ok {
		t.Fatal("entity not present after Update-insert")
	}
}

func TestUpdateVacatedPartitionDropped(t *testing.T) {
	c := NewCinderella(cfg(0.5, 100))
	c.Insert(ent(1, 1, 2, 3))
	c.Insert(ent(2, 50, 51))
	c.Insert(ent(3, 50, 51))
	c.Update(ent(1, 50, 51))
	if c.NumPartitions() != 1 {
		t.Fatalf("vacated partition not dropped: %d", c.NumPartitions())
	}
}

// placementShadow rebuilds placement purely from listener events and
// checks the dissolution contract as they arrive: after a Dissolve
// exactly the source's members are placed out of it, nothing is placed
// into it, and then it is dropped. Any other drop is of an empty
// partition.
type placementShadow struct {
	loc  map[EntityID]PartitionID
	live map[PartitionID]bool
	// leaving holds, per dissolving partition, the members not yet
	// placed out of it.
	leaving   map[PartitionID]map[EntityID]bool
	dissolved int
}

func watchPlacements(t *testing.T, c *Cinderella) *placementShadow {
	s := &placementShadow{
		loc:     make(map[EntityID]PartitionID),
		live:    make(map[PartitionID]bool),
		leaving: make(map[PartitionID]map[EntityID]bool),
	}
	members := func(pid PartitionID) map[EntityID]bool {
		out := make(map[EntityID]bool)
		for id, p := range s.loc {
			if p == pid {
				out[id] = true
			}
		}
		return out
	}
	c.SetMoveListener(func(pl Placement) {
		switch {
		case pl.Dissolve:
			if !s.live[pl.From] || s.leaving[pl.From] != nil {
				t.Fatalf("dissolve of partition %d (live %v, already dissolving %v)", pl.From, s.live[pl.From], s.leaving[pl.From] != nil)
			}
			s.leaving[pl.From] = members(pl.From)
			s.dissolved++
		case pl.Entity == 0:
			if !s.live[pl.From] {
				t.Fatalf("drop of unknown partition %d", pl.From)
			}
			if m := members(pl.From); len(m) != 0 {
				t.Fatalf("partition %d dropped while %d members were never placed out of it", pl.From, len(m))
			}
			delete(s.leaving, pl.From)
			delete(s.live, pl.From)
		default:
			if s.leaving[pl.To] != nil {
				t.Fatalf("entity %d placed into dissolving partition %d", pl.Entity, pl.To)
			}
			if rest := s.leaving[pl.From]; rest != nil {
				if !rest[pl.Entity] {
					t.Fatalf("entity %d placed out of dissolving partition %d, but it is not a member still there", pl.Entity, pl.From)
				}
				delete(rest, pl.Entity)
			}
			s.live[pl.To] = true
			s.loc[pl.Entity] = pl.To
		}
	})
	return s
}

// check requires the shadow to agree with Locate and the catalog, with
// every dissolution closed by its drop.
func (s *placementShadow) check(t *testing.T, c *Cinderella, ids EntityID) {
	t.Helper()
	if len(s.leaving) != 0 {
		t.Fatalf("%d dissolved partitions never dropped", len(s.leaving))
	}
	for id := EntityID(1); id <= ids; id++ {
		want, _ := c.Locate(id)
		if s.loc[id] != want {
			t.Fatalf("entity %d: listener says %v, Locate says %v", id, s.loc[id], want)
		}
	}
	if len(s.live) != c.NumPartitions() {
		t.Fatalf("listener live = %d, catalog = %d", len(s.live), c.NumPartitions())
	}
}

func TestMoveListenerSeesAllPlacements(t *testing.T) {
	t.Run("churn", func(t *testing.T) {
		c := NewCinderella(cfg(0.5, 4))
		s := watchPlacements(t, c)
		rng := rand.New(rand.NewSource(3))
		mk := func(id EntityID) Entity { return ent(id, rng.Intn(4), 4+rng.Intn(4)) }
		const n = 300
		for i := 1; i <= n; i++ {
			c.Insert(mk(EntityID(i)))
		}
		for i := 1; i <= n; i++ {
			switch rng.Intn(3) {
			case 0:
				delete(s.loc, EntityID(i))
				c.Delete(EntityID(i))
			case 1:
				c.Update(mk(EntityID(i)))
			}
		}
		if c.Compact(1.0) == 0 {
			t.Fatal("fixture: Compact merged nothing")
		}
		st := c.Stats()
		if want := int(st.Splits + st.Merges); s.dissolved != want {
			t.Fatalf("%d dissolutions for %d splits and %d merges", s.dissolved, st.Splits, st.Merges)
		}
		s.check(t, c, n)
	})

	t.Run("cascade", func(t *testing.T) {
		// A count limit never cascades: a split redistributes B+1
		// entities over two partitions that each start with one. Bytes
		// can: identical synopses rate identically, so the tie goes to
		// the lower id, and deleting starter 1 lets the incoming entity 5
		// take its slot. Splitting {2,3,4} + 5 puts 5 in the first
		// successor with 3, and 4 no longer fits there.
		c := NewCinderella(Config{Weight: 0.5, MaxSize: 10, SizeMode: SizeBytes})
		s := watchPlacements(t, c)
		sized := func(id EntityID, size int64) Entity {
			e := ent(id, 1, 2)
			e.Size = size
			return e
		}
		for id, size := range []int64{1, 1, 4, 4} {
			c.Insert(sized(EntityID(id+1), size))
		}
		delete(s.loc, 1)
		c.Delete(1)
		c.Insert(sized(5, 4))
		if st := c.Stats(); st.Splits != 2 || st.SplitCascades != 1 {
			t.Fatalf("fixture: %d splits, %d cascaded; want 2, 1", st.Splits, st.SplitCascades)
		}
		if s.dissolved != 2 {
			t.Fatalf("%d dissolutions for 2 splits", s.dissolved)
		}
		s.check(t, c, 5)
	})
}

func TestStatsCounters(t *testing.T) {
	c := NewCinderella(cfg(0.5, 2))
	c.Insert(ent(1, 1))
	c.Insert(ent(2, 1))
	c.Insert(ent(3, 1)) // forces split
	c.Delete(1)
	st := c.Stats()
	if st.Inserts != 3 || st.Deletes != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Splits == 0 {
		t.Fatal("split not counted")
	}
	if st.RatedPairs == 0 {
		t.Fatal("no pairs rated")
	}
}

func TestSmallerWeightMorePartitions(t *testing.T) {
	// Paper Figure 7(a): lower weight → more partitions.
	counts := make([]int, 0, 3)
	for _, w := range []float64{0.1, 0.5, 0.9} {
		c := NewCinderella(cfg(w, 5000))
		rng := rand.New(rand.NewSource(11))
		for i := 1; i <= 2000; i++ {
			attrs := []int{0, 1} // common core
			for a := 2; a < 30; a++ {
				if rng.Float64() < 0.15 {
					attrs = append(attrs, a)
				}
			}
			c.Insert(ent(EntityID(i), attrs...))
		}
		counts = append(counts, c.NumPartitions())
	}
	if !(counts[0] >= counts[1] && counts[1] >= counts[2]) {
		t.Fatalf("partition counts not decreasing in w: %v", counts)
	}
	if counts[0] == counts[2] {
		t.Fatalf("weight had no effect: %v", counts)
	}
}

func TestStarterPolicies(t *testing.T) {
	for _, pol := range []StarterPolicy{StarterIncremental, StarterExact, StarterRandom} {
		c := NewCinderella(Config{Weight: 0.5, MaxSize: 6, StarterPolicy: pol, RandSeed: 7})
		rng := rand.New(rand.NewSource(13))
		for i := 1; i <= 300; i++ {
			c.Insert(ent(EntityID(i), rng.Intn(6), 6+rng.Intn(6)))
		}
		total := 0
		for _, p := range c.Partitions() {
			total += p.Entities
			if p.Size > 6 {
				t.Fatalf("policy %d: partition over capacity", pol)
			}
		}
		if total != 300 {
			t.Fatalf("policy %d: total = %d, want 300", pol, total)
		}
	}
}

func TestDeletedStarterRepairedOnSplit(t *testing.T) {
	c := NewCinderella(cfg(0.9, 6))
	for i := 1; i <= 6; i++ {
		c.Insert(ent(EntityID(i), 1, 2, i+10))
	}
	// Delete whatever entities currently hold the starter slots.
	ps := c.Partitions()
	if len(ps) != 1 {
		t.Skipf("setup produced %d partitions", len(ps))
	}
	p := c.parts[ps[0].ID]
	c.Delete(p.starterA)
	if p.starterB != 0 {
		c.Delete(p.starterB)
	}
	// Refill to capacity and force a split: starters must be repaired.
	next := EntityID(100)
	for c.Stats().Splits == 0 {
		c.Insert(ent(next, 1, 2, int(next)))
		next++
		if next > 200 {
			t.Fatal("no split occurred")
		}
	}
	total := 0
	for _, pi := range c.Partitions() {
		total += pi.Entities
	}
	if _, ok := c.Locate(3); !ok {
		t.Fatal("entity lost after starter-repair split")
	}
	_ = total
}
