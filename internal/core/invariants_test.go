package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"cinderella/internal/synopsis"
)

// checkInvariants validates the structural invariants of a Cinderella
// catalog against the set of entities believed live:
//
//  1. every live entity is located in exactly one partition;
//  2. partition Entities/Size equal the member aggregates;
//  3. the partition synopsis is exactly the union of member synopses;
//  4. no multi-entity partition exceeds MaxSize (count mode);
//  5. no empty partitions linger in the catalog.
func checkInvariants(t *testing.T, c *Cinderella, live map[EntityID]*synopsis.Set) {
	t.Helper()
	seen := make(map[EntityID]PartitionID)
	for pid, p := range c.parts {
		if len(p.members) == 0 {
			t.Fatalf("invariant 5: empty partition %d in catalog", pid)
		}
		var size int64
		union := synopsis.New(0)
		for id, m := range p.members {
			if prev, dup := seen[id]; dup {
				t.Fatalf("invariant 1: entity %d in partitions %d and %d", id, prev, pid)
			}
			seen[id] = pid
			size += c.cfg.entitySize(m)
			union.UnionWith(m.Syn)
			if got, ok := c.loc[id]; !ok || got != pid {
				t.Fatalf("invariant 1: loc[%d] = %d,%v but member of %d", id, got, ok, pid)
			}
		}
		if int64(len(p.members)) != int64(p.info().Entities) || size != p.size {
			t.Fatalf("invariant 2: partition %d size mismatch", pid)
		}
		if !union.Equal(p.syn) {
			t.Fatalf("invariant 3: partition %d synopsis %v != union %v", pid, p.syn, union)
		}
		if len(p.members) >= 2 && p.size > c.cfg.MaxSize {
			t.Fatalf("invariant 4: partition %d size %d > B %d", pid, p.size, c.cfg.MaxSize)
		}
	}
	if len(seen) != len(live) {
		t.Fatalf("invariant 1: %d entities placed, %d live", len(seen), len(live))
	}
	for id := range live {
		if _, ok := seen[id]; !ok {
			t.Fatalf("invariant 1: live entity %d missing from all partitions", id)
		}
	}
}

// TestPropCinderellaInvariants drives random workloads against random
// configurations and checks all catalog invariants afterwards.
func TestPropCinderellaInvariants(t *testing.T) {
	f := func(seed int64, wTenths uint8, bRaw uint8, ops []uint16) bool {
		w := float64(wTenths%11) / 10
		b := int64(bRaw%60) + 2
		c := NewCinderella(Config{Weight: w, MaxSize: b})
		rng := rand.New(rand.NewSource(seed))
		live := make(map[EntityID]*synopsis.Set)
		ids := []EntityID{}
		next := EntityID(1)
		for _, op := range ops {
			switch {
			case op%4 != 3 || len(ids) == 0:
				n := 1 + rng.Intn(8)
				attrs := make([]int, n)
				for i := range attrs {
					attrs[i] = rng.Intn(25)
				}
				s := synopsis.Of(attrs...)
				c.Insert(Entity{ID: next, Syn: s, Size: int64(8 * s.Len())})
				live[next] = s
				ids = append(ids, next)
				next++
			case op%8 == 3:
				i := rng.Intn(len(ids))
				c.Delete(ids[i])
				delete(live, ids[i])
				ids = append(ids[:i], ids[i+1:]...)
			default:
				i := rng.Intn(len(ids))
				s := synopsis.Of(rng.Intn(25), rng.Intn(25))
				c.Update(Entity{ID: ids[i], Syn: s, Size: int64(8 * s.Len())})
				live[ids[i]] = s
			}
		}
		checkInvariants(t, c, live)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPropWeightZeroHomogeneous: under w = 0 every partition is perfectly
// homogeneous — each member synopsis equals the partition synopsis.
func TestPropWeightZeroHomogeneous(t *testing.T) {
	f := func(seed int64, ops []uint8) bool {
		c := NewCinderella(Config{Weight: 0, MaxSize: 1000})
		rng := rand.New(rand.NewSource(seed))
		next := EntityID(1)
		for range ops {
			n := 1 + rng.Intn(4)
			attrs := make([]int, n)
			for i := range attrs {
				attrs[i] = rng.Intn(8)
			}
			c.Insert(Entity{ID: next, Syn: synopsis.Of(attrs...)})
			next++
		}
		for _, p := range c.parts {
			for _, m := range p.members {
				if !m.Syn.Equal(p.syn) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestPropInsertOrderPreservesEntityCount: any insertion order of the same
// multiset of entities places every entity exactly once.
func TestPropInsertOrderPreservesEntityCount(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		type spec struct {
			id    EntityID
			attrs []int
		}
		specs := make([]spec, 400)
		for i := range specs {
			n := 1 + rng.Intn(6)
			attrs := make([]int, n)
			for j := range attrs {
				attrs[j] = rng.Intn(30)
			}
			specs[i] = spec{EntityID(i + 1), attrs}
		}
		rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
		c := NewCinderella(Config{Weight: 0.3, MaxSize: 25})
		for _, s := range specs {
			c.Insert(Entity{ID: s.id, Syn: synopsis.Of(s.attrs...)})
		}
		total := 0
		for _, p := range c.Partitions() {
			total += p.Entities
		}
		return total == len(specs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func BenchmarkCinderellaInsert(b *testing.B) {
	benchInsert(b, Config{Weight: 0.5, MaxSize: 5000})
}

func benchInsert(b *testing.B, cfg Config) {
	rng := rand.New(rand.NewSource(1))
	syns := make([]*synopsis.Set, 1024)
	for i := range syns {
		n := 2 + rng.Intn(10)
		attrs := make([]int, n)
		for j := range attrs {
			attrs[j] = rng.Intn(100)
		}
		syns[i] = synopsis.Of(attrs...)
	}
	c := NewCinderella(cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Insert(Entity{ID: EntityID(i + 1), Syn: syns[i%len(syns)]})
	}
}
