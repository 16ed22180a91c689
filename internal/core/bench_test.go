package core

import (
	"math/rand"
	"testing"

	"cinderella/internal/synopsis"
)

// benchEntities builds n entities with DBpedia-like synopses: a handful of
// common attributes plus a sample from a class-specific block, over a
// universe of 1024 attribute ids.
func benchEntities(n int, seed int64) []Entity {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Entity, n)
	for i := range out {
		s := synopsis.New(1024)
		s.Add(0)
		s.Add(1)
		class := rng.Intn(8)
		base := 8 + class*120
		for j := 0; j < 12; j++ {
			s.Add(base + rng.Intn(120))
		}
		out[i] = Entity{ID: EntityID(i + 1), Syn: s}
	}
	return out
}

func benchCatalog(b *testing.B) (*Cinderella, []Entity) {
	b.Helper()
	c := NewCinderella(Config{Weight: 0.5, MaxSize: 100})
	for _, e := range benchEntities(5000, 1) {
		c.Insert(e)
	}
	probes := benchEntities(256, 2)
	return c, probes
}

// BenchmarkFindBest measures the steady-state insert-path scan: rating one
// incoming entity against the catalog. The regression target is 0
// allocs/op — the scan reads the incrementally maintained ordered
// catalog instead of allocating per call.
func BenchmarkFindBest(b *testing.B) {
	c, probes := benchCatalog(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := &probes[i%len(probes)]
		best, _ := c.findBest(p, nil)
		if best == nil {
			b.Fatal("findBest found no partition")
		}
	}
}

// benchClassEntities builds n entities with class-local synopses: 12
// attributes sampled from one of `classes` disjoint 24-attribute blocks
// (DBpedia-style infobox attributes without the universal properties).
// Same-class entities overlap enough to rate positively against their
// class's partitions, so entities cluster instead of opening singleton
// partitions.
func benchClassEntities(n, classes, idBase int, seed int64) []Entity {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Entity, n)
	for i := range out {
		s := synopsis.New(classes * 24)
		base := rng.Intn(classes) * 24
		for j := 0; j < 12; j++ {
			s.Add(base + rng.Intn(24))
		}
		out[i] = Entity{ID: EntityID(idBase + i + 1), Syn: s}
	}
	return out
}

// BenchmarkInsert covers the full insert path (placement + synopsis
// maintenance + occasional splits), the end-to-end cost the paper's
// Figure 7 tracks, at three catalog scales. The scan rates every
// partition per insert, so its cost grows with the catalog (see the
// reported "partitions" metric for the catalog size reached — the
// sub-bench names count prefill entities).
func BenchmarkInsert(b *testing.B) {
	scales := []struct {
		name    string
		prefill int
		classes int
	}{
		{"pre5k", 5000, 16},
		{"pre20k", 20000, 32},
		{"pre80k", 80000, 64},
	}
	for _, sc := range scales {
		b.Run(sc.name, func(b *testing.B) {
			c := NewCinderella(Config{Weight: 0.5, MaxSize: 100})
			for _, e := range benchClassEntities(sc.prefill, sc.classes, 0, 1) {
				c.Insert(e)
			}
			probes := benchClassEntities(b.N, sc.classes, sc.prefill, 2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Insert(probes[i])
			}
			b.StopTimer()
			b.ReportMetric(float64(c.NumPartitions()), "partitions")
		})
	}
}
