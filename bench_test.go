// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation, plus ablation benchmarks for the design choices called out
// in DESIGN.md. Custom metrics carry the experiment's shape numbers
// (partitions, splits, speedups) alongside wall time:
//
//	go test -bench=. -benchmem
//
// The benchmarks run at a reduced scale (the full paper scale is driven
// by cmd/cinderella-bench); the shapes are scale-invariant.
package cinderella_test

import (
	"math/rand"
	"testing"

	"cinderella"
	"cinderella/internal/core"
	"cinderella/internal/datagen"
	"cinderella/internal/experiments"
)

// benchOpts is the reduced scale used by the benchmark harness.
func benchOpts() experiments.Options {
	return experiments.Options{Entities: 10000, Seed: 1, TPCHSF: 0.002}
}

// BenchmarkFig4Distribution regenerates Figure 4 (attribute distribution
// of the irregular data set).
func BenchmarkFig4Distribution(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig4(benchOpts())
		b.ReportMetric(r.Sparseness, "sparseness")
		b.ReportMetric(r.Freq[0], "top-attr-freq")
	}
}

// BenchmarkFig5QueryTimeVsB regenerates Figure 5 (query time vs.
// selectivity for B ∈ {500, 5000, 50000} against the universal table).
func BenchmarkFig5QueryTimeVsB(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig5(benchOpts())
		b.ReportMetric(r.MeanSpeedupBelow("B=500", 0.2), "speedup-B500-sel<0.2")
		b.ReportMetric(float64(r.Series[1].Partitions), "partitions-B500")
	}
}

// BenchmarkFig6QueryTimeVsW regenerates Figure 6 (query time vs.
// selectivity for w ∈ {0.2, 0.5, 0.8}).
func BenchmarkFig6QueryTimeVsW(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig6(benchOpts())
		b.ReportMetric(r.MeanSpeedupBelow("w=0.2", 0.2), "speedup-w0.2-sel<0.2")
	}
}

// BenchmarkFig7WeightInfluence regenerates Figure 7 (weight sweep:
// partition count, fill, attributes, sparseness).
func BenchmarkFig7WeightInfluence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig7(benchOpts())
		b.ReportMetric(float64(r.Rows[0].Partitions), "partitions-w0")
		b.ReportMetric(float64(r.Rows[5].Partitions), "partitions-w0.5")
		b.ReportMetric(r.Rows[5].SparsenessP.Median, "sparseness-w0.5")
	}
}

// BenchmarkFig8InsertTime regenerates Figure 8 (insert latency
// distribution and split counts per B).
func BenchmarkFig8InsertTime(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Fig8(benchOpts())
		b.ReportMetric(float64(r.Rows[0].Splits), "splits-B500")
		b.ReportMetric(float64(r.Rows[1].Splits), "splits-B5000")
		b.ReportMetric(float64(r.Rows[2].Splits), "splits-B50000")
	}
}

// BenchmarkTableITPCH regenerates Table I (22 TPC-H queries: regular
// tables vs. Cinderella views at B ∈ {500, 2000, 10000}).
func BenchmarkTableITPCH(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.TableI(benchOpts())
		b.ReportMetric(r.Rows[1].Percent, "pct-B500")
		b.ReportMetric(r.Rows[2].Percent, "pct-B2000")
		b.ReportMetric(r.Rows[3].Percent, "pct-B10000")
		pure := 1.0
		for _, row := range r.Rows[1:] {
			if !row.PureSchema {
				pure = 0
			}
		}
		b.ReportMetric(pure, "schema-pure")
	}
}

// BenchmarkEfficiencyMetric computes Definition 1 across strategies.
func BenchmarkEfficiencyMetric(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Efficiency(benchOpts())
		b.ReportMetric(r.Get("universal"), "eff-universal")
		b.ReportMetric(r.Get("cinderella w=0.2"), "eff-cinderella")
	}
}

// --- ablation benchmarks (DESIGN.md section 5) ---

// loadSynthetic inserts n irregular entities into a core partitioner and
// returns the partition count.
func loadSynthetic(b *testing.B, cfg core.Config, n int) int {
	b.Helper()
	ds, err := datagen.Generate(datagen.Config{NumEntities: n, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	c := core.NewCinderella(cfg)
	for i, e := range ds.Entities {
		c.Insert(core.Entity{ID: core.EntityID(i + 1), Syn: e.Synopsis(), Size: e.Size()})
	}
	return c.NumPartitions()
}

// BenchmarkAblationNormalization compares the global rating (normalized)
// against raw local ratings.
func BenchmarkAblationNormalization(b *testing.B) {
	for _, cfg := range []struct {
		name string
		c    core.Config
	}{
		{"normalized", core.Config{Weight: 0.3, MaxSize: 500}},
		{"raw-local", core.Config{Weight: 0.3, MaxSize: 500, DisableNormalization: true}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				parts := loadSynthetic(b, cfg.c, 5000)
				b.ReportMetric(float64(parts), "partitions")
			}
		})
	}
}

// BenchmarkAblationSplitStarters compares the paper's incremental starter
// heuristic with the exact quadratic pair and a random pair.
func BenchmarkAblationSplitStarters(b *testing.B) {
	for _, pol := range []struct {
		name string
		p    core.StarterPolicy
	}{
		{"incremental", core.StarterIncremental},
		{"exact", core.StarterExact},
		{"random", core.StarterRandom},
	} {
		b.Run(pol.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				parts := loadSynthetic(b, core.Config{
					Weight: 0.3, MaxSize: 200, StarterPolicy: pol.p, RandSeed: 9,
				}, 5000)
				b.ReportMetric(float64(parts), "partitions")
			}
		})
	}
}

// BenchmarkAblationWorkloadBased compares entity-based against
// workload-based partitioning on query read volume.
func BenchmarkAblationWorkloadBased(b *testing.B) {
	probe := [][]string{{"team"}, {"party"}, {"genre"}}
	mkDocs := func() []cinderella.Doc {
		rng := rand.New(rand.NewSource(5))
		attrs := [][]string{
			{"team", "position", "league"},
			{"party", "office", "term"},
			{"genre", "instrument", "label"},
		}
		docs := make([]cinderella.Doc, 0, 6000)
		for i := 0; i < 6000; i++ {
			set := attrs[rng.Intn(len(attrs))]
			d := cinderella.Doc{"name": i}
			for _, a := range set {
				if rng.Float64() < 0.8 {
					d[a] = rng.Intn(100)
				}
			}
			docs = append(docs, d)
		}
		return docs
	}
	run := func(b *testing.B, cfg cinderella.Config) {
		docs := mkDocs()
		for i := 0; i < b.N; i++ {
			tbl := cinderella.Open(cfg)
			for _, d := range docs {
				tbl.Insert(d)
			}
			tbl.ResetIOStats()
			for _, q := range probe {
				tbl.Query(q...)
			}
			_, _, br, _ := tbl.IOStats()
			b.ReportMetric(float64(br)/1024, "KB-read")
			b.ReportMetric(float64(len(tbl.Partitions())), "partitions")
		}
	}
	b.Run("entity-based", func(b *testing.B) {
		run(b, cinderella.Config{Weight: 0.3, PartitionSizeLimit: 1000})
	})
	b.Run("workload-based", func(b *testing.B) {
		run(b, cinderella.Config{Weight: 0.3, PartitionSizeLimit: 1000, WorkloadQueries: probe})
	})
}

// BenchmarkInsertThroughput measures sustained insert rate through the
// public API at the paper's default settings.
func BenchmarkInsertThroughput(b *testing.B) {
	ds, err := datagen.Generate(datagen.Config{NumEntities: 4096, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	tbl := cinderella.Open(cinderella.Config{Weight: 0.5, PartitionSizeLimit: 5000})
	docs := make([]cinderella.Doc, len(ds.Entities))
	names := ds.Dict.Names()
	for i, e := range ds.Entities {
		d := cinderella.Doc{}
		for _, f := range e.Fields() {
			d[names[f.Attr]] = f.Value.String()
		}
		docs[i] = d
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.Insert(docs[i%len(docs)])
	}
}

// BenchmarkSelectiveQuery measures a rare-attribute query through the
// public API against a loaded table.
func BenchmarkSelectiveQuery(b *testing.B) {
	ds, err := datagen.Generate(datagen.Config{NumEntities: 20000, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	tbl := cinderella.Open(cinderella.Config{Weight: 0.2, PartitionSizeLimit: 500})
	names := ds.Dict.Names()
	for _, e := range ds.Entities {
		d := cinderella.Doc{}
		for _, f := range e.Fields() {
			d[names[f.Attr]] = f.Value.String()
		}
		tbl.Insert(d)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.Query("rare_42")
	}
}

// BenchmarkCacheLocality regenerates the buffer-cache locality
// comparison (paper future work "caching").
func BenchmarkCacheLocality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.CacheLocality(benchOpts())
		b.ReportMetric(r.Get("universal"), "hit-universal")
		b.ReportMetric(r.Get("cinderella w=0.2"), "hit-cinderella")
	}
}

// BenchmarkChurn regenerates the modification-churn trajectory
// (Definition 2's full operation mix, with and without compaction).
func BenchmarkChurn(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiments.Churn(benchOpts())
		if p, ok := r.Final("cinderella"); ok {
			b.ReportMetric(p.Efficiency, "eff-plain")
			b.ReportMetric(float64(p.Partitions), "parts-plain")
		}
		if p, ok := r.Final("cinderella+compact"); ok {
			b.ReportMetric(p.Efficiency, "eff-compact")
			b.ReportMetric(float64(p.Partitions), "parts-compact")
		}
	}
}
