// Package experiments regenerates every table and figure of the paper's
// evaluation (Section V). Each experiment returns a typed result with a
// Print method producing the rows/series the paper reports; cmd/
// cinderella-bench and the top-level benchmarks drive them.
//
// Experiment index (see DESIGN.md):
//
//	Fig4   — attribute distribution of the (synthetic) DBpedia data set
//	Fig5   — query time vs. selectivity for B ∈ {500, 5000, 50000}
//	Fig6   — query time vs. selectivity for w ∈ {0.2, 0.5, 0.8}
//	Fig7   — influence of w on the partitioning (4 subplots)
//	Fig8   — insert time distribution and split counts per B
//	TableI — TPC-H: 22 queries on regular tables vs. Cinderella views
//	Efficiency — Definition 1 across partitioning strategies
package experiments

import (
	"fmt"
	"io"
	"time"

	"cinderella/internal/core"
	"cinderella/internal/datagen"
	"cinderella/internal/synopsis"
	"cinderella/internal/table"
	"cinderella/internal/workload"
)

// Options scales the experiments. The zero value reproduces the paper's
// dimensions (100 000 entities); tests use smaller values.
type Options struct {
	Entities int   // DBpedia-like entity count; default 100000
	Seed     int64 // PRNG seed; default 1
	TPCHSF   float64
	// QueryBuckets × QueriesPerBucket representative queries.
	QueryBuckets     int
	QueriesPerBucket int
}

func (o Options) withDefaults() Options {
	if o.Entities == 0 {
		o.Entities = 100000
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.TPCHSF == 0 {
		o.TPCHSF = 0.01
	}
	if o.QueryBuckets == 0 {
		o.QueryBuckets = 10
	}
	if o.QueriesPerBucket == 0 {
		o.QueriesPerBucket = 3
	}
	return o
}

// dataset builds the shuffled DBpedia-like data set for o.
func dataset(o Options) *datagen.Dataset {
	ds, err := datagen.Generate(datagen.Config{NumEntities: o.Entities, Seed: o.Seed})
	if err != nil {
		panic(err)
	}
	ds.Shuffle(o.Seed + 1)
	return ds
}

// loadTable inserts the data set into a fresh universal table using the
// given partitioner and returns it together with per-insert durations.
func loadTable(ds *datagen.Dataset, p core.Assigner, timings bool) (*table.Table, []time.Duration) {
	tbl := table.New(table.Config{Dict: ds.Dict, Partitioner: p})
	var durs []time.Duration
	if timings {
		durs = make([]time.Duration, 0, len(ds.Entities))
	}
	for _, e := range ds.Entities {
		if timings {
			start := time.Now()
			tbl.Insert(e.Clone())
			durs = append(durs, time.Since(start))
		} else {
			tbl.Insert(e.Clone())
		}
	}
	return tbl, durs
}

// entSynopses extracts entity synopses once per data set.
func entSynopses(ds *datagen.Dataset) []*synopsis.Set {
	out := make([]*synopsis.Set, len(ds.Entities))
	for i, e := range ds.Entities {
		out[i] = e.Synopsis()
	}
	return out
}

// buildWorkload generates, measures, and selects the representative query
// set used by Fig5/Fig6/Efficiency.
func buildWorkload(ds *datagen.Dataset, o Options) []workload.Query {
	qs := workload.Generate(entSynopses(ds), 20)
	workload.Measure(qs, entSynopses(ds))
	return workload.Representatives(qs, o.QueryBuckets, o.QueriesPerBucket)
}

// runQueries executes the representative queries against tbl and returns
// per-query wall time and bytes read.
type queryRun struct {
	Query     workload.Query
	Duration  time.Duration
	BytesRead int64
	Touched   int
	Pruned    int
	Rows      int
}

func runQueries(tbl *table.Table, queries []workload.Query) []queryRun {
	out := make([]queryRun, 0, len(queries))
	for _, q := range queries {
		// Bytes read are deterministic; wall time is the best of three
		// runs after one warm-up, otherwise allocator noise at the
		// millisecond scale swamps the selectivity trend.
		tbl.Stats().Reset()
		_, rep := tbl.SelectWithReport(q.Attrs)
		_, _, bytes, _, _ := tbl.Stats().Snapshot()
		best := time.Duration(1<<62 - 1)
		for i := 0; i < 3; i++ {
			start := time.Now()
			tbl.SelectSynopsis(q.Attrs)
			if d := time.Since(start); d < best {
				best = d
			}
		}
		out = append(out, queryRun{
			Query: q, Duration: best, BytesRead: bytes,
			Touched: rep.PartitionsTouched, Pruned: rep.PartitionsPruned,
			Rows: rep.EntitiesReturned,
		})
	}
	return out
}

// cind returns a Cinderella partitioner with the standard settings.
func cind(w float64, b int64) core.Assigner {
	return core.NewCinderella(core.Config{Weight: w, MaxSize: b})
}

// fprintf writes to w, swallowing the error (report writers are
// in-memory or stdout).
func fprintf(w io.Writer, format string, args ...any) {
	fmt.Fprintf(w, format, args...)
}
