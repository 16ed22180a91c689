// Command cinderella-load loads a data set — synthetic irregular data by
// default, or newline-delimited JSON via -json — into a
// Cinderella-partitioned universal table and dumps the resulting
// partitioning: partition sizes, attribute counts, sparseness, and the
// pruning behaviour of a few probe queries.
//
// Usage:
//
//	cinderella-load [-entities N] [-w W] [-b B] [-json FILE]
//	                [-strategy cinderella|universal|hash|roundrobin|schemaexact]
//	                [-obs :PORT] [-hold] [-slow-query D]
//	cinderella-load -target http://HOST:PORT [-entities N] [-clients N]
//	                [-readers N] [-json FILE] [-trace]
//
// With -target the data set is driven through a running cinderellad
// instead of an embedded table: -clients concurrent workers insert over
// the binary protocol, one connection each, at the address the
// daemon's /v1/health reports (each ack means the write is fsynced
// server-side); then the probe queries run through GET
// /v1/query-report and the partition listing comes from the server.
// -readers N adds N concurrent query workers that hammer GET /v1/query
// over HTTP for the whole duration of the insert phase — the mixed
// read/write workload the lock-free snapshot path is built for — and
// reports read throughput next to the insert numbers. Local-only flags
// (-w, -b, -strategy, -obs, -hold) are rejected in this mode: the
// server owns partitioning. This is a load CLI, not a benchmark:
// measured numbers come from bash bench/run.sh.
//
// With -obs the process serves the live ops endpoint (Prometheus
// /metrics, /debug/vars, /debug/pprof) while loading and probing; -hold
// keeps it serving after the report so the endpoint can be inspected:
//
//	cinderella-load -obs :8080 -hold &
//	curl localhost:8080/metrics
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/url"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"cinderella/client"
	"cinderella/internal/core"
	"cinderella/internal/datagen"
	"cinderella/internal/entity"
	"cinderella/internal/metrics"
	"cinderella/internal/obs"
	"cinderella/internal/synopsis"
	"cinderella/internal/table"
)

var knownStrategies = map[string]bool{
	"cinderella": true, "universal": true, "hash": true,
	"roundrobin": true, "schemaexact": true,
}

// loadJSONL reads flat JSON objects (one per line) into a data set using
// the given dictionary.
func loadJSONL(path string, dict *entity.Dictionary) (*datagen.Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	ds := &datagen.Dataset{Dict: dict}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var obj map[string]any
		if err := json.Unmarshal(sc.Bytes(), &obj); err != nil {
			return nil, fmt.Errorf("line %d: %w", line, err)
		}
		e := &entity.Entity{}
		for k, v := range obj {
			switch x := v.(type) {
			case float64:
				e.Set(dict.ID(k), entity.Float(x))
			case string:
				e.Set(dict.ID(k), entity.Str(x))
			case bool:
				n := int64(0)
				if x {
					n = 1
				}
				e.Set(dict.ID(k), entity.Int(n))
			case nil:
				// skip
			default:
				return nil, fmt.Errorf("line %d: attribute %q has non-scalar value", line, k)
			}
		}
		ds.Entities = append(ds.Entities, e)
	}
	return ds, sc.Err()
}

// entityDoc converts a data-set entity into the wire Doc shape.
func entityDoc(e *entity.Entity, dict *entity.Dictionary) client.Doc {
	doc := make(client.Doc, e.NumAttrs())
	for _, f := range e.Fields() {
		name := dict.Name(f.Attr)
		switch f.Value.Kind() {
		case entity.KindInt:
			doc[name] = f.Value.AsInt()
		case entity.KindFloat:
			doc[name] = f.Value.AsFloat()
		case entity.KindString:
			doc[name] = f.Value.AsString()
		}
	}
	return doc
}

func fail(msgs ...string) {
	for _, m := range msgs {
		fmt.Fprintln(os.Stderr, "cinderella-load: "+m)
	}
	flag.Usage()
	os.Exit(2)
}

func main() {
	entities := flag.Int("entities", 20000, "entity count (synthetic data)")
	w := flag.Float64("w", 0.2, "Cinderella weight")
	b := flag.Int64("b", 500, "partition size limit (entities)")
	strategy := flag.String("strategy", "cinderella", "partitioning strategy")
	seed := flag.Int64("seed", 1, "PRNG seed")
	jsonl := flag.String("json", "", "load newline-delimited JSON from this file instead of synthetic data")
	obsAddr := flag.String("obs", "", "serve the ops endpoint on this address (e.g. :8080)")
	hold := flag.Bool("hold", false, "with -obs: keep serving after the report until interrupted")
	slowQuery := flag.Duration("slow-query", 0, "with -obs: retain queries slower than this in the slow-query ring (/debug/slow)")
	trace := flag.Bool("trace", false, "with -target: run the probe queries with an inline server-side trace")
	target := flag.String("target", "", "drive a running cinderellad at this base URL instead of an embedded table")
	clients := flag.Int("clients", 16, "with -target: concurrent insert workers")
	readers := flag.Int("readers", 0, "with -target: concurrent query workers running alongside the inserts")
	flag.Parse()

	// Validate everything up front so bad invocations fail fast with a
	// usage message instead of after seconds of data generation.
	var errs []string
	if flag.NArg() > 0 {
		errs = append(errs, fmt.Sprintf("unexpected arguments: %v", flag.Args()))
	}
	if !knownStrategies[*strategy] {
		errs = append(errs, fmt.Sprintf("unknown strategy %q", *strategy))
	}
	if *entities <= 0 {
		errs = append(errs, fmt.Sprintf("-entities must be positive, got %d", *entities))
	}
	if *w < 0 || *w > 1 {
		errs = append(errs, fmt.Sprintf("-w must be in [0,1], got %v", *w))
	}
	if *b <= 0 {
		errs = append(errs, fmt.Sprintf("-b must be positive, got %d", *b))
	}
	if *clients <= 0 {
		errs = append(errs, fmt.Sprintf("-clients must be positive, got %d", *clients))
	}
	if *readers < 0 {
		errs = append(errs, fmt.Sprintf("-readers must be non-negative, got %d", *readers))
	}
	if *readers > 0 && *target == "" {
		errs = append(errs, "-readers requires -target (it drives reads against a live daemon)")
	}
	if *hold && *obsAddr == "" {
		errs = append(errs, "-hold requires -obs")
	}
	if *slowQuery > 0 && *obsAddr == "" {
		errs = append(errs, "-slow-query requires -obs (the slow ring lives in the telemetry registry)")
	}
	if *trace && *target == "" {
		errs = append(errs, "-trace requires -target (it asks the server for inline traces)")
	}
	if *target != "" {
		if u, err := url.Parse(*target); err != nil || u.Scheme == "" || u.Host == "" {
			errs = append(errs, fmt.Sprintf("-target must be a base URL like http://127.0.0.1:8263, got %q", *target))
		}
		if *obsAddr != "" || *hold {
			errs = append(errs, "-obs/-hold apply only to local mode (the server has its own /metrics)")
		}
	}
	if len(errs) > 0 {
		fail(errs...)
	}

	var ds *datagen.Dataset
	if *jsonl != "" {
		var err error
		ds, err = loadJSONL(*jsonl, entity.NewDictionary())
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	} else {
		var err error
		ds, err = datagen.Generate(datagen.Config{NumEntities: *entities, Seed: *seed})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		ds.Shuffle(*seed + 1)
	}

	if *target != "" {
		if err := runTarget(*target, ds, *clients, *readers, *trace); err != nil {
			fmt.Fprintln(os.Stderr, "cinderella-load: "+err.Error())
			os.Exit(1)
		}
		return
	}

	var reg *obs.Registry
	if *obsAddr != "" {
		reg = obs.New(obs.Options{})
		if *slowQuery > 0 {
			reg.SetSlowThreshold(*slowQuery)
		}
		go func() {
			if err := reg.Serve(*obsAddr); err != nil {
				fmt.Fprintf(os.Stderr, "obs endpoint: %v\n", err)
				os.Exit(1)
			}
		}()
		fmt.Printf("ops endpoint on %s (/metrics /debug/vars /debug/pprof)\n", *obsAddr)
	}

	var assigner core.Assigner
	switch *strategy {
	case "cinderella":
		assigner = core.NewCinderella(core.Config{Weight: *w, MaxSize: *b})
	case "universal":
		assigner = core.NewSingle(core.SizeCount)
	case "hash":
		assigner = core.NewHash(16, core.SizeCount)
	case "roundrobin":
		assigner = core.NewRoundRobin(*b, core.SizeCount)
	case "schemaexact":
		assigner = core.NewSchemaExact(0, core.SizeCount)
	}

	tbl := table.New(table.Config{Dict: ds.Dict, Partitioner: assigner, Obs: reg})
	start := time.Now()
	for _, e := range ds.Entities {
		tbl.Insert(e)
	}
	loadTime := time.Since(start)

	fmt.Printf("loaded %d entities in %v (%s, w=%.2f, B=%d)\n",
		tbl.Len(), loadTime.Round(time.Millisecond), *strategy, *w, *b)
	fmt.Printf("data set sparseness: %.3f\n", ds.Sparseness())
	fmt.Printf("partitions: %d\n\n", tbl.NumPartitions())

	fmt.Printf("%-6s %10s %10s %8s %12s\n", "part", "entities", "attrs", "pages", "sparseness")
	shown := 0
	for _, pv := range tbl.Partitions() {
		if shown >= 25 {
			fmt.Printf("… (%d more partitions)\n", tbl.NumPartitions()-shown)
			break
		}
		sp := metrics.Sparseness(tbl.MemberSynopses(pv.ID))
		fmt.Printf("%-6d %10d %10d %8d %12.3f\n", pv.ID, pv.Entities, pv.Synopsis.Len(), pv.Pages, sp)
		shown++
	}

	// Probe queries: one common, one medium, one rare attribute.
	fmt.Printf("\nprobe queries (OR of attributes; pruning report)\n")
	for _, name := range []string{"universal_00", "common_05", "rare_50"} {
		id, ok := ds.Dict.Lookup(name)
		if !ok {
			continue
		}
		tbl.Stats().Reset()
		start := time.Now()
		_, rep := tbl.SelectWithReport(synopsis.Of(id))
		d := time.Since(start)
		_, _, bytes, _, _ := tbl.Stats().Snapshot()
		fmt.Printf("  %-14s rows=%-6d touched=%-4d pruned=%-4d read=%dKB time=%v\n",
			name, rep.EntitiesReturned, rep.PartitionsTouched, rep.PartitionsPruned,
			bytes/1024, d.Round(time.Microsecond))
	}

	if reg != nil {
		winEff, winN := reg.WindowEfficiency()
		fmt.Printf("\ntelemetry: efficiency=%.4f (window %.4f over %d queries) "+
			"ratings=%d splits=%d partitions=%d trace-events=%d\n",
			reg.Efficiency(), winEff, winN,
			reg.Counter(obs.CRatings), reg.Counter(obs.CSplits),
			reg.Gauge(obs.GPartitions), reg.TraceSeq())
		if heat := reg.ColdestPartitions(10, 1); len(heat) > 0 {
			fmt.Printf("\npartition heat, coldest first (lowest relevant/read — recluster candidates)\n")
			fmt.Printf("%-6s %8s %12s %12s %12s %8s\n", "part", "queries", "read", "relevant", "skipped", "ratio")
			for _, h := range heat {
				fmt.Printf("%-6d %8d %12d %12d %12d %8.3f\n",
					h.Partition, h.Queries, h.RecordsRead, h.RecordsRelevant, h.RecordsSkipped, h.ReadRatio)
			}
		}
		if slow, total := reg.SlowDump(); total > 0 {
			fmt.Printf("\nslow queries (>= %v): %d total, %d retained\n", reg.SlowThreshold(), total, len(slow))
		}
		if *hold {
			fmt.Printf("holding; ops endpoint stays on %s (interrupt to exit)\n", *obsAddr)
			select {}
		}
	}
}

// runTarget drives the data set through a running cinderellad: concurrent
// durable inserts (with optional concurrent query readers for a mixed
// read/write workload), then the probe queries server-side (traced
// inline when trace is set).
func runTarget(base string, ds *datagen.Dataset, workers, readers int, trace bool) error {
	ctx := context.Background()
	c, err := client.New(base)
	if err != nil {
		return err
	}
	h, err := c.Health(ctx)
	if err != nil {
		return fmt.Errorf("probing %s: %w", base, err)
	}
	// Writes go to the port of the daemon's bound binary address, on the
	// target's host: a daemon on all interfaces reports "[::]:8264".
	_, port, err := net.SplitHostPort(h.BinAddr)
	if err != nil {
		return fmt.Errorf("%s/v1/health reports bin_addr %q: %w", base, h.BinAddr, err)
	}
	u, _ := url.Parse(base) // validated in main
	binAddr := net.JoinHostPort(u.Hostname(), port)
	fmt.Printf("target %s: status=%s docs=%d durable_lsn=%d binary=%s\n", base, h.Status, h.Docs, h.DurableLSN, binAddr)
	bc, err := client.NewBinary(binAddr, client.WithConns(workers))
	if err != nil {
		return err
	}
	defer bc.Close()

	docs := make([]client.Doc, len(ds.Entities))
	for i, e := range ds.Entities {
		docs[i] = entityDoc(e, ds.Dict)
	}

	// Query readers cycle over real attribute names from the data set so
	// the mixed workload exercises the same pruning the probes report.
	var attrNames []string
	seen := map[string]bool{}
	for _, e := range ds.Entities {
		for _, f := range e.Fields() {
			if name := ds.Dict.Name(f.Attr); !seen[name] {
				seen[name] = true
				attrNames = append(attrNames, name)
			}
		}
		if len(attrNames) >= 64 {
			break
		}
	}

	var next, acked, failed atomic.Int64
	var reads, readFails atomic.Int64
	var firstErr, firstReadErr atomic.Value
	stopReads := make(chan struct{})
	start := time.Now()
	var wg, rwg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(docs) {
					return
				}
				if _, err := bc.Insert(ctx, docs[i]); err != nil {
					failed.Add(1)
					firstErr.CompareAndSwap(nil, err)
					continue
				}
				acked.Add(1)
			}
		}()
	}
	for i := 0; i < readers && len(attrNames) > 0; i++ {
		rwg.Add(1)
		go func(k int) {
			defer rwg.Done()
			for {
				select {
				case <-stopReads:
					return
				default:
				}
				if _, err := c.Query(ctx, attrNames[k%len(attrNames)]); err != nil {
					readFails.Add(1)
					firstReadErr.CompareAndSwap(nil, err)
				} else {
					reads.Add(1)
				}
				k++
			}
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	close(stopReads)
	rwg.Wait()

	fmt.Printf("inserted %d/%d docs durably in %v (%.0f acked ops/s, %d clients)\n",
		acked.Load(), len(docs), elapsed.Round(time.Millisecond),
		float64(acked.Load())/elapsed.Seconds(), workers)
	if n := failed.Load(); n > 0 {
		fmt.Printf("  %d inserts failed (first: %v)\n", n, firstErr.Load())
	}
	if readers > 0 {
		fmt.Printf("concurrent reads: %d queries in %v (%.0f reads/s, %d readers)\n",
			reads.Load(), elapsed.Round(time.Millisecond),
			float64(reads.Load())/elapsed.Seconds(), readers)
		if n := readFails.Load(); n > 0 {
			fmt.Printf("  %d reads failed (first: %v)\n", n, firstReadErr.Load())
		}
	}

	parts, err := c.Partitions(ctx)
	if err != nil {
		return fmt.Errorf("listing partitions: %w", err)
	}
	fmt.Printf("server partitions: %d\n\n", len(parts))
	fmt.Printf("%-6s %10s %10s %8s\n", "part", "entities", "attrs", "pages")
	for i, pv := range parts {
		if i >= 25 {
			fmt.Printf("… (%d more partitions)\n", len(parts)-i)
			break
		}
		fmt.Printf("%-6d %10d %10d %8d\n", i, pv.Records, len(pv.Attributes), pv.Pages)
	}

	fmt.Printf("\nprobe queries (server-side pruning report)\n")
	for _, name := range []string{"universal_00", "common_05", "rare_50"} {
		if _, ok := ds.Dict.Lookup(name); !ok {
			continue
		}
		start := time.Now()
		var recs []client.Record
		var rep client.QueryReport
		var spJSON json.RawMessage
		var err error
		if trace {
			recs, rep, spJSON, err = c.QueryTraced(ctx, name)
		} else {
			recs, rep, err = c.QueryWithReport(ctx, name)
		}
		if err != nil {
			return fmt.Errorf("query %s: %w", name, err)
		}
		d := time.Since(start)
		fmt.Printf("  %-14s rows=%-6d touched=%-4d pruned=%-4d read=%dKB time=%v\n",
			name, len(recs), rep.PartitionsTouched, rep.PartitionsPruned,
			rep.BytesRead/1024, d.Round(time.Microsecond))
		printTrace(spJSON)
	}

	if h, err = c.Health(ctx); err == nil {
		fmt.Printf("\nfinal: docs=%d durable_lsn=%d last_lsn=%d\n", h.Docs, h.DurableLSN, h.LastLSN)
	}
	return nil
}

// printTrace renders a server-side inline trace: the root span plus one
// line per shard child and the first few prune verdicts. Silently skips
// nil (untraced or uninstrumented) and undecodable payloads.
func printTrace(raw json.RawMessage) {
	if len(raw) == 0 {
		return
	}
	var sp obs.QuerySpan
	if err := json.Unmarshal(raw, &sp); err != nil {
		return
	}
	fmt.Printf("    trace %d (%s): %.2fms scanned=%d returned=%d\n",
		sp.ID, sp.Kind, float64(sp.DurationNs)/1e6, sp.EntitiesScanned, sp.EntitiesReturned)
	for _, ch := range sp.Children {
		fmt.Printf("      shard %d: %.2fms touched=%d pruned=%d scanned=%d returned=%d\n",
			ch.Shard, float64(ch.DurationNs)/1e6, ch.PartitionsTouched,
			ch.PartitionsPruned, ch.EntitiesScanned, ch.EntitiesReturned)
	}
	if len(sp.Children) == 0 && len(sp.Prunes) > 0 {
		shown := sp.Prunes
		if len(shown) > 5 {
			shown = shown[:5]
		}
		for _, pr := range shown {
			fmt.Printf("      pruned partition %d: %s\n", pr.Partition, pr.Reason)
		}
		if len(sp.Prunes) > 5 {
			fmt.Printf("      … (%d more pruned)\n", len(sp.Prunes)-5)
		}
	}
}
