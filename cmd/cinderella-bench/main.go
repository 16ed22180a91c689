// Command cinderella-bench regenerates the paper's evaluation artifacts
// (Figures 4–8, Table I, and the EFFICIENCY comparison) and prints the
// same rows/series the paper reports.
//
// Usage:
//
//	cinderella-bench [-exp all|fig4|fig5|fig6|fig7|fig8|tab1|efficiency|hotpath|obs|server|shard|trace|recluster|tier]
//	                 [-entities N] [-sf F] [-seed S] [-json FILE] [-obs :PORT]
//	                 [-allow-serial] [-cpuprofile FILE] [-memprofile FILE]
//
// The defaults reproduce the paper's scale (100 000 DBpedia-like
// entities); use -entities to run faster at smaller scale.
//
// The hotpath experiment benchmarks the fused rating kernel, the insert
// path, and the serial-vs-parallel query scan; -json writes its result as
// a machine-readable baseline (the repo tracks one in BENCH_hotpath.json)
// so successive PRs can compare trajectories. Because hotpath's headline
// number is a serial-vs-parallel comparison, it refuses to run with
// GOMAXPROCS < 2 (exit 2) unless -allow-serial is given — a baseline
// recorded on a serial box would silently report speedup 1.0x. The obs
// experiment measures the telemetry layer's overhead (instrumented vs.
// uninstrumented; the repo tracks BENCH_obs.json). The shard experiment
// measures write-path scaling across 1/2/4/8 hash-routed shards (the
// repo tracks BENCH_shard.json). Read-path numbers come from the
// end-to-end benchmark (bash bench/run.sh --workload query). With
// -obs :PORT the process serves the ops endpoint (/metrics, /debug/vars,
// /debug/pprof) while experiments run. -cpuprofile and -memprofile write
// pprof profiles of the run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"cinderella/internal/experiments"
	"cinderella/internal/obs"
)

var knownExps = []string{
	"all", "fig4", "fig5", "fig6", "fig7", "fig8", "tab1",
	"efficiency", "cache", "churn", "hotpath", "obs", "server", "shard",
	"trace", "recluster", "tier",
}

func main() {
	exp := flag.String("exp", "all", "experiment: all, fig4, fig5, fig6, fig7, fig8, tab1, efficiency, cache, churn, hotpath, obs, server, shard, trace, recluster, tier")
	entities := flag.Int("entities", 100000, "DBpedia-like entity count")
	sf := flag.Float64("sf", 0.02, "TPC-H-style scale factor for tab1")
	seed := flag.Int64("seed", 1, "PRNG seed")
	jsonPath := flag.String("json", "", "write the hotpath/obs/server result as JSON to this file")
	obsAddr := flag.String("obs", "", "serve the ops endpoint on this address (e.g. :8080) while running")
	allowSerial := flag.Bool("allow-serial", false, "let hotpath run with GOMAXPROCS < 2 (its serial-vs-parallel comparison degenerates to 1.0x)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the experiment run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile (taken after the experiments finish) to this file")
	flag.Parse()

	// Validate up front: a typo'd -exp must fail before minutes of data
	// generation, not after.
	known := false
	for _, k := range knownExps {
		known = known || k == *exp
	}
	if !known {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (known: %v)\n", *exp, knownExps)
		flag.Usage()
		os.Exit(2)
	}
	if *entities <= 0 {
		fmt.Fprintf(os.Stderr, "-entities must be positive, got %d\n", *entities)
		os.Exit(2)
	}
	if *sf <= 0 {
		fmt.Fprintf(os.Stderr, "-sf must be positive, got %v\n", *sf)
		os.Exit(2)
	}
	// hotpath's headline number is a serial-vs-parallel comparison; a
	// baseline recorded at GOMAXPROCS=1 would report select_speedup
	// ~1.0x and poison trajectory comparisons. Fail fast, before any
	// experiment burns minutes of data generation.
	if *exp == "all" || *exp == "hotpath" {
		if procs := runtime.GOMAXPROCS(0); procs < 2 && !*allowSerial {
			fmt.Fprintf(os.Stderr,
				"hotpath: GOMAXPROCS=%d < 2 — the serial-vs-parallel comparison is degenerate; rerun with -allow-serial to record anyway\n", procs)
			os.Exit(2)
		}
	}

	// Profiling covers the whole experiment run.
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "cpuprofile: %v\n", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			fmt.Printf("wrote %s\n", *cpuProfile)
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows live objects
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "memprofile: %v\n", err)
				return
			}
			fmt.Printf("wrote %s\n", *memProfile)
		}()
	}

	o := experiments.Options{Entities: *entities, Seed: *seed, TPCHSF: *sf}
	if *obsAddr != "" {
		reg := obs.New(obs.Options{})
		o.Obs = reg
		go func() {
			if err := reg.Serve(*obsAddr); err != nil {
				fmt.Fprintf(os.Stderr, "obs endpoint: %v\n", err)
			}
		}()
		fmt.Printf("ops endpoint on %s (/metrics /debug/vars /debug/pprof)\n\n", *obsAddr)
	}

	writeJSON := func(v any) {
		if *jsonPath == "" {
			return
		}
		b, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			panic(err)
		}
		b = append(b, '\n')
		if err := os.WriteFile(*jsonPath, b, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "writing %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}

	run := func(name string, f func()) {
		start := time.Now()
		f()
		fmt.Printf("[%s done in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	want := func(name string) bool {
		return *exp == "all" || *exp == name
	}

	if want("fig4") {
		run("fig4", func() { experiments.Fig4(o).Print(os.Stdout) })
	}
	if want("fig5") {
		run("fig5", func() { experiments.Fig5(o).Print(os.Stdout) })
	}
	if want("fig6") {
		run("fig6", func() { experiments.Fig6(o).Print(os.Stdout) })
	}
	if want("fig7") {
		run("fig7", func() { experiments.Fig7(o).Print(os.Stdout) })
	}
	if want("fig8") {
		run("fig8", func() { experiments.Fig8(o).Print(os.Stdout) })
	}
	if want("tab1") {
		run("tab1", func() { experiments.TableI(o).Print(os.Stdout) })
	}
	if want("efficiency") {
		run("efficiency", func() { experiments.Efficiency(o).Print(os.Stdout) })
	}
	if want("churn") {
		run("churn", func() { experiments.Churn(o).Print(os.Stdout) })
	}
	if want("cache") {
		run("cache", func() { experiments.CacheLocality(o).Print(os.Stdout) })
	}
	if want("hotpath") {
		run("hotpath", func() {
			r := experiments.Hotpath(o)
			r.Print(os.Stdout)
			writeJSON(r)
		})
	}
	if want("obs") {
		run("obs", func() {
			r := experiments.ObsOverhead(o)
			r.Print(os.Stdout)
			writeJSON(r)
		})
	}
	if want("server") {
		run("server", func() {
			r := experiments.ServerBench(o)
			r.Print(os.Stdout)
			writeJSON(r)
		})
	}
	if want("shard") {
		run("shard", func() {
			r := experiments.ShardBench(o)
			r.Print(os.Stdout)
			writeJSON(r)
		})
	}
	if want("trace") {
		run("trace", func() {
			r := experiments.TraceBench(o)
			r.Print(os.Stdout)
			writeJSON(r)
		})
	}
	if want("recluster") {
		run("recluster", func() {
			r, err := experiments.ReclusterBench(o)
			if err != nil {
				fmt.Fprintf(os.Stderr, "recluster: %v\n", err)
				os.Exit(1)
			}
			r.Print(os.Stdout)
			writeJSON(r)
		})
	}
	if want("tier") {
		run("tier", func() {
			r, err := experiments.TierBench(o)
			if err != nil {
				fmt.Fprintf(os.Stderr, "tier: %v\n", err)
				os.Exit(1)
			}
			r.Print(os.Stdout)
			writeJSON(r)
		})
	}
}
