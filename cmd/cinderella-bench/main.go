// Command cinderella-bench regenerates the paper's evaluation artifacts
// (Figures 4–8, Table I, the EFFICIENCY comparison, and the cache and
// churn studies) and prints the same rows/series the paper reports.
//
// Usage:
//
//	cinderella-bench [-exp NAME] [-entities N] [-sf F] [-seed S]
//	                 [-cpuprofile FILE] [-memprofile FILE]
//
// -exp takes "all" or one name from the experiments list below; -h prints
// them. The defaults reproduce the paper's scale (100 000 DBpedia-like
// entities); use -entities to run faster at smaller scale. -cpuprofile
// and -memprofile write pprof profiles of the run.
//
// This command reproduces the paper; it does not measure the system.
// Performance numbers come from the end-to-end benchmark (bash
// bench/run.sh) and the go test -bench benchmarks beside the code.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"cinderella/internal/experiments"
)

// exps is the one list of experiments, in the order "all" runs them:
// validation, the -exp help text and the dispatch all derive from it.
var exps = []struct {
	name string
	run  func(experiments.Options)
}{
	{"fig4", func(o experiments.Options) { experiments.Fig4(o).Print(os.Stdout) }},
	{"fig5", func(o experiments.Options) { experiments.Fig5(o).Print(os.Stdout) }},
	{"fig6", func(o experiments.Options) { experiments.Fig6(o).Print(os.Stdout) }},
	{"fig7", func(o experiments.Options) { experiments.Fig7(o).Print(os.Stdout) }},
	{"fig8", func(o experiments.Options) { experiments.Fig8(o).Print(os.Stdout) }},
	{"tab1", func(o experiments.Options) { experiments.TableI(o).Print(os.Stdout) }},
	{"efficiency", func(o experiments.Options) { experiments.Efficiency(o).Print(os.Stdout) }},
	{"churn", func(o experiments.Options) { experiments.Churn(o).Print(os.Stdout) }},
	{"cache", func(o experiments.Options) { experiments.CacheLocality(o).Print(os.Stdout) }},
}

func main() {
	names := make([]string, len(exps))
	for i, e := range exps {
		names[i] = e.name
	}
	known := "all, " + strings.Join(names, ", ")

	exp := flag.String("exp", "all", "experiment: "+known)
	entities := flag.Int("entities", 100000, "DBpedia-like entity count")
	sf := flag.Float64("sf", 0.02, "TPC-H-style scale factor for tab1")
	seed := flag.Int64("seed", 1, "PRNG seed")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the experiment run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile (taken after the experiments finish) to this file")
	flag.Parse()

	// Validate up front: a typo'd -exp must fail before minutes of data
	// generation, not after.
	selected := exps[:0:0]
	for _, e := range exps {
		if *exp == "all" || *exp == e.name {
			selected = append(selected, e)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (known: %s)\n", *exp, known)
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
	for _, e := range selected {
		start := time.Now()
		e.run(o)
		fmt.Printf("[%s done in %v]\n\n", e.name, time.Since(start).Round(time.Millisecond))
	}
}
