// Command compare reads two result files written by the benchmark (one
// report per line, as bench/run.sh collects them) plus the bounds in
// BENCHMARK.json, and prints one row per workload × end-to-end metric:
//
//	better        the candidate's median beats the baseline's by more than
//	              the baseline's own inter-quartile distance
//	within bound  no worse than the bound allows
//	worse         worse than the baseline's median by more than the bound
//	unresolved    either side's spread (Q3 − Q1 over the median) is wider
//	              than the bound, so the runs cannot tell
//
// Usage: compare [-bench BENCHMARK.json] baseline.jsonl candidate.jsonl
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

type report struct {
	Envelope struct {
		Workload string `json:"workload"`
		Trace    bool   `json:"trace"`
	} `json:"envelope"`
	Correct bool `json:"correct"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// load collects, per workload and metric, the values of every correct
// untraced report in path.
func load(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]map[string][]float64)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		var r report
		if json.Unmarshal(sc.Bytes(), &r) != nil || r.Envelope.Workload == "" || r.Envelope.Trace || !r.Correct {
			continue // the contract's result line, a traced run, or a failed run
		}
		w := out[r.Envelope.Workload]
		if w == nil {
			w = make(map[string][]float64)
			out[r.Envelope.Workload] = w
		}
		for name, m := range r.Metrics {
			w[name] = append(w[name], m.Value)
		}
	}
	return out, sc.Err()
}

// quartiles returns Q1, the median and Q3 as Python's
// statistics.quantiles(v, n=4) does (the exclusive method), which is how
// the benchmark's acceptance rule measures spread. One value is its own
// quartiles.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func main() {
	bench := flag.String("bench", "BENCHMARK.json", "the benchmark's specification, for metric directions and bounds")
	flag.Parse()
	if flag.NArg() != 2 {
		flag.Usage()
		os.Exit(2)
	}
	raw, err := os.ReadFile(*bench)
	if err != nil {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(1)
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		fmt.Fprintf(os.Stderr, "compare: %s: %v\n", *bench, err)
		os.Exit(1)
	}
	base, err := load(flag.Arg(0))
	if err == nil {
		var cand map[string]map[string][]float64
		if cand, err = load(flag.Arg(1)); err == nil {
			os.Exit(compare(sp, base, cand))
		}
	}
	fmt.Fprintln(os.Stderr, "compare:", err)
	os.Exit(1)
}

// compare prints the table and returns 1 when any row is worse.
func compare(sp spec, base, cand map[string]map[string][]float64) int {
	code := 0
	fmt.Printf("%-8s %-24s %-13s %14s %22s %14s %22s %8s\n",
		"workload", "metric", "verdict", "base median", "base Q1..Q3", "cand median", "cand Q1..Q3", "change")
	for _, w := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			a, b := base[w.Name][m.Name], cand[w.Name][m.Name]
			if len(a) == 0 || len(b) == 0 {
				fmt.Printf("%-8s %-24s %-13s (baseline runs: %d, candidate runs: %d)\n", w.Name, m.Name, "missing", len(a), len(b))
				code = 1
				continue
			}
			a1, a2, a3 := quartiles(a)
			b1, b2, b3 := quartiles(b)
			// worse > 0 means the candidate's median is worse, as a share
			// of the baseline's.
			worse := (b2 - a2) / a2
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "within bound"
			switch {
			case (a3-a1)/a2 > m.Bound || (b3-b1)/b2 > m.Bound:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "worse"
				code = 1
			case worse < 0 && -worse*a2 > a3-a1:
				verdict = "better"
			}
			fmt.Printf("%-8s %-24s %-13s %14.5g %10.5g..%-10.5g %14.5g %10.5g..%-10.5g %+7.1f%%\n",
				w.Name, m.Name, verdict, a2, a1, a3, b2, b1, b3, 100*(b2-a2)/a2)
		}
	}
	return code
}
