// Command bench is the repository's one end-to-end benchmark: it builds
// cmd/cinderellad from the checkout, spawns it as a real process, drives
// it over the binary protocol from this one process, checks every answer
// against a reference model, and prints the named metrics as JSON.
//
//	bench -workload ingest|query|mixed|reopen|all -seed N -seconds S -trace 0|1
//
// With -trace 0 a run measures the end-to-end metrics against the
// spawned daemon. With -trace 1 it assembles the same stack in-process
// behind timing decorators and prints the per-layer metrics. Run it from
// the repository root (bench/run.sh does). See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"time"
)

// metric is one named figure with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// envelope says what produced a report.
type envelope struct {
	Workload   string `json:"workload"`
	Trace      bool   `json:"trace"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	GitSHA     string `json:"git_sha"`
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Sizes      sizes  `json:"sizes"`
	Daemon     string `json:"daemon_flags"`
}

// report is one run's full output: the first of the two lines a run
// prints, and the record bench/compare reads.
type report struct {
	Envelope  envelope          `json:"envelope"`
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	FirstErr  string            `json:"first_error,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	Detail    map[string]any    `json:"detail"`
}

// verdict is the run's last line of output, the contract's result.
type verdict struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

const (
	benchDir = "bench"        // this module, relative to the repository root
	buildDir = ".bench_build" // compiled binaries
	outDir   = "bench/out"    // scratch data dirs and trace files
)

func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func main() {
	workload := flag.String("workload", "all", "ingest, query, mixed, reopen, or all")
	seed := flag.Int64("seed", 1, "seed of every generated input")
	seconds := flag.Int("seconds", 10, "length of the timed region")
	trace := flag.Int("trace", 0, "0: end-to-end metrics against a spawned daemon; 1: per-layer metrics from the traced in-process stack")
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) ||
		(*workload != "all" && !slices.Contains(workloadNames, *workload)) {
		flag.Usage()
		os.Exit(2)
	}
	os.Exit(realMain(*workload, *seed, *seconds, *trace == 1))
}

func realMain(workload string, seed int64, seconds int, trace bool) (code int) {
	if _, err := os.Stat(filepath.Join(benchDir, "go.mod")); err != nil {
		fmt.Fprintln(os.Stderr, "bench: run from the repository root (bench/go.mod not found)")
		return 2
	}
	bin, err := buildDaemon(benchDir, buildDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if pids := staleDaemons(bin); len(pids) > 0 {
		fmt.Fprintf(os.Stderr, "bench: cinderellad from a previous run is still alive (pids %v); stop it first\n", pids)
		return 1
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	scratch, err := os.MkdirTemp(outDir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	// Whatever ends the run — return, panic or signal — no daemon and no
	// data dir outlives it.
	cleanup := func() {
		reapAll()
		os.RemoveAll(scratch)
	}
	defer func() {
		cleanup()
		if p := recover(); p != nil {
			panic(p)
		}
	}()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigc
		cancel()
		cleanup()
		os.Exit(130)
	}()

	names := []string{workload}
	if workload == "all" {
		names = workloadNames
	}
	enc := json.NewEncoder(os.Stdout)
	for _, name := range names {
		rep, err := runOne(ctx, name, bin, scratch, outDir, frozen, seed, seconds, trace)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
			return 1
		}
		enc.Encode(rep)
		if !rep.Correct {
			fmt.Fprintf(os.Stderr, "bench: %s: %d of %d operations failed; first: %s\n", name, rep.Failed, rep.Attempted, rep.FirstErr)
			code = 1
		}
		if workload != "all" && rep.Correct {
			enc.Encode(verdict{rep.Correct, rep.Attempted, rep.Failed, rep.Metrics})
		}
	}
	return code
}

// runOne runs one workload, untraced or traced, and assembles its
// report. Data dirs live under scratch; a traced run leaves its spans
// in out.
func runOne(ctx context.Context, name, bin, scratch, out string, sz sizes, seed int64, seconds int, trace bool) (*report, error) {
	dir, err := os.MkdirTemp(scratch, name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	ds, err := generate(sz.datasetDocs(name, seconds))
	if err != nil {
		return nil, err
	}
	rep := &report{
		Envelope: envelope{
			Workload: name, Trace: trace, Seed: seed, Seconds: seconds,
			GitSHA: gitSHA(), GoVersion: runtime.Version(),
			NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			Sizes: sz, Daemon: strings.Join(baseFlags, " "),
		},
		Detail: make(map[string]any),
	}
	var tl *tally
	if trace {
		t := &traced{dir: dir, out: out, sz: sz, seed: seed, dur: time.Duration(seconds) * time.Second,
			ds: ds, qs: ds.queries(), detail: rep.Detail}
		if rep.Metrics, err = t.run(ctx, name); err != nil {
			return nil, err
		}
		tl = &t.tl
	} else {
		r := &run{bin: bin, dir: dir, sz: sz, seed: seed, dur: time.Duration(seconds) * time.Second,
			ds: ds, qs: ds.queries(), detail: rep.Detail}
		switch name {
		case "ingest":
			err = r.ingest(ctx)
		case "query":
			err = r.query(ctx)
		case "mixed":
			err = r.mixed(ctx)
		case "reopen":
			err = r.reopen(ctx)
		}
		if err != nil {
			return nil, err
		}
		rep.Metrics = r.endToEnd()
		tl = &r.tl
	}
	rep.Attempted, rep.Failed = tl.attempted.Load(), tl.failed.Load()
	rep.Correct = rep.Failed == 0 && rep.Attempted > 0
	if tl.first != nil {
		rep.FirstErr = tl.first.Error()
	}
	return rep, nil
}
