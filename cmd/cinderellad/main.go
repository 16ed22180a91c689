// Command cinderellad serves a durable Cinderella-partitioned table.
// Writes — insert, update, delete, batches — go over the length-prefixed
// binary protocol (package internal/wire) on -bin-addr; reads, admin
// operations (compact, checkpoint), health and the ops endpoints go over
// HTTP/JSON on -addr (see internal/server for the format and the client
// package for typed callers). Writes are group-committed: many
// concurrent writes share one WAL fsync, and an OK answer means the
// operation is on disk. /v1/health reports the bound binary address.
//
// Usage:
//
//	cinderellad [-wal DIR] [-addr :8263] [-w W] [-b B] [-shards N]
//	            [-bin-addr :8264] [-bin-addr-file PATH]
//	            [-strategy cinderella|universal|hash|roundrobin|schemaexact]
//	            [-inflight N]
//	            [-commit-delay D] [-commit-max N]
//	            [-addr-file PATH] [-checkpoint-on-exit=false]
//	            [-slow-query D] [-trace-sample N]
//	            [-recluster] [-recluster-interval D] [-recluster-batch N]
//	            [-recluster-rate R] [-recluster-alpha A] [-recluster-halflife D]
//	            [-tier] [-tier-interval D] [-tier-target-bytes N]
//	            [-tier-max-freezes N] [-tier-idle-ticks N] [-tier-reheat N]
//
// -recluster starts the background workload-aware reclusterer
// (internal/recluster): every -recluster-interval it snapshots the
// partition heat map, picks the partitions wasting the most read
// volume, and re-rates their entities against a rating blended with
// the recent query mix (-recluster-alpha), migrating at most
// -recluster-rate entities per second. -recluster-halflife ages the
// heat map so old workloads fade. Live status, per-victim outcomes,
// and counters are served at /debug/recluster; the reclusterer pauses
// when a drain begins.
//
// -tier starts the background tiering manager (internal/tier): every
// -tier-interval it compares the partition heat map against the tier
// states and freezes partitions that have gone query-idle for
// -tier-idle-ticks ticks into compressed, read-only cold segments —
// until the hot tier fits -tier-target-bytes (0 = freeze all idle),
// at most -tier-max-freezes per tick. Frozen partitions that absorb
// -tier-reheat cold block reads within a tick are thawed back; any
// write reaching a frozen partition thaws it immediately. Live status
// is served at /debug/tier; with -recluster the reclusterer skips
// frozen partitions. Freeze/thaw transitions are durable (a manifest
// and the compressed images live next to each shard's WAL) and survive
// restart.
//
// -bin-addr-file mirrors -addr-file for the binary listener.
//
// The store is always internal/shard's: -wal names a directory holding
// manifest.json and one shard-<i>/shard.wal per shard, created on first
// start. -shards N (default 1) runs N independent Cinderella
// partitioners, hash-routing documents by id and striping durability
// across the N logs; the count is fixed when the directory is created.
// The wire format does not depend on N. A plain single-file WAL (the
// library's DurableTable log) is refused, not imported.
//
// -inflight bounds the HTTP requests executing at once; past it a
// request gets 503 + Retry-After.
//
// On SIGTERM or SIGINT the daemon drains gracefully: it stops taking
// writes (binary batches get a retryable status, HTTP compact and
// checkpoint get 503 + Retry-After), finishes the in-flight ones,
// flushes the group-commit pipeline, checkpoints the WAL, and exits 0.
// Reads keep being served on both protocols for as long as the
// listeners are up — a drain never turns queries away. A second signal
// aborts immediately.
//
// -addr-file writes the actually bound address (useful with -addr
// 127.0.0.1:0) to a file so scripts can find the server.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cinderella"
	"cinderella/internal/obs"
	"cinderella/internal/recluster"
	"cinderella/internal/server"
	"cinderella/internal/shard"
	"cinderella/internal/tier"
	"cinderella/internal/wire"
)

var strategies = map[string]cinderella.Strategy{
	"cinderella":  cinderella.StrategyCinderella,
	"universal":   cinderella.StrategyUniversal,
	"hash":        cinderella.StrategyHash,
	"roundrobin":  cinderella.StrategyRoundRobin,
	"schemaexact": cinderella.StrategySchemaExact,
}

func main() {
	addr := flag.String("addr", ":8263", "listen address (use 127.0.0.1:0 for an ephemeral port)")
	addrFile := flag.String("addr-file", "", "write the bound address to this file once listening")
	binAddr := flag.String("bin-addr", ":8264", "binary wire protocol listen address, which takes every write")
	binAddrFile := flag.String("bin-addr-file", "", "write the bound binary address to this file once listening")
	walPath := flag.String("wal", "cinderella-data", "data directory: manifest.json plus one shard-<i>/shard.wal per shard")
	shards := flag.Int("shards", 1, "number of independent shards, each with its own partitioner and WAL (fixed when the directory is created)")
	w := flag.Float64("w", 0.5, "Cinderella weight w ∈ [0,1]")
	b := flag.Int64("b", 5000, "partition size limit B (records)")
	strategy := flag.String("strategy", "cinderella", "partitioning strategy")
	inflight := flag.Int("inflight", 0, "max concurrently served HTTP requests (0 = default)")
	commitDelay := flag.Duration("commit-delay", 0, "group-commit window (0 = default)")
	commitMax := flag.Int("commit-max", 0, "max ops per group commit (0 = default)")
	reqTimeout := flag.Duration("timeout", 0, "per-request server-side timeout (0 = default)")
	slowQuery := flag.Duration("slow-query", 0, "log queries slower than this to the slow-query ring (/debug/slow); 0 disables")
	traceSample := flag.Int("trace-sample", 0, "trace every Nth query (0 = default 64, <0 disables tracing)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "max time to wait for in-flight requests on shutdown")
	checkpointOnExit := flag.Bool("checkpoint-on-exit", true, "compact the WAL to a checkpoint during graceful shutdown")
	reclusterOn := flag.Bool("recluster", false, "run the background workload-aware reclusterer (see /debug/recluster)")
	reclusterInterval := flag.Duration("recluster-interval", 0, "reclusterer tick interval (0 = default 5s; requires -recluster)")
	reclusterBatch := flag.Int("recluster-batch", 0, "entities re-rated per victim partition per tick (0 = default; requires -recluster)")
	reclusterRate := flag.Float64("recluster-rate", 0, "max migrations per second, 0 = unlimited (requires -recluster)")
	reclusterAlpha := flag.Float64("recluster-alpha", 0, "workload-blend weight α ∈ [0,1] (0 = default 0.5; requires -recluster)")
	reclusterHalfLife := flag.Duration("recluster-halflife", 0, "partition heat exponential-decay half-life (0 = no decay; requires -recluster)")
	tierOn := flag.Bool("tier", false, "run the background tiering manager: freeze idle partitions into the compressed cold tier (see /debug/tier)")
	tierInterval := flag.Duration("tier-interval", 0, "tiering tick interval (0 = default 10s; requires -tier)")
	tierTargetBytes := flag.Int64("tier-target-bytes", 0, "hot-tier resident byte budget; 0 = freeze by idleness alone (requires -tier)")
	tierMaxFreezes := flag.Int("tier-max-freezes", 0, "max partitions frozen per tick (0 = default 4; requires -tier)")
	tierIdleTicks := flag.Int("tier-idle-ticks", 0, "consecutive query-idle ticks before a partition freezes (0 = default 2; requires -tier)")
	tierReheat := flag.Int64("tier-reheat", 0, "cold block reads per tick that reheat a frozen partition (0 = default 4; requires -tier)")
	flag.Parse()

	st, ok := strategies[*strategy]
	if !ok {
		fmt.Fprintf(os.Stderr, "cinderellad: unknown strategy %q\n", *strategy)
		flag.Usage()
		os.Exit(2)
	}
	if *w < 0 || *w > 1 {
		fmt.Fprintf(os.Stderr, "cinderellad: -w must be in [0,1], got %v\n", *w)
		os.Exit(2)
	}
	if *b <= 0 {
		fmt.Fprintf(os.Stderr, "cinderellad: -b must be positive, got %d\n", *b)
		os.Exit(2)
	}
	if *inflight < 0 || *commitMax < 0 {
		fmt.Fprintln(os.Stderr, "cinderellad: -inflight and -commit-max must be non-negative")
		os.Exit(2)
	}
	if *shards < 1 {
		fmt.Fprintf(os.Stderr, "cinderellad: -shards must be >= 1, got %d\n", *shards)
		os.Exit(2)
	}
	if !*reclusterOn && (*reclusterInterval != 0 || *reclusterBatch != 0 ||
		*reclusterRate != 0 || *reclusterAlpha != 0 || *reclusterHalfLife != 0) {
		fmt.Fprintln(os.Stderr, "cinderellad: -recluster-* tuning flags require -recluster")
		os.Exit(2)
	}
	if *reclusterInterval < 0 || *reclusterBatch < 0 || *reclusterRate < 0 || *reclusterHalfLife < 0 {
		fmt.Fprintln(os.Stderr, "cinderellad: -recluster-interval, -recluster-batch, -recluster-rate, and -recluster-halflife must be non-negative")
		os.Exit(2)
	}
	if *reclusterAlpha < 0 || *reclusterAlpha > 1 {
		fmt.Fprintf(os.Stderr, "cinderellad: -recluster-alpha must be in [0,1], got %v\n", *reclusterAlpha)
		os.Exit(2)
	}
	if !*tierOn && (*tierInterval != 0 || *tierTargetBytes != 0 || *tierMaxFreezes != 0 ||
		*tierIdleTicks != 0 || *tierReheat != 0) {
		fmt.Fprintln(os.Stderr, "cinderellad: -tier-* tuning flags require -tier")
		os.Exit(2)
	}
	if *tierInterval < 0 || *tierTargetBytes < 0 || *tierMaxFreezes < 0 || *tierIdleTicks < 0 || *tierReheat < 0 {
		fmt.Fprintln(os.Stderr, "cinderellad: -tier-* values must be non-negative")
		os.Exit(2)
	}

	reg := obs.New(obs.Options{TraceSampleEvery: *traceSample})
	if *slowQuery > 0 {
		reg.SetSlowThreshold(*slowQuery)
	}
	cfg := cinderella.Config{
		Strategy:           st,
		Weight:             *w,
		PartitionSizeLimit: *b,
		Obs:                reg,
	}
	d, err := shard.Open(*walPath, shard.Options{Shards: *shards, Config: cfg})
	if err != nil {
		fmt.Fprintf(os.Stderr, "cinderellad: opening %s: %v\n", *walPath, err)
		os.Exit(1)
	}
	fmt.Printf("cinderellad: %s replayed (%d shards), %d docs, %d partitions\n",
		*walPath, *shards, d.Len(), len(d.Partitions()))

	// Background tiering manager: freezes partitions the workload has
	// gone quiet on into the compressed cold tier, reheats frozen ones
	// the workload comes back to. Status is served at /debug/tier.
	var tmgr *tier.Manager
	var tmgrCancel context.CancelFunc
	if *tierOn {
		tmgr = tier.New(d, reg, tier.Config{
			Interval:            *tierInterval,
			TargetResidentBytes: *tierTargetBytes,
			MaxFreezesPerTick:   *tierMaxFreezes,
			MinIdleTicks:        *tierIdleTicks,
			ReheatColdReads:     *tierReheat,
		})
		var tctx context.Context
		tctx, tmgrCancel = context.WithCancel(context.Background())
		go tmgr.Run(tctx)
		fmt.Printf("cinderellad: tiering on (interval %v)\n", tmgr.Status().Interval)
	}

	// Background reclusterer: observes the partition heat map, migrates
	// the worst read-efficiency offenders toward the live query mix.
	// Status and outcomes are served at /debug/recluster. With -tier it
	// skips frozen partitions — re-rating members would thaw them.
	var mgr *recluster.Manager
	var mgrCancel context.CancelFunc
	if *reclusterOn {
		rcfg := recluster.Config{
			Interval:       *reclusterInterval,
			BatchSize:      *reclusterBatch,
			MaxMovesPerSec: *reclusterRate,
			Alpha:          *reclusterAlpha,
			HeatHalfLife:   *reclusterHalfLife,
		}
		if tmgr != nil {
			rcfg.VictimFilter = func(shard int32, pid uint64) bool {
				return !tmgr.IsFrozen(int(shard), pid)
			}
		}
		mgr = recluster.New(d, reg, rcfg)
		var rctx context.Context
		rctx, mgrCancel = context.WithCancel(context.Background())
		go mgr.Run(rctx)
		fmt.Printf("cinderellad: reclusterer on (interval %v)\n", mgr.Status().Interval)
	}

	// The binary listener takes every write; bind it first so health
	// can report its address.
	bln, err := net.Listen("tcp", *binAddr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cinderellad: listen %s: %v\n", *binAddr, err)
		os.Exit(1)
	}
	binBound := bln.Addr().String()
	srv := server.New(d, binBound, server.Config{
		MaxInflight:    *inflight,
		RequestTimeout: *reqTimeout,
		CommitDelay:    *commitDelay,
		CommitMaxOps:   *commitMax,
		Obs:            reg,
	})

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cinderellad: listen %s: %v\n", *addr, err)
		os.Exit(1)
	}
	bound := ln.Addr().String()
	fmt.Printf("cinderellad: serving on %s\n", bound)
	if *addrFile != "" {
		if err := os.WriteFile(*addrFile, []byte(bound+"\n"), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "cinderellad: writing -addr-file: %v\n", err)
			os.Exit(1)
		}
	}

	hs := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	// Binary wire protocol: same store, and the server's group committer,
	// so writes across connections (and compactions) share fsyncs.
	wsrv := wire.New(d, srv.Committer(), wire.Config{Obs: reg})
	fmt.Printf("cinderellad: binary protocol on %s\n", binBound)
	if *binAddrFile != "" {
		if err := os.WriteFile(*binAddrFile, []byte(binBound+"\n"), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "cinderellad: writing -bin-addr-file: %v\n", err)
			os.Exit(1)
		}
	}
	go func() {
		if err := wsrv.Serve(bln); err != nil {
			serveErr <- err
		}
	}()

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)

	select {
	case sig := <-sigc:
		fmt.Printf("cinderellad: %v — draining (in-flight finish, new writes are refused)\n", sig)
	case err := <-serveErr:
		fmt.Fprintf(os.Stderr, "cinderellad: serve: %v\n", err)
		os.Exit(1)
	}

	// Drain: reject new work first so Shutdown only waits on requests
	// already admitted. A second signal cuts the wait short. The
	// reclusterer pauses before the store winds down — a migration
	// started after the final checkpoint would be lost work.
	if mgr != nil {
		mgr.Pause()
		mgrCancel()
		mgr.Close()
	}
	if tmgr != nil {
		tmgr.Pause()
		tmgrCancel()
		tmgr.Close()
	}
	srv.BeginDrain()
	wsrv.BeginDrain() // binary writes now get StatusRetry; reads keep working
	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	go func() {
		<-sigc
		cancel()
	}()
	if err := hs.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "cinderellad: shutdown: %v\n", err)
	}
	// The committer is still running, so in-flight binary batches get
	// their durability acks before the connections close.
	if err := wsrv.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "cinderellad: wire shutdown: %v\n", err)
	}
	cancel()

	if err := srv.Finish(*checkpointOnExit); err != nil {
		fmt.Fprintf(os.Stderr, "cinderellad: finish: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("cinderellad: drained, %d docs durable, bye\n", d.Len())
}
