# Tier-1 verification and hot-path bench harness.

GO ?= go
OBS_PORT ?= 8080
ADDR ?= 127.0.0.1:8263
WAL ?= /tmp/cinderella.wal

.PHONY: verify build vet test race bench-hotpath bench-obs bench-server bench-shard bench-wire bench-trace bench-recluster bench-tier run-server obs-demo loc

# verify is the tier-1 gate: build everything, vet, full test suite under
# the race detector.
verify:
	./scripts/verify.sh

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# loc prints the non-test, non-bench/ Go line count per top-level package
# and in total — the "net non-test LoC per PR" figure ROADMAP aim 2 tracks.
loc:
	./scripts/loc.sh

# bench-hotpath regenerates the hot-path baseline the repo tracks in
# BENCH_hotpath.json (see cmd/cinderella-bench -exp hotpath).
bench-hotpath:
	$(GO) run ./cmd/cinderella-bench -exp hotpath -entities 50000 -json BENCH_hotpath.json

# bench-obs measures the telemetry layer's overhead (instrumented vs.
# uninstrumented load + query replay) and regenerates BENCH_obs.json.
bench-obs:
	$(GO) run ./cmd/cinderella-bench -exp obs -entities 50000 -json BENCH_obs.json

# bench-server measures the group-commit win of the service layer —
# durable-insert throughput of 64 concurrent clients with per-op fsync
# vs. the batching committer — and regenerates BENCH_server.json (see
# cmd/cinderella-bench -exp server). The tracked result must show
# group_speedup >= 3.
bench-server:
	$(GO) run ./cmd/cinderella-bench -exp server -json BENCH_server.json

# bench-shard measures write-path scaling across 1/2/4/8 hash-routed
# shards (aggregate insert throughput, EFFICIENCY under fan-out, and the
# drain-loses-nothing recount) and regenerates BENCH_shard.json (see
# cmd/cinderella-bench -exp shard). The tracked result must show
# speedup_8x >= 3 with efficiency_delta_8x_vs_1 <= 0.10.
bench-shard:
	$(GO) run ./cmd/cinderella-bench -exp shard -entities 200000 -json BENCH_shard.json

# bench-wire exercises the binary wire protocol: the steady-state
# zero-allocation decode microbenchmark, then the end-to-end server
# comparison (which re-records BENCH_server.json, now including the
# binary batched-write numbers). The tracked result must show
# wire_vs_http_group >= 3 at 64 clients.
bench-wire:
	$(GO) test -run - -bench BenchmarkWireDecode -benchmem ./internal/wire
	$(GO) run ./cmd/cinderella-bench -exp server -json BENCH_server.json

# bench-trace measures the query-tracing subsystem's overhead — 1-in-64
# span sampling plus the always-on partition heat map, against a
# trace-disabled registry — and regenerates BENCH_trace.json (see
# cmd/cinderella-bench -exp trace). The tracked result must show
# within_budget=true (<= 5% query-path overhead, with 50 µs/query of
# absolute headroom against timer noise).
bench-trace:
	$(GO) run ./cmd/cinderella-bench -exp trace -entities 50000 -json BENCH_trace.json

# bench-recluster measures the background reclusterer: EFFICIENCY
# recovery after an adversarial workload shift (adapted → frozen →
# reclustered), writer p99 with the governed reclusterer running vs.
# idle, and the reopen integrity recount — and regenerates
# BENCH_recluster.json (see cmd/cinderella-bench -exp recluster). The
# tracked result must show recovered_ok=true (>= 50% of the lost
# EFFICIENCY recovered) with writer_p99_within_budget=true.
bench-recluster:
	$(GO) run ./cmd/cinderella-bench -exp recluster -entities 20000 -json BENCH_recluster.json

# bench-tier measures heat-driven tiered storage under a Zipf-skewed
# read mix: the tiering manager must get the resident footprint under
# half the working set, the frozen partitions must compress below 0.6,
# hot-set p99 must stay within 10% of the untiered baseline, queries
# pruning the cold tier must charge zero cold bytes, and a reopen must
# recount exactly with the frozen set restored — and regenerates
# BENCH_tier.json (see cmd/cinderella-bench -exp tier).
bench-tier:
	$(GO) run ./cmd/cinderella-bench -exp tier -entities 20000 -json BENCH_tier.json

# run-server starts cinderellad in the foreground on $(ADDR) with the
# WAL at $(WAL). Drive it with `cinderella-load -target http://$(ADDR)`
# or the client package; SIGTERM (ctrl-C) drains gracefully.
run-server:
	$(GO) run ./cmd/cinderellad -addr $(ADDR) -wal $(WAL)

# obs-demo loads synthetic data with the ops endpoint live, curls
# /metrics, and exits — the README "Operations" walkthrough.
obs-demo:
	$(GO) build -o /tmp/cinderella-load ./cmd/cinderella-load
	/tmp/cinderella-load -entities 20000 -obs :$(OBS_PORT) -hold & \
	pid=$$!; \
	sleep 8; \
	curl -s localhost:$(OBS_PORT)/metrics | head -40; \
	kill $$pid
