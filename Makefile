# Tier-1 verification, the benchmark, and the demo targets.

GO ?= go
OBS_PORT ?= 8080
ADDR ?= 127.0.0.1:8263
WAL ?= /tmp/cinderella-data

.PHONY: verify build vet test race bench run-server obs-demo loc

# verify is the tier-1 gate: build, vet, the deleted-stays-deleted grep
# gate, the full suite under the race detector, bench/'s smoke test and
# one HTTP drill of the daemon (scripts/verify.sh).
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

# bench runs the one benchmark: the real cinderellad under the four
# workloads of BENCHMARK.json, untraced then traced (see bench/README.md).
# Every performance number the docs quote is a metric it reports.
bench:
	bash bench/run.sh

# run-server starts cinderellad in the foreground: HTTP (reads, admin,
# health) on $(ADDR), the binary write protocol on its default :8264, and
# its data directory at $(WAL). Drive it with `cinderella-load -target
# http://$(ADDR)` or the client package; SIGTERM (ctrl-C) drains gracefully.
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
