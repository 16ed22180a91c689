#!/usr/bin/env sh
# Tier-1 verification: build, vet, the deleted-stays-deleted gate, the
# full suite under the race detector (concurrency suites twice), the
# end-to-end benchmark's own smoke test against the real daemon, and one
# HTTP drill of cinderellad. No step measures anything: numbers come from
# bash bench/run.sh only. Run from the repo root (make verify does).
set -eu

echo "== gofmt -l, go build ./... && go vet ./..."
UNFORMATTED=$(gofmt -l $(git ls-files -co --exclude-standard '*.go'))
if [ -n "$UNFORMATTED" ]; then
	echo "verify: not gofmt-formatted:"; echo "$UNFORMATTED"; exit 1
fi
go build ./...
go vet ./...

# Deleted things stay deleted: the read-mode toggles and the per-record
# synopsis sidecar (one read path), the per-op-sync and run-time
# parallelism toggles and the private bench harnesses' flags and baseline
# files (one benchmark harness), the value zone maps with their
# generation retry (value predicates filter the one synopsis-pruned
# scan), the shard <-> wire attribute id remap (shards share one
# dictionary), the single-table stand-ins for the daemon's store with
# their "-1 = unsharded" rows (the daemon serves shard.Sharded for every
# N), the table's second and third copies of attribute membership (the
# presence matrix is the one owner), the catalog index with its
# switch (findBest has one path), the HTTP write path — its routes,
# handlers, bulk client types, write admission queue and flags (writes go
# over the binary protocol only) — and the hand-enumerated metrics: the
# per-metric Observe*/gauge methods, status hooks, HELP array, shard
# snapshot structs, ring copies and second EFFICIENCY sums (a metric is
# one row in internal/obs's counter, gauge or histogram table; one ring
# type). The patterns live on the next seven lines only.
GONE='SetLockedReads|SetBitmapScans|\[\]\[\]\*synopsis\.Set|PerOpSync|SetParallelism|allow-serial|sweep-clients' BASELINES='BENCH_*.json'
GONE="$GONE|zoneGen|zoneWiden|zoneAbsorb|zoneTrim|RebuildZoneMaps|PruneZoneMiss|ResetPrunes|zmu"
GONE="$GONE|remapMu|toShard|toWire|wireDict|setRemap|MarshalRemap|\.Remap\("
GONE="$GONE|tier\.Single|SingleTable|ShardOf|Shard: -1"
GONE="$GONE|attrRefs|attrSyn|entityAtt|refAdd|refRemove|UseCatalogIndex|attrIndex|idxSyn|postingsInsert|visitEpoch"
GONE="$GONE|handleInsert|handleBulk|handleUpdate|handleDelete|BulkOp|BulkResult|MaxReadInflight|MaxQueue|AddServerQueued|read-inflight|/v1/insert|/v1/bulk|/v1/update|/v1/delete"
GONE="$GONE|ObserveInsertNs|ObserveWALAppendNs|ObserveWALSyncNs|ObserveServerNs|ObserveBatchSize|ObserveWireBatch|AddWireConns|AddServerInflight|SetSnapshotEpoch|SetReclusterStatus|SetTierStatus|DisableHeat|counterHelp|spanRing|qmixRing|effRelevant|ShardSnapshot"
echo "== deleted-stays-deleted gate"
if grep -rnE "$GONE" --include='*.go' --exclude-dir=bench --exclude-dir=.bench_build . | grep -v '_test\.go:'; then
	echo "verify: a deleted toggle, sidecar field, private bench flag, zone map, id remap, store stand-in, membership copy, catalog index, HTTP write path or hand-enumerated metric (one method, field or ring per metric instead of a row in internal/obs's tables) is back"; exit 1
fi
# One store behind the daemon: the daemon and its layers never open a
# single-file table themselves; only internal/shard does, once per shard.
if grep -rn 'cinderella\.OpenFile' --include='*.go' cmd internal/server internal/wire internal/recluster internal/tier | grep -v '_test\.go:'; then
	echo "verify: the daemon or a daemon layer opens a single-file table; it serves shard.Sharded only"; exit 1
fi
if ls $BASELINES >/dev/null 2>&1; then
	echo "verify: a private baseline file is back at the root; bench/ is the only place a number comes from"; exit 1
fi

echo "== go test -race ./... (and the allocation and heap guards, which -race skips)"
go test -race ./...
go test -run 'TestBitmapScanSteadyStateZeroAlloc|TestInsertAllocBudget|TestTableHeapPerDoc' ./internal/table

# The suites whose subject is an interleaving — telemetry vs. writers,
# group commit and drain, sharded writers vs. fan-out readers, the wire
# server, lock-free snapshot reads, the reclusterer and the tier manager
# against live traffic — run twice more so the detector sees other
# schedules than the full pass happened to produce.
echo "== go test -race -count=2 concurrency suites"
go test -race -count=2 \
	-run 'TestStreamingEfficiency|TestTrace|TestServer|TestCommitter|TestDurable|TestSharded|TestBinary|TestSnapshot|TestQueriesMatchOracle|TestBitmap|TestRecluster|TestHeat|TestPauseResume|TestTierTransitions|TestMutationsThaw' \
	. ./client ./internal/obs ./internal/recluster ./internal/server ./internal/shard ./internal/storage ./internal/table ./internal/wire

# The benchmark's smoke test drives the real cinderellad binary with
# shards, reclusterer, tier manager and the binary protocol on, kills it
# (SIGKILL and SIGTERM), reopens it and checks every answer against a
# model — the sharded, binary, recluster and tier daemon drills in one.
# -count=1: the test cache cannot see the daemon source the test builds.
echo "== go test -C bench ./..."
go test -C bench -count=1 ./...

# What that does not touch is the HTTP/JSON surface: the load CLI (its
# writes go over the binary protocol at the address /v1/health reports),
# the /debug endpoints, inline traces, reads served across a drain, and
# the absence of HTTP writes. The daemon runs with the flags bench/
# measures (two shards, reclusterer, tier manager), on the first start
# and on every reopen.
echo "== cinderellad HTTP drill"
SMOKE=$(mktemp -d)
DPID=
trap 'kill "$DPID" 2>/dev/null || true; rm -rf "$SMOKE"' EXIT
die() { echo "verify: $*"; cat "$SMOKE/daemon.log"; exit 1; }
get() { curl -sf "http://$ADDR$1"; }

# start_daemon FLAGS…: start cinderellad with the benchmarked flags plus
# FLAGS on ephemeral ports and wait until it has bound; sets DPID and
# ADDR.
start_daemon() {
	rm -f "$SMOKE/addr"
	"$SMOKE/cinderellad" -addr 127.0.0.1:0 -addr-file "$SMOKE/addr" -bin-addr 127.0.0.1:0 -wal "$SMOKE/smoke.d" \
		-shards 2 -recluster -tier "$@" \
		>>"$SMOKE/daemon.log" 2>&1 &
	DPID=$!
	for _ in $(seq 1 50); do
		[ -s "$SMOKE/addr" ] && break
		sleep 0.1
	done
	[ -s "$SMOKE/addr" ] || die "daemon never bound"
	ADDR=$(cat "$SMOKE/addr")
}

# stop_and_recount WANT: SIGTERM the daemon, require a clean drained exit
# (and let the other background jobs end), reopen, require WANT documents.
stop_and_recount() {
	kill -TERM "$DPID"
	wait "$DPID" || die "daemon exited non-zero"
	wait
	start_daemon
	DOCS=$(get /v1/health | sed 's/.*"docs":\([0-9]*\).*/\1/')
	kill -TERM "$DPID"
	wait "$DPID" || die "reopened daemon exited non-zero"
	[ "$DOCS" = "$1" ] || die "reopened daemon has $DOCS docs, want $1"
}

go build -race -o "$SMOKE/cinderellad" ./cmd/cinderellad
go build -o "$SMOKE/cinderella-load" ./cmd/cinderella-load
start_daemon -slow-query 1us -trace-sample 8
"$SMOKE/cinderella-load" -target "http://$ADDR" -entities 500 -clients 8 -readers 4 -trace \
	|| die "load against daemon failed"
# After the load the heat map has rows, the slow log (armed at 1µs, so
# every query qualifies) retained spans, and ?trace=1 returns a span tree.
get /debug/heat | grep -q '"enabled": true' || die "/debug/heat not enabled"
get /debug/heat | grep -q '"records_read"' || die "/debug/heat has no rows after reads"
get /debug/slow | grep -q '"trace_id"' || die "/debug/slow retained no spans at a 1us threshold"
get '/v1/query-report?attrs=universal_00&trace=1' | grep -q '"trace"' || die "?trace=1 returned no inline span"
get /metrics | grep -q '^cinderella_slow_queries_total [1-9]' || die "slow-query counter never moved"
# Writes go over the binary protocol only.
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST -d '{"doc":{"a":1}}' "http://$ADDR/v1/insert") || code=000
case "$code" in 2*) die "POST /v1/insert answered $code: the HTTP write path is back" ;; esac
# A query loop runs across the drain. Reads must stay served until the
# listener closes — the loop ends on connection failure (code 000); a
# 503 on a read route means the drain rejected a reader.
QLOG="$SMOKE/qdrain.log"
( while :; do
	code=$(curl -s -o /dev/null -w '%{http_code}' "http://$ADDR/v1/query?attrs=universal_00") || code=000
	echo "$code" >>"$QLOG"
	[ "$code" = "000" ] && exit 0
done ) &
sleep 0.2
stop_and_recount 500
if grep -q '^503$' "$QLOG"; then
	sort "$QLOG" | uniq -c; die "reads rejected during drain"
fi
grep -q '^200$' "$QLOG" || die "no successful read around drain"
echo "HTTP drill: 500 docs drained, replayed and recounted; $(grep -c '^200$' "$QLOG") mid-drain reads served, none rejected"

echo "== non-test Go lines (ROADMAP aim 2)"
./scripts/loc.sh

echo "verify: OK"
