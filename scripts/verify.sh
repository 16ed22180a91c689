#!/usr/bin/env sh
# Tier-1 verification: build, vet, and the full test suite under the race
# detector. Run from the repo root (make verify does).
set -eu

echo "== go build ./..."
go build ./...

echo "== go vet ./..."
go vet ./...

# One-read-path gate: the read-mode toggles and the per-record synopsis
# sidecar were deleted in favour of snapshot + bitmap kernel only; none
# of them may reappear in non-test Go.
echo "== one-read-path gate"
if grep -rnE 'SetLockedReads|SetBitmapScans|\[\]\[\]\*synopsis\.Set' --include='*.go' . | grep -v '_test\.go:'; then
	echo "verify: a deleted read-path toggle or sidecar field is back"; exit 1
fi

echo "== go test -race ./..."
go test -race ./...

# Telemetry regressions get a dedicated pass: the efficiency-exactness
# property test, the SetParallelism race test, the event-trace lifecycle,
# and the query-tracing suite — sampling cadence, slow-ring bounds, the
# fan-out span merge, and the writers-vs-traced-readers heat-equals-spans
# property on Table and Sharded — must hold under the race detector with
# more aggressive interleaving.
echo "== go test -race -count=2 telemetry suite"
go test -race -count=2 -run 'TestStreamingEfficiency|TestSetParallelismRace|TestTrace' \
	./internal/table ./internal/obs ./internal/shard

# Trace overhead gate: 1-in-64 span sampling with the always-on heat map
# must stay within the <= 5% query-path budget (BENCH_trace.json tracks
# the full-scale run; this re-measures at smoke scale).
echo "== trace overhead gate"
TRACE_JSON=$(mktemp)
go run ./cmd/cinderella-bench -exp trace -entities 20000 -json "$TRACE_JSON"
grep -q '"within_budget": true' "$TRACE_JSON" \
	|| { echo "verify: trace overhead exceeds budget"; cat "$TRACE_JSON"; exit 1; }
rm -f "$TRACE_JSON"

# Service-layer pass: the drain-loses-nothing and crash-recovery tests
# are the durability contract of cinderellad; they and the committer
# tests must hold under the race detector.
echo "== go test -race service layer"
go test -race -run 'TestServer|TestCommitter|TestDurableClose|TestDurableLSN' \
	./internal/server ./client .

# Sharded pass: concurrent writers with fan-out readers, striped-WAL
# crash recovery, and the N=1 placement-identity property must hold
# under the race detector.
echo "== go test -race sharded suite"
go test -race -run 'TestSharded' ./internal/shard

# Wire-protocol pass: the binary codec and server (frame parsing, batch
# partial failure, drain semantics, restart durability), the binary
# client's retry contract (retry only provably-unapplied ops), and the
# steady-state zero-allocation decode guard must hold under the race
# detector.
echo "== go test -race wire protocol suite"
go test -race \
	-run 'TestBinary|TestFrame|TestReadFrame|TestAttrs|TestDictDelta|TestHello|TestDecodeSteadyStateZeroAlloc|TestServer' \
	./internal/wire ./client

# Read-path pass: the one read path's contract — results, QueryReport,
# Stats deltas and decode set equal to the brute-force oracle across
# both tiers, the presence matrix tracking a test-owned model through
# insert/delete/vacuum/freeze/thaw with views readable mid-mutation,
# continuous writers vs. lock-free ScanAll/Select/SelectWhere readers on
# Table and Sharded, the zero-allocation scan guarantee, a decoded cold
# image refusing to be scanned, and reads served mid-drain — must hold
# under the race detector, twice.
echo "== go test -race read path suite"
go test -race -count=2 \
	-run 'TestSnapshot|TestQueriesMatchOracle|TestBitmap|TestScanDecodedColdImageFails|TestShardedConcurrentWritersScanAll|TestServerReadsServedDuringDrain' \
	./internal/table ./internal/storage ./internal/shard ./internal/server

# Recluster pass: the background reclusterer's integrity contract — no
# entity lost or duplicated under concurrent writers/readers (including
# a full reopen recount), reads exact against the oracle mid-migration,
# shard-stamped progress, heat decay, and the manager unit suite — must
# hold under the race detector.
echo "== go test -race recluster suite"
go test -race -run 'TestRecluster|TestHeat|TestVictimSelection|TestGovernorThrottles|TestPauseResume|TestOutcomeSettlement|TestWorkloadBlender|TestDebugReclusterEndpoint' \
	./internal/recluster ./internal/obs ./internal/shard ./internal/table .

# Tier pass: the tiered-storage integrity contract — freeze/thaw
# round trips that preserve record ids, frozen partitions pruned with
# zero cold bytes, mutations thawing transparently, tier transitions
# under concurrent lock-free readers, cold-image corruption refusal,
# and the durable freeze→kill→reopen recovery suite — must hold under
# the race detector. The manager unit suite rides along.
echo "== go test -race tier suite"
go test -race -run 'TestCold|TestFreeze|TestFrozen|TestMutationsThaw|TestVacuumSkipsFrozen|TestTierTransitions|TestDurableTier|TestIdlePartitions|TestResidentBudget|TestMaxFreezes|TestStatusAggregates|TestSingleAdapter' \
	./internal/tier ./internal/table ./internal/storage .

# Tier bench gate: under a Zipf-skewed read mix the tiering manager
# must get the resident footprint under half the working set, the
# frozen partitions must compress below 0.6 raw, hot-set queries must
# prune the cold tier without charging a single cold byte, and the
# reopen must recount exactly with both tiers populated
# (BENCH_tier.json tracks the full-scale run, including the hot-p99
# budget; this re-measures the deterministic gates at smoke scale).
echo "== tier budget gate"
TIER_JSON=$(mktemp)
go run ./cmd/cinderella-bench -exp tier -entities 8000 -json "$TIER_JSON"
grep -q '"within_budget": true' "$TIER_JSON" \
	|| { echo "verify: tiering missed the resident-byte budget"; cat "$TIER_JSON"; exit 1; }
grep -q '"compress_ok": true' "$TIER_JSON" \
	|| { echo "verify: cold tier compression ratio >= 0.6"; cat "$TIER_JSON"; exit 1; }
grep -q '"prune_zero_cold_ok": true' "$TIER_JSON" \
	|| { echo "verify: pruned query charged cold bytes"; cat "$TIER_JSON"; exit 1; }
grep -q '"cold_probe_charged_ok": true' "$TIER_JSON" \
	|| { echo "verify: cold scan charged no cold bytes"; cat "$TIER_JSON"; exit 1; }
grep -q '"reopen_count_ok": true' "$TIER_JSON" \
	|| { echo "verify: tier bench lost entities on reopen"; cat "$TIER_JSON"; exit 1; }
grep -q '"reopen_both_tiers": true' "$TIER_JSON" \
	|| { echo "verify: frozen set not restored on reopen"; cat "$TIER_JSON"; exit 1; }
rm -f "$TIER_JSON"

# Recluster bench gate: after an adversarial workload shift the
# reclusterer must recover at least half of the lost EFFICIENCY while
# keeping writer p99 within budget (BENCH_recluster.json tracks the
# full-scale run; this re-measures at smoke scale).
echo "== recluster recovery gate"
RECL_JSON=$(mktemp)
go run ./cmd/cinderella-bench -exp recluster -entities 2000 -json "$RECL_JSON"
grep -q '"recovered_ok": true' "$RECL_JSON" \
	|| { echo "verify: recluster recovered < 50% of lost efficiency"; cat "$RECL_JSON"; exit 1; }
grep -q '"reopen_count_ok": true' "$RECL_JSON" \
	|| { echo "verify: recluster bench lost entities on reopen"; cat "$RECL_JSON"; exit 1; }
grep -q '"reopen_no_dups_ok": true' "$RECL_JSON" \
	|| { echo "verify: recluster bench duplicated entities on reopen"; cat "$RECL_JSON"; exit 1; }
rm -f "$RECL_JSON"

# End-to-end daemon smoke: build cinderellad, start it on an ephemeral
# port, drive inserts and a query through the HTTP client, SIGTERM it,
# and require a clean drained exit plus an intact WAL on reopen.
echo "== cinderellad e2e smoke"
SMOKE=$(mktemp -d)
trap 'rm -rf "$SMOKE"' EXIT
go build -race -o "$SMOKE/cinderellad" ./cmd/cinderellad
go build -o "$SMOKE/cinderella-load" ./cmd/cinderella-load
"$SMOKE/cinderellad" -addr 127.0.0.1:0 -wal "$SMOKE/smoke.wal" \
	-slow-query 1us -trace-sample 8 \
	-addr-file "$SMOKE/addr" >"$SMOKE/daemon.log" 2>&1 &
DPID=$!
for i in $(seq 1 50); do
	[ -s "$SMOKE/addr" ] && break
	sleep 0.1
done
[ -s "$SMOKE/addr" ] || { echo "verify: daemon never bound"; cat "$SMOKE/daemon.log"; exit 1; }
ADDR=$(cat "$SMOKE/addr")
"$SMOKE/cinderella-load" -target "http://$ADDR" -entities 500 -clients 8 -readers 4 \
	|| { echo "verify: load against daemon failed"; cat "$SMOKE/daemon.log"; exit 1; }
# The observability surface must be live after the load: the heat map
# has rows, the slow log (armed at 1µs, so every query qualifies)
# retained spans, and ?trace=1 returns an inline span tree.
curl -sf "http://$ADDR/debug/heat" | grep -q '"enabled": true' \
	|| { echo "verify: /debug/heat not enabled"; exit 1; }
curl -sf "http://$ADDR/debug/heat" | grep -q '"records_read"' \
	|| { echo "verify: /debug/heat has no rows after reads"; exit 1; }
curl -sf "http://$ADDR/debug/slow" | grep -q '"trace_id"' \
	|| { echo "verify: /debug/slow retained no spans at a 1us threshold"; exit 1; }
curl -sf "http://$ADDR/v1/query-report?attrs=universal_00&trace=1" | grep -q '"trace"' \
	|| { echo "verify: ?trace=1 returned no inline span"; exit 1; }
curl -sf "http://$ADDR/metrics" | grep -q '^cinderella_slow_queries_total [1-9]' \
	|| { echo "verify: slow-query counter never moved"; exit 1; }
# Mid-drain read smoke: a background query loop runs across the SIGTERM
# drain. Reads must stay served until the listener closes — the loop
# exits on connection failure (curl code 000); any 503 on a read route
# means drain rejected a reader, a regression in the read/write split.
QLOG="$SMOKE/qdrain.log"
: >"$QLOG"
( while :; do
	code=$(curl -s -o /dev/null -w '%{http_code}' "http://$ADDR/v1/query?attrs=universal_00") || code=000
	echo "$code" >>"$QLOG"
	[ "$code" = "000" ] && exit 0
done ) &
QPID=$!
sleep 0.2
kill -TERM "$DPID"
wait "$DPID" || { echo "verify: daemon exited non-zero"; cat "$SMOKE/daemon.log"; exit 1; }
wait "$QPID" 2>/dev/null || true
if grep -q '^503$' "$QLOG"; then
	echo "verify: reads rejected during drain"; sort "$QLOG" | uniq -c; exit 1
fi
grep -q '^200$' "$QLOG" || { echo "verify: no successful read around drain"; cat "$QLOG"; exit 1; }
echo "mid-drain reads: $(grep -c '^200$' "$QLOG") served, none rejected"
# Reopen the drained WAL: all 500 acked docs must replay.
"$SMOKE/cinderellad" -addr 127.0.0.1:0 -wal "$SMOKE/smoke.wal" \
	-addr-file "$SMOKE/addr2" >"$SMOKE/daemon2.log" 2>&1 &
DPID=$!
for i in $(seq 1 50); do
	[ -s "$SMOKE/addr2" ] && break
	sleep 0.1
done
DOCS=$(curl -sf "http://$(cat "$SMOKE/addr2")/v1/health" | sed 's/.*"docs":\([0-9]*\).*/\1/')
kill -TERM "$DPID"
wait "$DPID" || true
[ "$DOCS" = "500" ] || { echo "verify: reopened daemon has $DOCS docs, want 500"; exit 1; }
echo "e2e smoke: 500 docs drained, replayed, and recounted"

# Sharded daemon smoke: same drill with -shards 4 (-wal is a directory
# of striped WALs). The wire format is unchanged — the same loader and
# health probe must work — and the drained recount spans all shards.
echo "== cinderellad -shards 4 e2e smoke"
"$SMOKE/cinderellad" -addr 127.0.0.1:0 -wal "$SMOKE/sharded" -shards 4 \
	-addr-file "$SMOKE/addr3" >"$SMOKE/daemon3.log" 2>&1 &
DPID=$!
for i in $(seq 1 50); do
	[ -s "$SMOKE/addr3" ] && break
	sleep 0.1
done
[ -s "$SMOKE/addr3" ] || { echo "verify: sharded daemon never bound"; cat "$SMOKE/daemon3.log"; exit 1; }
ADDR=$(cat "$SMOKE/addr3")
"$SMOKE/cinderella-load" -target "http://$ADDR" -entities 500 -clients 8 \
	|| { echo "verify: load against sharded daemon failed"; cat "$SMOKE/daemon3.log"; exit 1; }
kill -TERM "$DPID"
wait "$DPID" || { echo "verify: sharded daemon exited non-zero"; cat "$SMOKE/daemon3.log"; exit 1; }
[ -f "$SMOKE/sharded/manifest.json" ] || { echo "verify: no shard manifest written"; exit 1; }
"$SMOKE/cinderellad" -addr 127.0.0.1:0 -wal "$SMOKE/sharded" -shards 4 \
	-addr-file "$SMOKE/addr4" >"$SMOKE/daemon4.log" 2>&1 &
DPID=$!
for i in $(seq 1 50); do
	[ -s "$SMOKE/addr4" ] && break
	sleep 0.1
done
DOCS=$(curl -sf "http://$(cat "$SMOKE/addr4")/v1/health" | sed 's/.*"docs":\([0-9]*\).*/\1/')
kill -TERM "$DPID"
wait "$DPID" || true
[ "$DOCS" = "500" ] || { echo "verify: reopened sharded daemon has $DOCS docs, want 500"; exit 1; }
echo "sharded e2e smoke: 500 docs drained, replayed across 4 shards, and recounted"

# Binary wire smoke: the same drill over the binary protocol. Start the
# daemon with both listeners, drive batched inserts through the binary
# port, SIGTERM it, and require a clean drained exit with every acked
# write surviving the reopen — zero acked-write loss over the wire path.
echo "== cinderellad binary wire e2e smoke"
"$SMOKE/cinderellad" -addr 127.0.0.1:0 -bin-addr 127.0.0.1:0 -wal "$SMOKE/wire.wal" \
	-addr-file "$SMOKE/addr5" -bin-addr-file "$SMOKE/baddr" >"$SMOKE/daemon5.log" 2>&1 &
DPID=$!
for i in $(seq 1 50); do
	[ -s "$SMOKE/baddr" ] && break
	sleep 0.1
done
[ -s "$SMOKE/baddr" ] || { echo "verify: binary port never bound"; cat "$SMOKE/daemon5.log"; exit 1; }
BADDR=$(cat "$SMOKE/baddr")
"$SMOKE/cinderella-load" -proto binary -target "$BADDR" -entities 500 -clients 8 -batch 32 \
	>"$SMOKE/wireload.log" 2>&1 \
	|| { echo "verify: binary load failed"; cat "$SMOKE/wireload.log" "$SMOKE/daemon5.log"; exit 1; }
cat "$SMOKE/wireload.log"
if grep -q 'ops failed' "$SMOKE/wireload.log"; then
	echo "verify: binary load had failed ops"; cat "$SMOKE/daemon5.log"; exit 1
fi
kill -TERM "$DPID"
wait "$DPID" || { echo "verify: binary daemon exited non-zero"; cat "$SMOKE/daemon5.log"; exit 1; }
"$SMOKE/cinderellad" -addr 127.0.0.1:0 -wal "$SMOKE/wire.wal" \
	-addr-file "$SMOKE/addr6" >"$SMOKE/daemon6.log" 2>&1 &
DPID=$!
for i in $(seq 1 50); do
	[ -s "$SMOKE/addr6" ] && break
	sleep 0.1
done
DOCS=$(curl -sf "http://$(cat "$SMOKE/addr6")/v1/health" | sed 's/.*"docs":\([0-9]*\).*/\1/')
kill -TERM "$DPID"
wait "$DPID" || true
[ "$DOCS" = "500" ] || { echo "verify: reopened wire daemon has $DOCS docs, want 500"; exit 1; }
echo "binary wire smoke: 500 docs acked over the wire, drained, and recounted"

# Recluster daemon smoke: start cinderellad with the background
# reclusterer ticking fast, drive a load whose reader mix flips halfway
# through (-shift-at), and require the /debug/recluster surface and the
# recluster metric families to be live before a clean drained exit with
# a full recount.
echo "== cinderellad -recluster e2e smoke"
"$SMOKE/cinderellad" -addr 127.0.0.1:0 -wal "$SMOKE/recl.wal" \
	-recluster -recluster-interval 100ms -recluster-batch 64 \
	-addr-file "$SMOKE/addr7" >"$SMOKE/daemon7.log" 2>&1 &
DPID=$!
for i in $(seq 1 50); do
	[ -s "$SMOKE/addr7" ] && break
	sleep 0.1
done
[ -s "$SMOKE/addr7" ] || { echo "verify: recluster daemon never bound"; cat "$SMOKE/daemon7.log"; exit 1; }
ADDR=$(cat "$SMOKE/addr7")
"$SMOKE/cinderella-load" -target "http://$ADDR" -entities 500 -clients 8 \
	-readers 4 -shift-at 250 \
	|| { echo "verify: shifted load against recluster daemon failed"; cat "$SMOKE/daemon7.log"; exit 1; }
sleep 0.3
curl -sf "http://$ADDR/debug/recluster" | grep -q '"enabled": true' \
	|| { echo "verify: /debug/recluster not enabled"; exit 1; }
curl -sf "http://$ADDR/debug/recluster" | grep -q '"rounds": [1-9]' \
	|| { echo "verify: reclusterer never completed a round"; curl -s "http://$ADDR/debug/recluster"; exit 1; }
curl -sf "http://$ADDR/metrics" | grep -q '^cinderella_recluster_rounds_total [1-9]' \
	|| { echo "verify: recluster round counter never moved"; exit 1; }
kill -TERM "$DPID"
wait "$DPID" || { echo "verify: recluster daemon exited non-zero"; cat "$SMOKE/daemon7.log"; exit 1; }
"$SMOKE/cinderellad" -addr 127.0.0.1:0 -wal "$SMOKE/recl.wal" \
	-addr-file "$SMOKE/addr8" >"$SMOKE/daemon8.log" 2>&1 &
DPID=$!
for i in $(seq 1 50); do
	[ -s "$SMOKE/addr8" ] && break
	sleep 0.1
done
DOCS=$(curl -sf "http://$(cat "$SMOKE/addr8")/v1/health" | sed 's/.*"docs":\([0-9]*\).*/\1/')
kill -TERM "$DPID"
wait "$DPID" || true
[ "$DOCS" = "500" ] || { echo "verify: reopened recluster daemon has $DOCS docs, want 500"; exit 1; }
echo "recluster smoke: shifted load reclustered, drained, and recounted"

# Tier daemon smoke: start cinderellad with the tiering manager ticking
# fast and no resident budget (every idle partition freezes), load data,
# let the heat go quiet, and require /debug/tier to show frozen
# partitions and the freeze metric to move before a clean drained exit
# with a full recount — frozen partitions must survive the restart.
echo "== cinderellad -tier e2e smoke"
"$SMOKE/cinderellad" -addr 127.0.0.1:0 -wal "$SMOKE/tier.wal" \
	-tier -tier-interval 100ms -tier-idle-ticks 1 -tier-max-freezes 64 \
	-addr-file "$SMOKE/addr9" >"$SMOKE/daemon9.log" 2>&1 &
DPID=$!
for i in $(seq 1 50); do
	[ -s "$SMOKE/addr9" ] && break
	sleep 0.1
done
[ -s "$SMOKE/addr9" ] || { echo "verify: tier daemon never bound"; cat "$SMOKE/daemon9.log"; exit 1; }
ADDR=$(cat "$SMOKE/addr9")
"$SMOKE/cinderella-load" -target "http://$ADDR" -entities 500 -clients 8 \
	|| { echo "verify: load against tier daemon failed"; cat "$SMOKE/daemon9.log"; exit 1; }
# Several idle intervals pass; the manager must have frozen the
# now-quiet partitions.
sleep 1
curl -sf "http://$ADDR/debug/tier" | grep -q '"enabled": true' \
	|| { echo "verify: /debug/tier not enabled"; exit 1; }
curl -sf "http://$ADDR/debug/tier" | grep -q '"frozen_partitions": [1-9]' \
	|| { echo "verify: tiering froze nothing"; curl -s "http://$ADDR/debug/tier"; exit 1; }
curl -sf "http://$ADDR/metrics" | grep -q '^cinderella_tier_freezes_total [1-9]' \
	|| { echo "verify: tier freeze counter never moved"; exit 1; }
kill -TERM "$DPID"
wait "$DPID" || { echo "verify: tier daemon exited non-zero"; cat "$SMOKE/daemon9.log"; exit 1; }
"$SMOKE/cinderellad" -addr 127.0.0.1:0 -wal "$SMOKE/tier.wal" \
	-addr-file "$SMOKE/addr10" >"$SMOKE/daemon10.log" 2>&1 &
DPID=$!
for i in $(seq 1 50); do
	[ -s "$SMOKE/addr10" ] && break
	sleep 0.1
done
DOCS=$(curl -sf "http://$(cat "$SMOKE/addr10")/v1/health" | sed 's/.*"docs":\([0-9]*\).*/\1/')
kill -TERM "$DPID"
wait "$DPID" || true
[ "$DOCS" = "500" ] || { echo "verify: reopened tier daemon has $DOCS docs, want 500"; exit 1; }
echo "tier smoke: idle partitions frozen, drained, and recounted through the cold tier"

# The "net non-test LoC per PR" figure (ROADMAP aim 2).
echo "== non-test Go lines"
./scripts/loc.sh

echo "verify: OK"
