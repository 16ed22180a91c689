package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"strings"
	"sync/atomic"
)

// The ops endpoint. Serve (or Mux, for embedding) exposes:
//
//	/metrics     Prometheus text exposition format, no external deps
//	/debug/vars  expvar (the registry snapshot is published as "cinderella")
//	/debug/heat  per-partition heat map, JSON (see heat.go)
//	/debug/slow  slow-query log and recent sampled traces, JSON
//	/debug/tier  tiering manager status and freeze/thaw counters, JSON
//	/debug/pprof net/http/pprof profiles
//
// cmd/cinderella-load wires it behind -obs :PORT; cinderellad mounts it on
// its API listener.

// expvarReg is the registry backing the published "cinderella" expvar;
// the latest registry to call Mux/Serve wins.
var expvarReg atomic.Pointer[Registry]

var publishExpvar = func() func() {
	var done atomic.Bool
	return func() {
		if done.CompareAndSwap(false, true) {
			expvar.Publish("cinderella", expvar.Func(func() any {
				return expvarReg.Load().Snapshot()
			}))
		}
	}
}()

// Mux returns an http.ServeMux serving the ops endpoint for r.
func (r *Registry) Mux() *http.ServeMux {
	expvarReg.Store(r)
	publishExpvar()
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WriteMetrics(w)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/heat", r.handleHeat)
	mux.HandleFunc("/debug/slow", r.handleSlow)
	mux.HandleFunc("/debug/recluster", r.handleRecluster)
	mux.HandleFunc("/debug/tier", r.handleTier)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/" {
			http.NotFound(w, req)
			return
		}
		fmt.Fprint(w, "cinderella ops endpoint\n\n/metrics\n/debug/vars\n/debug/heat\n/debug/slow\n/debug/recluster\n/debug/tier\n/debug/pprof/\n")
	})
	return mux
}

// Serve blocks serving the ops endpoint on addr (e.g. ":8080").
func (r *Registry) Serve(addr string) error {
	return http.ListenAndServe(addr, r.Mux())
}

// handleHeat serves the per-partition heat map as JSON. ?by=ratio sorts
// coldest (lowest relevant/read) first; ?limit=N truncates; ?min=Q
// drops partitions with fewer than Q queries (default 0).
func (r *Registry) handleHeat(w http.ResponseWriter, req *http.Request) {
	limit, _ := strconv.Atoi(req.URL.Query().Get("limit"))
	minQ, _ := strconv.Atoi(req.URL.Query().Get("min"))
	var rows []PartitionHeat
	if req.URL.Query().Get("by") == "ratio" {
		n := limit
		if n <= 0 {
			n = int(^uint(0) >> 1)
		}
		rows = r.ColdestPartitions(n, minQ)
	} else {
		rows = r.HeatSnapshot()
		if minQ > 0 {
			kept := rows[:0]
			for _, row := range rows {
				if row.Queries >= int64(minQ) {
					kept = append(kept, row)
				}
			}
			rows = kept
		}
		if limit > 0 && len(rows) > limit {
			rows = rows[:limit]
		}
	}
	writeDebugJSON(w, map[string]any{
		"enabled":        r.HeatEnabled(),
		"snapshot_epoch": r.SnapshotEpoch(),
		"partitions":     len(rows),
		"heat":           rows,
	})
}

// handleSlow serves the slow-query log (oldest first) plus the
// recent-sampled-traces ring as JSON.
func (r *Registry) handleSlow(w http.ResponseWriter, _ *http.Request) {
	slow, total := r.SlowDump()
	writeDebugJSON(w, map[string]any{
		"threshold_ns": int64(r.SlowThreshold()),
		"slow_total":   total,
		"slow":         slow,
		"sample_every": r.TraceSampleEvery(),
		"sampled":      r.RecentTraces(),
	})
}

// handleRecluster serves the reclusterer's live status: whether a
// manager is attached (enabled), its Status snapshot, the victim
// outcome ring, and the recluster counters. With no manager installed
// it still answers — enabled:false — so probes need no special case.
func (r *Registry) handleRecluster(w http.ResponseWriter, _ *http.Request) {
	status, enabled := r.reclusterStatusValue()
	writeDebugJSON(w, map[string]any{
		"enabled":  enabled,
		"status":   status,
		"outcomes": r.ReclusterOutcomes(),
		"counters": map[string]int64{
			"rounds":   r.Counter(CReclusterRounds),
			"batches":  r.Counter(CReclusterBatches),
			"moves":    r.Counter(CReclusterMoves),
			"examined": r.Counter(CReclusterExamined),
		},
	})
}

// handleTier serves the tiering manager's live status: whether a
// manager is attached (enabled), its Status snapshot (per-partition
// tier states, resident-byte budget, reheat activity), and the
// freeze/thaw transition counters. With no manager installed it still
// answers — enabled:false — so probes need no special case.
func (r *Registry) handleTier(w http.ResponseWriter, _ *http.Request) {
	status, enabled := r.tierStatusValue()
	writeDebugJSON(w, map[string]any{
		"enabled": enabled,
		"status":  status,
		"counters": map[string]int64{
			"freezes": r.Counter(CTierFreezes),
			"thaws":   r.Counter(CTierThaws),
		},
	})
}

func writeDebugJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client disconnects only
}

// WriteMetrics writes the registry in the Prometheus text exposition
// format: every counter, the gauges (partition count and the streaming
// EFFICIENCY estimates), and the latency histograms with cumulative
// buckets in seconds.
func (r *Registry) WriteMetrics(w io.Writer) {
	for c := Counter(0); c < numCounters; c++ {
		// Labeled counters ('{' in the name) are samples of a shared
		// family, rendered below with a single HELP/TYPE header.
		if strings.ContainsRune(counterNames[c], '{') {
			continue
		}
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n",
			counterNames[c], counterHelp[c], counterNames[c], counterNames[c], r.Counter(c))
	}

	// Per-protocol traffic families: one family per direction, one sample
	// per protocol, so dashboards can sum or split by the proto label.
	byteFamily := func(name, help string, httpC, wireC Counter) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		fmt.Fprintf(w, "%s{proto=\"http\"} %d\n", name, r.Counter(httpC))
		fmt.Fprintf(w, "%s{proto=\"binary\"} %d\n", name, r.Counter(wireC))
	}
	byteFamily("cinderella_server_bytes_in_total", "Request bytes received, by protocol.", CBytesInHTTP, CBytesInWire)
	byteFamily("cinderella_server_bytes_out_total", "Response bytes sent, by protocol.", CBytesOutHTTP, CBytesOutWire)

	gauge := func(name, help string, v float64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %s\n",
			name, help, name, name, formatFloat(v))
	}
	gauge("cinderella_partitions", "Current partition count.", float64(r.Partitions()))
	gauge("cinderella_server_inflight", "HTTP API requests currently executing.", float64(r.ServerInflight()))
	gauge("cinderella_wire_connections", "Open binary wire protocol connections.", float64(r.WireConns()))
	gauge("cinderella_snapshot_epoch", "Snapshot-publication epoch of the lock-free read path.", float64(r.SnapshotEpoch()))
	gauge("cinderella_efficiency",
		"Streaming EFFICIENCY (Definition 1, entity-count units) over all queries.",
		r.Efficiency())
	winEff, winN := r.WindowEfficiency()
	gauge("cinderella_efficiency_window",
		"Streaming EFFICIENCY over the last-N-queries window.", winEff)
	gauge("cinderella_efficiency_window_queries",
		"Number of queries currently in the EFFICIENCY window.", float64(winN))
	gauge("cinderella_efficiency_bytes",
		"Streaming EFFICIENCY with SIZE() in record bytes: relevant bytes / bytes read.",
		r.EfficiencyBytes())

	// Per-shard attribution series (present only when shard views exist).
	if shards := r.ShardSnapshots(); len(shards) > 0 {
		shardFamily := func(name, help, typ string, value func(ShardSnapshot) int64) {
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
			for _, s := range shards {
				fmt.Fprintf(w, "%s{shard=\"%d\"} %d\n", name, s.Shard, value(s))
			}
		}
		shardFamily("cinderella_shard_inserts_total", "Entities inserted, by shard.", "counter",
			func(s ShardSnapshot) int64 { return s.Inserts })
		shardFamily("cinderella_shard_deletes_total", "Entities deleted, by shard.", "counter",
			func(s ShardSnapshot) int64 { return s.Deletes })
		shardFamily("cinderella_shard_updates_total", "Entity updates, by shard.", "counter",
			func(s ShardSnapshot) int64 { return s.Updates })
		shardFamily("cinderella_shard_queries_total", "Queries scanned, by shard (fan-out counts each shard).", "counter",
			func(s ShardSnapshot) int64 { return s.Queries })
		shardFamily("cinderella_shard_wal_appends_total", "WAL appends, by shard.", "counter",
			func(s ShardSnapshot) int64 { return s.WALAppends })
		shardFamily("cinderella_shard_scan_records_decoded_total", "Records decoded by query scans, by shard.", "counter",
			func(s ShardSnapshot) int64 { return s.ScanDecoded })
		shardFamily("cinderella_shard_scan_decode_skipped_total", "Records the bitmap scan kernel pruned without decoding, by shard.", "counter",
			func(s ShardSnapshot) int64 { return s.ScanSkipped })
		shardFamily("cinderella_shard_partitions", "Current partition count, by shard.", "gauge",
			func(s ShardSnapshot) int64 { return s.Partitions })
	}

	// Query-tracing gauges and the bounded per-partition heat families.
	gauge("cinderella_slow_threshold_seconds",
		"Armed slow-query threshold (0 = slow log disarmed).",
		float64(r.SlowThreshold())/1e9)
	gauge("cinderella_trace_sample_period",
		"Span tracer sampling period: every N-th query is traced in detail (0 = disabled).",
		float64(r.TraceSampleEvery()))
	if r.HeatEnabled() {
		gauge("cinderella_heat_partitions",
			"Partitions tracked by the heat map (touched by at least one query).",
			float64(len(r.HeatSnapshot())))
		// Label cardinality stays bounded: only the heatExportLimit
		// coldest partitions (lowest relevant/read ratio) are exported as
		// labeled series; the full map is at /debug/heat.
		if cold := r.ColdestPartitions(heatExportLimit, 1); len(cold) > 0 {
			heatFamily := func(name, help, typ string, value func(PartitionHeat) string) {
				fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
				for _, p := range cold {
					fmt.Fprintf(w, "%s{shard=\"%d\",partition=\"%d\"} %s\n", name, p.Shard, p.Partition, value(p))
				}
			}
			heatFamily("cinderella_partition_read_ratio",
				"Per-partition EFFICIENCY (records relevant / records read) for the coldest partitions.", "gauge",
				func(p PartitionHeat) string { return formatFloat(p.ReadRatio) })
			heatFamily("cinderella_partition_heat_queries_total",
				"Queries that scanned the partition, for the coldest partitions.", "counter",
				func(p PartitionHeat) string { return strconv.FormatInt(p.Queries, 10) })
			heatFamily("cinderella_partition_heat_records_read_total",
				"Records read from the partition by queries, for the coldest partitions.", "counter",
				func(p PartitionHeat) string { return strconv.FormatInt(p.RecordsRead, 10) })
		}
	}

	// Recluster victim outcomes: efficiency at selection vs. measured
	// after migration, one labeled sample per victim partition (the
	// ring keeps the latest outcome per partition; cardinality is
	// bounded by the ring itself).
	if outcomes := r.ReclusterOutcomes(); len(outcomes) > 0 {
		type vkey struct {
			shard int32
			pid   uint64
		}
		latest := make(map[vkey]ReclusterOutcome, len(outcomes))
		var order []vkey
		for _, o := range outcomes { // oldest first: later wins
			k := vkey{o.Shard, o.Partition}
			if _, seen := latest[k]; !seen {
				order = append(order, k)
			}
			latest[k] = o
		}
		victimFamily := func(name, help string, value func(ReclusterOutcome) (string, bool)) {
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
			for _, k := range order {
				if v, ok := value(latest[k]); ok {
					fmt.Fprintf(w, "%s{shard=\"%d\",partition=\"%d\"} %s\n", name, k.shard, k.pid, v)
				}
			}
		}
		victimFamily("cinderella_recluster_victim_ratio_before",
			"Per-partition EFFICIENCY a recluster victim was selected at.",
			func(o ReclusterOutcome) (string, bool) { return formatFloat(o.RatioBefore), true })
		victimFamily("cinderella_recluster_victim_ratio_after",
			"Per-partition EFFICIENCY measured from fresh queries after the victim was migrated.",
			func(o ReclusterOutcome) (string, bool) { return formatFloat(o.RatioAfter), o.AfterKnown })
		victimFamily("cinderella_recluster_victim_moved",
			"Entities the reclusterer relocated out of the victim partition.",
			func(o ReclusterOutcome) (string, bool) { return strconv.FormatInt(o.Moved, 10), true })
	}

	for _, nh := range r.histograms() {
		writeHistogram(w, nh.name, nh.help, nh.hist, nh.scale)
	}
}

// heatExportLimit bounds the per-partition labeled series on /metrics.
const heatExportLimit = 16

// writeHistogram renders one histogram family with cumulative buckets.
// scale divides raw sample values (1e9 for nanoseconds→seconds, 1 for
// unit-less samples like batch sizes).
func writeHistogram(w io.Writer, name, help string, h *Histogram, scale float64) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s histogram\n", name, help, name)
	var cum int64
	for i, b := range h.boundsNs {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{le=\"%s\"} %d\n", name, formatFloat(float64(b)/scale), cum)
	}
	cum += h.counts[len(h.boundsNs)].Load()
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(w, "%s_sum %s\n", name, formatFloat(float64(h.SumNs())/scale))
	fmt.Fprintf(w, "%s_count %d\n", name, h.Count())
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
