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
//	/debug/recluster  reclusterer status, victim outcomes and counters, JSON
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
	mux.HandleFunc("/debug/recluster", func(w http.ResponseWriter, _ *http.Request) {
		r.writeStatus(w, "recluster", map[string]any{
			"outcomes": r.ReclusterOutcomes(),
			"counters": map[string]int64{
				"rounds":   r.Counter(CReclusterRounds),
				"batches":  r.Counter(CReclusterBatches),
				"moves":    r.Counter(CReclusterMoves),
				"examined": r.Counter(CReclusterExamined),
			},
		})
	})
	mux.HandleFunc("/debug/tier", func(w http.ResponseWriter, _ *http.Request) {
		r.writeStatus(w, "tier", map[string]any{
			"counters": map[string]int64{
				"freezes": r.Counter(CTierFreezes),
				"thaws":   r.Counter(CTierThaws),
			},
		})
	})
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
		"enabled":        true, // the heat map is always on; probes check the key
		"snapshot_epoch": r.Gauge(GSnapshotEpoch),
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

// SetStatus installs (or, with nil, removes) the live status provider
// behind /debug/<name>: the recluster and tiering managers install a
// closure over their Status methods under "recluster" and "tier".
// Registration order relative to Mux does not matter. Nil-safe.
func (r *Registry) SetStatus(name string, f func() any) {
	if r == nil {
		return
	}
	if f == nil {
		r.status.Delete(name)
		return
	}
	r.status.Store(name, f)
}

// writeStatus serves /debug/<name>: body plus whether a manager is
// attached (enabled) and its status. With no provider installed it
// still answers — enabled:false — so probes need no special case.
func (r *Registry) writeStatus(w http.ResponseWriter, name string, body map[string]any) {
	f, enabled := r.status.Load(name)
	var status any
	if enabled {
		status = f.(func() any)()
	}
	body["enabled"] = enabled
	body["status"] = status
	writeDebugJSON(w, body)
}

func writeDebugJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) //nolint:errcheck // client disconnects only
}

// WriteMetrics writes the registry in the Prometheus text exposition
// format: every row of the counter, gauge and histogram tables (with
// their per-shard families once shard views exist), the gauges computed
// at export time (the streaming EFFICIENCY estimates, the tracer
// settings, the heat map size), and the bounded heat and recluster
// victim families.
func (r *Registry) WriteMetrics(w io.Writer) {
	for c, d := range counterDefs {
		if c == 0 || counterDefs[c-1].name != d.name {
			writeHeader(w, d.name, d.help, "counter")
		}
		fmt.Fprintf(w, "%s %d\n", d.sample(), r.Counter(Counter(c)))
	}
	for g, d := range gaugeDefs {
		writeHeader(w, d.name, d.help, "gauge")
		fmt.Fprintf(w, "%s %d\n", d.name, r.Gauge(Gauge(g)))
	}

	// Per-shard families, present once shard views exist.
	if slots := r.shardSlots(); len(slots) > 0 {
		shardRows(func(d metricDef, typ string, cell func(*shardSlot) *atomic.Int64) {
			name := d.shardName()
			writeHeader(w, name, strings.TrimSuffix(d.help, ".")+", by shard.", typ)
			for _, s := range slots {
				fmt.Fprintf(w, "%s{shard=\"%d\"} %d\n", name, s.id, cell(s).Load())
			}
		})
	}

	gauge := func(name, help string, v float64) {
		writeHeader(w, name, help, "gauge")
		fmt.Fprintf(w, "%s %s\n", name, formatFloat(v))
	}
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
	gauge("cinderella_slow_threshold_seconds",
		"Armed slow-query threshold (0 = slow log disarmed).",
		float64(r.SlowThreshold())/1e9)
	gauge("cinderella_trace_sample_period",
		"Span tracer sampling period: every N-th query is traced in detail (0 = disabled).",
		float64(r.TraceSampleEvery()))
	gauge("cinderella_heat_partitions",
		"Partitions tracked by the heat map (touched by at least one query).",
		float64(len(r.HeatSnapshot())))

	// Label cardinality stays bounded: only the heatExportLimit coldest
	// partitions (lowest relevant/read ratio) are exported as labeled
	// series; the full map is at /debug/heat.
	if cold := r.ColdestPartitions(heatExportLimit, 1); len(cold) > 0 {
		heatFamily := func(name, help, typ string, value func(PartitionHeat) string) {
			writeHeader(w, name, help, typ)
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
			writeHeader(w, name, help, "gauge")
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

	// Histograms, with cumulative buckets; scale divides raw samples.
	for i, d := range histDefs {
		h := &r.hists[i]
		writeHeader(w, d.name, d.help, "histogram")
		var cum int64
		for b, bound := range h.bounds {
			cum += h.counts[b].Load()
			fmt.Fprintf(w, "%s_bucket{le=\"%s\"} %d\n", d.name, formatFloat(float64(bound)/d.scale), cum)
		}
		cum += h.counts[len(h.bounds)].Load()
		fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", d.name, cum)
		fmt.Fprintf(w, "%s_sum %s\n", d.name, formatFloat(float64(h.sum.Load())/d.scale))
		fmt.Fprintf(w, "%s_count %d\n", d.name, h.total.Load())
	}
}

func writeHeader(w io.Writer, name, help, typ string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// heatExportLimit bounds the per-partition labeled series on /metrics.
const heatExportLimit = 16

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
