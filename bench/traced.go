package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"

	"cinderella/client"
)

// traced is one traced run of one workload: the workload's script is
// played against the in-process stack twice — once plain, once behind
// the timing decorators — and the difference in throughput is the
// tracing overhead. The second pass's spans, the stack's own counters
// and a replay of the layers below shard give the per-layer metrics.
type traced struct {
	dir    string // data dirs
	out    string // where the span file goes
	sz     sizes
	seed   int64
	dur    time.Duration
	ds     *dataset
	qs     []query
	tl     tally
	detail map[string]any
}

// pass is what one play of a workload's script yields.
type pass struct {
	primary    float64       // the workload's own throughput, 1/s
	clientWall time.Duration // Σ over closed-loop workers of their loop time
	docs       int           // documents acked into the store
	ids        []client.ID
	m          *model
}

func (t *traced) opts(name string, tierTarget int64) stackOptions {
	o := stackOptions{conns: t.sz.Conns}
	if name == "mixed" {
		o.background, o.tierTarget = time.Second, tierTarget
	}
	return o
}

// script plays the workload against s for half the run length (the two
// passes share it).
func (t *traced) script(ctx context.Context, name string, s *stack) (pass, error) {
	p := pass{m: newModel()}
	half := t.dur / 2
	load := func(conns, lo, hi int) (loaded, error) {
		ld, err := loadDocs(ctx, s, conns, t.sz.Batch, t.ds, lo, hi, p.m, &t.tl, nil)
		p.clientWall += ld.wall * time.Duration(conns)
		p.docs += ld.acked
		return ld, err
	}
	query := func(first, readers int, next func(int) (int, bool), check func(int, []client.Record) bool) (read, error) {
		rd, err := runReaders(ctx, s, first, readers, t.ds, t.qs, next, check, &t.tl)
		p.clientWall += rd.wall * time.Duration(readers)
		return rd, err
	}
	list := probeList(t.seed, t.ds, t.sz.Probe, name == "mixed")

	if name != "ingest" {
		ld, err := load(1, 0, t.sz.Preload)
		if err != nil {
			return p, err
		}
		p.ids = ld.ids
	}
	switch name {
	case "ingest":
		ld, err := load(t.sz.Conns, 0, t.sz.IngestDocs)
		if err != nil {
			return p, err
		}
		p.primary = float64(ld.acked) / ld.wall.Seconds()
	case "query":
		want := p.m.expect(t.qs)
		next := untilDeadline(t.seed, t.ds, t.sz.Conns, time.Now().Add(half), time.Time{})
		rd, err := query(0, t.sz.Conns, next, exact(want))
		if err != nil {
			return p, err
		}
		p.primary = float64(len(rd.lat)) / rd.wall.Seconds()
	case "mixed":
		_, rd, err := runMixed(ctx, s, t.sz, t.seed, half, t.ds, t.qs, p.ids, p.m, &t.tl)
		if err != nil {
			return p, err
		}
		p.clientWall += rd.wall
		p.docs = p.m.size()
		p.primary = float64(len(rd.lat)) / rd.wall.Seconds()
	case "reopen":
		ld, err := load(1, t.sz.Preload, t.sz.Preload+t.sz.Burst)
		if err != nil {
			return p, err
		}
		p.primary = float64(ld.acked) / ld.wall.Seconds()
	}
	if name != "query" {
		if _, err := query(0, t.sz.Conns, fromList(list), exact(p.m.expect(t.qs))); err != nil {
			return p, err
		}
	}
	return p, nil
}

func (t *traced) run(ctx context.Context, name string) (map[string]metric, error) {
	// The mixed workload's hot-tier budget is half of what the preloaded
	// store occupies; a throw-away preload measures it.
	var tierTarget int64
	if name == "mixed" {
		s, _, err := openStack(filepath.Join(t.dir, "size"), nil, t.opts("query", 0))
		if err != nil {
			return nil, err
		}
		if _, err := loadDocs(ctx, s, 1, t.sz.Batch, t.ds, 0, t.sz.Preload, newModel(), &t.tl, nil); err != nil {
			s.close(false)
			return nil, err
		}
		tierTarget = s.tmgr.Status().HotResidentBytes / 2
		if _, err := s.close(false); err != nil {
			return nil, err
		}
	}

	// Pass 1: plain stack.
	plain, _, err := openStack(filepath.Join(t.dir, "plain"), nil, t.opts(name, tierTarget))
	if err != nil {
		return nil, err
	}
	base, err := t.script(ctx, name, plain)
	if _, cerr := plain.close(false); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}

	// Pass 2: decorated stack.
	tr := newTracer(t.sz.Conns)
	dataDir := filepath.Join(t.dir, "traced")
	s, _, err := openStack(dataDir, tr, t.opts(name, tierTarget))
	if err != nil {
		return nil, err
	}
	got, err := t.script(ctx, name, s)
	if err != nil {
		s.close(false)
		return nil, err
	}
	c, err := s.scrape()
	if err != nil {
		s.close(false)
		return nil, err
	}
	rstat, tstat := s.rmgr.Status(), s.tmgr.Status()
	outcomes := s.reg.ReclusterOutcomes()
	partsBefore := len(s.sh.Partitions())

	// Recovery: drain without a checkpoint and replay the log in insert
	// order (timed), then drain with a checkpoint (timed) and reopen once
	// more to count what the tier recovery re-froze.
	if _, err := s.close(false); err != nil {
		return nil, err
	}
	s, replay, err := openStack(dataDir, nil, t.opts(name, tierTarget))
	if err != nil {
		return nil, err
	}
	partsAfter := len(s.sh.Partitions())
	if n := s.sh.Len(); n != got.m.size() {
		t.tl.attempted.Add(1)
		t.tl.fail(1, fmt.Errorf("replay recovered %d documents, the model holds %d", n, got.m.size()))
	}
	drain, err := s.close(true)
	if err != nil {
		return nil, err
	}
	if s, _, err = openStack(dataDir, nil, t.opts(name, tierTarget)); err != nil {
		return nil, err
	}
	refrozen := 0
	for _, st := range s.sh.TierStates() {
		if st.Frozen {
			refrozen++
		}
	}
	if _, err := s.close(false); err != nil {
		return nil, err
	}

	costs, err := replayLayers(t.ds, t.qs, probeList(t.seed, t.ds, t.sz.Probe, false), t.dir)
	if err != nil {
		return nil, err
	}
	if err := tr.write(filepath.Join(t.out, "trace-"+name+".json")); err != nil {
		return nil, err
	}

	// Reduce.
	lt := selfTimes(tr.spans)
	var roots, apply layerTime
	for _, n := range []string{"client.InsertMany", "client.Query", "client.WriteBatch"} {
		roots.Count += lt[n].Count
		roots.Total += lt[n].Total
		roots.Self += lt[n].Self
	}
	for _, n := range []string{"shard.insert", "shard.update", "shard.delete"} {
		apply.Count += lt[n].Count
		apply.Total += lt[n].Total
	}
	closedLoop := lt["client.InsertMany"].Total + lt["client.Query"].Total
	coverage := float64(closedLoop) / float64(got.clientWall)
	overhead := 1 - got.primary/base.primary
	if (name == "ingest" || name == "query") && coverage < 0.9 {
		return nil, fmt.Errorf("trace_coverage %.3f is below 0.9: spans miss part of the client's time", coverage)
	}

	per := func(total, n float64) float64 {
		if n == 0 {
			return 0
		}
		return total / n
	}
	queries := float64(lt["shard.query"].Count)
	shardScanNs := c["cinderella_query_duration_seconds_sum"] * 1e9 / 2 // mean over the two shards of Σ scan time
	var syncedOps int64
	for _, sp := range tr.spans {
		if sp.Name == "wal.sync" {
			syncedOps += sp.N
		}
	}
	wait := summarize(durations(tr.spans, "commit.wait"))
	sync := summarize(durations(tr.spans, "wal.sync"))
	maxIns, sumIns := 0.0, 0.0
	for _, k := range []string{`cinderella_shard_inserts_total{shard="0"}`, `cinderella_shard_inserts_total{shard="1"}`} {
		maxIns = max(maxIns, c[k])
		sumIns += c[k]
	}
	var before, after float64
	settled := 0
	for _, o := range outcomes {
		if o.AfterKnown {
			before += o.RatioBefore
			after += o.RatioAfter
			settled++
		}
	}
	var coldReads, resident int64
	for _, st := range tstat.Partitions {
		coldReads += st.ColdReads
		resident += st.ResidentBytes
	}
	inserts := c["cinderella_inserts_total"]
	decoded, skipped := c["cinderella_scan_records_decoded_total"], c["cinderella_scan_decode_skipped_total"]
	frames := c["cinderella_wire_frames_total"]

	t.detail["spans"] = len(tr.spans)
	t.detail["layer_times"] = lt
	t.detail["layer_replay"] = costs
	t.detail["untraced_primary_per_s"] = base.primary
	t.detail["traced_primary_per_s"] = got.primary
	t.detail["commit_wait_ms"] = wait
	t.detail["wal_sync_ms"] = sync
	t.detail["recluster_outcomes_settled"] = settled

	return map[string]metric{
		// client + internal/wire
		"wire_self_us_per_frame": {per(float64(roots.Self), float64(roots.Count)) / 1e3, "us"},
		"wire_bytes_per_op": {per(c[`cinderella_server_bytes_in_total{proto="binary"}`]+c[`cinderella_server_bytes_out_total{proto="binary"}`],
			c["cinderella_wire_ops_total"]+queries), "B"},
		"wire_ops_per_frame":   {per(c["cinderella_wire_ops_total"], c["cinderella_wire_batch_ops_count"]), "count"},
		"wire_rejected_frames": {c["cinderella_wire_rejected_total"], "count"},
		"wire_error_frames":    {c["cinderella_wire_errors_total"], "count"},
		"wire_frames":          {frames, "count"},
		// internal/shard
		"store_apply_us_per_doc":    {per(float64(apply.Total), float64(apply.Count)) / 1e3, "us"},
		"fanout_merge_us_per_query": {max(0, per(float64(lt["shard.query"].Total)-shardScanNs, queries)) / 1e3, "us"},
		"shard_imbalance":           {per(maxIns, sumIns/2), "ratio"},
		// internal/core + internal/synopsis
		"findbest_ns_per_doc": {costs.FindBestNs, "ns"},
		"rate_cards_ns":       {costs.RateNs, "ns"},
		"ratings_per_insert":  {per(c["cinderella_ratings_total"], inserts), "count"},
		"splits":              {c["cinderella_splits_total"], "count"},
		"split_moves":         {c["cinderella_split_moves_total"], "count"},
		"partitions":          {c["cinderella_partitions"], "count"},
		// internal/table + internal/storage + internal/entity, write side
		"table_insert_self_ns":      {costs.tableInsertSelfNs(), "ns"},
		"storage_insert_ns":         {costs.StorageInsertNs, "ns"},
		"marshal_ns":                {costs.MarshalNs, "ns"},
		"resident_bytes_per_record": {per(float64(resident), float64(got.docs)), "B"},
		// internal/wal + server.Committer + durable.go
		"wal_append_ns":      {costs.WALAppendNs, "ns"},
		"wal_bytes_per_op":   {per(c["cinderella_wal_append_bytes_total"], c["cinderella_wal_appends_total"]), "B"},
		"fsyncs":             {c["cinderella_wal_syncs_total"], "count"},
		"ops_per_fsync":      {per(float64(syncedOps), float64(lt["wal.sync"].Count)), "count"},
		"commit_wait_us_p50": {wait.P50 * 1e3, "us"},
		"commit_wait_us_p99": {wait.P99 * 1e3, "us"},
		"sync_ms_p50":        {sync.P50, "ms"},
		"sync_ms_p99":        {sync.P99, "ms"},
		// internal/table + internal/storage, read side
		"query_store_us":               {per(float64(lt["shard.query"].Total), queries) / 1e3, "us"},
		"partitions_pruned_per_query":  {per(c["cinderella_partitions_pruned_total"], queries), "count"},
		"partitions_touched_per_query": {per(c["cinderella_partitions_scanned_total"], queries), "count"},
		"records_decoded_per_query":    {per(decoded, queries), "count"},
		"records_returned_per_query":   {per(c["cinderella_entities_returned_total"], queries), "count"},
		"decode_skipped_frac":          {per(skipped, skipped+decoded), "ratio"},
		"bitmap_words_per_query":       {per(c["cinderella_scan_bitmap_words_total"], queries), "count"},
		"cache_hit_ratio":              {costs.CacheHitRatio, "ratio"},
		// internal/recluster
		"recluster_rounds":           {c["cinderella_recluster_rounds_total"], "count"},
		"recluster_examined":         {c["cinderella_recluster_examined_total"], "count"},
		"recluster_moves":            {c["cinderella_recluster_moves_total"], "count"},
		"recluster_throttled_rounds": {float64(rstat.Throttled), "count"},
		"recluster_move_ms":          {per(float64(lt["recluster.move"].Total), float64(lt["recluster.move"].Count)) / 1e6, "ms"},
		"victim_ratio_before":        {per(before, float64(settled)), "ratio"},
		"victim_ratio_after":         {per(after, float64(settled)), "ratio"},
		// internal/tier
		"tier_freezes":        {c["cinderella_tier_freezes_total"], "count"},
		"tier_thaws":          {c["cinderella_tier_thaws_total"], "count"},
		"tier_freeze_ms":      {per(float64(lt["tier.freeze"].Total), float64(lt["tier.freeze"].Count)) / 1e6, "ms"},
		"tier_cold_reads":     {float64(coldReads), "count"},
		"tier_cold_bytes":     {float64(tstat.ColdResidentBytes), "B"},
		"tier_compress_ratio": {per(float64(tstat.ColdRawBytes), float64(tstat.ColdResidentBytes)), "ratio"},
		// recovery
		"replay_docs_per_s":        {per(float64(got.m.size()), replay.Seconds()), "1/s"},
		"partitions_before_reopen": {float64(partsBefore), "count"},
		"partitions_after_reopen":  {float64(partsAfter), "count"},
		"drain_s":                  {drain.Seconds(), "s"},
		"refrozen_partitions":      {float64(refrozen), "count"},
		// the trace itself
		"trace_coverage":      {coverage, "ratio"},
		"trace_overhead_frac": {overhead, "ratio"},
		"failed_frac":         {per(float64(t.tl.failed.Load()), float64(t.tl.attempted.Load())), "ratio"},
	}, nil
}
