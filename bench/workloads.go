package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"cinderella/client"
)

// sizes fixes how much work each workload does. The frozen values were
// calibrated once on a 2-core box (see README.md) and are part of the
// benchmark: changing one starts a new baseline.
type sizes struct {
	Preload      int // documents loaded in set-up by query, mixed and reopen
	IngestDocs   int // documents per ingest round, into an empty store
	SetupRepeats int // set-ups per run; setup_s is their median
	Conns        int // client connections, never more than the box has cores
	Batch        int // documents per InsertMany frame
	MixedRate    int // writes per second of the mixed workload's paced writer
	MixedBatch   int // writes per frame of the paced writer
	Burst        int // acked writes before the reopen workload's kill −9
	VerifySample int // preloaded documents re-read after the crash recovery
	Reopens      int // crash reopens sampled at the end of query and mixed
	Probe        int // queries in a workload's fixed probe list
}

var frozen = sizes{
	Preload:      30000,
	IngestDocs:   40000,
	SetupRepeats: 3,
	Conns:        2,
	Batch:        64,
	MixedRate:    1600,
	MixedBatch:   16,
	Burst:        5000,
	VerifySample: 2000,
	Reopens:      3,
	Probe:        200,
}

var workloadNames = []string{"ingest", "query", "mixed", "reopen"}

// datasetDocs is how many distinct documents a workload draws on.
func (s sizes) datasetDocs(workload string, seconds int) int {
	switch workload {
	case "ingest":
		return s.IngestDocs
	case "mixed":
		return s.Preload + s.MixedRate*seconds + s.MixedBatch
	default:
		return s.Preload + 2*s.Burst
	}
}

// run is one untraced run of one workload against spawned daemons. The
// sample slices collect what the end-to-end metrics are computed from.
type run struct {
	bin  string // cinderellad binary
	dir  string // scratch directory, removed when the run ends
	sz   sizes
	seed int64
	dur  time.Duration
	ds   *dataset
	qs   []query
	tl   tally
	ndir int

	setupS   []float64 // one per set-up
	reopenS  []float64 // one per respawn on an existing data dir
	writeLat []float64 // ms per acked frame, pooled
	writeOps []float64 // acked writes per second, one per write phase
	queryLat []float64 // ms per answered query, pooled
	queryOps []float64 // answered queries per second, one per read phase
	eff      []float64 // Definition 1 over one probe pass
	rssMB    []float64
	diskPer  []float64 // bytes under the data dir per acked payload byte

	// Set-up phase samples: the write metrics of a workload whose timed
	// region writes nothing come from here.
	preWriteLat []float64
	preWriteOps []float64

	detail map[string]any
}

func (r *run) freshDir() string {
	r.ndir++
	return filepath.Join(r.dir, fmt.Sprintf("data-%d", r.ndir))
}

func (r *run) note(key string, v any) { r.detail[key] = v }

// preloaded is a daemon holding the preloaded documents.
type preloaded struct {
	d       *daemon
	dataDir string
	ids     []client.ID
	m       *model
	payload int64
}

// setup brings up a daemon on an empty data dir, preloads it through
// one connection in a fixed order (so that placement is the same on
// every run) and warms it with one pass over the probe list. It does
// that SetupRepeats times, keeps the last and records every duration.
func (r *run) setup(ctx context.Context, warm []int) (*preloaded, error) {
	var p *preloaded
	for i := 0; i < r.sz.SetupRepeats; i++ {
		if p != nil {
			p.d.kill()
			os.RemoveAll(p.dataDir)
		}
		start := time.Now()
		dataDir := r.freshDir()
		d, _, err := spawn(r.bin, r.dir, dataDir)
		if err != nil {
			return nil, err
		}
		m := newModel()
		ld, err := loadDocs(ctx, d, 1, r.sz.Batch, r.ds, 0, r.sz.Preload, m, &r.tl, nil)
		if err != nil {
			d.kill()
			return nil, err
		}
		r.preWriteLat = append(r.preWriteLat, ld.lat...)
		r.preWriteOps = append(r.preWriteOps, float64(ld.acked)/ld.wall.Seconds())
		if _, err := runReaders(ctx, d, 0, r.sz.Conns, r.ds, r.qs, fromList(warm), nil, &r.tl); err != nil {
			d.kill()
			return nil, err
		}
		r.setupS = append(r.setupS, time.Since(start).Seconds())
		p = &preloaded{d: d, dataDir: dataDir, ids: ld.ids, m: m, payload: ld.payload}
	}
	return p, nil
}

// space samples the daemon's resident set and the data dir's size
// against the payload bytes acked into it.
func (r *run) space(d *daemon, dataDir string, payload int64) error {
	// The peak, not the current figure: where in its collection cycle the
	// daemon's heap happens to stand when the load ends moves VmRSS by
	// 10 % between runs, the high-water mark by half of that.
	rss, err := d.memMB("VmHWM")
	if err != nil {
		return err
	}
	if now, err := d.memMB("VmRSS"); err == nil {
		r.appendDetail("rss_now_mb", now)
	}
	disk, err := dirBytes(dataDir)
	if err != nil {
		return err
	}
	r.rssMB = append(r.rssMB, rss)
	r.diskPer = append(r.diskPer, float64(disk)/float64(payload))
	return nil
}

// probe runs the fixed probe list once, un-timed for throughput
// purposes, and turns the daemon's own byte counters around it into
// Definition 1: Σ bytes_relevant / Σ bytes_read.
func (r *run) probe(ctx context.Context, d *daemon, list []int, check func(int, []client.Record) bool) (read, error) {
	c0, err := d.scrape()
	if err != nil {
		return read{}, err
	}
	rd, err := runReaders(ctx, d, 0, r.sz.Conns, r.ds, r.qs, fromList(list), check, &r.tl)
	if err != nil {
		return read{}, err
	}
	c1, err := d.scrape()
	if err != nil {
		return read{}, err
	}
	delta := c1.sub(c0)
	if delta["cinderella_query_bytes_read_total"] > 0 {
		r.eff = append(r.eff, delta["cinderella_query_bytes_relevant_total"]/delta["cinderella_query_bytes_read_total"])
	}
	return rd, nil
}

// exact checks a response against the model's precomputed answers.
func exact(want []answer) func(int, []client.Record) bool {
	return func(qi int, recs []client.Record) bool { return digestAll(recs) == want[qi] }
}

// crash kills d with SIGKILL and respawns on the same data dir, n times.
// Each respawn replays the un-checkpointed log in the order it was
// written, which is the same work every time, and is one reopen_s
// sample. (A checkpointed log is not: see restart.)
func (r *run) crash(d *daemon, dataDir string, n int, extra ...string) (*daemon, error) {
	for i := 0; i < n; i++ {
		d.kill()
		nd, up, err := spawn(r.bin, r.dir, dataDir, extra...)
		if err != nil {
			return nil, err
		}
		d = nd
		r.reopenS = append(r.reopenS, up.Seconds())
	}
	return d, nil
}

// restart drains d with SIGTERM (checkpoint on exit) and respawns on
// the checkpointed log. The checkpoint holds the documents in
// partition-scan order, so its replay feeds Algorithm 1 another sequence
// than the inserts did: placement, partition count and replay time
// drift from one restart to the next (1.2–2.1 s and 504–648 partitions
// measured over twelve restarts of one unchanged 40k-document store,
// against 0.54 s ± 4 % and 424 partitions every time for the log in
// insert order). The figure cannot hold a bound, so it is reported as a
// diagnostic and kept out of reopen_s.
func (r *run) restart(d *daemon, dataDir string) (*daemon, error) {
	drain, err := d.term()
	if err != nil {
		return nil, err
	}
	r.appendDetail("drain_s", drain.Seconds())
	nd, up, err := spawn(r.bin, r.dir, dataDir)
	if err != nil {
		return nil, err
	}
	r.appendDetail("reopen_checkpointed_s", up.Seconds())
	return nd, nil
}

func (r *run) appendDetail(key string, v float64) {
	s, _ := r.detail[key].([]float64)
	r.detail[key] = append(s, v)
}

// interesting are the daemon counters a run reports as deltas over its
// timed region, so that the layer predictions can be read off.
var interesting = []string{
	"cinderella_inserts_total", "cinderella_updates_total", "cinderella_deletes_total",
	"cinderella_ratings_total", "cinderella_splits_total", "cinderella_split_moves_total",
	"cinderella_queries_total", "cinderella_partitions_scanned_total", "cinderella_partitions_pruned_total",
	"cinderella_entities_scanned_total", "cinderella_entities_returned_total",
	"cinderella_scan_records_decoded_total", "cinderella_scan_decode_skipped_total", "cinderella_scan_bitmap_words_total",
	"cinderella_wal_appends_total", "cinderella_wal_append_bytes_total", "cinderella_wal_syncs_total",
	"cinderella_server_group_commits_total", "cinderella_wire_frames_total", "cinderella_wire_ops_total",
	"cinderella_wire_rejected_total", "cinderella_wire_errors_total",
	"cinderella_recluster_rounds_total", "cinderella_recluster_examined_total", "cinderella_recluster_moves_total",
	"cinderella_tier_freezes_total", "cinderella_tier_thaws_total",
}

func (r *run) noteCounters(key string, delta counters) {
	out := make(map[string]float64, len(interesting))
	for _, k := range interesting {
		out[k] = delta[k]
	}
	r.note(key, out)
}

// ingest: closed loop, Conns connections, InsertMany frames of Batch,
// IngestDocs documents into an empty store — a fixed count, because
// insert cost grows with the partition count, so a fixed duration would
// let a faster build run further into the expensive region. The round
// repeats on fresh stores until the timed regions add up to the run
// length; every round also probes the layout it built and, after a kill −9,
// reopens it.
func (r *run) ingest(ctx context.Context) error {
	list := probeList(r.seed, r.ds, r.sz.Probe, false)
	var timed time.Duration
	total := make(counters)
	for round := 0; timed < r.dur; round++ {
		dataDir := r.freshDir()
		d, up, err := spawn(r.bin, r.dir, dataDir)
		if err != nil {
			return err
		}
		r.setupS = append(r.setupS, up.Seconds())
		m := newModel()
		c0, err := d.scrape()
		if err != nil {
			return err
		}
		ld, err := loadDocs(ctx, d, r.sz.Conns, r.sz.Batch, r.ds, 0, r.sz.IngestDocs, m, &r.tl, nil)
		if err != nil {
			return err
		}
		c1, err := d.scrape()
		if err != nil {
			return err
		}
		for k, v := range c1.sub(c0) {
			total[k] += v
		}
		timed += ld.wall
		r.writeLat = append(r.writeLat, ld.lat...)
		r.writeOps = append(r.writeOps, float64(ld.acked)/ld.wall.Seconds())
		if err := r.space(d, dataDir, ld.payload); err != nil {
			return err
		}
		rd, err := r.probe(ctx, d, list, exact(m.expect(r.qs)))
		if err != nil {
			return err
		}
		r.queryLat = append(r.queryLat, rd.lat...)
		r.queryOps = append(r.queryOps, float64(len(rd.lat))/rd.wall.Seconds())
		if d, err = r.crash(d, dataDir, 1); err != nil {
			return err
		}
		d.kill()
		os.RemoveAll(dataDir)
		r.note("rounds", round+1)
	}
	r.noteCounters("timed_counters", total)
	return nil
}

// query: read-only, closed loop, Conns readers over the preloaded
// store, each drawing its own Zipf stream for the run length; every
// answer is checked against the model.
func (r *run) query(ctx context.Context) error {
	list := probeList(r.seed, r.ds, r.sz.Probe, false)
	p, err := r.setup(ctx, list)
	if err != nil {
		return err
	}
	want := p.m.expect(r.qs)
	c0, err := p.d.scrape()
	if err != nil {
		return err
	}
	next := untilDeadline(r.seed, r.ds, r.sz.Conns, time.Now().Add(r.dur), time.Time{})
	rd, err := runReaders(ctx, p.d, 0, r.sz.Conns, r.ds, r.qs, next, exact(want), &r.tl)
	if err != nil {
		return err
	}
	c1, err := p.d.scrape()
	if err != nil {
		return err
	}
	r.noteCounters("timed_counters", c1.sub(c0))
	r.queryLat = rd.lat
	r.queryOps = append(r.queryOps, float64(len(rd.lat))/rd.wall.Seconds())
	if err := r.space(p.d, p.dataDir, p.payload); err != nil {
		return err
	}
	if _, err := r.probe(ctx, p.d, list, exact(want)); err != nil {
		return err
	}
	d, err := r.crash(p.d, p.dataDir, r.sz.Reopens)
	if err != nil {
		return err
	}
	d.kill()
	return nil
}

// tierHotBytes reads the tier manager's hot resident byte count.
func tierHotBytes(d *daemon) (int64, error) {
	resp, err := http.Get("http://" + d.httpAddr + "/debug/tier")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var body struct {
		Status struct {
			Hot int64 `json:"hot_resident_bytes"`
		} `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return 0, fmt.Errorf("/debug/tier: %w", err)
	}
	if body.Status.Hot <= 0 {
		return 0, fmt.Errorf("/debug/tier reports no hot resident bytes")
	}
	return body.Status.Hot, nil
}

// mixedFlags run the background loops every second and hold the hot
// tier to half of what the preloaded store occupies, so the working set
// is larger than the hot budget and several cycles fit in a run.
func mixedFlags(hotBytes int64) []string {
	return []string{"-recluster-interval", "1s", "-tier-interval", "1s",
		"-tier-target-bytes", fmt.Sprint(hotBytes / 2)}
}

// mixed: one open-loop writer paced at MixedRate writes per second in
// frames of MixedBatch (80 % insert / 15 % update / 5 % delete) beside
// one closed-loop Zipf reader, for the run length; half way through the
// reader's attribute ranking is reversed. Answers cannot be checked
// while the store changes under them, so the probe list is checked on
// the quiesced store afterwards.
func (r *run) mixed(ctx context.Context) error {
	p, err := r.setup(ctx, probeList(r.seed, r.ds, r.sz.Probe, false))
	if err != nil {
		return err
	}
	hot, err := tierHotBytes(p.d)
	if err != nil {
		return err
	}
	flags := mixedFlags(hot)
	r.note("tier_target_bytes", hot/2)
	// The reopen samples are taken here, on the preloaded log: the log a
	// mixed run leaves behind depends on what the background loops
	// happened to do, and its replay time varies with it.
	d, err := r.crash(p.d, p.dataDir, r.sz.Reopens, flags...)
	if err != nil {
		return err
	}

	c0, err := d.scrape()
	if err != nil {
		return err
	}
	wr, rd, err := runMixed(ctx, d, r.sz, r.seed, r.dur, r.ds, r.qs, p.ids, p.m, &r.tl)
	if err != nil {
		return err
	}
	c1, err := d.scrape()
	if err != nil {
		return err
	}
	r.noteCounters("timed_counters", c1.sub(c0))
	r.writeLat = wr.lat
	r.writeOps = append(r.writeOps, float64(wr.acked)/wr.wall.Seconds())
	r.queryLat = rd.lat
	r.queryOps = append(r.queryOps, float64(len(rd.lat))/rd.wall.Seconds())
	r.note("writer_lateness_ms", summarize(wr.late))
	if err := r.space(d, p.dataDir, p.payload+wr.payload); err != nil {
		return err
	}
	post := probeList(r.seed, r.ds, r.sz.Probe, true)
	if _, err := r.probe(ctx, d, post, exact(p.m.expect(r.qs))); err != nil {
		return err
	}
	d.kill()
	d, up, err := spawn(r.bin, r.dir, p.dataDir, flags...)
	if err != nil {
		return err
	}
	r.note("reopen_after_mixed_s", up.Seconds())
	d.kill()
	return nil
}

// reopen: crash recovery on the preloaded store, for the run length.
// The first cycle writes a burst and kills the daemon with SIGKILL once
// Burst writes are acked and the next frame is in flight. The burst goes
// through one connection: two would interleave differently on every run,
// and the replay time of the log follows the interleaving (0.44–0.59 s
// measured for one 35k-document log). The respawn replays preload +
// burst, after which every acked document of the burst and a sample of
// the preloaded ones are read back and compared. Every later cycle kills
// and respawns on that same log. Each respawn is one reopen_s sample and
// is followed by the probe list, checked against the model. The run ends
// with a SIGTERM drain and a reopen of the checkpointed log, read back
// again.
//
// Known limit: kill −9 leaves the operating system's page cache intact,
// so bytes the daemon wrote but had not yet fsynced survive too.
func (r *run) reopen(ctx context.Context) error {
	list := probeList(r.seed, r.ds, r.sz.Probe, false)
	p, err := r.setup(ctx, list)
	if err != nil {
		return err
	}
	d := p.d

	// Burst: load until killed. The watcher kills the daemon as soon as
	// Burst writes are acked, while the worker has its next frame in
	// flight.
	var stop atomic.Bool
	before := p.m.size()
	killed := make(chan struct{})
	go func() {
		defer close(killed)
		for p.m.size()-before < r.sz.Burst && !stop.Load() {
			time.Sleep(200 * time.Microsecond)
		}
		d.kill()
	}()
	ld, err := loadDocs(ctx, d, 1, r.sz.Batch, r.ds, r.sz.Preload, r.sz.Preload+4*r.sz.Burst, p.m, &r.tl, &stop)
	stop.Store(true)
	<-killed
	if err != nil {
		return err
	}
	r.note("burst_acked", ld.acked)
	// Documents cut by the kill may be durable all the same; the harness
	// never learned their ids, so answers may hold that many strangers.
	r.note("burst_cut_by_kill", ld.cut)

	verify := append([]client.ID(nil), ld.ids...)
	step := max(1, len(p.ids)/r.sz.VerifySample)
	for i := 0; i < len(p.ids); i += step {
		verify = append(verify, p.ids[i])
	}
	want := p.m.expect(r.qs)
	check := func(qi int, recs []client.Record) bool {
		known, strangers := p.m.digest(recs)
		return known == want[qi] && strangers <= ld.cut
	}
	start := time.Now()
	for cycle := 0; cycle == 0 || time.Since(start) < r.dur; cycle++ {
		var up time.Duration
		if cycle > 0 {
			d.kill()
		}
		if d, up, err = spawn(r.bin, r.dir, p.dataDir); err != nil {
			return err
		}
		r.reopenS = append(r.reopenS, up.Seconds())
		if cycle == 0 {
			if err := r.readBack(ctx, d, verify, p.m); err != nil {
				return err
			}
		}
		rd, err := r.probe(ctx, d, list, check)
		if err != nil {
			return err
		}
		r.queryLat = append(r.queryLat, rd.lat...)
		r.queryOps = append(r.queryOps, float64(len(rd.lat))/rd.wall.Seconds())
		r.note("cycles", cycle+1)
	}
	if err := r.space(d, p.dataDir, p.payload+ld.payload); err != nil {
		return err
	}
	if d, err = r.restart(d, p.dataDir); err != nil {
		return err
	}
	if err := r.readBack(ctx, d, verify, p.m); err != nil {
		return err
	}
	d.kill()
	return nil
}

// readBack fetches ids (0 = never acked, skipped) and compares each
// document with the model's. A miss is an acked write lost.
func (r *run) readBack(ctx context.Context, d *daemon, ids []client.ID, m *model) error {
	clients := make([]*client.Binary, r.sz.Conns)
	for i := range clients {
		bc, err := dial(ctx, d, i, 0, r.ds, 4)
		if err != nil {
			return err
		}
		defer bc.Close()
		clients[i] = bc
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := range clients {
		wg.Add(1)
		go func(bc *client.Binary) {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(ids) {
					return
				}
				id := ids[i]
				if id == 0 {
					continue
				}
				want, ok := m.get(id)
				if !ok {
					continue
				}
				r.tl.attempted.Add(1)
				got, found, err := bc.Get(ctx, id)
				switch {
				case err != nil:
					r.tl.fail(1, fmt.Errorf("get %d: %w", id, err))
				case !found:
					r.tl.fail(1, fmt.Errorf("acked document %d is gone after recovery", id))
				case !reflect.DeepEqual(got, want):
					r.tl.fail(1, fmt.Errorf("document %d differs after recovery", id))
				}
			}
		}(clients[w])
	}
	wg.Wait()
	return nil
}

// endToEnd reduces the run's samples to the end-to-end metrics. A
// workload that measures no write phase of its own (query; reopen,
// whose burst exists to be cut short) reports the set-up preload's.
func (r *run) endToEnd() map[string]metric {
	writeLat, writeOps := r.writeLat, r.writeOps
	if len(writeOps) == 0 {
		writeLat, writeOps = r.preWriteLat, r.preWriteOps
		r.note("write_metrics_from", "set-up preload")
	}
	w, q := summarize(writeLat), summarize(r.queryLat)
	r.note("write_ack_ms", w)
	r.note("query_ms", q)
	r.note("setup_s_samples", r.setupS)
	r.note("reopen_s_samples", r.reopenS)
	return map[string]metric{
		"setup_s":                 {median(r.setupS), "s"},
		"write_acked_per_s":       {median(writeOps), "1/s"},
		"write_ack_p50_ms":        {w.P50, "ms"},
		"write_ack_p99_ms":        {w.P99, "ms"},
		"query_per_s":             {median(r.queryOps), "1/s"},
		"query_p50_ms":            {q.P50, "ms"},
		"query_p99_ms":            {q.P99, "ms"},
		"efficiency":              {median(r.eff), "ratio"},
		"resident_mb":             {median(r.rssMB), "MB"},
		"disk_bytes_per_doc_byte": {median(r.diskPer), "ratio"},
		"reopen_s":                {median(r.reopenS), "s"},
	}
}
