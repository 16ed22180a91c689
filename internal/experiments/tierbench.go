package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"cinderella"
	"cinderella/internal/obs"
	"cinderella/internal/tier"
)

// TierBench measures heat-driven tiered storage against the workload it
// exists for: a Zipf-skewed read mix where a handful of attribute
// groups absorb nearly all queries and the long tail goes quiet. The
// tiering manager freezes the quiet partitions into compressed cold
// segments until the resident footprint fits a budget of ~50% of the
// working set, and the bench then proves the four claims the design
// makes:
//
//   - the budget is actually met (WithinBudget),
//   - cold data really compresses (compressed/raw < 0.6),
//   - queries over the hot set pay nothing for the cold tier — hot p99
//     with half the table frozen stays within 10% of the untiered p99,
//   - pruning needs no cold bytes: a hot-set query with frozen
//     partitions present charges zero cold reads, because the pruning
//     metadata (synopsis, zone maps, presence matrix) stays hot.
//
// A final close/reopen proves the durable half: the WAL replay recounts
// exactly and the tier manifest re-freezes the cold set.

// TierBenchResult is serialized as BENCH_tier.json.
type TierBenchResult struct {
	GOMAXPROCS int     `json:"gomaxprocs"`
	Entities   int     `json:"entities"`
	Groups     int     `json:"groups"`
	HotGroups  int     `json:"hot_groups"`
	ZipfS      float64 `json:"zipf_s"`
	HotQueries int     `json:"hot_queries"` // p99 sample count per phase
	Rounds     int     `json:"rounds"`      // settle loop ticks

	// Resident-byte budget: the hot-tier ceiling is half the working
	// set, and the manager must actually get under it.
	WorkingSetBytes     int64 `json:"working_set_bytes"`
	TargetResidentBytes int64 `json:"target_resident_bytes"`
	ResidentBytesAfter  int64 `json:"resident_bytes_after"`
	WithinBudget        bool  `json:"within_budget"`

	FrozenPartitions int `json:"frozen_partitions"`
	HotPartitions    int `json:"hot_partitions"`

	// Compression across the frozen set.
	ColdCompressedBytes int64   `json:"cold_compressed_bytes"`
	ColdRawBytes        int64   `json:"cold_raw_bytes"`
	CompressRatio       float64 `json:"compress_ratio"`
	CompressOK          bool    `json:"compress_ok"`

	// Hot-path tax: p99 over the identical hot-set query sequence,
	// before tiering and with the cold tier in place.
	HotP99UntieredMs   float64 `json:"hot_p99_untiered_ms"`
	HotP99TieredMs     float64 `json:"hot_p99_tiered_ms"`
	HotP99OverheadPct  float64 `json:"hot_p99_overhead_pct"`
	HotP99WithinBudget bool    `json:"hot_p99_within_budget"`

	// Pruning honesty: one hot-set query with the cold tier populated
	// must charge zero cold pages/bytes; a full scan must charge a
	// nonzero amount (the I/O accounting does not hide cold reads).
	PruneColdPagesRead int64 `json:"prune_cold_pages_read"`
	PruneColdBytesRead int64 `json:"prune_cold_bytes_read"`
	PruneZeroColdOK    bool  `json:"prune_zero_cold_ok"`
	ColdProbeBytesRead int64 `json:"cold_probe_bytes_read"`
	ColdProbeChargedOK bool  `json:"cold_probe_charged_ok"`

	Freezes int64 `json:"freezes"`
	Thaws   int64 `json:"thaws"`

	// Durability: reopen after freezing must recount exactly and
	// restore the frozen set from the tier manifest.
	ReopenCount     int  `json:"reopen_count"`
	ReopenCountOK   bool `json:"reopen_count_ok"`
	ReopenFrozen    int  `json:"reopen_frozen"`
	ReopenBothTiers bool `json:"reopen_both_tiers"`
}

// tierPad is the compressible payload every entity carries so partition
// pages have realistic bulk for deflate to chew on.
var tierPad = strings.Repeat("adaptive-online-partitioning ", 4)

// tierDoc builds entity i of group k: two attributes common to the
// whole table plus one group attribute, so partitions cluster by group
// and a query on g<k> prunes every other group's partitions.
func tierDoc(i, k int) cinderella.Doc {
	return cinderella.Doc{
		"c0":                  i,
		"pad":                 fmt.Sprintf("%s%06d", tierPad, i),
		fmt.Sprintf("g%d", k): 1,
	}
}

// TierBench runs the tiering experiment at o's scale.
func TierBench(o Options) (TierBenchResult, error) {
	o = o.withDefaults()
	res := TierBenchResult{
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Entities:   o.Entities,
		ZipfS:      1.3,
	}

	// 64 groups at full scale; shrink with the table so every group
	// still spans at least a couple of partitions.
	groups := 64
	if o.Entities < 64*64 {
		groups = maxInt(8, o.Entities/64)
	}
	res.Groups = groups
	perGroup := o.Entities / groups

	dir, err := os.MkdirTemp("", "cinderella-tierbench")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "tier.wal")

	reg := obs.New(obs.Options{})
	cfg := cinderella.Config{Weight: 0.8, PartitionSizeLimit: 128, Obs: reg}
	dt, err := cinderella.OpenFile(path, cfg)
	if err != nil {
		return res, err
	}

	// Group-contiguous insert order: the partitioner sees runs of
	// identical schemas and builds group-pure partitions, the layout a
	// converged Cinderella table has anyway.
	for i := 0; i < o.Entities; i++ {
		k := i / perGroup
		if k >= groups {
			k = groups - 1
		}
		if _, err := dt.Insert(tierDoc(i, k)); err != nil {
			return res, err
		}
	}

	// The Zipf query mix: group k is drawn with probability ∝ (1+k)^-s,
	// so low-numbered groups absorb nearly all heat. The hot set is the
	// top 8 groups — every other group's partitions are tiering fodder.
	z := rand.NewZipf(rand.New(rand.NewSource(o.Seed)), res.ZipfS, 1, uint64(groups-1))
	const mixLen = 2000
	hotGroups := maxInt(2, groups/8)
	if hotGroups > 8 {
		hotGroups = 8
	}
	res.HotGroups = hotGroups
	var fullSeq, hotSeq []int
	for i := 0; i < mixLen; i++ {
		k := int(z.Uint64())
		fullSeq = append(fullSeq, k)
		if k < hotGroups {
			hotSeq = append(hotSeq, k)
		}
	}
	res.HotQueries = len(hotSeq)
	attr := func(k int) string { return fmt.Sprintf("g%d", k) }

	// Phase 1 — untiered baseline. One full-mix sweep establishes the
	// heat map (tail groups included, so mid-heat partitions exist and
	// must cool off before freezing); the hot subsequence is then timed.
	for _, k := range fullSeq {
		dt.Query(attr(k))
	}
	res.HotP99UntieredMs = p99(timeQueries(dt, hotSeq, attr))

	for _, ts := range dt.TierStates() {
		res.WorkingSetBytes += ts.RawBytes
	}
	res.TargetResidentBytes = res.WorkingSetBytes / 2

	// Phase 2 — tiering settles. Each round keeps the hot groups' heat
	// moving (one query per hot group) and ticks the manager; the tail
	// goes idle and freezes coldest-first until the budget is met.
	mgr := tier.New(tier.Single(dt), reg, tier.Config{
		TargetResidentBytes: res.TargetResidentBytes,
		MinIdleTicks:        2,
		MaxFreezesPerTick:   32,
	})
	defer mgr.Close()
	for res.Rounds = 0; res.Rounds < 96; res.Rounds++ {
		for k := 0; k < hotGroups; k++ {
			dt.Query(attr(k))
		}
		round := mgr.Tick()
		if res.Rounds >= 3 && len(round.Frozen) == 0 {
			break
		}
	}

	var resident int64
	for _, ts := range dt.TierStates() {
		resident += ts.ResidentBytes
		if ts.Frozen {
			res.FrozenPartitions++
			res.ColdCompressedBytes += ts.ResidentBytes
			res.ColdRawBytes += ts.RawBytes
		} else {
			res.HotPartitions++
		}
	}
	res.ResidentBytesAfter = resident
	res.WithinBudget = resident <= res.TargetResidentBytes
	if res.ColdRawBytes > 0 {
		res.CompressRatio = float64(res.ColdCompressedBytes) / float64(res.ColdRawBytes)
	}
	res.CompressOK = res.FrozenPartitions > 0 && res.CompressRatio < 0.6

	// Phase 3 — pruning honesty, then the tiered hot p99 over the same
	// subsequence. The order matters: the prune check needs pristine
	// cold counters, and it must run with the cold tier fully populated.
	dt.ResetIOStats()
	dt.Query(attr(0))
	res.PruneColdPagesRead, res.PruneColdBytesRead = dt.ColdIOStats()
	res.PruneZeroColdOK = res.FrozenPartitions > 0 && res.PruneColdBytesRead == 0 &&
		res.PruneColdPagesRead == 0

	dt.ResetIOStats()
	dt.ScanAll() // touches every partition — the cold toll must show up
	_, res.ColdProbeBytesRead = dt.ColdIOStats()
	res.ColdProbeChargedOK = res.ColdProbeBytesRead > 0

	res.HotP99TieredMs = p99(timeQueries(dt, hotSeq, attr))
	if res.HotP99UntieredMs > 0 {
		res.HotP99OverheadPct = 100 * (res.HotP99TieredMs - res.HotP99UntieredMs) /
			res.HotP99UntieredMs
	}
	// 10% relative, with sub-50µs absolute headroom against timer noise
	// at microsecond-scale query latencies (same budget the recluster
	// bench gives its writer p99).
	res.HotP99WithinBudget = res.HotP99OverheadPct <= 10.0 ||
		res.HotP99TieredMs-res.HotP99UntieredMs <= 0.05

	res.Freezes, res.Thaws = dt.TierCounters()

	// Phase 4 — durability. Close releases the WAL; reopen replays it
	// and the tier manifest re-freezes the cold set.
	inserted := dt.Len()
	if err := dt.Close(); err != nil {
		return res, err
	}
	dt2, err := cinderella.OpenFile(path, cinderella.Config{Weight: 0.8, PartitionSizeLimit: 128})
	if err != nil {
		return res, err
	}
	defer dt2.Close()
	res.ReopenCount = len(dt2.ScanAll())
	res.ReopenCountOK = res.ReopenCount == inserted
	res.ReopenFrozen = len(dt2.FrozenPartitions())
	reopenStates := dt2.TierStates()
	res.ReopenBothTiers = res.ReopenFrozen > 0 && len(reopenStates) > res.ReopenFrozen
	return res, nil
}

// timeQueries returns per-query wall times in milliseconds over the
// sequence: a fresh GC cycle and one warm-up pass, then the best of
// four timed runs per query. Hot queries materialize tens of KB of
// results each, so at the millisecond scale a p99 of single runs just
// measures which queries a GC pause happened to land on; taking the
// min over four runs makes a query's number its actual cost (same
// discipline as runQueries, which the selectivity figures rely on).
func timeQueries(dt *cinderella.DurableTable, seq []int, attr func(int) string) []float64 {
	runtime.GC()
	for _, k := range seq {
		dt.Query(attr(k))
	}
	out := make([]float64, 0, len(seq))
	for _, k := range seq {
		best := time.Duration(1<<62 - 1)
		for i := 0; i < 4; i++ {
			start := time.Now()
			dt.Query(attr(k))
			if d := time.Since(start); d < best {
				best = d
			}
		}
		out = append(out, float64(best.Microseconds())/1000)
	}
	return out
}

// Print renders the report like the other experiments.
func (r TierBenchResult) Print(w io.Writer) {
	fprintf(w, "TIER cold-storage budget (GOMAXPROCS=%d, %d entities, %d groups, zipf s=%.1f, %d rounds)\n",
		r.GOMAXPROCS, r.Entities, r.Groups, r.ZipfS, r.Rounds)
	fprintf(w, "  resident: working-set=%dKB target=%dKB after=%dKB within-budget=%v\n",
		r.WorkingSetBytes/1024, r.TargetResidentBytes/1024, r.ResidentBytesAfter/1024, r.WithinBudget)
	fprintf(w, "  tiers: hot=%d frozen=%d (freezes=%d thaws=%d)\n",
		r.HotPartitions, r.FrozenPartitions, r.Freezes, r.Thaws)
	fprintf(w, "  compression: %dKB/%dKB ratio=%.3f ok=%v\n",
		r.ColdCompressedBytes/1024, r.ColdRawBytes/1024, r.CompressRatio, r.CompressOK)
	fprintf(w, "  hot p99: untiered %.3f ms, tiered %.3f ms (%+.2f%%) within-budget=%v (%d samples)\n",
		r.HotP99UntieredMs, r.HotP99TieredMs, r.HotP99OverheadPct, r.HotP99WithinBudget, r.HotQueries)
	fprintf(w, "  pruning: cold charge %d pages / %d bytes ok=%v; cold probe charged %d bytes ok=%v\n",
		r.PruneColdPagesRead, r.PruneColdBytesRead, r.PruneZeroColdOK,
		r.ColdProbeBytesRead, r.ColdProbeChargedOK)
	fprintf(w, "  reopen: %d records count-ok=%v frozen=%d both-tiers=%v\n",
		r.ReopenCount, r.ReopenCountOK, r.ReopenFrozen, r.ReopenBothTiers)
}
