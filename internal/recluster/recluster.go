// Package recluster closes the observe→decide→act loop: a background
// manager that watches the partition heat map (per-partition EFFICIENCY
// from internal/obs), picks the partitions that are read a lot but
// rarely relevant, and incrementally re-rates their entities through
// the Cinderella Update/move machinery against a workload-blended
// rating — all online, in bounded batches under a write-rate governor,
// without stopping writers.
//
// Decide: victims come from ColdestPartitions (min-queries floor)
// re-ranked by wasted read volume, (1 - ratio) · bytes read — a
// partition that wastes gigabytes outranks one that wastes kilobytes
// at an equally bad ratio.
//
// Act: each victim entity is re-rated with Algorithm 1's attribute
// rating blended with a workload-relevance term derived from the
// recent query-shape mix (obs.QueryMix): score' = (1-α)·attr +
// α·Σ w_q·rel(e,q) / Σ w_q over the queries that scan the candidate
// partition, where rel is +1 when the entity matches the query and -1
// when it would be dead weight in a scanned partition. A negative
// blended best opens a fresh partition — that is how workload-pure
// partitions get seeded after a workload shift.
//
// Every move is an ordinary table mutation (seqlock bracket, WAL
// append), so snapshot readers, crash recovery, and the group
// committer treat reclustering like any other write traffic.
package recluster

import (
	"context"
	"sort"
	"sync"
	"time"

	"cinderella/internal/core"
	"cinderella/internal/obs"
	"cinderella/internal/synopsis"
	"cinderella/internal/table"
)

// Store is the reclusterer's view of the data plane: one bounded
// re-rate-and-move batch against one (shard, partition) victim, which
// shard.Sharded routes to the owning shard.
type Store interface {
	ReclusterPartition(shard int, pid uint64, max int, blender core.RatingBlender) (table.ReclusterResult, error)
}

// Config tunes the manager. Zero values take the documented defaults.
type Config struct {
	// Interval between background rounds (Run). Default 5s.
	Interval time.Duration
	// BatchSize bounds entities re-rated per victim per round. Default 64.
	BatchSize int
	// MaxVictims bounds victims migrated per round. Default 4.
	MaxVictims int
	// MinQueries is the heat floor: partitions with fewer (decayed)
	// queries are never victims. Default 16.
	MinQueries int
	// VictimThreshold: only partitions with relevant/read below this
	// qualify — an efficient partition is not worth rewriting. Default 0.75.
	VictimThreshold float64
	// Alpha is the workload-blend weight in [0,1]: 0 = pure attribute
	// rating, 1 = pure workload relevance. Default 0.5.
	Alpha float64
	// MaxMovesPerSec is the write-rate governor (token bucket). <= 0
	// means unlimited.
	MaxMovesPerSec float64
	// QueryMixSize bounds how many distinct recent query shapes feed
	// the blend. Default 16.
	QueryMixSize int
	// HeatHalfLife, when > 0, arms exponential heat decay on the
	// registry so victims reflect the recent workload.
	HeatHalfLife time.Duration
	// VictimFilter, when set, vetoes candidates: a (shard, partition)
	// for which it returns false is never selected. The daemon installs
	// the tiering manager's not-frozen check here so the reclusterer
	// does not re-rate a partition the tierer just compressed (every
	// re-rated member would thaw it again, and the two background
	// services would fight over the same partition).
	VictimFilter func(shard int32, pid uint64) bool
}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = 5 * time.Second
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 64
	}
	if c.MaxVictims <= 0 {
		c.MaxVictims = 4
	}
	if c.MinQueries <= 0 {
		c.MinQueries = 16
	}
	if c.VictimThreshold <= 0 {
		c.VictimThreshold = 0.75
	}
	if c.Alpha <= 0 {
		c.Alpha = 0.5
	}
	if c.Alpha > 1 {
		c.Alpha = 1
	}
	if c.QueryMixSize <= 0 {
		c.QueryMixSize = 16
	}
	return c
}

// Victim is one migrated partition in the round/status reports.
type Victim struct {
	Shard       int32   `json:"shard"`
	Partition   uint64  `json:"partition"`
	RatioBefore float64 `json:"ratio_before"`
	BytesRead   int64   `json:"bytes_read"`
	Examined    int     `json:"examined"`
	Moved       int     `json:"moved"`
}

// ShardProgress attributes cumulative recluster work to one shard.
type ShardProgress struct {
	Shard    int32 `json:"shard"`
	Batches  int64 `json:"batches"`
	Examined int64 `json:"examined"`
	Moved    int64 `json:"moved"`
}

// Round summarizes one Tick.
type Round struct {
	Victims   []Victim `json:"victims"`
	Examined  int      `json:"examined"`
	Moved     int      `json:"moved"`
	Throttled bool     `json:"throttled"`
	Paused    bool     `json:"paused"`
	Err       string   `json:"err,omitempty"`
}

// Status is the /debug/recluster snapshot.
type Status struct {
	Paused         bool            `json:"paused"`
	Interval       string          `json:"interval"`
	BatchSize      int             `json:"batch_size"`
	MaxVictims     int             `json:"max_victims"`
	MinQueries     int             `json:"min_queries"`
	Alpha          float64         `json:"alpha"`
	MaxMovesPerSec float64         `json:"max_moves_per_sec"`
	HeatHalfLife   string          `json:"heat_half_life"`
	Rounds         int64           `json:"rounds"`
	Batches        int64           `json:"batches"`
	Examined       int64           `json:"examined"`
	Moved          int64           `json:"moved"`
	Throttled      int64           `json:"throttled_rounds"`
	LastVictims    []Victim        `json:"last_victims"`
	PerShard       []ShardProgress `json:"per_shard"`
}

// Manager drives reclustering. Ticks are serialized (Run calls Tick;
// tests and benches may call Tick directly between Run ticks only if
// Run is not active — normally one driver owns the manager).
type Manager struct {
	cfg Config
	st  Store
	reg *obs.Registry

	mu          sync.Mutex
	paused      bool
	rounds      int64
	batches     int64
	examined    int64
	moved       int64
	throttled   int64
	lastVictims []Victim
	perShard    map[int32]*ShardProgress

	// Governor token bucket.
	tokens     float64
	lastRefill time.Time
	now        func() time.Time // swapped by tests
}

// New returns a manager and installs its status provider on reg (so
// /debug/recluster answers) plus the configured heat half-life. Call
// Run to recluster in the background, or Tick for synchronous rounds.
func New(st Store, reg *obs.Registry, cfg Config) *Manager {
	cfg = cfg.withDefaults()
	m := &Manager{
		cfg:      cfg,
		st:       st,
		reg:      reg,
		perShard: make(map[int32]*ShardProgress),
		now:      time.Now,
	}
	m.lastRefill = m.now()
	if cfg.MaxMovesPerSec > 0 {
		m.tokens = m.burst() // start with a full bucket
	}
	if cfg.HeatHalfLife > 0 {
		reg.SetHeatHalfLife(cfg.HeatHalfLife)
	}
	reg.SetStatus("recluster", func() any { return m.Status() })
	return m
}

// Close detaches the manager from the registry's status surface.
func (m *Manager) Close() { m.reg.SetStatus("recluster", nil) }

// Pause suspends reclustering: Ticks become no-ops until Resume. The
// daemon pauses the manager when drain begins so shutdown never races
// a migration batch.
func (m *Manager) Pause() {
	m.mu.Lock()
	m.paused = true
	m.mu.Unlock()
}

// Resume lifts Pause.
func (m *Manager) Resume() {
	m.mu.Lock()
	m.paused = false
	m.mu.Unlock()
}

// Run ticks every cfg.Interval until ctx is canceled.
func (m *Manager) Run(ctx context.Context) {
	t := time.NewTicker(m.cfg.Interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			m.Tick()
		}
	}
}

// Status snapshots the manager for /debug/recluster.
func (m *Manager) Status() Status {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := Status{
		Paused:         m.paused,
		Interval:       m.cfg.Interval.String(),
		BatchSize:      m.cfg.BatchSize,
		MaxVictims:     m.cfg.MaxVictims,
		MinQueries:     m.cfg.MinQueries,
		Alpha:          m.cfg.Alpha,
		MaxMovesPerSec: m.cfg.MaxMovesPerSec,
		HeatHalfLife:   m.cfg.HeatHalfLife.String(),
		Rounds:         m.rounds,
		Batches:        m.batches,
		Examined:       m.examined,
		Moved:          m.moved,
		Throttled:      m.throttled,
		LastVictims:    append([]Victim(nil), m.lastVictims...),
	}
	for _, p := range m.perShard {
		s.PerShard = append(s.PerShard, *p)
	}
	sort.Slice(s.PerShard, func(i, j int) bool { return s.PerShard[i].Shard < s.PerShard[j].Shard })
	return s
}

// burst is the governor bucket capacity: at least one full round.
func (m *Manager) burst() float64 {
	b := m.cfg.MaxMovesPerSec
	if min := float64(m.cfg.BatchSize); b < min {
		b = min
	}
	return b
}

// refill tops the bucket up by elapsed wall time. Caller holds mu.
func (m *Manager) refill() {
	if m.cfg.MaxMovesPerSec <= 0 {
		return
	}
	now := m.now()
	m.tokens += now.Sub(m.lastRefill).Seconds() * m.cfg.MaxMovesPerSec
	m.lastRefill = now
	if b := m.burst(); m.tokens > b {
		m.tokens = b
	}
}

// Tick runs one round: settle last round's outcomes, select victims
// from the heat map, migrate them (per-shard workers), account. It is
// the synchronous entry tests drive; Run calls it on a timer.
func (m *Manager) Tick() Round {
	m.mu.Lock()
	if m.paused {
		m.mu.Unlock()
		return Round{Paused: true}
	}
	m.refill()
	m.mu.Unlock()

	m.settleOutcomes()

	victims := m.selectVictims()
	var round Round
	if len(victims) == 0 {
		m.finishRound(&round, nil)
		return round
	}

	// Governor: hand each victim its batch allowance up front; when the
	// bucket runs dry the remaining victims wait for a later round.
	type job struct {
		v     Victim
		allow int
	}
	var jobs []job
	m.mu.Lock()
	for _, v := range victims {
		allow := m.cfg.BatchSize
		if m.cfg.MaxMovesPerSec > 0 {
			if m.tokens < 1 {
				round.Throttled = true
				break
			}
			if t := int(m.tokens); t < allow {
				allow = t
			}
			m.tokens -= float64(allow)
		}
		jobs = append(jobs, job{v: v, allow: allow})
	}
	m.mu.Unlock()

	// Per-shard workers: victims on different shards migrate in
	// parallel (each shard's table serializes internally anyway);
	// victims within one shard run in order.
	byShard := make(map[int32][]int)
	for i, j := range jobs {
		byShard[j.v.Shard] = append(byShard[j.v.Shard], i)
	}
	var (
		wg      sync.WaitGroup
		errMu   sync.Mutex
		lastErr error
	)
	for shard, idxs := range byShard {
		blender := m.blenderFor(shard)
		wg.Add(1)
		go func(shard int32, idxs []int, blender core.RatingBlender) {
			defer wg.Done()
			for _, i := range idxs {
				j := &jobs[i]
				vb := blender
				if blender != nil {
					// Eviction pressure: the victim's measured waste is
					// charged against its own candidacy, so entities only
					// stay when attribute and workload affinity outweigh
					// the observed inefficiency.
					vb = &victimBlender{
						inner:    blender,
						victim:   core.PartitionID(j.v.Partition),
						pressure: m.cfg.Alpha * (1 - j.v.RatioBefore),
					}
				}
				res, err := m.st.ReclusterPartition(int(shard), j.v.Partition, j.allow, vb)
				if err != nil {
					errMu.Lock()
					lastErr = err
					errMu.Unlock()
					return
				}
				jobs[i].v.Examined = res.Examined
				jobs[i].v.Moved = res.Moved
				m.account(shard, res)
				if res.Moved > 0 {
					// The old counters describe a membership that no
					// longer exists; measure the partition afresh.
					m.reg.ResetHeat(shard, j.v.Partition)
				}
			}
		}(shard, idxs, blender)
	}
	wg.Wait()

	done := make([]Victim, 0, len(jobs))
	for _, j := range jobs {
		done = append(done, j.v)
		round.Examined += j.v.Examined
		round.Moved += j.v.Moved
	}
	round.Victims = done
	if lastErr != nil {
		round.Err = lastErr.Error()
	}
	m.finishRound(&round, done)
	return round
}

// finishRound publishes counters and rolls the round into the status.
func (m *Manager) finishRound(round *Round, victims []Victim) {
	m.reg.Add(obs.CReclusterRounds, 1)
	m.mu.Lock()
	m.rounds++
	if round.Throttled {
		m.throttled++
	}
	if victims != nil {
		m.lastVictims = victims
	}
	m.mu.Unlock()
}

// account publishes one victim batch's counters and shard progress.
func (m *Manager) account(shard int32, res table.ReclusterResult) {
	m.reg.Add(obs.CReclusterBatches, 1)
	m.reg.Add(obs.CReclusterExamined, int64(res.Examined))
	m.reg.Add(obs.CReclusterMoves, int64(res.Moved))
	m.mu.Lock()
	m.batches++
	m.examined += int64(res.Examined)
	m.moved += int64(res.Moved)
	p := m.perShard[shard]
	if p == nil {
		p = &ShardProgress{Shard: shard}
		m.perShard[shard] = p
	}
	p.Batches++
	p.Examined += int64(res.Examined)
	p.Moved += int64(res.Moved)
	m.mu.Unlock()
}

// settleOutcomes records efficiency-after for the previous round's
// victims: their heat was reset at migration, so whatever ratio the
// fresh queries produced since is the "after" measurement.
func (m *Manager) settleOutcomes() {
	m.mu.Lock()
	victims := m.lastVictims
	m.lastVictims = nil
	m.mu.Unlock()
	for _, v := range victims {
		if v.Examined == 0 {
			continue
		}
		after, known := m.reg.HeatRatio(v.Shard, v.Partition)
		m.reg.RecordReclusterOutcome(obs.ReclusterOutcome{
			Shard:       v.Shard,
			Partition:   v.Partition,
			RatioBefore: v.RatioBefore,
			RatioAfter:  after,
			AfterKnown:  known,
			Examined:    int64(v.Examined),
			Moved:       int64(v.Moved),
		})
	}
}

// selectVictims ranks the heat map's coldest partitions by wasted read
// volume, (1 - ratio) · bytes read, and keeps the worst MaxVictims
// below the efficiency threshold.
func (m *Manager) selectVictims() []Victim {
	rows := m.reg.ColdestPartitions(4*m.cfg.MaxVictims, m.cfg.MinQueries)
	var out []Victim
	for _, row := range rows {
		if row.ReadRatio >= m.cfg.VictimThreshold {
			continue
		}
		if m.cfg.VictimFilter != nil && !m.cfg.VictimFilter(row.Shard, row.Partition) {
			continue
		}
		out = append(out, Victim{
			Shard:       row.Shard,
			Partition:   row.Partition,
			RatioBefore: row.ReadRatio,
			BytesRead:   row.BytesRead,
		})
	}
	sort.SliceStable(out, func(i, j int) bool {
		wi := (1 - out[i].RatioBefore) * float64(out[i].BytesRead)
		wj := (1 - out[j].RatioBefore) * float64(out[j].BytesRead)
		return wi > wj
	})
	if len(out) > m.cfg.MaxVictims {
		out = out[:m.cfg.MaxVictims]
	}
	return out
}

// blenderFor builds the workload blender for one shard from that
// shard's recent query-shape mix (heat is per shard, so each shard gets
// its own blender). Nil — pure attribute rating — when no recent
// queries were recorded.
func (m *Manager) blenderFor(shard int32) core.RatingBlender {
	mix := m.reg.QueryMix(shard, m.cfg.QueryMixSize)
	if len(mix) == 0 {
		return nil
	}
	b := &workloadBlender{alpha: m.cfg.Alpha}
	for _, shape := range mix {
		b.queries = append(b.queries, synopsis.Of(shape.Attrs...))
		b.weights = append(b.weights, float64(shape.Count))
	}
	return b
}

// workloadBlender scores an entity/partition pair by how the recent
// query mix would experience the entity living there: +w_q when query
// q scans the partition and the entity matches it, -w_q when q scans
// it and the entity is dead weight. Queries that never scan the
// partition are silent. The normalized term lands in [-1, 1], the same
// scale as the normalized attribute rating it is blended with.
type workloadBlender struct {
	alpha   float64
	queries []*synopsis.Set
	weights []float64
}

// victimBlender wraps the shard's workload blender with eviction
// pressure against the partition currently under reclustering. A
// mixed partition is a local optimum for the plain blend — the ±w
// workload votes cancel and the attribute score keeps every entity in
// place. The victim, however, was selected on measured evidence that
// its layout wastes (1-ratio) of its read volume, so that waste is
// subtracted from the victim's own score (scaled by alpha, the trust
// in workload evidence). When the handicapped best goes negative,
// Cinderella's open-new-partition rule fires and seeds a
// workload-pure partition that then attracts its peers; partitions
// the workload reads efficiently are never victims and feel no
// pressure.
type victimBlender struct {
	inner    core.RatingBlender
	victim   core.PartitionID
	pressure float64
}

func (b *victimBlender) Blend(e *core.Entity, pid core.PartitionID, pSyn *synopsis.Set, attrScore float64) float64 {
	s := b.inner.Blend(e, pid, pSyn, attrScore)
	if pid == b.victim {
		s -= b.pressure
	}
	return s
}

func (b *workloadBlender) Blend(e *core.Entity, _ core.PartitionID, pSyn *synopsis.Set, attrScore float64) float64 {
	var num, den float64
	for i, q := range b.queries {
		if !synopsis.Intersects(pSyn, q) {
			continue
		}
		w := b.weights[i]
		den += w
		if synopsis.Intersects(e.Syn, q) {
			num += w
		} else {
			num -= w
		}
	}
	if den == 0 {
		return attrScore
	}
	return (1-b.alpha)*attrScore + b.alpha*(num/den)
}
