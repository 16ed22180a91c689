// Package tier drives heat-driven storage tiering in the background:
// partitions the workload has gone quiet on are frozen into compressed,
// read-only cold segments (internal/storage), and frozen partitions the
// workload comes back to are thawed ("reheated") into the hot tier.
//
// The manager is deliberately shaped like internal/recluster.Manager —
// a periodic Tick against the partition heat map, a Pause/Resume drain
// hook, and a live status surface at /debug/tier — because the two
// background services share a control plane: the daemon runs both, and
// the reclusterer consults IsFrozen so it never re-rates a partition
// the tierer just compressed (re-rating members would thaw it, and the
// two services would fight).
//
// Tier policy, per tick:
//
//   - Demote (freeze): a hot partition whose heat-map query count has
//     not moved for MinIdleTicks consecutive ticks is idle. Idle
//     partitions are frozen coldest-first — never-queried before
//     longest-idle, larger resident footprint first — until the
//     resident-byte budget (TargetResidentBytes) is met, capped at
//     MaxFreezesPerTick per tick so freeze CPU (vacuum + deflate) is
//     paced. With no byte budget every sufficiently idle partition is
//     eligible.
//
//   - Promote (thaw): a frozen partition that absorbed ReheatColdReads
//     or more block decompressions since the previous tick is being
//     scanned again — reheat it. Mutations bypass the manager entirely:
//     any write reaching a frozen partition thaws it inside the table
//     layer, and the manager just observes the changed tier state on
//     its next tick.
package tier

import (
	"context"
	"sort"
	"sync"
	"time"

	"cinderella/internal/obs"
	"cinderella/internal/table"
)

// State is one partition's tier row qualified by its owning shard, the
// Store wire type and the /debug/tier per-partition listing.
type State struct {
	Shard int `json:"shard"`
	table.TierState
}

// Store is the tiering manager's view of the data plane, implemented
// by shard.Sharded.
type Store interface {
	TierStates() []State
	FreezePartition(shard int, pid uint64) (bool, error)
	ThawPartition(shard int, pid uint64) (bool, error)
}

// Config tunes the manager. Zero values take the documented defaults.
type Config struct {
	// Interval between background ticks (Run). Default 10s.
	Interval time.Duration
	// TargetResidentBytes is the hot-tier budget: while the hot
	// partitions' resident bytes exceed it, idle partitions are frozen.
	// 0 means no byte budget — every partition idle for MinIdleTicks is
	// frozen regardless of memory pressure.
	TargetResidentBytes int64
	// MaxFreezesPerTick paces freeze CPU (vacuum + deflate per victim).
	// Default 4.
	MaxFreezesPerTick int
	// MinIdleTicks is how many consecutive query-idle ticks make a hot
	// partition a freeze candidate. Default 2.
	MinIdleTicks int
	// ReheatColdReads is the promotion trigger: a frozen partition
	// absorbing this many block decompressions within one tick interval
	// is thawed. Default 4.
	ReheatColdReads int64
}

func (c Config) withDefaults() Config {
	if c.Interval <= 0 {
		c.Interval = 10 * time.Second
	}
	if c.MaxFreezesPerTick <= 0 {
		c.MaxFreezesPerTick = 4
	}
	if c.MinIdleTicks <= 0 {
		c.MinIdleTicks = 2
	}
	if c.ReheatColdReads <= 0 {
		c.ReheatColdReads = 4
	}
	return c
}

// Transition is one freeze or thaw in the round/status reports.
type Transition struct {
	Shard     int    `json:"shard"`
	Partition uint64 `json:"partition"`
	Froze     bool   `json:"froze"` // false = thawed (reheat)
	Bytes     int64  `json:"bytes"` // resident bytes before the transition
}

// Round summarizes one Tick.
type Round struct {
	Frozen   []Transition `json:"frozen,omitempty"`
	Thawed   []Transition `json:"thawed,omitempty"`
	Paused   bool         `json:"paused"`
	Resident int64        `json:"resident_bytes"` // hot raw + cold compressed, after the round
	Err      string       `json:"err,omitempty"`
}

// Status is the /debug/tier snapshot.
type Status struct {
	Paused              bool          `json:"paused"`
	Interval            string        `json:"interval"`
	TargetResidentBytes int64         `json:"target_resident_bytes"`
	MaxFreezesPerTick   int           `json:"max_freezes_per_tick"`
	MinIdleTicks        int           `json:"min_idle_ticks"`
	ReheatColdReads     int64         `json:"reheat_cold_reads"`
	Ticks               int64         `json:"ticks"`
	Freezes             int64         `json:"freezes"`
	Thaws               int64         `json:"thaws"`
	HotPartitions       int           `json:"hot_partitions"`
	FrozenPartitions    int           `json:"frozen_partitions"`
	HotResidentBytes    int64         `json:"hot_resident_bytes"`
	ColdResidentBytes   int64         `json:"cold_resident_bytes"`
	ColdRawBytes        int64         `json:"cold_raw_bytes"`
	LastRound           Round         `json:"last_round"`
	Partitions          []State       `json:"partitions"`
	LastTick            time.Duration `json:"-"`
}

// tierKey addresses one partition across shards.
type tierKey struct {
	shard int
	pid   uint64
}

// Manager drives tiering. Ticks are serialized (Run calls Tick; tests
// and benches may call Tick directly when Run is not active).
type Manager struct {
	cfg Config
	st  Store
	reg *obs.Registry

	mu        sync.Mutex
	paused    bool
	ticks     int64
	freezes   int64
	thaws     int64
	lastRound Round
	// queries/idle track per-partition workload quiescence: queries is
	// the heat-map query count at the last tick, idle the consecutive
	// ticks it has not moved.
	queries map[tierKey]int64
	idle    map[tierKey]int
	// coldReads is each frozen partition's decompression count at the
	// last tick; the per-tick delta is the reheat signal.
	coldReads map[tierKey]int64
	// frozen caches the frozen set for IsFrozen (the reclusterer's
	// victim filter) between ticks.
	frozen map[tierKey]bool
}

// New returns a manager and installs its status provider on reg (so
// /debug/tier answers). Call Run to tier in the background, or Tick
// for synchronous rounds.
func New(st Store, reg *obs.Registry, cfg Config) *Manager {
	m := &Manager{
		cfg:       cfg.withDefaults(),
		st:        st,
		reg:       reg,
		queries:   make(map[tierKey]int64),
		idle:      make(map[tierKey]int),
		coldReads: make(map[tierKey]int64),
		frozen:    make(map[tierKey]bool),
	}
	reg.SetStatus("tier", func() any { return m.Status() })
	return m
}

// Close detaches the manager from the registry's status surface.
func (m *Manager) Close() { m.reg.SetStatus("tier", nil) }

// Pause suspends tiering: Ticks become no-ops until Resume. The daemon
// pauses the manager when drain begins so shutdown never races a
// freeze against the final checkpoint.
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

// IsFrozen reports whether (shard, pid) was frozen as of the last tick
// — the reclusterer's victim filter. Deliberately a cached answer: a
// stale true only skips one recluster batch, a stale false re-rates a
// partition whose mutation path would thaw it anyway.
func (m *Manager) IsFrozen(shard int, pid uint64) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.frozen[tierKey{shard, pid}]
}

// Status snapshots the manager for /debug/tier.
func (m *Manager) Status() Status {
	states := m.st.TierStates()
	m.mu.Lock()
	defer m.mu.Unlock()
	s := Status{
		Paused:              m.paused,
		Interval:            m.cfg.Interval.String(),
		TargetResidentBytes: m.cfg.TargetResidentBytes,
		MaxFreezesPerTick:   m.cfg.MaxFreezesPerTick,
		MinIdleTicks:        m.cfg.MinIdleTicks,
		ReheatColdReads:     m.cfg.ReheatColdReads,
		Ticks:               m.ticks,
		Freezes:             m.freezes,
		Thaws:               m.thaws,
		LastRound:           m.lastRound,
		Partitions:          states,
	}
	for _, ts := range states {
		if ts.Frozen {
			s.FrozenPartitions++
			s.ColdResidentBytes += ts.ResidentBytes
			s.ColdRawBytes += ts.RawBytes
		} else {
			s.HotPartitions++
			s.HotResidentBytes += ts.ResidentBytes
		}
	}
	return s
}

// Tick runs one round: update idle bookkeeping from the heat map, thaw
// reheated frozen partitions, freeze idle hot partitions down to the
// resident budget. It is the synchronous entry tests and benches
// drive; Run calls it on a timer.
func (m *Manager) Tick() Round {
	m.mu.Lock()
	if m.paused {
		m.mu.Unlock()
		return Round{Paused: true}
	}
	m.ticks++
	cfg := m.cfg
	m.mu.Unlock()

	states := m.st.TierStates()
	heat := make(map[tierKey]int64)
	for _, row := range m.reg.HeatSnapshot() {
		heat[tierKey{int(row.Shard), row.Partition}] = row.Queries
	}

	var round Round
	seen := make(map[tierKey]bool, len(states))
	frozenNow := make(map[tierKey]bool)

	m.mu.Lock()
	// Pass 1: bookkeeping. Idle counts advance when the partition's
	// query count did not move this interval; reheat deltas come from
	// the frozen partitions' decompression counters.
	type candidate struct {
		key   tierKey
		idle  int
		never bool // never queried at all — coldest possible
		bytes int64
	}
	var freezable []candidate
	var reheat []tierKey
	var resident int64
	for _, ts := range states {
		k := tierKey{ts.Shard, uint64(ts.Partition)}
		seen[k] = true
		resident += ts.ResidentBytes
		q, everQueried := heat[k]
		if moved := q != m.queries[k]; moved {
			m.idle[k] = 0
		} else {
			m.idle[k]++
		}
		m.queries[k] = q
		if ts.Frozen {
			frozenNow[k] = true
			delta := ts.ColdReads - m.coldReads[k]
			m.coldReads[k] = ts.ColdReads
			if delta >= cfg.ReheatColdReads {
				reheat = append(reheat, k)
			}
			continue
		}
		delete(m.coldReads, k)
		if ts.Entities == 0 || m.idle[k] < cfg.MinIdleTicks {
			continue
		}
		freezable = append(freezable, candidate{
			key:   k,
			idle:  m.idle[k],
			never: !everQueried,
			bytes: ts.ResidentBytes,
		})
	}
	// Drop bookkeeping for partitions that no longer exist.
	for k := range m.queries {
		if !seen[k] {
			delete(m.queries, k)
			delete(m.idle, k)
			delete(m.coldReads, k)
		}
	}
	m.mu.Unlock()

	// Pass 2: promote. Reheats are unconditional — the workload is
	// paying decompression for these partitions right now.
	for _, k := range reheat {
		ok, err := m.st.ThawPartition(k.shard, k.pid)
		if err != nil {
			round.Err = err.Error()
			continue
		}
		if ok {
			delete(frozenNow, k)
			round.Thawed = append(round.Thawed, Transition{Shard: k.shard, Partition: k.pid})
			m.mu.Lock()
			m.thaws++
			delete(m.coldReads, k)
			m.mu.Unlock()
		}
	}

	// Pass 3: demote, coldest first. With a byte budget, stop as soon
	// as the resident footprint fits; without one, freeze every idle
	// candidate up to the per-tick cap.
	sort.SliceStable(freezable, func(i, j int) bool {
		if freezable[i].never != freezable[j].never {
			return freezable[i].never
		}
		if freezable[i].idle != freezable[j].idle {
			return freezable[i].idle > freezable[j].idle
		}
		return freezable[i].bytes > freezable[j].bytes
	})
	for _, c := range freezable {
		if len(round.Frozen) >= cfg.MaxFreezesPerTick {
			break
		}
		if cfg.TargetResidentBytes > 0 && resident <= cfg.TargetResidentBytes {
			break
		}
		ok, err := m.st.FreezePartition(c.key.shard, c.key.pid)
		if err != nil {
			round.Err = err.Error()
			break
		}
		if !ok {
			continue
		}
		frozenNow[c.key] = true
		round.Frozen = append(round.Frozen, Transition{
			Shard: c.key.shard, Partition: c.key.pid, Froze: true, Bytes: c.bytes,
		})
		// The freeze replaced raw pages with compressed blocks; estimate
		// the budget progress from the deflate ratio without re-listing
		// (the next tick refreshes exact numbers).
		resident -= c.bytes / 2
		m.mu.Lock()
		m.freezes++
		m.mu.Unlock()
	}

	round.Resident = resident
	m.mu.Lock()
	m.frozen = frozenNow
	m.lastRound = round
	m.mu.Unlock()
	return round
}
