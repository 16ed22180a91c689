package tier

import (
	"sync"
	"testing"

	"cinderella/internal/core"
	"cinderella/internal/obs"
	"cinderella/internal/table"
)

// fakeStore is an in-memory one-shard tier surface: freeze halves the
// resident footprint (the deflate stand-in), thaw restores it.
type fakeStore struct {
	mu     sync.Mutex
	states map[uint64]*State
}

func newFakeStore(pids ...uint64) *fakeStore {
	fs := &fakeStore{states: make(map[uint64]*State)}
	for _, pid := range pids {
		fs.states[pid] = &State{Shard: 0, TierState: table.TierState{
			Partition:     core.PartitionID(pid),
			Entities:      10,
			ResidentBytes: 1000,
			RawBytes:      1000,
		}}
	}
	return fs
}

func (fs *fakeStore) TierStates() []State {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	out := make([]State, 0, len(fs.states))
	for _, st := range fs.states {
		out = append(out, *st)
	}
	return out
}

func (fs *fakeStore) FreezePartition(_ int, pid uint64) (bool, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	st, ok := fs.states[pid]
	if !ok || st.Frozen {
		return false, nil
	}
	st.Frozen = true
	st.ResidentBytes = st.RawBytes / 2
	return true, nil
}

func (fs *fakeStore) ThawPartition(_ int, pid uint64) (bool, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	st, ok := fs.states[pid]
	if !ok || !st.Frozen {
		return false, nil
	}
	st.Frozen = false
	st.ResidentBytes = st.RawBytes
	st.ColdReads = 0
	return true, nil
}

func (fs *fakeStore) setColdReads(pid uint64, n int64) {
	fs.mu.Lock()
	fs.states[pid].ColdReads = n
	fs.mu.Unlock()
}

func (fs *fakeStore) frozenSet(t *testing.T) map[uint64]bool {
	t.Helper()
	out := make(map[uint64]bool)
	for _, st := range fs.TierStates() {
		if st.Frozen {
			out[uint64(st.Partition)] = true
		}
	}
	return out
}

// touch feeds one query's worth of heat for shard 0's partition pid
// into reg.
func touch(reg *obs.Registry, pid uint64) {
	reg.ShardView(0).FinishQuery(nil, 0, obs.QueryAgg{}, []obs.PartSpan{{
		Partition: pid, Scanned: 10, Returned: 10, BytesRead: 100, BytesRelevant: 100,
	}})
}

func TestIdlePartitionsFreezeQueriedOnesStayHot(t *testing.T) {
	fs := newFakeStore(1, 2, 3)
	reg := obs.New(obs.Options{})
	m := New(fs, reg, Config{MinIdleTicks: 2, MaxFreezesPerTick: 8})
	defer m.Close()

	// Partition 1 is queried every interval; 2 and 3 go quiet.
	touch(reg, 1)
	m.Tick()
	touch(reg, 1)
	m.Tick()
	touch(reg, 1)
	round := m.Tick()

	frozen := fs.frozenSet(t)
	if frozen[1] {
		t.Fatal("actively queried partition frozen")
	}
	if !frozen[2] || !frozen[3] {
		t.Fatalf("idle partitions not frozen: %v (round %+v)", frozen, round)
	}
	if !m.IsFrozen(0, 2) || m.IsFrozen(0, 1) {
		t.Fatal("IsFrozen disagrees with the store")
	}
}

func TestResidentBudgetStopsFreezing(t *testing.T) {
	fs := newFakeStore(1, 2, 3, 4)
	reg := obs.New(obs.Options{})
	// All four idle; budget 3500 needs only one 1000→500 freeze
	// (4000 → est. 3500).
	m := New(fs, reg, Config{MinIdleTicks: 1, MaxFreezesPerTick: 8, TargetResidentBytes: 3500})
	defer m.Close()
	if round := m.Tick(); len(round.Frozen) != 1 {
		t.Fatalf("%d freezes under a nearly-met budget, want 1", len(round.Frozen))
	}
	if round := m.Tick(); len(round.Frozen) != 0 {
		t.Fatalf("froze %v with the budget already met", round.Frozen)
	}

	// A generous budget freezes nothing no matter how idle.
	fs2 := newFakeStore(1, 2)
	m2 := New(fs2, obs.New(obs.Options{}), Config{MinIdleTicks: 1, TargetResidentBytes: 1 << 40})
	defer m2.Close()
	m2.Tick()
	if round := m2.Tick(); len(round.Frozen) != 0 {
		t.Fatalf("froze %v with resident far under budget", round.Frozen)
	}
}

func TestColdReadsReheatFrozenPartition(t *testing.T) {
	fs := newFakeStore(1, 2)
	reg := obs.New(obs.Options{})
	m := New(fs, reg, Config{MinIdleTicks: 1, MaxFreezesPerTick: 8, ReheatColdReads: 4})
	defer m.Close()
	m.Tick()
	m.Tick() // both idle for one interval -> frozen
	if frozen := fs.frozenSet(t); !frozen[1] || !frozen[2] {
		t.Fatalf("setup: frozen = %v", frozen)
	}

	// Partition 1 absorbs a burst of decompressions; 2 stays quiet.
	fs.setColdReads(1, 10)
	round := m.Tick()
	if len(round.Thawed) != 1 || round.Thawed[0].Partition != 1 {
		t.Fatalf("thawed %v, want partition 1", round.Thawed)
	}
	frozen := fs.frozenSet(t)
	if frozen[1] || !frozen[2] {
		t.Fatalf("after reheat: frozen = %v", frozen)
	}
	// The delta resets: no further cold reads, no further thaws — but
	// partition 1 refreezes once it goes idle again (its counters were
	// reset by the thaw).
	if round := m.Tick(); len(round.Thawed) != 0 {
		t.Fatalf("spurious thaw %v", round.Thawed)
	}
}

func TestMaxFreezesPerTickPaces(t *testing.T) {
	fs := newFakeStore(1, 2, 3, 4, 5, 6)
	reg := obs.New(obs.Options{})
	m := New(fs, reg, Config{MinIdleTicks: 1, MaxFreezesPerTick: 2})
	defer m.Close()
	m.Tick()
	if round := m.Tick(); len(round.Frozen) != 2 {
		t.Fatalf("%d freezes, want 2 (paced)", len(round.Frozen))
	}
	if round := m.Tick(); len(round.Frozen) != 2 {
		t.Fatalf("%d freezes on the next tick, want 2", len(round.Frozen))
	}
}

func TestPauseStopsTicks(t *testing.T) {
	fs := newFakeStore(1)
	reg := obs.New(obs.Options{})
	m := New(fs, reg, Config{MinIdleTicks: 1})
	defer m.Close()
	m.Pause()
	m.Tick()
	if round := m.Tick(); !round.Paused {
		t.Fatal("tick ran while paused")
	}
	if frozen := fs.frozenSet(t); len(frozen) != 0 {
		t.Fatalf("froze %v while paused", frozen)
	}
	m.Resume()
	m.Tick()
	m.Tick()
	if frozen := fs.frozenSet(t); !frozen[1] {
		t.Fatal("no freeze after resume")
	}
}

func TestStatusAggregates(t *testing.T) {
	fs := newFakeStore(1, 2, 3)
	reg := obs.New(obs.Options{})
	m := New(fs, reg, Config{MinIdleTicks: 1, MaxFreezesPerTick: 1})
	defer m.Close()
	m.Tick()
	s := m.Status()
	if s.FrozenPartitions != 1 || s.HotPartitions != 2 {
		t.Fatalf("status tiers hot=%d cold=%d, want 2/1", s.HotPartitions, s.FrozenPartitions)
	}
	if s.ColdResidentBytes != 500 || s.ColdRawBytes != 1000 {
		t.Fatalf("status cold bytes %d/%d, want 500/1000", s.ColdResidentBytes, s.ColdRawBytes)
	}
	if s.HotResidentBytes != 2000 {
		t.Fatalf("status hot bytes %d, want 2000", s.HotResidentBytes)
	}
	if s.Freezes != 1 || s.Ticks != 1 {
		t.Fatalf("status freezes=%d ticks=%d, want 1/1", s.Freezes, s.Ticks)
	}
}
