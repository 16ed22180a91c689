package obs

import (
	"testing"
	"time"
)

// TestHeatDecayRecentWorkloadWins pins the reason decay exists: a
// partition that was efficient long ago but is cold under the current
// workload must rank as the coldest once the old history is decayed,
// while without decay the accumulated totals keep it looking healthy.
func TestHeatDecayRecentWorkloadWins(t *testing.T) {
	decayed := New(Options{})
	control := New(Options{})

	// Old phase: partition 1 is hot (90% relevant), partition 2 cold.
	for i := 0; i < 100; i++ {
		for _, r := range []*Registry{decayed, control} {
			finishOne(r, 1, 100, 90, 1000)
			finishOne(r, 2, 100, 5, 1000)
		}
	}
	// The workload shifts: only one registry forgets the old phase.
	decayed.heat.decay(0.01)
	// New phase: partition 1 turns cold, partition 2 turns hot.
	for i := 0; i < 20; i++ {
		for _, r := range []*Registry{decayed, control} {
			finishOne(r, 1, 100, 5, 1000)
			finishOne(r, 2, 100, 90, 1000)
		}
	}

	cold := decayed.ColdestPartitions(2, 1)
	if len(cold) != 2 || cold[0].Partition != 1 {
		t.Fatalf("with decay, coldest = %+v, want partition 1 first", cold)
	}
	if cold[0].ReadRatio >= 0.2 {
		t.Fatalf("with decay, partition 1 ratio = %v, want recent (~0.09), not the cumulative blend", cold[0].ReadRatio)
	}
	// Control: cumulative totals still rank the old-cold partition 2
	// first, i.e. the old-hot/new-cold partition 1 sits lower ("sinks")
	// only because stale history props it up.
	ctl := control.ColdestPartitions(2, 1)
	if len(ctl) != 2 || ctl[0].Partition != 2 {
		t.Fatalf("without decay, coldest = %+v, want stale partition 2 first", ctl)
	}
}

// TestHeatHalfLife exercises wall-clock decay through a virtual clock:
// counters halve per half-life, idle partitions sink below the
// min-queries floor and drop off the coldest shortlist entirely.
func TestHeatHalfLife(t *testing.T) {
	r := New(Options{})
	now := int64(0)
	r.heat.nowNs = func() int64 { return now }
	r.SetHeatHalfLife(time.Minute)
	if r.HeatHalfLife() != time.Minute {
		t.Fatalf("HeatHalfLife = %v, want 1m", r.HeatHalfLife())
	}

	for i := 0; i < 64; i++ {
		finishOne(r, 9, 100, 5, 1000)
	}
	if rows := r.ColdestPartitions(1, 8); len(rows) != 1 || rows[0].Queries != 64 {
		t.Fatalf("pre-decay rows = %+v, want partition 9 with 64 queries", rows)
	}

	now += int64(3 * time.Minute)
	rows := r.HeatSnapshot()
	if len(rows) != 1 || rows[0].Queries != 8 {
		t.Fatalf("after 3 half-lives, rows = %+v, want 64/8 = 8 queries", rows)
	}
	// Ratio is scale-invariant under decay.
	if got := rows[0].ReadRatio; got != 0.05 {
		t.Fatalf("ReadRatio after decay = %v, want 0.05", got)
	}
	// An idle partition keeps decaying below the floor and vanishes
	// from the victim shortlist.
	now += int64(10 * time.Minute)
	if rows := r.ColdestPartitions(1, 8); len(rows) != 0 {
		t.Fatalf("after 13 idle half-lives, shortlist = %+v, want empty", rows)
	}
}

// TestHeatResetAndRatio covers the reclusterer's post-migration reset:
// counters zero out, HeatRatio reports absence until fresh reads
// arrive, then reflects only the post-reset workload.
func TestHeatResetAndRatio(t *testing.T) {
	r := New(Options{})
	finishOne(r, 3, 100, 10, 1000)
	if ratio, ok := r.HeatRatio(-1, 3); !ok || ratio != 0.1 {
		t.Fatalf("HeatRatio = %v,%v, want 0.1,true", ratio, ok)
	}
	r.ResetHeat(-1, 3)
	if _, ok := r.HeatRatio(-1, 3); ok {
		t.Fatal("HeatRatio reported a ratio for a reset partition")
	}
	finishOne(r, 3, 100, 90, 1000)
	if ratio, ok := r.HeatRatio(-1, 3); !ok || ratio != 0.9 {
		t.Fatalf("HeatRatio after reset+reads = %v,%v, want 0.9,true", ratio, ok)
	}
}
