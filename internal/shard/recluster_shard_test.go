package shard

import (
	"fmt"
	"testing"

	"cinderella"
	"cinderella/internal/obs"
	"cinderella/internal/recluster"
)

// TestReclusterShardStampedTrace drives the reclusterer against a
// sharded store and pins two properties of the sharded path: migration
// work is attributed to real shard ids in the manager's progress, and
// every trace event emitted by a recluster migration carries the shard
// id of the table that performed it.
func TestReclusterShardStampedTrace(t *testing.T) {
	reg := obs.New(obs.Options{})
	s, err := Open(t.TempDir(), Options{
		Shards: 2,
		Config: cinderella.Config{PartitionSizeLimit: 16, Obs: reg},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	for i := 0; i < 512; i++ {
		doc := cinderella.Doc{
			"c0":                        i,
			"c1":                        "x",
			fmt.Sprintf("a%d", i%8):     1,
			fmt.Sprintf("b%d", (i/8)%8): 1,
		}
		if _, err := s.Insert(doc); err != nil {
			t.Fatal(err)
		}
	}

	// Everything so far (inserts, splits) is pre-recluster noise; only
	// events after this watermark belong to the migrations.
	var watermark uint64
	for _, ev := range reg.TraceDump() {
		if ev.Seq > watermark {
			watermark = ev.Seq
		}
	}

	m := recluster.New(s, reg, recluster.Config{
		BatchSize: 64, MaxVictims: 8, MinQueries: 1, Alpha: 0.9,
	})
	defer m.Close()

	for round := 0; m.Status().Moved == 0 && round < 20; round++ {
		for i := 0; i < 8; i++ {
			s.Query(fmt.Sprintf("b%d", i))
		}
		m.Tick()
	}
	st := m.Status()
	if st.Moved == 0 {
		t.Fatalf("no migrations after 20 rounds: %+v", st)
	}

	// Progress must be attributed to real shards, not the root handle's -1.
	for _, ps := range st.PerShard {
		if ps.Shard < 0 || int(ps.Shard) >= s.Shards() {
			t.Fatalf("progress attributed to invalid shard %d: %+v", ps.Shard, st.PerShard)
		}
	}

	// Every post-watermark move/update event must be shard-stamped.
	var stamped int
	for _, ev := range reg.TraceDump() {
		if ev.Seq <= watermark {
			continue
		}
		if ev.Kind != obs.EvMove && ev.Kind != obs.EvUpdate {
			continue
		}
		if ev.Shard < 0 || int(ev.Shard) >= s.Shards() {
			t.Fatalf("recluster event %+v not shard-stamped", ev)
		}
		stamped++
	}
	if stamped == 0 {
		t.Fatal("no shard-stamped move/update events traced during reclustering")
	}

	// The migrations advance the global LSN clock, so a group committer
	// fsyncing to LastLSN covers them.
	if s.LastLSN() == 0 {
		t.Fatal("recluster moves did not advance the global LSN")
	}
}
