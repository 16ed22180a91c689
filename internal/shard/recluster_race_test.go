package shard

import (
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"cinderella"
	"cinderella/internal/recluster"
)

// raceDoc mirrors the adversarial shift shape: two common attributes
// plus one from each of two independent families, so reclustering has
// real migrations to perform while the writers run.
func raceDoc(i int) cinderella.Doc {
	return cinderella.Doc{
		"c0":                        i,
		"c1":                        "x",
		fmt.Sprintf("a%d", i%8):     1,
		fmt.Sprintf("b%d", (i/8)%8): 1,
	}
}

// TestReclusterConcurrentIntegrity is the satellite property test: with
// writers, readers, and the reclusterer all running concurrently, no
// entity is ever lost or duplicated — neither in memory nor across a
// WAL reopen. That the reclusterer migrates at all is established
// first, single-threaded, so the concurrent phase has nothing to prove
// but integrity and no assertion depends on how the race was scheduled.
// The store is the daemon's default: one shard.
func TestReclusterConcurrentIntegrity(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "race")
	reg := cinderella.NewObserver()
	dt, err := Open(dir, Options{Shards: 1, Config: cinderella.Config{PartitionSizeLimit: 16, Obs: reg}})
	if err != nil {
		t.Fatal(err)
	}

	const (
		seedDocs     = 256
		writers      = 4
		opsPerWriter = 300
	)
	var (
		writerWG, bgWG sync.WaitGroup
		stop           atomic.Bool
		aliveMu        sync.Mutex
		alive          = make(map[cinderella.ID]bool)
	)

	// Seed phase, no concurrency: load, query one family only, and tick
	// until the layout has chased it. Every later check therefore runs
	// over entities that have been migrated.
	for i := 0; i < seedDocs; i++ {
		id, err := dt.Insert(raceDoc(i))
		if err != nil {
			t.Fatal(err)
		}
		alive[id] = true
	}
	m := recluster.New(dt, reg, recluster.Config{
		BatchSize: 32, MaxVictims: 4, MinQueries: 1, Alpha: 0.9,
	})
	for round := 0; m.Status().Moved == 0 && round < 20; round++ {
		for i := 0; i < 8; i++ {
			dt.Query(fmt.Sprintf("b%d", i))
		}
		m.Tick()
	}
	if m.Status().Moved == 0 {
		t.Fatal("reclusterer never moved an entity; the race would prove nothing")
	}

	// Writers: each inserts its own stream, updating and deleting a
	// fraction of its own ids so liveness churns under the migrations.
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			var mine []cinderella.ID
			for i := 0; i < opsPerWriter; i++ {
				id, err := dt.Insert(raceDoc(w*opsPerWriter + i))
				if err != nil {
					t.Errorf("insert: %v", err)
					return
				}
				mine = append(mine, id)
				aliveMu.Lock()
				alive[id] = true
				aliveMu.Unlock()
				switch i % 5 {
				case 2: // update an earlier entity in place
					if _, err := dt.Update(mine[i/2], raceDoc(w*opsPerWriter+i+1)); err != nil {
						t.Errorf("update: %v", err)
						return
					}
				case 4: // delete an earlier entity
					victim := mine[i/2]
					ok, err := dt.Delete(victim)
					if err != nil {
						t.Errorf("delete: %v", err)
						return
					}
					if ok {
						aliveMu.Lock()
						delete(alive, victim)
						aliveMu.Unlock()
					}
				}
			}
		}(w)
	}

	// Readers: sweep both families to keep the heat map and the query
	// mix hot while the migrations run.
	for r := 0; r < 2; r++ {
		bgWG.Add(1)
		go func(r int) {
			defer bgWG.Done()
			for i := 0; !stop.Load(); i++ {
				fam := "a"
				if r == 1 {
					fam = "b"
				}
				dt.Query(fmt.Sprintf("%s%d", fam, i%8))
			}
		}(r)
	}

	// The reclusterer ticks as fast as it can for the whole run.
	bgWG.Add(1)
	go func() {
		defer bgWG.Done()
		for !stop.Load() {
			m.Tick()
		}
	}()

	writerWG.Wait()
	stop.Store(true)
	bgWG.Wait()

	check := func(label string, tbl *Sharded) {
		t.Helper()
		recs := tbl.ScanAll()
		aliveMu.Lock()
		defer aliveMu.Unlock()
		if len(recs) != len(alive) {
			t.Fatalf("%s: %d live records, want %d", label, len(recs), len(alive))
		}
		seen := make(map[cinderella.ID]bool, len(recs))
		for _, rec := range recs {
			if seen[rec.ID] {
				t.Fatalf("%s: duplicate entity %d", label, rec.ID)
			}
			seen[rec.ID] = true
			if !alive[rec.ID] {
				t.Fatalf("%s: unexpected entity %d (deleted or never inserted)", label, rec.ID)
			}
		}
	}
	check("live table", dt)
	m.Close()
	if err := dt.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: WAL replay must reconstruct exactly the same live set.
	dt2, err := Open(dir, Options{Shards: 1, Config: cinderella.Config{PartitionSizeLimit: 16}})
	if err != nil {
		t.Fatal(err)
	}
	defer dt2.Close()
	check("reopened table", dt2)
}

// TestReclusterQueriesMatchModel interleaves recluster ticks with reads
// checked against a model of the inserted documents: mid-migration,
// every query returns exactly the documents carrying the attribute, and
// its report adds up from the partition listing. (The record-level
// oracle — every report field, I/O charges — runs against the same
// migration primitive in internal/table's TestReclusterMovesMatchOracle.)
func TestReclusterQueriesMatchModel(t *testing.T) {
	reg := cinderella.NewObserver()
	dt, err := Open(t.TempDir(), Options{Shards: 1, Config: cinderella.Config{PartitionSizeLimit: 16, Obs: reg}})
	if err != nil {
		t.Fatal(err)
	}
	defer dt.Close()
	model := make(map[cinderella.ID]cinderella.Doc)
	for i := 0; i < 256; i++ {
		id, err := dt.Insert(raceDoc(i))
		if err != nil {
			t.Fatal(err)
		}
		model[id] = raceDoc(i)
	}

	m := recluster.New(dt, reg, recluster.Config{
		BatchSize: 16, MaxVictims: 2, MinQueries: 1, Alpha: 0.9,
	})
	defer m.Close()

	check := func(attr string) {
		t.Helper()
		recs, rep := dt.QueryWithReport(attr)
		want := cinderella.QueryReport{}
		for _, doc := range model {
			if _, ok := doc[attr]; ok {
				want.EntitiesReturned++
			}
		}
		seen := make(map[cinderella.ID]bool, len(recs))
		for _, rec := range recs {
			if _, ok := model[rec.ID][attr]; !ok || seen[rec.ID] {
				t.Fatalf("query %q: unexpected or duplicate record %d", attr, rec.ID)
			}
			seen[rec.ID] = true
			if got, want := fmt.Sprint(rec.Doc), fmt.Sprint(model[rec.ID]); got != want {
				t.Fatalf("query %q: record %d = %s, inserted %s", attr, rec.ID, got, want)
			}
		}
		for _, ps := range dt.Partitions() {
			want.PartitionsTotal++
			touched := false
			for _, a := range ps.Attributes {
				touched = touched || a == attr
			}
			if !touched {
				want.PartitionsPruned++
				continue
			}
			want.PartitionsTouched++
			want.EntitiesScanned += ps.Records
			want.BytesRead += ps.Bytes
		}
		// Stored record sizes are invisible at this level: pin the
		// relevant-byte volume by its bounds.
		if rep.BytesRelevant <= 0 || rep.BytesRelevant > rep.BytesRead ||
			(rep.EntitiesReturned == rep.EntitiesScanned) != (rep.BytesRelevant == rep.BytesRead) {
			t.Fatalf("query %q: implausible relevant bytes in %+v", attr, rep)
		}
		want.BytesRelevant = rep.BytesRelevant
		if len(recs) != want.EntitiesReturned || rep != want {
			t.Fatalf("query %q: %d records, report %+v; model says %+v", attr, len(recs), rep, want)
		}
	}

	for round := 0; round < 6; round++ {
		// Warm the heat map so the next tick has victims, with the "b"
		// family as the workload being chased.
		for i := 0; i < 8; i++ {
			dt.Query(fmt.Sprintf("b%d", i))
		}
		m.Tick()
		for i := 0; i < 8; i++ {
			check(fmt.Sprintf("b%d", i))
			check(fmt.Sprintf("a%d", i))
		}
	}
	if m.Status().Moved == 0 {
		t.Fatal("reclusterer never moved an entity; the check proved nothing")
	}
}
