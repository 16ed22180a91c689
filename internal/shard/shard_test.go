package shard

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"cinderella"
)

func testConfig() cinderella.Config {
	return cinderella.Config{Weight: 0.5, PartitionSizeLimit: 50}
}

func docFor(rng *rand.Rand) cinderella.Doc {
	d := cinderella.Doc{}
	class := rng.Intn(4)
	for j := 0; j < 6; j++ {
		d[fmt.Sprintf("c%d_a%d", class, rng.Intn(12))] = int64(rng.Intn(100))
	}
	return d
}

func TestShardedBasic(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Shards: 4, Config: testConfig()})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	docs := map[cinderella.ID]cinderella.Doc{}
	for i := 0; i < 500; i++ {
		doc := docFor(rng)
		id, err := s.Insert(doc)
		if err != nil {
			t.Fatal(err)
		}
		docs[id] = doc
	}
	if got := s.Len(); got != 500 {
		t.Fatalf("Len = %d, want 500", got)
	}
	for id, want := range docs {
		got, ok := s.Get(id)
		if !ok || !reflect.DeepEqual(got, want) {
			t.Fatalf("Get(%d) = %v, %v; want %v", id, got, ok, want)
		}
	}

	// Every shard should own a nontrivial slice of the data (the router
	// scatters sequential ids).
	for i, d := range s.shards {
		if d.Len() < 50 {
			t.Errorf("shard %d holds only %d of 500 docs — router is skewed", i, d.Len())
		}
	}

	// Fan-out query: all records carrying a class-0 attribute, in
	// deterministic (shard, pid) order on repeated runs.
	recs1, rep := s.QueryWithReport("c0_a1", "c0_a2")
	recs2 := s.Query("c0_a1", "c0_a2")
	if len(recs1) != len(recs2) {
		t.Fatalf("Query and QueryWithReport disagree: %d vs %d", len(recs1), len(recs2))
	}
	for i := range recs1 {
		if recs1[i].ID != recs2[i].ID {
			t.Fatalf("fan-out order not deterministic at %d: %d vs %d", i, recs1[i].ID, recs2[i].ID)
		}
	}
	if rep.EntitiesReturned != len(recs1) {
		t.Errorf("report says %d returned, got %d records", rep.EntitiesReturned, len(recs1))
	}
	if rep.PartitionsTotal <= 0 || rep.EntitiesScanned < rep.EntitiesReturned {
		t.Errorf("implausible fan-out report: %+v", rep)
	}

	// Update and delete route to the owning shard.
	var anyID cinderella.ID
	for id := range docs {
		anyID = id
		break
	}
	if ok, err := s.Update(anyID, cinderella.Doc{"c9_z": int64(1)}); !ok || err != nil {
		t.Fatalf("Update = %v, %v", ok, err)
	}
	if ok, err := s.Delete(anyID); !ok || err != nil {
		t.Fatalf("Delete = %v, %v", ok, err)
	}
	if _, ok := s.Get(anyID); ok {
		t.Fatal("deleted id still readable")
	}

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: everything replayed, id allocator resumes above old ids.
	s2, err := Open(dir, Options{Shards: 4, Config: testConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Len(); got != 499 {
		t.Fatalf("reopened Len = %d, want 499", got)
	}
	newID, err := s2.Insert(cinderella.Doc{"x": int64(1)})
	if err != nil {
		t.Fatal(err)
	}
	if newID <= 500 {
		t.Fatalf("id allocator reissued old id %d", newID)
	}
}

func TestShardedReshardRefused(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Shards: 2, Config: testConfig()})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if _, err := Open(dir, Options{Shards: 4, Config: testConfig()}); err == nil ||
		!strings.Contains(err.Error(), "resharding") {
		t.Fatalf("reopen with different shard count: err = %v, want resharding refusal", err)
	}
}

func TestShardedTornManifest(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Shards: 3, Config: testConfig()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Insert(cinderella.Doc{"a": int64(1)}); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Simulate a crash that tore the manifest mid-write: truncate the JSON.
	mp := filepath.Join(dir, manifestName)
	data, err := os.ReadFile(mp)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(mp, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{Shards: 3, Config: testConfig()}); err == nil ||
		!strings.Contains(err.Error(), "torn or corrupt") {
		t.Fatalf("torn manifest: err = %v, want torn-or-corrupt refusal", err)
	}
}

func TestShardedMissingManifest(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Shards: 2, Config: testConfig()})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := os.Remove(filepath.Join(dir, manifestName)); err != nil {
		t.Fatal(err)
	}
	// Shard directories without a manifest: never silently reinitialize.
	if _, err := Open(dir, Options{Shards: 2, Config: testConfig()}); err == nil ||
		!strings.Contains(err.Error(), "refusing to reinitialize") {
		t.Fatalf("missing manifest: err = %v, want reinit refusal", err)
	}
}

func TestShardedMissingShardDir(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Shards: 3, Config: testConfig()})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if _, err := s.Insert(cinderella.Doc{"a": int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	if err := os.RemoveAll(shardDir(dir, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{Shards: 3, Config: testConfig()}); err == nil ||
		!strings.Contains(err.Error(), "directory is unusable") {
		t.Fatalf("missing shard dir: err = %v, want unusable-directory refusal", err)
	}
}

// copyTree duplicates a shard directory tree, simulating the post-crash
// on-disk state while the original instance still holds its files open.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(target)
		if err != nil {
			return err
		}
		defer out.Close()
		_, err = io.Copy(out, in)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestShardedCrashRecovery covers the vector-sync durability contract:
// after SyncTo(lsn) returns, a crash (simulated by copying the on-disk
// state out from under the live instance, buffered tails and all) must
// recover every op with global LSN <= lsn, across all shard WALs.
func TestShardedCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Shards: 4, Config: testConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		if _, err := s.Insert(docFor(rng)); err != nil {
			t.Fatal(err)
		}
	}
	lsn := s.LastLSN()
	if err := s.SyncTo(lsn); err != nil {
		t.Fatal(err)
	}
	if got := s.DurableLSN(); got < lsn {
		t.Fatalf("DurableLSN = %d after SyncTo(%d)", got, lsn)
	}
	// More inserts after the sync; these may or may not survive the crash.
	for i := 0; i < 50; i++ {
		if _, err := s.Insert(docFor(rng)); err != nil {
			t.Fatal(err)
		}
	}

	crashed := t.TempDir()
	copyTree(t, dir, crashed)
	s2, err := Open(crashed, Options{Shards: 4, Config: testConfig()})
	if err != nil {
		t.Fatalf("recovery after simulated crash: %v", err)
	}
	defer s2.Close()
	if got := s2.Len(); got < 200 {
		t.Fatalf("recovered %d docs, want >= 200 (the synced prefix)", got)
	}
}

// TestShardedN1PlacementIdentity is the property test: a Sharded table
// with N=1, closed and replayed from its WAL, produces exactly the same
// partitioning as the plain in-memory table fed the same workload.
func TestShardedN1PlacementIdentity(t *testing.T) {
	cfg := testConfig()
	dir := t.TempDir()
	s, err := Open(dir, Options{Shards: 1, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	plain := cinderella.Open(cfg)

	rng := rand.New(rand.NewSource(3))
	var ids []cinderella.ID
	for i := 0; i < 800; i++ {
		doc := docFor(rng)
		sid, err := s.Insert(doc)
		if err != nil {
			t.Fatal(err)
		}
		pid := plain.Insert(doc)
		if sid != pid {
			t.Fatalf("insert %d: sharded id %d != plain id %d", i, sid, pid)
		}
		ids = append(ids, sid)
		// Interleave updates and deletes so the replayed history is not
		// insert-only.
		switch {
		case i%7 == 3:
			victim := ids[rng.Intn(len(ids))]
			doc := docFor(rng)
			so, err := s.Update(victim, doc)
			if err != nil {
				t.Fatal(err)
			}
			po := plain.Update(victim, doc)
			if so != po {
				t.Fatalf("update %d diverged: %v vs %v", victim, so, po)
			}
		case i%11 == 5:
			victim := ids[rng.Intn(len(ids))]
			so, err := s.Delete(victim)
			if err != nil {
				t.Fatal(err)
			}
			po := plain.Delete(victim)
			if so != po {
				t.Fatalf("delete %d diverged: %v vs %v", victim, so, po)
			}
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: the workload is now *replayed* from the WAL.
	s2, err := Open(dir, Options{Shards: 1, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()

	if s2.Len() != plain.Len() {
		t.Fatalf("Len: sharded %d, plain %d", s2.Len(), plain.Len())
	}
	sp, pp := s2.Partitions(), plain.Partitions()
	if len(sp) != len(pp) {
		t.Fatalf("partition count: sharded %d, plain %d", len(sp), len(pp))
	}
	for i := range sp {
		a, b := sp[i], pp[i]
		sort.Strings(a.Attributes)
		sort.Strings(b.Attributes)
		if a.Records != b.Records || a.Bytes != b.Bytes || !reflect.DeepEqual(a.Attributes, b.Attributes) {
			t.Fatalf("partition %d diverged:\nsharded: %+v\nplain:   %+v", i, a, b)
		}
	}
}

// TestShardedConcurrentWriters is the sharded -race suite: concurrent
// writers on distinct shards, fan-out readers, and a group-commit-style
// syncer all running against one Sharded table.
func TestShardedConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Shards: 4, Config: testConfig()})
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 8, 100
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			var mine []cinderella.ID
			for i := 0; i < perWriter; i++ {
				id, err := s.Insert(docFor(rng))
				if err != nil {
					t.Error(err)
					return
				}
				mine = append(mine, id)
				if i%10 == 9 {
					if err := s.SyncTo(s.LastLSN()); err != nil {
						t.Error(err)
						return
					}
				}
				if i%17 == 13 {
					if _, err := s.Update(mine[rng.Intn(len(mine))], docFor(rng)); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}(w)
	}
	// Fan-out readers run while the writers hammer the shards.
	stop := make(chan struct{})
	var rwg sync.WaitGroup
	for r := 0; r < 2; r++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s.Query("c0_a1", "c1_a2")
				s.Partitions()
				s.Len()
			}
		}()
	}
	wg.Wait()
	close(stop)
	rwg.Wait()

	if got := s.Len(); got != writers*perWriter {
		t.Fatalf("Len = %d, want %d", got, writers*perWriter)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Drain-loses-nothing: every acked insert is in the reopened table.
	s2, err := Open(dir, Options{Shards: 4, Config: testConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.Len(); got != writers*perWriter {
		t.Fatalf("reopened Len = %d, want %d", got, writers*perWriter)
	}
}

// TestShardedConcurrentWritersScanAll races continuous writers on every
// shard against full-scan and query readers. Under -race this guards
// the fan-out over the per-shard lock-free snapshot reads.
func TestShardedConcurrentWritersScanAll(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Shards: 4, Config: testConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 200; i++ {
		if _, err := s.Insert(docFor(rng)); err != nil {
			t.Fatal(err)
		}
	}

	const writers = 4
	var wwg, rwg sync.WaitGroup
	stop := make(chan struct{})
	errs := make(chan error, writers+4)

	for w := 0; w < writers; w++ {
		wwg.Add(1)
		go func(seed int64) {
			defer wwg.Done()
			rng := rand.New(rand.NewSource(seed))
			var mine []cinderella.ID
			for i := 0; i < 300; i++ {
				switch {
				case len(mine) > 0 && rng.Intn(4) == 0:
					k := rng.Intn(len(mine))
					if _, err := s.Delete(mine[k]); err != nil {
						errs <- err
						return
					}
					mine = append(mine[:k], mine[k+1:]...)
				case len(mine) > 0 && rng.Intn(4) == 0:
					if _, err := s.Update(mine[rng.Intn(len(mine))], docFor(rng)); err != nil {
						errs <- err
						return
					}
				default:
					id, err := s.Insert(docFor(rng))
					if err != nil {
						errs <- err
						return
					}
					mine = append(mine, id)
				}
			}
		}(int64(300 + w))
	}

	for r := 0; r < 4; r++ {
		rwg.Add(1)
		go func(seed int64) {
			defer rwg.Done()
			rng := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if rng.Intn(2) == 0 {
					for _, rec := range s.ScanAll() {
						if rec.Doc == nil {
							errs <- fmt.Errorf("ScanAll returned nil doc for id %d", rec.ID)
							return
						}
					}
				} else {
					attr := fmt.Sprintf("c%d_a%d", rng.Intn(4), rng.Intn(12))
					recs, rep := s.QueryWithReport(attr)
					if len(recs) != rep.EntitiesReturned {
						errs <- fmt.Errorf("query returned %d recs, report says %d", len(recs), rep.EntitiesReturned)
						return
					}
				}
			}
		}(int64(400 + r))
	}

	wwg.Wait()
	close(stop)
	rwg.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}

	// Once writers stop, the fan-out scan equals a brute-force pass over
	// the row indexes: every live id exactly once, each document equal to
	// its point read (which takes the read lock, not a snapshot).
	recs := s.ScanAll()
	if len(recs) != s.Len() {
		t.Fatalf("ScanAll %d records, Len %d", len(recs), s.Len())
	}
	seen := make(map[cinderella.ID]bool, len(recs))
	for _, rec := range recs {
		if seen[rec.ID] {
			t.Fatalf("ScanAll returned entity %d twice", rec.ID)
		}
		seen[rec.ID] = true
		if doc, ok := s.Get(rec.ID); !ok || !reflect.DeepEqual(doc, rec.Doc) {
			t.Fatalf("ScanAll doc for %d = %v, point read = %v (found %v)", rec.ID, rec.Doc, doc, ok)
		}
	}
}

// BenchmarkShardedInsert is the write-scaling series: the same document
// stream loaded durably (inserts from 8 writers plus the final vector
// sync, all inside the timed region) into 1, 2, 4 and 8 shards. B is
// small so the unsharded catalog runs to hundreds of partitions: each
// shard partitions ~1/N of the data, so the O(#partitions) rating scan
// per insert shrinks with N and the gain does not depend on core count.
func BenchmarkShardedInsert(b *testing.B) {
	const writers, numDocs = 8, 4000
	cfg := cinderella.Config{Weight: 0.2, PartitionSizeLimit: 20}
	rng := rand.New(rand.NewSource(1))
	docs := make([]cinderella.Doc, numDocs)
	for i := range docs {
		docs[i] = docFor(rng)
	}
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s, err := Open(b.TempDir(), Options{Shards: n, Config: cfg})
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				var next atomic.Int64
				var wg sync.WaitGroup
				for w := 0; w < writers; w++ {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for j := int(next.Add(1)) - 1; j < numDocs; j = int(next.Add(1)) - 1 {
							if _, err := s.Insert(docs[j]); err != nil {
								b.Error(err)
								return
							}
						}
					}()
				}
				wg.Wait()
				if err := s.Sync(); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				if got := s.Len(); got != numDocs {
					b.Fatalf("Len = %d, want %d", got, numDocs)
				}
				if err := s.Close(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(numDocs)*float64(b.N)/b.Elapsed().Seconds(), "docs/s")
		})
	}
}

// TestShardedSharedDictCrashReopen stresses the one shared dictionary:
// concurrent writers register new attribute names on every shard, then
// rounds of crash and reopen keep adding names, with a checkpoint every
// fifth round. Each shard log holds a different-length prefix of the
// dictionary; every reopen must rebuild the same ids from them, and
// every synced document must come back with its attribute names.
func TestShardedSharedDictCrashReopen(t *testing.T) {
	const shards, writers, perWriter = 4, 8, 50
	dir := t.TempDir()
	s, err := Open(dir, Options{Shards: shards, Config: testConfig()})
	if err != nil {
		t.Fatal(err)
	}
	model := map[cinderella.ID]cinderella.Doc{}
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				doc := cinderella.Doc{fmt.Sprintf("w%d_n%d", w, i): int64(i), "common": int64(w)}
				id, err := s.Insert(doc)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				model[id] = doc
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}

	for round := 0; round < 20; round++ {
		// Every insert brings a new name, so the shards' prefixes end at
		// different lengths.
		for i := 0; i < 12; i++ {
			doc := cinderella.Doc{fmt.Sprintf("r%d_n%d", round, i): int64(i)}
			id, err := s.Insert(doc)
			if err != nil {
				t.Fatal(err)
			}
			model[id] = doc
		}
		if round%5 == 4 {
			err = s.Checkpoint()
		} else {
			err = s.Sync()
		}
		if err != nil {
			t.Fatal(err)
		}
		// An unsynced tail with more new names may or may not survive.
		for i := 0; i < 3; i++ {
			if _, err := s.Insert(cinderella.Doc{fmt.Sprintf("r%d_tail%d", round, i): int64(i)}); err != nil {
				t.Fatal(err)
			}
		}
		crashed := t.TempDir()
		copyTree(t, dir, crashed)
		s.Close()
		if s, err = Open(crashed, Options{Shards: shards, Config: testConfig()}); err != nil {
			t.Fatalf("round %d: reopen: %v", round, err)
		}
		dir = crashed
		for id, want := range model {
			if got, ok := s.Get(id); !ok || !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d: Get(%d) = %v, %v; want %v", round, id, got, ok, want)
			}
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestShardedRefusesV1Manifest: a version-1 layout kept one dictionary
// per shard, so its records' attribute ids mean nothing in the shared
// dictionary. It is refused, naming both versions.
func TestShardedRefusesV1Manifest(t *testing.T) {
	dir := t.TempDir()
	if err := os.MkdirAll(shardDir(dir, 0), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(`{"version":1,"shards":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(dir, Options{Shards: 1, Config: testConfig()})
	if err == nil || !strings.Contains(err.Error(), "version 1") || !strings.Contains(err.Error(), "supports 2") {
		t.Fatalf("v1 manifest: err = %v, want a refusal naming versions 1 and 2", err)
	}
}

// TestShardedUnusedAttrHarmless registers names the way the wire
// protocol's OpAttrs does, without a record that uses them. One is
// logged anyway, because a later write on some shard logs the whole
// prefix; the other is lost in the crash. Neither breaks recovery, and
// the next new name takes the next dense id.
func TestShardedUnusedAttrHarmless(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{Shards: 3, Config: testConfig()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	a, err := s.Insert(cinderella.Doc{"a": int64(1)})
	if err != nil {
		t.Fatal(err)
	}
	s.Dict().ID("ghost")
	b, err := s.Insert(cinderella.Doc{"b": int64(2)})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	s.Dict().ID("lost")

	crashed := t.TempDir()
	copyTree(t, dir, crashed)
	s2, err := Open(crashed, Options{Shards: 3, Config: testConfig()})
	if err != nil {
		t.Fatalf("reopen after unused names: %v", err)
	}
	if _, ok := s2.Dict().Lookup("lost"); ok {
		t.Fatal("a name no log registered survived the crash")
	}
	if got := s2.Dict().ID("c"); got != 3 {
		t.Fatalf("next new name got id %d, want 3 (after a, ghost, b)", got)
	}
	c, err := s2.Insert(cinderella.Doc{"c": int64(3)})
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	s3, err := Open(crashed, Options{Shards: 3, Config: testConfig()})
	if err != nil {
		t.Fatalf("second reopen: %v", err)
	}
	defer s3.Close()
	for id, want := range map[cinderella.ID]cinderella.Doc{a: {"a": int64(1)}, b: {"b": int64(2)}, c: {"c": int64(3)}} {
		if got, ok := s3.Get(id); !ok || !reflect.DeepEqual(got, want) {
			t.Fatalf("Get(%d) = %v, %v; want %v", id, got, ok, want)
		}
	}
}

// TestShardedRefusesPlainWALFile: a single-file log written by
// cinderella.OpenFile is not a store directory. Open refuses it with a
// message naming the layout it expects, and leaves the file untouched.
func TestShardedRefusesPlainWALFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "old.wal")
	d, err := cinderella.OpenFile(path, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Insert(cinderella.Doc{"a": int64(1)}); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	_, err = Open(path, Options{Shards: 1, Config: testConfig()})
	if err == nil {
		t.Fatal("a plain WAL file opened as a store directory")
	}
	for _, want := range []string{
		filepath.Join(path, manifestName),
		filepath.Join(path, "shard-<i>", walName),
	} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("plain WAL file: err = %v, want it to name %s", err, want)
		}
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatal("refusing the plain WAL file changed its bytes")
	}
}
