package cinderella

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"cinderella/internal/entity"
	"cinderella/internal/obs"
	"cinderella/internal/wal"
)

func openDurable(t *testing.T, path string, cfg Config) *DurableTable {
	t.Helper()
	d, err := OpenFile(path, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDurableRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	cfg := Config{Weight: 0.3, PartitionSizeLimit: 100}

	d := openDurable(t, path, cfg)
	id1, err := d.Insert(Doc{"name": "camera", "aperture": 2.0})
	if err != nil {
		t.Fatal(err)
	}
	id2, _ := d.Insert(Doc{"name": "disk", "rotation": 7200})
	if _, err := d.Update(id1, Doc{"name": "camera2", "aperture": 1.8, "wifi": 1}); err != nil {
		t.Fatal(err)
	}
	if ok, _ := d.Delete(id2); !ok {
		t.Fatal("delete failed")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: everything recovered, same ids, same content.
	d2 := openDurable(t, path, cfg)
	defer d2.Close()
	if d2.Len() != 1 {
		t.Fatalf("recovered Len = %d", d2.Len())
	}
	doc, ok := d2.Get(id1)
	if !ok {
		t.Fatal("recovered Get missed")
	}
	if doc["name"] != "camera2" || doc["wifi"] != int64(1) {
		t.Fatalf("recovered doc = %v", doc)
	}
	if _, ok := d2.Get(id2); ok {
		t.Fatal("deleted doc recovered")
	}
	// New inserts continue the id sequence (no reuse).
	id3, _ := d2.Insert(Doc{"x": 1})
	if id3 <= id2 {
		t.Fatalf("id3 = %d not beyond %d", id3, id2)
	}
}

func TestDurableRecoversPartitioning(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	cfg := Config{Weight: 0.2, PartitionSizeLimit: 50}

	d := openDurable(t, path, cfg)
	for i := 0; i < 500; i++ {
		attrs := []string{"camera_a", "camera_b"}
		if i%2 == 1 {
			attrs = []string{"disk_a", "disk_b"}
		}
		doc := Doc{"name": i}
		for _, a := range attrs {
			doc[a] = i
		}
		if _, err := d.Insert(doc); err != nil {
			t.Fatal(err)
		}
	}
	before := partitionShape(d.Table)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	d2 := openDurable(t, path, cfg)
	defer d2.Close()
	after := partitionShape(d2.Table)
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("partitioning changed across recovery:\nbefore %v\nafter  %v", before, after)
	}
	// Queries behave identically.
	if got := len(d2.Query("camera_a")); got != 250 {
		t.Fatalf("Query(camera_a) = %d", got)
	}
}

// partitionShape summarizes a partitioning as sorted "records:attrs"
// signatures.
func partitionShape(t *Table) []string {
	var out []string
	for _, p := range t.Partitions() {
		attrs := append([]string(nil), p.Attributes...)
		sort.Strings(attrs)
		out = append(out, fmt.Sprintf("%d:%v", p.Records, attrs))
	}
	sort.Strings(out)
	return out
}

func TestDurableTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	cfg := Config{}
	d := openDurable(t, path, cfg)
	d.Insert(Doc{"a": 1})
	d.Insert(Doc{"b": 2})
	d.Close()

	raw, _ := os.ReadFile(path)
	if err := os.WriteFile(path, raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	d2 := openDurable(t, path, cfg)
	defer d2.Close()
	if d2.Len() != 1 {
		t.Fatalf("after torn tail Len = %d, want 1 (durable prefix)", d2.Len())
	}
}

// TestDurableWriteAfterTornTail reopens a log whose last record a crash
// tore, acks a new write, and reopens again: the write must be there. A
// log reopened for appending without cutting the torn bytes off puts the
// new record behind them, where replay never reaches.
func TestDurableWriteAfterTornTail(t *testing.T) {
	for _, cut := range []int{3, 9, 14} {
		path := filepath.Join(t.TempDir(), "t.wal")
		d := openDurable(t, path, Config{})
		d.Insert(Doc{"a": 1})
		d.Insert(Doc{"b": 2})
		d.Close()
		raw, _ := os.ReadFile(path)
		if err := os.WriteFile(path, raw[:len(raw)-cut], 0o644); err != nil {
			t.Fatal(err)
		}

		d2 := openDurable(t, path, Config{})
		id, err := d2.Insert(Doc{"c": 3})
		if err != nil {
			t.Fatal(err)
		}
		if err := d2.Sync(); err != nil {
			t.Fatal(err)
		}
		d2.Close()

		d3, err := OpenFile(path, Config{})
		if err != nil {
			t.Fatalf("cut %d: reopen after an acked write: %v", cut, err)
		}
		if doc, ok := d3.Get(id); !ok || doc["c"] != int64(3) || d3.Len() != 2 {
			t.Fatalf("cut %d: acked doc %d = %v, %v; Len %d, want 2", cut, id, doc, ok, d3.Len())
		}
		d3.Close()
	}
}

// TestDurableRefusesUnloggedAttr writes logs by hand that break the
// dense-prefix rule — a record using an attribute id its own log never
// registered, or a registration that skips an id — and requires the open
// to refuse them instead of resolving the id to some other name.
func TestDurableRefusesUnloggedAttr(t *testing.T) {
	e := &entity.Entity{}
	e.Set(5, entity.Int(1))
	attr := func(id uint64, name string) wal.Op { return wal.Op{Kind: wal.KindAttr, ID: id, Data: []byte(name)} }
	cases := map[string][]wal.Op{
		"record uses an unregistered id": {attr(0, "a"), {Kind: wal.KindInsert, ID: 1, Data: e.Marshal(nil)}},
		"registration skips an id":       {attr(0, "a"), attr(2, "c")},
	}
	for name, ops := range cases {
		path := filepath.Join(t.TempDir(), "t.wal")
		if err := wal.Rewrite(path, ops); err != nil {
			t.Fatal(err)
		}
		if d, err := OpenFile(path, Config{}); err == nil {
			d.Close()
			t.Errorf("%s: log opened, want a refusal", name)
		} else if !strings.Contains(err.Error(), "attribute") {
			t.Errorf("%s: err = %v, want an attribute refusal", name, err)
		}
	}
}

func TestDurableCheckpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	cfg := Config{Weight: 0.3, PartitionSizeLimit: 100}
	d := openDurable(t, path, cfg)
	var keep ID
	for i := 0; i < 200; i++ {
		id, _ := d.Insert(Doc{"attr": i})
		if i == 117 {
			keep = id
		} else {
			d.Delete(id)
		}
	}
	big, _ := os.Stat(path)
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	small, _ := os.Stat(path)
	if small.Size() >= big.Size() {
		t.Fatalf("checkpoint did not shrink log: %d -> %d", big.Size(), small.Size())
	}
	// Table still works and survives another recovery with the same id.
	doc, ok := d.Get(keep)
	if !ok || doc["attr"] != int64(117) {
		t.Fatalf("doc after checkpoint = %v, %v", doc, ok)
	}
	d.Insert(Doc{"post": "checkpoint"})
	d.Close()

	d2 := openDurable(t, path, cfg)
	defer d2.Close()
	if d2.Len() != 2 {
		t.Fatalf("recovered Len = %d", d2.Len())
	}
	if doc, ok := d2.Get(keep); !ok || doc["attr"] != int64(117) {
		t.Fatalf("id not preserved across checkpoint: %v, %v", doc, ok)
	}
}

func TestDurableSyncAndMiss(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	d := openDurable(t, path, Config{})
	d.Insert(Doc{"a": 1})
	if err := d.Sync(); err != nil {
		t.Fatal(err)
	}
	if ok, err := d.Update(999, Doc{"x": 1}); ok || err != nil {
		t.Fatalf("update miss = %v, %v", ok, err)
	}
	if ok, err := d.Delete(999); ok || err != nil {
		t.Fatalf("delete miss = %v, %v", ok, err)
	}
	d.Close()
}

func TestDurableManyAttributesReplay(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	cfg := Config{}
	d := openDurable(t, path, cfg)
	for i := 0; i < 50; i++ {
		d.Insert(Doc{fmt.Sprintf("attr_%02d", i): i})
	}
	d.Close()
	d2 := openDurable(t, path, cfg)
	defer d2.Close()
	for i := 0; i < 50; i++ {
		if got := len(d2.Query(fmt.Sprintf("attr_%02d", i))); got != 1 {
			t.Fatalf("attr_%02d query = %d", i, got)
		}
	}
}

func TestDurableCompactReplays(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	cfg := Config{Weight: 0.5, PartitionSizeLimit: 50}
	d := openDurable(t, path, cfg)
	var ids []ID
	for i := 0; i < 200; i++ {
		id, _ := d.Insert(Doc{"a": 1, "b": 2})
		ids = append(ids, id)
	}
	for i, id := range ids {
		if i%40 != 0 {
			d.Delete(id)
		}
	}
	if _, err := d.Compact(0.5); err != nil {
		t.Fatal(err)
	}
	before := partitionShape(d.Table)
	d.Close()

	d2 := openDurable(t, path, cfg)
	defer d2.Close()
	after := partitionShape(d2.Table)
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("compacted layout not reproduced:\nbefore %v\nafter  %v", before, after)
	}
}

func TestDurableCloseIdempotent(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	d := openDurable(t, path, Config{})
	if _, err := d.Insert(Doc{"a": 1}); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatalf("second Close: got %v, want nil (no-op)", err)
	}
	// Every mutating entry point must refuse cleanly after Close.
	if _, err := d.Insert(Doc{"b": 2}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Insert after Close: got %v, want ErrClosed", err)
	}
	if _, err := d.Update(1, Doc{"b": 2}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Update after Close: got %v, want ErrClosed", err)
	}
	if _, err := d.Delete(1); !errors.Is(err, ErrClosed) {
		t.Fatalf("Delete after Close: got %v, want ErrClosed", err)
	}
	if _, err := d.Compact(0.5); !errors.Is(err, ErrClosed) {
		t.Fatalf("Compact after Close: got %v, want ErrClosed", err)
	}
	if err := d.Sync(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Sync after Close: got %v, want ErrClosed", err)
	}
	if err := d.Checkpoint(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Checkpoint after Close: got %v, want ErrClosed", err)
	}
	// The table stays readable in memory.
	if d.Len() != 1 {
		t.Fatalf("Len after Close = %d, want 1", d.Len())
	}
}

// TestDurableCloseCheckpointRace exercises the server-shutdown shape:
// drain (sync + checkpoint) racing a deferred Close. Whatever the
// interleaving, nothing may deadlock, panic, or corrupt the log, and the
// losers must see ErrClosed rather than touching a closed file.
func TestDurableCloseCheckpointRace(t *testing.T) {
	for round := 0; round < 8; round++ {
		path := filepath.Join(t.TempDir(), fmt.Sprintf("r%d.wal", round))
		d := openDurable(t, path, Config{})
		for i := 0; i < 50; i++ {
			if _, err := d.Insert(Doc{"k": i, "round": round}); err != nil {
				t.Fatal(err)
			}
		}
		var wg sync.WaitGroup
		for _, f := range []func() error{d.Checkpoint, d.Sync, d.Close, d.Close} {
			wg.Add(1)
			go func(f func() error) {
				defer wg.Done()
				if err := f(); err != nil && !errors.Is(err, ErrClosed) {
					t.Errorf("racing op: %v", err)
				}
			}(f)
		}
		wg.Wait()
		// The log must replay to the full contents regardless of which
		// operation won.
		re := openDurable(t, path, Config{})
		if re.Len() != 50 {
			t.Fatalf("round %d: recovered %d docs, want 50", round, re.Len())
		}
		re.Close()
	}
}

func TestDurableLSNAndSyncTo(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.wal")
	d := openDurable(t, path, Config{})
	if got := d.LastLSN(); got != 0 {
		t.Fatalf("fresh LastLSN = %d, want 0", got)
	}
	if _, err := d.Insert(Doc{"a": 1}); err != nil {
		t.Fatal(err)
	}
	lsn := d.LastLSN()
	if lsn == 0 {
		t.Fatal("LastLSN did not advance after Insert")
	}
	if d.DurableLSN() >= lsn {
		t.Fatal("insert should not be durable before any sync")
	}
	if err := d.SyncTo(lsn); err != nil {
		t.Fatal(err)
	}
	if d.DurableLSN() < lsn {
		t.Fatalf("DurableLSN = %d after SyncTo(%d)", d.DurableLSN(), lsn)
	}
	// A second SyncTo for covered history must not fsync again.
	syncs := walSyncCount(t, d)
	if err := d.SyncTo(lsn); err != nil {
		t.Fatal(err)
	}
	if got := walSyncCount(t, d); got != syncs {
		t.Fatalf("covered SyncTo fsynced anyway (%d -> %d)", syncs, got)
	}
	// LSNs stay monotonic across Checkpoint, and checkpointed history is
	// durable by construction.
	if err := d.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if d.DurableLSN() < lsn || d.LastLSN() < lsn {
		t.Fatalf("LSN clock went backwards across Checkpoint: last=%d durable=%d want >= %d",
			d.LastLSN(), d.DurableLSN(), lsn)
	}
	if _, err := d.Insert(Doc{"b": 2}); err != nil {
		t.Fatal(err)
	}
	if d.LastLSN() <= lsn {
		t.Fatal("LastLSN did not advance past pre-checkpoint history")
	}
	if err := d.SyncTo(d.LastLSN()); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Post-close: covered LSNs succeed, uncovered would be ErrClosed.
	if err := d.SyncTo(d.DurableLSN()); err != nil {
		t.Fatalf("SyncTo(covered) after Close: %v", err)
	}
}

// walSyncCount observes fsyncs through the telemetry registry.
func walSyncCount(t *testing.T, d *DurableTable) int64 {
	t.Helper()
	if d.Observer() == nil {
		r := NewObserver()
		d.SetObserver(r)
	}
	return d.Observer().Counter(obs.CWALSyncs)
}
