package server

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"cinderella"
	"cinderella/client"
	"cinderella/internal/obs"
	"cinderella/internal/shard"
)

// harness spins up a one-shard store + Server + HTTP listener + client.
type harness struct {
	path string
	d    *shard.Sharded
	srv  *Server
	ts   *httptest.Server
	cl   *client.Client
	reg  *obs.Registry
}

func newHarness(t *testing.T, cfg Config) *harness {
	t.Helper()
	path := filepath.Join(t.TempDir(), "srv")
	return openHarness(t, path, cfg)
}

func openHarness(t *testing.T, path string, cfg Config) *harness {
	t.Helper()
	if cfg.Obs == nil {
		cfg.Obs = obs.New(obs.Options{})
	}
	d, err := openStore(path, cinderella.Config{PartitionSizeLimit: 64, Obs: cfg.Obs})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(d, cfg)
	ts := httptest.NewServer(srv.Handler())
	cl, err := client.New(ts.URL, client.WithTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{path: path, d: d, srv: srv, ts: ts, cl: cl, reg: cfg.Obs}
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return h
}

// openStore opens the daemon's store, one shard, rooted at dir.
func openStore(dir string, cfg cinderella.Config) (*shard.Sharded, error) {
	return shard.Open(dir, shard.Options{Shards: 1, Config: cfg})
}

func TestServerRoundTrip(t *testing.T) {
	h := newHarness(t, Config{})
	ctx := context.Background()

	// Note 2.8, not 2.0: JSON cannot distinguish 2.0 from 2, so integral
	// numbers deliberately round-trip as int64 (the documented wire
	// contract).
	id, err := h.cl.Insert(ctx, client.Doc{"name": "camera", "aperture": 2.8, "zoom": int64(5)})
	if err != nil {
		t.Fatal(err)
	}
	doc, ok, err := h.cl.Get(ctx, id)
	if err != nil || !ok {
		t.Fatalf("Get: ok=%v err=%v", ok, err)
	}
	if doc["name"] != "camera" || doc["aperture"] != 2.8 || doc["zoom"] != int64(5) {
		t.Fatalf("round-trip mangled values: %#v", doc)
	}
	// Integral floats must stay int64 on the wire, true floats float64.
	if _, isInt := doc["zoom"].(int64); !isInt {
		t.Fatalf("zoom lost integer fidelity: %T", doc["zoom"])
	}

	if ok, err := h.cl.Update(ctx, id, client.Doc{"name": "camera2", "wifi": int64(1)}); err != nil || !ok {
		t.Fatalf("Update: ok=%v err=%v", ok, err)
	}
	if ok, _ := h.cl.Update(ctx, 99999, client.Doc{"x": int64(1)}); ok {
		t.Fatal("Update of unknown id reported true")
	}

	id2, err := h.cl.Insert(ctx, client.Doc{"name": "disk", "rpm": int64(7200)})
	if err != nil {
		t.Fatal(err)
	}
	recs, err := h.cl.Query(ctx, "rpm")
	if err != nil || len(recs) != 1 || recs[0].ID != id2 {
		t.Fatalf("Query(rpm): %v err=%v", recs, err)
	}
	recs, rep, err := h.cl.QueryWithReport(ctx, "wifi")
	if err != nil || len(recs) != 1 {
		t.Fatalf("QueryWithReport: %v err=%v", recs, err)
	}
	if rep.EntitiesReturned != 1 {
		t.Fatalf("report: %+v", rep)
	}

	parts, err := h.cl.Partitions(ctx)
	if err != nil || len(parts) == 0 {
		t.Fatalf("Partitions: %v err=%v", parts, err)
	}
	if _, err := h.cl.Compact(ctx, 0.5); err != nil {
		t.Fatal(err)
	}
	if err := h.cl.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	if ok, err := h.cl.Delete(ctx, id); err != nil || !ok {
		t.Fatalf("Delete: ok=%v err=%v", ok, err)
	}
	if _, ok, _ := h.cl.Get(ctx, id); ok {
		t.Fatal("deleted doc still readable")
	}
	hl, err := h.cl.Health(ctx)
	if err != nil || hl.Status != "ok" || hl.Docs != 1 {
		t.Fatalf("Health: %+v err=%v", hl, err)
	}

	// Everything acked must be recoverable after a clean drain.
	h.ts.Close()
	if err := h.srv.Finish(true); err != nil {
		t.Fatal(err)
	}
	re, err := openStore(h.path, cinderella.Config{PartitionSizeLimit: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.Len() != 1 {
		t.Fatalf("recovered %d docs, want 1", re.Len())
	}
	if doc, ok := re.Get(id2); !ok || doc["rpm"] != int64(7200) {
		t.Fatalf("recovered doc: %#v ok=%v", doc, ok)
	}
}

func TestServerBadRequests(t *testing.T) {
	h := newHarness(t, Config{})
	for _, tc := range []struct {
		method, path, body string
		want               int
	}{
		{"POST", "/v1/insert", `{"doc":{"nested":{"x":1}}}`, 400},
		{"POST", "/v1/insert", `not json`, 400},
		{"GET", "/v1/doc?id=notanumber", "", 400},
		{"GET", "/v1/doc", "", 400},
		{"GET", "/v1/doc?id=424242", "", 404},
		{"GET", "/v1/query", "", 400},
		{"POST", "/v1/compact", `{"threshold":7}`, 400},
		{"GET", "/v1/nope", "", 404},
		// Wrong method falls through to the catch-all, which 404s.
		{"DELETE", "/v1/insert", "", 404},
	} {
		var body *strings.Reader = strings.NewReader(tc.body)
		req, _ := http.NewRequest(tc.method, h.ts.URL+tc.path, body)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s %s: got %d, want %d", tc.method, tc.path, resp.StatusCode, tc.want)
		}
	}
	// Oversized body → 400, not applied.
	big := `{"doc":{"s":"` + strings.Repeat("x", 2<<20) + `"}}`
	resp, err := http.Post(h.ts.URL+"/v1/insert", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("oversized body: got %d, want 400", resp.StatusCode)
	}
}

// TestServerGroupCommitCoalesces proves the headline property: many
// concurrent acknowledged writes, far fewer fsyncs.
func TestServerGroupCommitCoalesces(t *testing.T) {
	h := newHarness(t, Config{CommitDelay: 2 * time.Millisecond})
	ctx := context.Background()

	const workers, perWorker = 32, 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if _, err := h.cl.Insert(ctx, client.Doc{"w": int64(w), "i": int64(i)}); err != nil {
					t.Errorf("insert: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()

	const total = workers * perWorker
	syncs := h.reg.Counter(obs.CWALSyncs)
	commits := h.reg.Counter(obs.CGroupCommits)
	ops := h.reg.Counter(obs.CGroupCommitOps)
	if ops != total {
		t.Fatalf("group-commit acked %d ops, want %d", ops, total)
	}
	if commits == 0 || syncs == 0 {
		t.Fatalf("no group commits recorded (commits=%d syncs=%d)", commits, syncs)
	}
	// The whole point: far fewer fsyncs than acknowledged writes. Even
	// a modest box coalesces heavily; require at least 2×.
	if syncs*2 > total {
		t.Fatalf("group commit did not coalesce: %d syncs for %d acked inserts", syncs, total)
	}
	t.Logf("coalescing: %d acked inserts, %d fsyncs, %d batches (mean batch %.1f)",
		total, syncs, commits, float64(ops)/float64(commits))
}

// TestServerBackpressure drives the admission queue to saturation and
// expects 503 + Retry-After, while /v1/health stays reachable.
func TestServerBackpressure(t *testing.T) {
	h := newHarness(t, Config{
		MaxInflight: 1,
		MaxQueue:    1,
		CommitDelay: 300 * time.Millisecond, // hold the one slot long enough to saturate
	})
	ctx := context.Background()

	insert := func() *http.Response {
		resp, err := http.Post(h.ts.URL+"/v1/insert", "application/json",
			strings.NewReader(`{"doc":{"a":1}}`))
		if err != nil {
			t.Fatalf("post: %v", err)
		}
		return resp
	}

	done := make(chan struct{}, 2)
	go func() { insert().Body.Close(); done <- struct{}{} }() // occupies the inflight slot
	time.Sleep(50 * time.Millisecond)
	go func() { insert().Body.Close(); done <- struct{}{} }() // waits in the queue
	time.Sleep(50 * time.Millisecond)

	resp := insert() // inflight full + queue full → bounced
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated server answered %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	if h.reg.Counter(obs.CSrvRejected) == 0 {
		t.Fatal("rejection not counted")
	}
	// Health bypasses admission.
	if hl, err := h.cl.Health(ctx); err != nil || hl.Status != "ok" {
		t.Fatalf("health under load: %+v err=%v", hl, err)
	}
	<-done
	<-done
}

// TestServerDrainLosesNothing is the graceful-drain contract under
// load: writers hammer the server while it drains; afterwards, every
// acknowledged insert must be recoverable from the WAL. Run under
// -race in scripts/verify.sh.
func TestServerDrainLosesNothing(t *testing.T) {
	h := newHarness(t, Config{CommitDelay: time.Millisecond})
	ctx := context.Background()

	const workers = 16
	var mu sync.Mutex
	acked := map[client.ID]int64{} // id → payload

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				payload := int64(w*1_000_000 + i)
				id, err := h.cl.Insert(ctx, client.Doc{"p": payload})
				if err != nil {
					return // drain reached this worker
				}
				mu.Lock()
				acked[id] = payload
				mu.Unlock()
			}
		}(w)
	}

	time.Sleep(60 * time.Millisecond) // let the burst build
	h.srv.BeginDrain()
	wg.Wait()
	h.ts.Close()
	if err := h.srv.Finish(true); err != nil {
		t.Fatalf("Finish: %v", err)
	}
	// Finish must be idempotent-ish too (drain path racing a defer).
	if err := h.srv.Finish(false); err != nil {
		t.Fatalf("second Finish: %v", err)
	}

	re, err := openStore(h.path, cinderella.Config{PartitionSizeLimit: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	mu.Lock()
	defer mu.Unlock()
	if len(acked) == 0 {
		t.Fatal("no inserts were acknowledged before drain; test proved nothing")
	}
	for id, payload := range acked {
		doc, ok := re.Get(id)
		if !ok {
			t.Fatalf("acked insert %d lost by drain", id)
		}
		if doc["p"] != payload {
			t.Fatalf("acked insert %d corrupted: %#v", id, doc)
		}
	}
	t.Logf("drain preserved all %d acknowledged inserts", len(acked))
}

// TestServerCrashRecovery simulates the daemon dying mid-burst: the
// table is abandoned without Sync/Close (buffered-but-unsynced WAL
// records never reach the file, like a crash), a torn partial record is
// appended (a write cut mid-flight), and the WAL is reopened. Every
// acknowledged operation must survive; the torn tail must not corrupt
// replay.
func TestServerCrashRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "crash")
	reg := obs.New(obs.Options{})
	d, err := openStore(path, cinderella.Config{PartitionSizeLimit: 64, Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(d, Config{CommitDelay: time.Millisecond, Obs: reg})
	ts := httptest.NewServer(srv.Handler())
	cl, _ := client.New(ts.URL)
	ctx := context.Background()

	const workers, perWorker = 8, 25
	var mu sync.Mutex
	acked := map[client.ID]int64{}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				payload := int64(w*1_000_000 + i)
				id, err := cl.Insert(ctx, client.Doc{"p": payload})
				if err != nil {
					return
				}
				mu.Lock()
				acked[id] = payload
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	// CRASH: no drain, no sync, no close. In-flight batches have been
	// acked (and therefore fsynced); nothing else is guaranteed.
	ts.Close()

	// A torn partial record at the tail — the crash cut a write short.
	f, err := os.OpenFile(filepath.Join(path, "shard-0", "shard.wal"), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xde, 0xad, 0xbe, 0xef, 0xff, 0x00, 0x01}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	re, err := openStore(path, cinderella.Config{PartitionSizeLimit: 64})
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer re.Close()
	mu.Lock()
	defer mu.Unlock()
	if len(acked) == 0 {
		t.Fatal("nothing acked; test proved nothing")
	}
	for id, payload := range acked {
		doc, ok := re.Get(id)
		if !ok {
			t.Fatalf("acked insert %d lost in crash (have %d docs, %d acked)", id, re.Len(), len(acked))
		}
		if doc["p"] != payload {
			t.Fatalf("acked insert %d corrupted: %#v", id, doc)
		}
	}
	t.Logf("crash recovery preserved all %d acked inserts (table has %d docs)", len(acked), re.Len())
}

func TestCommitterStopFlushesPending(t *testing.T) {
	d, err := openStore(t.TempDir(), cinderella.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	// Huge delay: nothing flushes on its own within the test.
	c := NewCommitter(d, 0, time.Hour, nil)

	const n = 10
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			if _, err := d.Insert(cinderella.Doc{"x": 1}); err != nil {
				errs <- err
				return
			}
			errs <- c.Commit(context.Background(), d.LastLSN())
		}()
	}
	time.Sleep(50 * time.Millisecond) // let the waiters pile up
	done := make(chan struct{})
	go func() { c.Stop(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop hung with pending waiters")
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("waiter %d: %v", i, err)
		}
	}
	// Post-stop commits degrade to direct sync and still succeed.
	if _, err := d.Insert(cinderella.Doc{"y": 2}); err != nil {
		t.Fatal(err)
	}
	if err := c.Commit(context.Background(), d.LastLSN()); err != nil {
		t.Fatalf("post-stop Commit: %v", err)
	}
	c.Stop() // idempotent
}

func TestCommitterCommitRespectsContext(t *testing.T) {
	d, err := openStore(t.TempDir(), cinderella.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	c := NewCommitter(d, 0, time.Hour, nil)
	defer c.Stop()
	if _, err := d.Insert(cinderella.Doc{"x": 1}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := c.Commit(ctx, d.LastLSN()); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Commit under dead context: %v", err)
	}
}

// TestServerReadsServedDuringDrain covers the read/write separation: a
// draining server rejects writes with 503 but keeps serving the
// read-only routes until the listener stops, because snapshot reads are
// independent of the (draining) write path.
func TestServerReadsServedDuringDrain(t *testing.T) {
	h := newHarness(t, Config{})
	ctx := context.Background()

	id, err := h.cl.Insert(ctx, client.Doc{"name": "camera", "aperture": 2.8})
	if err != nil {
		t.Fatal(err)
	}

	h.srv.BeginDrain()

	// Writes must bounce. Raw HTTP: the client package would retry 503s.
	resp, err := http.Post(h.ts.URL+"/v1/insert", "application/json",
		strings.NewReader(`{"doc":{"name":"late"}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("mid-drain insert: got %d, want 503", resp.StatusCode)
	}

	// Reads must keep working, via every read-only route.
	for _, url := range []string{
		"/v1/doc?id=" + strconv.FormatUint(uint64(id), 10),
		"/v1/query?attrs=aperture",
		"/v1/query-report?attrs=aperture",
		"/v1/partitions",
	} {
		resp, err := http.Get(h.ts.URL + url)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("mid-drain GET %s: got %d, want 200", url, resp.StatusCode)
		}
	}

	// And the results are the real data, not a degraded answer.
	recs, err := h.cl.Query(ctx, "aperture")
	if err != nil || len(recs) != 1 || recs[0].ID != id {
		t.Fatalf("mid-drain Query: %v err=%v", recs, err)
	}
}

func TestServerBulk(t *testing.T) {
	h := newHarness(t, Config{})
	ctx := context.Background()

	// Happy path: inserts, then an update and a delete of the new docs.
	results, err := h.cl.Bulk(ctx, []client.BulkOp{
		{Op: "insert", Doc: client.Doc{"name": "a", "v": int64(1)}},
		{Op: "insert", Doc: client.Doc{"name": "b", "v": int64(2)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 || results[0].ID == 0 || results[1].ID == 0 {
		t.Fatalf("insert results: %+v", results)
	}
	idA, idB := results[0].ID, results[1].ID

	results, err = h.cl.Bulk(ctx, []client.BulkOp{
		{Op: "update", ID: idA, Doc: client.Doc{"name": "a2"}},
		{Op: "delete", ID: idB},
		{Op: "delete", ID: 99999}, // miss, not an error
	})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].Updated == nil || !*results[0].Updated {
		t.Fatalf("update result: %+v", results[0])
	}
	if results[1].Deleted == nil || !*results[1].Deleted {
		t.Fatalf("delete result: %+v", results[1])
	}
	if results[2].Deleted == nil || *results[2].Deleted {
		t.Fatalf("delete-miss result: %+v", results[2])
	}
	if h.d.DurableLSN() < h.d.LastLSN() {
		t.Fatalf("bulk ack before durability: %d < %d", h.d.DurableLSN(), h.d.LastLSN())
	}

	// Partial failure: a bad op mid-list stops the batch. The applied
	// prefix stays applied and durable; the suffix is marked unapplied.
	before := h.d.Len()
	results, err = h.cl.Bulk(ctx, []client.BulkOp{
		{Op: "insert", Doc: client.Doc{"name": "c"}},
		{Op: "frobnicate"},
		{Op: "insert", Doc: client.Doc{"name": "d"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].ID == 0 || results[0].Error != "" {
		t.Fatalf("applied prefix: %+v", results[0])
	}
	if results[1].Error == "" || !strings.Contains(results[1].Error, "frobnicate") {
		t.Fatalf("failed op: %+v", results[1])
	}
	if !results[2].Unapplied {
		t.Fatalf("suffix not marked unapplied: %+v", results[2])
	}
	if got := h.d.Len(); got != before+1 {
		t.Fatalf("table grew by %d docs, want 1", got-before)
	}
	if h.d.DurableLSN() < h.d.LastLSN() {
		t.Fatalf("applied prefix not durable: %d < %d", h.d.DurableLSN(), h.d.LastLSN())
	}

	// Empty ops list is a client error.
	resp, err := http.Post(h.ts.URL+"/v1/bulk", "application/json", strings.NewReader(`{"ops":[]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty bulk: got %d, want 400", resp.StatusCode)
	}
}
