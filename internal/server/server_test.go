package server

import (
	"context"
	"errors"
	"io"
	"net"
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
	"cinderella/internal/wire"
)

// harness spins up a one-shard store, a Server with its HTTP listener
// and client, and a wire server sharing the Server's committer with its
// binary client — the daemon's layout: writes over the binary protocol,
// reads and admin over HTTP.
type harness struct {
	path string
	d    *shard.Sharded
	srv  *Server
	ts   *httptest.Server
	cl   *client.Client
	ws   *wire.Server
	bc   *client.Binary
	reg  *obs.Registry

	binAddr string
}

func newHarness(t *testing.T, cfg Config, opts ...client.BinaryOption) *harness {
	t.Helper()
	path := filepath.Join(t.TempDir(), "srv")
	return openHarness(t, path, cfg, opts...)
}

func openHarness(t *testing.T, path string, cfg Config, opts ...client.BinaryOption) *harness {
	t.Helper()
	if cfg.Obs == nil {
		cfg.Obs = obs.New(obs.Options{})
	}
	d, err := openStore(path, cinderella.Config{PartitionSizeLimit: 64, Obs: cfg.Obs})
	if err != nil {
		t.Fatal(err)
	}
	bln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := New(d, bln.Addr().String(), cfg)
	ts := httptest.NewServer(srv.Handler())
	cl, err := client.New(ts.URL, client.WithTimeout(5*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	ws := wire.New(d, srv.Committer(), wire.Config{Obs: cfg.Obs})
	go ws.Serve(bln)
	opts = append([]client.BinaryOption{
		client.WithBinaryBackoff(time.Millisecond),
		client.WithBinaryTimeout(5 * time.Second),
	}, opts...)
	bc, err := client.NewBinary(bln.Addr().String(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{path: path, d: d, srv: srv, ts: ts, cl: cl, ws: ws, bc: bc, reg: cfg.Obs,
		binAddr: bln.Addr().String()}
	t.Cleanup(func() {
		h.stopListeners(t)
		srv.Close()
	})
	return h
}

// stopListeners closes both clients and both listeners without touching
// the store: what is left is exactly what the WAL holds. Idempotent.
func (h *harness) stopListeners(t *testing.T) {
	t.Helper()
	h.bc.Close()
	h.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := h.ws.Shutdown(ctx); err != nil {
		t.Errorf("wire shutdown: %v", err)
	}
}

// openStore opens the daemon's store, one shard, rooted at dir.
func openStore(dir string, cfg cinderella.Config) (*shard.Sharded, error) {
	return shard.Open(dir, shard.Options{Shards: 1, Config: cfg})
}

func TestServerRoundTrip(t *testing.T) {
	h := newHarness(t, Config{})
	ctx := context.Background()

	// Writes go over the binary protocol, reads over HTTP. Note 2.8, not
	// 2.0: JSON cannot distinguish 2.0 from 2, so integral numbers
	// deliberately come back from HTTP reads as int64 (the documented
	// wire contract).
	id, err := h.bc.Insert(ctx, client.Doc{"name": "camera", "aperture": 2.8, "zoom": int64(5)})
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

	if ok, err := h.bc.Update(ctx, id, client.Doc{"name": "camera2", "wifi": int64(1)}); err != nil || !ok {
		t.Fatalf("Update: ok=%v err=%v", ok, err)
	}
	if ok, _ := h.bc.Update(ctx, 99999, client.Doc{"x": int64(1)}); ok {
		t.Fatal("Update of unknown id reported true")
	}

	id2, err := h.bc.Insert(ctx, client.Doc{"name": "disk", "rpm": int64(7200)})
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
	if ok, err := h.bc.Delete(ctx, id); err != nil || !ok {
		t.Fatalf("Delete: ok=%v err=%v", ok, err)
	}
	if _, ok, _ := h.cl.Get(ctx, id); ok {
		t.Fatal("deleted doc still readable")
	}
	hl, err := h.cl.Health(ctx)
	if err != nil || hl.Status != "ok" || hl.Docs != 1 || hl.BinAddr != h.binAddr {
		t.Fatalf("Health: %+v err=%v", hl, err)
	}

	// Everything acked must be recoverable after a clean drain.
	h.stopListeners(t)
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
		{"GET", "/v1/doc?id=notanumber", "", 400},
		{"GET", "/v1/doc", "", 400},
		{"GET", "/v1/doc?id=424242", "", 404},
		{"GET", "/v1/query", "", 400},
		{"POST", "/v1/compact", `{"threshold":7}`, 400},
		{"POST", "/v1/compact", `not json`, 400},
		{"GET", "/v1/nope", "", 404},
		// Writes go over the binary protocol only: the HTTP write
		// routes are gone.
		{"POST", "/v1/insert", `{"doc":{"a":1}}`, 404},
		{"POST", "/v1/bulk", `{"ops":[{"op":"insert","doc":{"a":1}}]}`, 404},
		{"POST", "/v1/update", `{"id":1,"doc":{"a":1}}`, 404},
		{"POST", "/v1/delete", `{"id":1}`, 404},
		// Wrong method falls through to the catch-all, which 404s.
		{"DELETE", "/v1/compact", "", 404},
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
	if h.d.Len() != 0 {
		t.Fatalf("bad requests left %d docs in the store", h.d.Len())
	}
	// Oversized body → 400, not applied.
	big := `{"threshold":0.5,"pad":"` + strings.Repeat("x", 2<<20) + `"}`
	resp, err := http.Post(h.ts.URL+"/v1/compact", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Errorf("oversized body: got %d, want 400", resp.StatusCode)
	}
}

// TestServerGroupCommitCoalesces proves the headline property: many
// concurrent acknowledged writes, far fewer fsyncs. The binary client
// sends one op per frame over one connection per worker, so every
// insert is its own commit waiter and the coalescing is the group
// committer's, across connections.
func TestServerGroupCommitCoalesces(t *testing.T) {
	const workers, perWorker = 32, 8
	h := newHarness(t, Config{CommitDelay: 2 * time.Millisecond},
		client.WithConns(workers), client.WithBatch(1, 0, 0))
	ctx := context.Background()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if _, err := h.bc.Insert(ctx, client.Doc{"w": int64(w), "i": int64(i)}); err != nil {
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

// TestServerBackpressure saturates the inflight bound and expects 503 +
// Retry-After for reads and admin writes alike, while /v1/health stays
// reachable.
func TestServerBackpressure(t *testing.T) {
	h := newHarness(t, Config{MaxInflight: 1})
	ctx := context.Background()

	// A compaction whose body has not arrived yet holds the one slot:
	// the route admits it before the handler reads the body.
	pr, pw := io.Pipe()
	held := make(chan int, 1)
	go func() {
		resp, err := http.Post(h.ts.URL+"/v1/compact", "application/json", pr)
		if err != nil {
			t.Errorf("held post: %v", err)
			held <- 0
			return
		}
		resp.Body.Close()
		held <- resp.StatusCode
	}()
	for deadline := time.Now().Add(5 * time.Second); h.reg.Gauge(obs.GServerInflight) != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("held compaction never took the inflight slot")
		}
	}

	for _, req := range []struct{ method, path string }{
		{"GET", "/v1/query?attrs=a"},
		{"POST", "/v1/checkpoint"},
	} {
		r, _ := http.NewRequest(req.method, h.ts.URL+req.path, strings.NewReader("{}"))
		resp, err := http.DefaultClient.Do(r)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("%s %s on a saturated server answered %d, want 503", req.method, req.path, resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatalf("%s %s: 503 without Retry-After", req.method, req.path)
		}
	}
	if got := h.reg.Counter(obs.CSrvRejected); got != 2 {
		t.Fatalf("%d rejections counted, want 2", got)
	}
	// Health bypasses the bound.
	if hl, err := h.cl.Health(ctx); err != nil || hl.Status != "ok" {
		t.Fatalf("health under load: %+v err=%v", hl, err)
	}

	// Releasing the held request frees the slot.
	io.WriteString(pw, `{"threshold":0.5}`)
	pw.Close()
	if code := <-held; code != http.StatusOK {
		t.Fatalf("held compaction answered %d, want 200", code)
	}
	if _, err := h.cl.Query(ctx, "a"); err != nil {
		t.Fatalf("query after release: %v", err)
	}
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
				id, err := h.bc.Insert(ctx, client.Doc{"p": payload})
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
	// The daemon's drain order: both servers refuse new writes, in-flight
	// ones finish and are acked, then the store is flushed and closed.
	h.srv.BeginDrain()
	h.ws.BeginDrain()
	wg.Wait()
	h.stopListeners(t)
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
	h := newHarness(t, Config{CommitDelay: time.Millisecond})
	path := h.path
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
				id, err := h.bc.Insert(ctx, client.Doc{"p": payload})
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
	h.stopListeners(t)

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
// draining server rejects admin writes with 503 but keeps serving the
// read-only routes until the listener stops, because snapshot reads are
// independent of the (draining) write path.
func TestServerReadsServedDuringDrain(t *testing.T) {
	h := newHarness(t, Config{})
	ctx := context.Background()

	id, err := h.bc.Insert(ctx, client.Doc{"name": "camera", "aperture": 2.8})
	if err != nil {
		t.Fatal(err)
	}

	h.srv.BeginDrain()

	// Admin writes must bounce. Raw HTTP: the client package would retry
	// 503s.
	for _, path := range []string{"/v1/compact", "/v1/checkpoint"} {
		resp, err := http.Post(h.ts.URL+path, "application/json", strings.NewReader(`{"threshold":0.5}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("mid-drain POST %s: got %d, want 503", path, resp.StatusCode)
		}
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
