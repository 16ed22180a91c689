package client

import (
	"context"
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cinderella"
	"cinderella/internal/entity"
	"cinderella/internal/obs"
	"cinderella/internal/shard"
	"cinderella/internal/wire"
)

// ---- scripted wire server: deterministic responses for retry tests ----

// scriptedServer speaks just enough of the wire protocol to hand each
// non-hello request frame to a test-provided handler. A handler
// returning status closeConn drops the connection instead of replying.
const closeConn byte = 0xFF

type scriptedServer struct {
	t      *testing.T
	ln     net.Listener
	token  func() uint64
	handle func(f wire.Frame) (status byte, payload []byte)
}

func newScriptedServer(t *testing.T, token func() uint64, handle func(wire.Frame) (byte, []byte)) *scriptedServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &scriptedServer{t: t, ln: ln, token: token, handle: handle}
	go s.acceptLoop()
	t.Cleanup(func() { ln.Close() })
	return s
}

func (s *scriptedServer) addr() string { return s.ln.Addr().String() }

func (s *scriptedServer) acceptLoop() {
	for {
		nc, err := s.ln.Accept()
		if err != nil {
			return
		}
		go s.serve(nc)
	}
}

func (s *scriptedServer) serve(nc net.Conn) {
	defer nc.Close()
	var buf []byte
	for {
		f, err := wire.ReadFrame(nc, &buf, wire.DefaultMaxFrame)
		if err != nil {
			return
		}
		var status byte
		var payload []byte
		if f.Kind == wire.OpHello {
			status, payload = wire.StatusOK, wire.AppendHello(nil, s.token())
		} else {
			status, payload = s.handle(f)
			if status == closeConn {
				return
			}
		}
		if _, err := nc.Write(wire.AppendFrame(nil, status, f.Seq, payload)); err != nil {
			return
		}
	}
}

// insertOp builds a pendingOp for an insert of a single int attribute.
func insertOp(attr int, val int64) *pendingOp {
	e := &entity.Entity{}
	e.Set(attr, entity.Int(val))
	return &pendingOp{kind: wire.BatchInsert, rec: e.Marshal(nil), res: make(chan opResult, 1)}
}

// decodeBatchOps parses an OpBatch payload into (kind, first-attr-value)
// pairs so tests can check exactly which ops a frame carried.
func decodeBatchOps(t *testing.T, p []byte) []int64 {
	t.Helper()
	n, off, err := wire.ReadUvarint(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	var vals []int64
	var scratch entity.Entity
	for i := uint64(0); i < n; i++ {
		if p[off] != wire.BatchInsert {
			t.Fatalf("op %d kind %d, want insert", i, p[off])
		}
		off++
		used, err := entity.UnmarshalInto(&scratch, p[off:])
		if err != nil {
			t.Fatal(err)
		}
		off += used
		v, ok := scratch.Get(0)
		if !ok {
			t.Fatalf("op %d has no attr 0", i)
		}
		vals = append(vals, v.AsInt())
	}
	return vals
}

func resOK(ids ...uint64) []byte {
	p := binary.AppendUvarint(nil, uint64(len(ids)))
	for _, id := range ids {
		p = append(p, wire.ResOK)
		p = binary.AppendUvarint(p, id)
	}
	return p
}

func testBinary(t *testing.T, addr string, opts ...BinaryOption) *Binary {
	t.Helper()
	opts = append([]BinaryOption{
		WithBinaryBackoff(time.Millisecond),
		WithBinaryTimeout(5 * time.Second),
	}, opts...)
	b, err := NewBinary(addr, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })
	return b
}

// TestBinaryPartialFailureRetriesOnlySuffix is the batched-write
// partial-failure contract: after a batch response marks op1 failed and
// op2 unapplied, the client must resend ONLY op2 — op0 was applied and
// acked, op1 failed terminally.
func TestBinaryPartialFailureRetriesOnlySuffix(t *testing.T) {
	var batches atomic.Int64
	var mu sync.Mutex
	var frames [][]int64

	srv := newScriptedServer(t, func() uint64 { return 1 }, func(f wire.Frame) (byte, []byte) {
		if f.Kind != wire.OpBatch {
			return wire.StatusError, wire.AppendErrorPayload(nil, "unexpected opcode")
		}
		mu.Lock()
		frames = append(frames, decodeBatchOps(t, append([]byte(nil), f.Payload...)))
		mu.Unlock()
		switch batches.Add(1) {
		case 1:
			p := binary.AppendUvarint(nil, 3)
			p = append(p, wire.ResOK)
			p = binary.AppendUvarint(p, 11)
			p = append(p, wire.ResFailed)
			p = wire.AppendString(p, "boom")
			p = append(p, wire.ResUnapplied)
			return wire.StatusOK, p
		default:
			return wire.StatusOK, resOK(12)
		}
	})

	b := testBinary(t, srv.addr())
	ops := []*pendingOp{insertOp(0, 100), insertOp(0, 200), insertOp(0, 300)}
	b.sendBatch(ops)

	r0 := <-ops[0].res
	if r0.err != nil || r0.id != 11 {
		t.Fatalf("op0: %+v", r0)
	}
	r1 := <-ops[1].res
	var oe *OpError
	if !errors.As(r1.err, &oe) || oe.Code != wire.ResFailed || oe.Message != "boom" {
		t.Fatalf("op1: %v", r1.err)
	}
	r2 := <-ops[2].res
	if r2.err != nil || r2.id != 12 {
		t.Fatalf("op2 must succeed on retry: %+v", r2)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(frames) != 2 {
		t.Fatalf("sent %d batch frames, want 2", len(frames))
	}
	if len(frames[1]) != 1 || frames[1][0] != 300 {
		t.Fatalf("retry frame carried %v, want only the unapplied op [300]", frames[1])
	}
}

// TestBinaryStatusRetryResendsWholeBatch: StatusRetry means nothing was
// applied, so the whole batch goes again.
func TestBinaryStatusRetryResendsWholeBatch(t *testing.T) {
	var batches atomic.Int64
	srv := newScriptedServer(t, func() uint64 { return 1 }, func(f wire.Frame) (byte, []byte) {
		if batches.Add(1) == 1 {
			return wire.StatusRetry, wire.AppendErrorPayload(nil, "draining")
		}
		n, _, _ := wire.ReadUvarint(f.Payload, 0)
		ids := make([]uint64, n)
		for i := range ids {
			ids[i] = uint64(20 + i)
		}
		return wire.StatusOK, resOK(ids...)
	})

	b := testBinary(t, srv.addr())
	ops := []*pendingOp{insertOp(0, 1), insertOp(0, 2)}
	b.sendBatch(ops)
	for i, op := range ops {
		r := <-op.res
		if r.err != nil {
			t.Fatalf("op%d: %v", i, r.err)
		}
	}
	if got := batches.Load(); got != 2 {
		t.Fatalf("%d batch frames, want 2 (one retry)", got)
	}
}

// TestBinaryNotDurableIsNotRetried: StatusNotDurable means the batch
// may be applied — resending could double-apply, so the error surfaces.
func TestBinaryNotDurableIsNotRetried(t *testing.T) {
	var batches atomic.Int64
	srv := newScriptedServer(t, func() uint64 { return 1 }, func(f wire.Frame) (byte, []byte) {
		batches.Add(1)
		return wire.StatusNotDurable, wire.AppendErrorPayload(nil, "fsync failed")
	})

	b := testBinary(t, srv.addr())
	ops := []*pendingOp{insertOp(0, 1)}
	b.sendBatch(ops)
	r := <-ops[0].res
	var we *WireError
	if !errors.As(r.err, &we) || we.Status != wire.StatusNotDurable {
		t.Fatalf("want WireError(NotDurable), got %v", r.err)
	}
	if got := batches.Load(); got != 1 {
		t.Fatalf("%d batch frames, want 1 (no retry)", got)
	}
}

// TestBinaryRetriesAreBounded: endless StatusRetry eventually surfaces
// instead of looping forever.
func TestBinaryRetriesAreBounded(t *testing.T) {
	var batches atomic.Int64
	srv := newScriptedServer(t, func() uint64 { return 1 }, func(f wire.Frame) (byte, []byte) {
		batches.Add(1)
		return wire.StatusRetry, wire.AppendErrorPayload(nil, "busy")
	})

	b := testBinary(t, srv.addr(), WithBinaryRetries(2))
	ops := []*pendingOp{insertOp(0, 1)}
	b.sendBatch(ops)
	r := <-ops[0].res
	var we *WireError
	if !errors.As(r.err, &we) || we.Status != wire.StatusRetry {
		t.Fatalf("want surfaced retry error, got %v", r.err)
	}
	if got := batches.Load(); got != 3 { // 1 try + 2 retries
		t.Fatalf("%d batch frames, want 3", got)
	}
}

// TestBinaryTokenChangeInvalidatesAttrCache: a server restart (new
// session token on the next hello) must clear the cached name→id map —
// wire ids are session-scoped.
func TestBinaryTokenChangeInvalidatesAttrCache(t *testing.T) {
	var token atomic.Uint64
	token.Store(1)
	var attrReqs atomic.Int64
	var dropNext atomic.Bool
	srv := newScriptedServer(t, token.Load, func(f wire.Frame) (byte, []byte) {
		switch f.Kind {
		case wire.OpAttrs:
			attrReqs.Add(1)
			names, err := wire.DecodeAttrsRequest(f.Payload)
			if err != nil {
				return wire.StatusError, wire.AppendErrorPayload(nil, err.Error())
			}
			ids := make([]int, len(names))
			for i := range ids {
				ids[i] = i
			}
			return wire.StatusOK, wire.AppendAttrsResponse(nil, ids)
		case wire.OpPing:
			if dropNext.CompareAndSwap(true, false) {
				return closeConn, nil
			}
			return wire.StatusOK, nil
		}
		return wire.StatusError, wire.AppendErrorPayload(nil, "unexpected")
	})

	b := testBinary(t, srv.addr(), WithConns(1))
	ctx := context.Background()
	if err := b.ensureAttrs(ctx, []string{"a"}); err != nil {
		t.Fatal(err)
	}
	if err := b.ensureAttrs(ctx, []string{"a"}); err != nil {
		t.Fatal(err)
	}
	if got := attrReqs.Load(); got != 1 {
		t.Fatalf("%d attr requests, want 1 (cache hit)", got)
	}

	// Simulate a server restart: drop the connection, change the token.
	dropNext.Store(true)
	token.Store(2)
	b.Ping(ctx) // fails on the dropped conn, then redials and sees token 2

	if err := b.ensureAttrs(ctx, []string{"a"}); err != nil {
		t.Fatal(err)
	}
	if got := attrReqs.Load(); got != 2 {
		t.Fatalf("%d attr requests after restart, want 2 (cache invalidated)", got)
	}
}

// ---- end-to-end against the real wire server ----

func startWireServer(t *testing.T) (string, *wire.Server, *shard.Sharded) {
	t.Helper()
	d, err := shard.Open(t.TempDir(), shard.Options{Shards: 1,
		Config: cinderella.Config{Weight: 0.3, PartitionSizeLimit: 100}})
	if err != nil {
		t.Fatal(err)
	}
	srv := wire.New(d, nil, wire.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		d.Close()
	})
	return ln.Addr().String(), srv, d
}

func TestBinaryEndToEnd(t *testing.T) {
	addr, _, _ := startWireServer(t)
	b := testBinary(t, addr)
	ctx := context.Background()

	id, err := b.Insert(ctx, Doc{"name": "camera", "aperture": 2.0, "zoom": int64(4)})
	if err != nil {
		t.Fatal(err)
	}
	doc, ok, err := b.Get(ctx, id)
	if err != nil || !ok {
		t.Fatalf("get: ok=%v err=%v", ok, err)
	}
	if doc["name"] != "camera" || doc["aperture"] != 2.0 || doc["zoom"] != int64(4) {
		t.Fatalf("round trip mangled doc: %v", doc)
	}

	ok, err = b.Update(ctx, id, Doc{"name": "camera2", "wifi": int64(1)})
	if err != nil || !ok {
		t.Fatalf("update: ok=%v err=%v", ok, err)
	}
	doc, _, _ = b.Get(ctx, id)
	if doc["name"] != "camera2" || doc["wifi"] != int64(1) {
		t.Fatalf("update lost: %v", doc)
	}
	if _, ok := doc["aperture"]; ok {
		t.Fatalf("update is a replace; aperture should be gone: %v", doc)
	}

	recs, err := b.Query(ctx, "wifi")
	if err != nil || len(recs) != 1 || recs[0].ID != id {
		t.Fatalf("query: %v err=%v", recs, err)
	}

	ok, err = b.Delete(ctx, id)
	if err != nil || !ok {
		t.Fatalf("delete: ok=%v err=%v", ok, err)
	}
	if _, ok, _ := b.Get(ctx, id); ok {
		t.Fatal("deleted doc still readable")
	}
	if ok, err := b.Delete(ctx, id); err != nil || ok {
		t.Fatalf("double delete: ok=%v err=%v", ok, err)
	}
	if err := b.Ping(ctx); err != nil {
		t.Fatal(err)
	}
}

func TestBinaryConcurrentInsertsShareBatches(t *testing.T) {
	addr, _, d := startWireServer(t)
	b := testBinary(t, addr, WithBatch(32, 0, 2*time.Millisecond))
	ctx := context.Background()

	const n = 120
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = b.Insert(ctx, Doc{"k": int64(i)})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("insert %d: %v", i, err)
		}
	}
	if got := d.Len(); got != n {
		t.Fatalf("table has %d docs, want %d", got, n)
	}
	recs, err := b.Query(ctx, "k")
	if err != nil || len(recs) != n {
		t.Fatalf("query returned %d, want %d (err %v)", len(recs), n, err)
	}
}

func TestBinaryInsertMany(t *testing.T) {
	addr, _, d := startWireServer(t)
	b := testBinary(t, addr, WithBatch(16, 0, 0))
	ctx := context.Background()

	docs := make([]Doc, 50)
	for i := range docs {
		docs[i] = Doc{"v": int64(i), "tag": "bulk"}
	}
	ids, err := b.InsertMany(ctx, docs)
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		if id == 0 {
			t.Fatalf("doc %d has no id", i)
		}
	}
	if got := d.Len(); got != 50 {
		t.Fatalf("table has %d docs, want 50", got)
	}
	// Durability: acked means fsynced.
	if d.DurableLSN() < d.LastLSN() {
		t.Fatalf("acked writes not durable: %d < %d", d.DurableLSN(), d.LastLSN())
	}
}

// TestBinaryInsertManyFrames pins InsertMany's framing: a call travels
// as ⌈n/maxOps⌉ batch frames, never as a lone first op plus the rest.
func TestBinaryInsertManyFrames(t *testing.T) {
	addr, reg := startInstrumentedWireServer(t)
	b := testBinary(t, addr, WithConns(1), WithBatch(64, 0, 0))
	ctx := context.Background()

	docs := func(n int) []Doc {
		out := make([]Doc, n)
		for i := range out {
			out[i] = Doc{"v": int64(i)}
		}
		return out
	}
	// Warm up: dial, handshake, and register "v", so the counted calls
	// send batch frames only.
	if _, err := b.Insert(ctx, Doc{"v": int64(-1)}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct{ docs, frames int }{{64, 1}, {130, 3}} {
		before := reg.Counter(obs.CWireFrames)
		ids, err := b.InsertMany(ctx, docs(tc.docs))
		if err != nil {
			t.Fatal(err)
		}
		if len(ids) != tc.docs {
			t.Fatalf("InsertMany(%d) returned %d ids", tc.docs, len(ids))
		}
		if got := reg.Counter(obs.CWireFrames) - before; got != int64(tc.frames) {
			t.Fatalf("InsertMany(%d) sent %d frames, want %d", tc.docs, got, tc.frames)
		}
	}
}
