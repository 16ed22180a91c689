package wire_test

import (
	"context"
	"encoding/binary"
	"net"
	"strings"
	"testing"
	"time"

	"cinderella"
	"cinderella/internal/entity"
	"cinderella/internal/shard"
	"cinderella/internal/wire"
)

// startServer runs a wire server over st on an ephemeral port and
// returns its address. Cleanup shuts it down.
func startServer(t *testing.T, st wire.Store) (string, *wire.Server) {
	t.Helper()
	srv := wire.New(st, nil, wire.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	})
	return ln.Addr().String(), srv
}

// rawConn is a hand-driven protocol client for exercising the server
// below the client package's conveniences.
type rawConn struct {
	t   *testing.T
	nc  net.Conn
	buf []byte
	seq uint64
}

func dialRaw(t *testing.T, addr string) *rawConn {
	t.Helper()
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nc.Close() })
	return &rawConn{t: t, nc: nc}
}

func (r *rawConn) send(kind byte, payload []byte) uint64 {
	r.t.Helper()
	r.seq++
	if _, err := r.nc.Write(wire.AppendFrame(nil, kind, r.seq, payload)); err != nil {
		r.t.Fatal(err)
	}
	return r.seq
}

// sendVersion sends a frame with an arbitrary version byte.
func (r *rawConn) sendVersion(version, kind byte, payload []byte) {
	r.t.Helper()
	r.seq++
	frame := wire.AppendFrame(nil, kind, r.seq, payload)
	frame[4] = version
	if _, err := r.nc.Write(frame); err != nil {
		r.t.Fatal(err)
	}
}

// recv reads one response frame; the payload is copied.
func (r *rawConn) recv() wire.Frame {
	r.t.Helper()
	r.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	f, err := wire.ReadFrame(r.nc, &r.buf, wire.DefaultMaxFrame)
	if err != nil {
		r.t.Fatal(err)
	}
	f.Payload = append([]byte(nil), f.Payload...)
	return f
}

// expectClosed asserts the server closed the connection.
func (r *rawConn) expectClosed() {
	r.t.Helper()
	r.nc.SetReadDeadline(time.Now().Add(5 * time.Second))
	if f, err := wire.ReadFrame(r.nc, &r.buf, wire.DefaultMaxFrame); err == nil {
		r.t.Fatalf("connection still open, read frame kind=%d", f.Kind)
	}
}

// registerAttrs round-trips OpAttrs and returns the assigned wire ids.
func (r *rawConn) registerAttrs(names ...string) []int {
	r.t.Helper()
	seq := r.send(wire.OpAttrs, wire.AppendAttrsRequest(nil, names))
	f := r.recv()
	if f.Kind != wire.StatusOK || f.Seq != seq {
		r.t.Fatalf("attrs response kind=%d seq=%d: %s", f.Kind, f.Seq, wire.DecodeErrorPayload(f.Payload))
	}
	ids, err := wire.DecodeAttrsResponse(f.Payload)
	if err != nil {
		r.t.Fatal(err)
	}
	return ids
}

// numEnt builds an entity of int attributes over the given wire ids.
func numEnt(vals map[int]int64) *entity.Entity {
	e := &entity.Entity{}
	for id, v := range vals {
		e.Set(id, entity.Int(v))
	}
	return e
}

// batchInsert encodes one batch frame of inserts.
func batchInsert(ents ...*entity.Entity) []byte {
	p := binary.AppendUvarint(nil, uint64(len(ents)))
	for _, e := range ents {
		p = append(p, wire.BatchInsert)
		p = e.Marshal(p)
	}
	return p
}

// parseBatchResults decodes per-op result codes (and insert ids).
func parseBatchResults(t *testing.T, p []byte) (codes []byte, ids []uint64, msgs []string) {
	t.Helper()
	n, off, err := wire.ReadUvarint(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < n; i++ {
		code := p[off]
		off++
		codes = append(codes, code)
		var id uint64
		var msg string
		switch code {
		case wire.ResOK:
			// Only inserts carry an id; this helper is used on all-insert
			// batches plus update/delete batches where the caller ignores ids.
			if id, off, err = wire.ReadUvarint(p, off); err != nil {
				t.Fatal(err)
			}
		case wire.ResFailed:
			if msg, off, err = wire.ReadString(p, off); err != nil {
				t.Fatal(err)
			}
		}
		ids = append(ids, id)
		msgs = append(msgs, msg)
	}
	return
}

// openTable opens the daemon's default store: one shard.
func openTable(t *testing.T) *shard.Sharded {
	t.Helper()
	d, err := shard.Open(t.TempDir(), shard.Options{Shards: 1,
		Config: cinderella.Config{Weight: 0.3, PartitionSizeLimit: 100}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

func TestServerHelloPingAttrs(t *testing.T) {
	addr, srv := startServer(t, openTable(t))
	c := dialRaw(t, addr)

	seq := c.send(wire.OpHello, nil)
	f := c.recv()
	if f.Kind != wire.StatusOK || f.Seq != seq {
		t.Fatalf("hello: kind=%d", f.Kind)
	}
	tok, err := wire.DecodeHello(f.Payload)
	if err != nil || tok != srv.Token() {
		t.Fatalf("token %x want %x err %v", tok, srv.Token(), err)
	}

	c.send(wire.OpPing, nil)
	if f := c.recv(); f.Kind != wire.StatusOK || len(f.Payload) != 0 {
		t.Fatalf("ping: kind=%d payload=%d", f.Kind, len(f.Payload))
	}

	ids := c.registerAttrs("a", "b", "a")
	if len(ids) != 3 || ids[0] != ids[2] || ids[0] == ids[1] {
		t.Fatalf("attr ids %v: duplicates must resolve to the same id", ids)
	}
}

func TestServerBatchGetQuery(t *testing.T) {
	d := openTable(t)
	addr, _ := startServer(t, d)
	c := dialRaw(t, addr)
	ids := c.registerAttrs("x", "y")

	// Insert two entities in one batch.
	seq := c.send(wire.OpBatch, batchInsert(
		numEnt(map[int]int64{ids[0]: 1}),
		numEnt(map[int]int64{ids[0]: 2, ids[1]: 3}),
	))
	f := c.recv()
	if f.Kind != wire.StatusOK || f.Seq != seq {
		t.Fatalf("batch: kind=%d: %s", f.Kind, wire.DecodeErrorPayload(f.Payload))
	}
	codes, insIDs, _ := parseBatchResults(t, f.Payload)
	if len(codes) != 2 || codes[0] != wire.ResOK || codes[1] != wire.ResOK {
		t.Fatalf("codes %v", codes)
	}
	if insIDs[0] == 0 || insIDs[1] == 0 {
		t.Fatalf("insert ids %v", insIDs)
	}
	// Writes acked OK must be durable.
	if d.DurableLSN() < d.LastLSN() {
		t.Fatalf("acked batch not durable: durable=%d last=%d", d.DurableLSN(), d.LastLSN())
	}

	// Get the second entity: expect a dict delta naming x and y.
	c.send(wire.OpGet, binary.AppendUvarint(nil, insIDs[1]))
	f = c.recv()
	if f.Kind != wire.StatusOK {
		t.Fatalf("get: %s", wire.DecodeErrorPayload(f.Payload))
	}
	names := map[int]string{}
	off, err := wire.DecodeDictDelta(f.Payload, 0, func(id int, name string) { names[id] = name })
	if err != nil {
		t.Fatal(err)
	}
	if names[ids[0]] != "x" || names[ids[1]] != "y" {
		t.Fatalf("dict delta %v", names)
	}
	if f.Payload[off] != 1 {
		t.Fatal("get: found byte is 0")
	}
	e, _, err := entity.Unmarshal(f.Payload[off+1:])
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := e.Get(ids[1]); !ok || v.AsInt() != 3 {
		t.Fatalf("entity %v", e)
	}

	// Second get on the same conn: the delta must be empty (already sent).
	c.send(wire.OpGet, binary.AppendUvarint(nil, insIDs[0]))
	f = c.recv()
	var deltaCount int
	if _, err := wire.DecodeDictDelta(f.Payload, 0, func(int, string) { deltaCount++ }); err != nil {
		t.Fatal(err)
	}
	if deltaCount != 0 {
		t.Fatalf("second get resent %d dict entries", deltaCount)
	}

	// Query on y matches only the second entity.
	q := binary.AppendUvarint(nil, 1)
	q = binary.AppendUvarint(q, uint64(ids[1]))
	c.send(wire.OpQuery, q)
	f = c.recv()
	if f.Kind != wire.StatusOK {
		t.Fatalf("query: %s", wire.DecodeErrorPayload(f.Payload))
	}
	off, _ = wire.DecodeDictDelta(f.Payload, 0, func(int, string) {})
	n, off, err := wire.ReadUvarint(f.Payload, off)
	if err != nil || n != 1 {
		t.Fatalf("query count %d err %v", n, err)
	}
	gotID, off, _ := wire.ReadUvarint(f.Payload, off)
	if gotID != insIDs[1] {
		t.Fatalf("query returned id %d, want %d", gotID, insIDs[1])
	}
	if _, _, err := entity.Unmarshal(f.Payload[off:]); err != nil {
		t.Fatal(err)
	}

	// Unregistered attribute id in a query is a client error.
	q = binary.AppendUvarint(nil, 1)
	q = binary.AppendUvarint(q, 9999)
	c.send(wire.OpQuery, q)
	if f = c.recv(); f.Kind != wire.StatusError {
		t.Fatalf("unregistered query id: kind=%d", f.Kind)
	}
	// ... and the connection survives it.
	c.send(wire.OpPing, nil)
	if f = c.recv(); f.Kind != wire.StatusOK {
		t.Fatal("connection did not survive a payload-level error")
	}
}

func TestServerBatchPartialFailure(t *testing.T) {
	d := openTable(t)
	addr, _ := startServer(t, d)
	c := dialRaw(t, addr)
	ids := c.registerAttrs("a")

	before := d.Len()
	// Middle op references an unknown attribute id: the store rejects it.
	c.send(wire.OpBatch, batchInsert(
		numEnt(map[int]int64{ids[0]: 1}),
		numEnt(map[int]int64{9999: 2}),
		numEnt(map[int]int64{ids[0]: 3}),
	))
	f := c.recv()
	if f.Kind != wire.StatusOK {
		t.Fatalf("partial failure must still answer OK: %s", wire.DecodeErrorPayload(f.Payload))
	}
	codes, _, msgs := parseBatchResults(t, f.Payload)
	want := []byte{wire.ResOK, wire.ResFailed, wire.ResUnapplied}
	for i, w := range want {
		if codes[i] != w {
			t.Fatalf("op %d code %d, want %d (codes %v)", i, codes[i], w, codes)
		}
	}
	if msgs[1] == "" {
		t.Fatal("failed op carries no message")
	}
	// Only the applied prefix landed, and it is durable.
	if got := d.Len(); got != before+1 {
		t.Fatalf("docs %d, want %d (prefix only)", got, before+1)
	}
	if d.DurableLSN() < d.LastLSN() {
		t.Fatal("applied prefix not durable")
	}
	// The connection survives payload-level failures.
	c.send(wire.OpPing, nil)
	if f = c.recv(); f.Kind != wire.StatusOK {
		t.Fatal("connection closed after partial failure")
	}
}

func TestServerFatalFrames(t *testing.T) {
	addr, _ := startServer(t, openTable(t))

	t.Run("unknown opcode", func(t *testing.T) {
		c := dialRaw(t, addr)
		c.send(99, nil)
		if f := c.recv(); f.Kind != wire.StatusError {
			t.Fatalf("kind=%d", f.Kind)
		}
		c.expectClosed()
	})
	t.Run("version mismatch", func(t *testing.T) {
		c := dialRaw(t, addr)
		c.sendVersion(wire.Version+1, wire.OpPing, nil)
		f := c.recv()
		if f.Kind != wire.StatusError || !strings.Contains(wire.DecodeErrorPayload(f.Payload), "version") {
			t.Fatalf("kind=%d msg=%q", f.Kind, wire.DecodeErrorPayload(f.Payload))
		}
		c.expectClosed()
	})
	t.Run("garbage length prefix", func(t *testing.T) {
		c := dialRaw(t, addr)
		if _, err := c.nc.Write([]byte{0xff, 0xff, 0xff, 0xff}); err != nil {
			t.Fatal(err)
		}
		c.expectClosed()
	})
	t.Run("corrupt batch header keeps connection", func(t *testing.T) {
		c := dialRaw(t, addr)
		c.send(wire.OpBatch, []byte{0xff}) // truncated varint
		if f := c.recv(); f.Kind != wire.StatusError {
			t.Fatalf("kind=%d", f.Kind)
		}
		c.send(wire.OpPing, nil)
		if f := c.recv(); f.Kind != wire.StatusOK {
			t.Fatal("connection closed after in-band error")
		}
	})
}

func TestServerDrainRejectsWritesServesReads(t *testing.T) {
	d := openTable(t)
	addr, srv := startServer(t, d)
	c := dialRaw(t, addr)
	ids := c.registerAttrs("a")

	c.send(wire.OpBatch, batchInsert(numEnt(map[int]int64{ids[0]: 1})))
	f := c.recv()
	codes, insIDs, _ := parseBatchResults(t, f.Payload)
	if codes[0] != wire.ResOK {
		t.Fatal("pre-drain insert failed")
	}

	srv.BeginDrain()

	// Writes: StatusRetry — nothing applied, safe to retry elsewhere.
	before := d.Len()
	c.send(wire.OpBatch, batchInsert(numEnt(map[int]int64{ids[0]: 2})))
	if f = c.recv(); f.Kind != wire.StatusRetry {
		t.Fatalf("draining batch: kind=%d", f.Kind)
	}
	if d.Len() != before {
		t.Fatal("draining batch was applied")
	}

	// Reads, pings, and attrs keep working for the whole drain window.
	c.send(wire.OpGet, binary.AppendUvarint(nil, insIDs[0]))
	if f = c.recv(); f.Kind != wire.StatusOK {
		t.Fatal("draining get rejected")
	}
	c.send(wire.OpPing, nil)
	if f = c.recv(); f.Kind != wire.StatusOK {
		t.Fatal("draining ping rejected")
	}
	c.registerAttrs("b")
}

func TestServerAckedWritesSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	opts := shard.Options{Shards: 1, Config: cinderella.Config{Weight: 0.3, PartitionSizeLimit: 100}}
	d, err := shard.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	addr, srv := startServer(t, d)
	c := dialRaw(t, addr)
	ids := c.registerAttrs("k")

	c.send(wire.OpBatch, batchInsert(
		numEnt(map[int]int64{ids[0]: 10}),
		numEnt(map[int]int64{ids[0]: 20}),
	))
	f := c.recv()
	codes, _, _ := parseBatchResults(t, f.Payload)
	if codes[0] != wire.ResOK || codes[1] != wire.ResOK {
		t.Fatalf("codes %v", codes)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	c.nc.Close()
	srv.Shutdown(ctx)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := shard.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.Len(); got != 2 {
		t.Fatalf("reopened table has %d docs, want 2", got)
	}
}

// TestServerShardedBackend runs the full protocol against a Sharded
// store: every shard uses the one dictionary the wire ids come from, so
// ids pass through untranslated and clients cannot tell the difference.
func TestServerShardedBackend(t *testing.T) {
	sh, err := shard.Open(t.TempDir(), shard.Options{
		Shards: 3,
		Config: cinderella.Config{Weight: 0.3, PartitionSizeLimit: 100},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sh.Close() })
	addr, _ := startServer(t, sh)
	c := dialRaw(t, addr)
	ids := c.registerAttrs("p", "q")

	var ents []*entity.Entity
	for i := int64(1); i <= 9; i++ {
		ents = append(ents, numEnt(map[int]int64{ids[0]: i, ids[1]: i * 10}))
	}
	c.send(wire.OpBatch, batchInsert(ents...))
	f := c.recv()
	if f.Kind != wire.StatusOK {
		t.Fatalf("batch: %s", wire.DecodeErrorPayload(f.Payload))
	}
	codes, insIDs, _ := parseBatchResults(t, f.Payload)
	for i, code := range codes {
		if code != wire.ResOK {
			t.Fatalf("op %d code %d", i, code)
		}
		// Round-trip each through OpGet: values must come back in the
		// wire id space regardless of which shard holds them.
		c.send(wire.OpGet, binary.AppendUvarint(nil, insIDs[i]))
		g := c.recv()
		if g.Kind != wire.StatusOK {
			t.Fatalf("get %d: %s", insIDs[i], wire.DecodeErrorPayload(g.Payload))
		}
		off, err := wire.DecodeDictDelta(g.Payload, 0, func(int, string) {})
		if err != nil {
			t.Fatal(err)
		}
		if g.Payload[off] != 1 {
			t.Fatalf("id %d not found", insIDs[i])
		}
		e, _, err := entity.Unmarshal(g.Payload[off+1:])
		if err != nil {
			t.Fatal(err)
		}
		if v, ok := e.Get(ids[0]); !ok || v.AsInt() != int64(i+1) {
			t.Fatalf("entity %d came back as %v", i, e)
		}
	}

	// Query across shards: all nine match p.
	q := binary.AppendUvarint(nil, 1)
	q = binary.AppendUvarint(q, uint64(ids[0]))
	c.send(wire.OpQuery, q)
	f = c.recv()
	off, _ := wire.DecodeDictDelta(f.Payload, 0, func(int, string) {})
	n, _, err := wire.ReadUvarint(f.Payload, off)
	if err != nil || n != 9 {
		t.Fatalf("query matched %d, want 9 (err %v)", n, err)
	}

	// An id the dictionary never assigned fails its op, and nothing of
	// the batch lands on any shard.
	before := sh.Len()
	c.send(wire.OpBatch, batchInsert(
		numEnt(map[int]int64{ids[0]: 1, 9999: 2}),
		numEnt(map[int]int64{ids[0]: 3}),
	))
	f = c.recv()
	if f.Kind != wire.StatusOK {
		t.Fatalf("batch with an unregistered id: %s", wire.DecodeErrorPayload(f.Payload))
	}
	codes, _, _ = parseBatchResults(t, f.Payload)
	if len(codes) != 2 || codes[0] != wire.ResFailed || codes[1] != wire.ResUnapplied {
		t.Fatalf("codes %v, want [ResFailed ResUnapplied]", codes)
	}
	if got := sh.Len(); got != before {
		t.Fatalf("docs %d after a failed batch, want %d", got, before)
	}
}
