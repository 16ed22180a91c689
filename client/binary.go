package client

// The binary transport: a typed client for cinderellad's length-prefixed
// wire protocol (internal/wire), the daemon's only write path. It
// keeps persistent pooled connections, marshals documents once into the
// server's native entity record format, batches concurrent writes into
// single frames (flush on count, bytes, or linger — "natural" batching
// sends immediately when nothing is in flight, so a lone writer pays no
// added latency while many writers self-tune to the round-trip), and
// pipelines requests, matching responses by sequence number.
//
// Retry semantics match the HTTP client's: only provably-unapplied
// failures retry — StatusRetry frames (server draining or overloaded:
// nothing applied), connection-refused dials, and the ResUnapplied
// suffix of a partially failed batch. StatusNotDurable and mid-flight
// transport failures surface to the caller, because the write may have
// been applied.

import (
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"cinderella/internal/entity"
	"cinderella/internal/wire"
)

// WireError is a non-OK response frame from the server.
type WireError struct {
	Status  byte // wire.StatusError, StatusRetry, or StatusNotDurable
	Message string
}

func (e *WireError) Error() string {
	kind := "error"
	switch e.Status {
	case wire.StatusRetry:
		kind = "retry"
	case wire.StatusNotDurable:
		kind = "not durable"
	}
	return fmt.Sprintf("cinderellad wire: %s: %s", kind, e.Message)
}

// OpError is one operation's failure inside a batch.
type OpError struct {
	Code    byte // wire.ResFailed or wire.ResUnapplied
	Message string
}

func (e *OpError) Error() string {
	if e.Code == wire.ResUnapplied {
		return "cinderellad wire: op not applied: " + e.Message
	}
	return "cinderellad wire: op failed: " + e.Message
}

// Binary talks to one cinderellad over the binary wire protocol. It is
// safe for concurrent use; concurrent writes batch into shared frames.
type Binary struct {
	addr       string
	timeout    time.Duration
	maxRetries int
	backoff    time.Duration
	maxBackoff time.Duration
	maxFrame   int

	// Connection pool. Slots dial lazily; a broken connection clears its
	// slot so the next user redials.
	connMu sync.Mutex
	pool   []*bconn
	next   atomic.Uint64 // round-robin cursor

	// Attribute id negotiation: name→wire-id (for encoding writes and
	// queries) and id→name (for decoding read responses, fed by
	// dictionary deltas). Guarded by attrMu. token is the server session;
	// a changed token on redial invalidates both maps.
	attrMu   sync.Mutex
	attrs    map[string]int
	idToName []string
	token    uint64
	haveTok  bool

	bat batcher

	bytesOut atomic.Int64 // frame bytes written
	bytesIn  atomic.Int64 // frame bytes read

	closed atomic.Bool
}

// BinaryOption customizes a Binary client.
type BinaryOption func(*Binary)

// WithBinaryTimeout sets the per-exchange deadline (default 10s).
func WithBinaryTimeout(d time.Duration) BinaryOption {
	return func(b *Binary) { b.timeout = d }
}

// WithBinaryRetries bounds retry attempts after the first try (default
// 4; 0 disables retries).
func WithBinaryRetries(n int) BinaryOption {
	return func(b *Binary) { b.maxRetries = n }
}

// WithBinaryBackoff sets the initial retry backoff (default 25ms,
// doubling per attempt, capped at 1s).
func WithBinaryBackoff(d time.Duration) BinaryOption {
	return func(b *Binary) { b.backoff = d }
}

// WithConns sets the connection pool size (default 2).
func WithConns(n int) BinaryOption {
	return func(b *Binary) {
		if n > 0 {
			b.pool = make([]*bconn, n)
		}
	}
}

// WithBatch tunes client-side write batching: flush when a batch
// reaches maxOps operations or maxBytes payload bytes, or when linger
// elapses after the first queued op. Zero keeps a parameter's default
// (256 ops, 512 KiB, 1ms).
func WithBatch(maxOps, maxBytes int, linger time.Duration) BinaryOption {
	return func(b *Binary) {
		if maxOps > 0 {
			b.bat.maxOps = maxOps
		}
		if maxBytes > 0 {
			b.bat.maxBytes = maxBytes
		}
		if linger > 0 {
			b.bat.linger = linger
		}
	}
}

// NewBinary returns a binary-protocol client for addr (host:port).
func NewBinary(addr string, opts ...BinaryOption) (*Binary, error) {
	if _, _, err := net.SplitHostPort(addr); err != nil {
		return nil, fmt.Errorf("client: bad binary address %q: %v", addr, err)
	}
	b := &Binary{
		addr:       addr,
		timeout:    10 * time.Second,
		maxRetries: 4,
		backoff:    25 * time.Millisecond,
		maxBackoff: time.Second,
		maxFrame:   wire.DefaultMaxFrame,
		pool:       make([]*bconn, 2),
		attrs:      make(map[string]int),
	}
	b.bat = batcher{b: b, maxOps: 256, maxBytes: 512 << 10, linger: time.Millisecond}
	for _, o := range opts {
		o(b)
	}
	return b, nil
}

// Close closes all pooled connections. In-flight exchanges fail.
func (b *Binary) Close() error {
	b.closed.Store(true)
	// Detach the conns under the lock, close them outside it — close
	// re-takes connMu to clear its pool slot.
	b.connMu.Lock()
	conns := make([]*bconn, 0, len(b.pool))
	for i, c := range b.pool {
		if c != nil {
			conns = append(conns, c)
			b.pool[i] = nil
		}
	}
	b.connMu.Unlock()
	for _, c := range conns {
		c.close(errors.New("client closed"))
	}
	return nil
}

// BytesSent and BytesReceived report cumulative transport bytes — the
// load generator's bytes/op accounting.
func (b *Binary) BytesSent() int64     { return b.bytesOut.Load() }
func (b *Binary) BytesReceived() int64 { return b.bytesIn.Load() }

// ---- connection pool ----

// bconn is one pooled connection with a reader goroutine that completes
// pipelined calls by sequence number.
type bconn struct {
	nc  net.Conn
	b   *Binary
	seq atomic.Uint64

	wmu sync.Mutex // serializes frame writes

	pmu     sync.Mutex
	pending map[uint64]*call
	dead    error // non-nil once the connection is unusable

	slot int
}

// call is one in-flight request awaiting its response frame.
type call struct {
	done    chan struct{}
	status  byte
	payload []byte // copied out of the read buffer
	err     error
}

// getConn returns a live pooled connection, dialing (and running the
// Hello handshake) if the slot is empty.
func (b *Binary) getConn(ctx context.Context) (*bconn, error) {
	if b.closed.Load() {
		return nil, errors.New("client: closed")
	}
	slot := int(b.next.Add(1)) % len(b.pool)
	b.connMu.Lock()
	if c := b.pool[slot]; c != nil {
		b.connMu.Unlock()
		return c, nil
	}
	b.connMu.Unlock()

	// Dial outside the pool lock; losers of a dial race just close.
	d := net.Dialer{}
	deadline := time.Now().Add(b.timeout)
	if dl, ok := ctx.Deadline(); ok && dl.Before(deadline) {
		deadline = dl
	}
	dctx, cancel := context.WithDeadline(ctx, deadline)
	defer cancel()
	nc, err := d.DialContext(dctx, "tcp", b.addr)
	if err != nil {
		return nil, &dialError{err}
	}
	c := &bconn{nc: nc, b: b, pending: make(map[uint64]*call), slot: slot}
	go c.readLoop()
	if err := b.hello(ctx, c); err != nil {
		c.close(err)
		return nil, err
	}
	b.connMu.Lock()
	if b.pool[slot] == nil && !b.closed.Load() {
		b.pool[slot] = c
		b.connMu.Unlock()
		return c, nil
	}
	existing := b.pool[slot]
	b.connMu.Unlock()
	if existing != nil {
		c.close(errors.New("duplicate dial"))
		return existing, nil
	}
	c.close(errors.New("client closed"))
	return nil, errors.New("client: closed")
}

// dialError marks a connection-refused-style failure: the request
// provably never reached a server, so even writes may retry.
type dialError struct{ err error }

func (e *dialError) Error() string { return "client: dial: " + e.err.Error() }
func (e *dialError) Unwrap() error { return e.err }

// hello runs the session handshake on a fresh connection and
// invalidates the attribute cache when the server's token changed
// (restart): wire attribute ids are session-scoped.
func (b *Binary) hello(ctx context.Context, c *bconn) error {
	status, payload, err := c.roundTrip(ctx, wire.OpHello, nil, b.timeout)
	if err != nil {
		return err
	}
	if status != wire.StatusOK {
		return &WireError{Status: status, Message: wire.DecodeErrorPayload(payload)}
	}
	tok, err := wire.DecodeHello(payload)
	if err != nil {
		return err
	}
	b.attrMu.Lock()
	if b.haveTok && b.token != tok {
		b.attrs = make(map[string]int)
		b.idToName = nil
	}
	b.token = tok
	b.haveTok = true
	b.attrMu.Unlock()
	return nil
}

// readLoop is the connection's response dispatcher.
func (c *bconn) readLoop() {
	var buf []byte
	for {
		f, err := wire.ReadFrame(c.nc, &buf, c.b.maxFrame)
		if err != nil {
			c.close(fmt.Errorf("client: connection lost: %w", err))
			return
		}
		c.b.bytesIn.Add(int64(4 + 10 + len(f.Payload)))
		c.pmu.Lock()
		call := c.pending[f.Seq]
		delete(c.pending, f.Seq)
		c.pmu.Unlock()
		if call == nil {
			continue // caller gave up (deadline); drop the orphan
		}
		call.status = f.Kind
		call.payload = append([]byte(nil), f.Payload...)
		close(call.done)
	}
}

// close marks the connection dead, fails every pending call, clears the
// pool slot, and closes the socket. Idempotent.
func (c *bconn) close(cause error) {
	c.pmu.Lock()
	if c.dead != nil {
		c.pmu.Unlock()
		return
	}
	c.dead = cause
	pending := c.pending
	c.pending = nil
	c.pmu.Unlock()
	for _, call := range pending {
		call.err = cause
		close(call.done)
	}
	c.b.connMu.Lock()
	if c.b.pool[c.slot] == c {
		c.b.pool[c.slot] = nil
	}
	c.b.connMu.Unlock()
	c.nc.Close()
}

// roundTrip sends one frame and waits for its response. The returned
// payload is owned by the caller.
func (c *bconn) roundTrip(ctx context.Context, op byte, payload []byte, timeout time.Duration) (byte, []byte, error) {
	seq := c.seq.Add(1)
	call := &call{done: make(chan struct{})}
	c.pmu.Lock()
	if c.dead != nil {
		err := c.dead
		c.pmu.Unlock()
		return 0, nil, err
	}
	c.pending[seq] = call
	c.pmu.Unlock()

	frame := wire.AppendFrame(nil, op, seq, payload)
	c.wmu.Lock()
	_, err := c.nc.Write(frame)
	c.wmu.Unlock()
	if err != nil {
		c.close(fmt.Errorf("client: write: %w", err))
		c.pmu.Lock()
		delete(c.pending, seq)
		c.pmu.Unlock()
		return 0, nil, fmt.Errorf("client: write: %w", err)
	}
	c.b.bytesOut.Add(int64(len(frame)))

	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case <-call.done:
		return call.status, call.payload, call.err
	case <-ctx.Done():
		c.forget(seq)
		return 0, nil, ctx.Err()
	case <-t.C:
		c.forget(seq)
		return 0, nil, fmt.Errorf("client: %s: timeout after %v", b2op(op), timeout)
	}
}

func (c *bconn) forget(seq uint64) {
	c.pmu.Lock()
	delete(c.pending, seq)
	c.pmu.Unlock()
}

func b2op(op byte) string {
	switch op {
	case wire.OpHello:
		return "hello"
	case wire.OpAttrs:
		return "attrs"
	case wire.OpBatch:
		return "batch"
	case wire.OpGet:
		return "get"
	case wire.OpQuery:
		return "query"
	case wire.OpPing:
		return "ping"
	}
	return "op"
}

// exchange is the retrying read-side round trip: reads are idempotent,
// so any transport failure redials and retries.
func (b *Binary) exchange(ctx context.Context, op byte, payload []byte) (byte, []byte, error) {
	var lastErr error
	for attempt := 0; ; attempt++ {
		c, err := b.getConn(ctx)
		if err == nil {
			var status byte
			var resp []byte
			status, resp, err = c.roundTrip(ctx, op, payload, b.timeout)
			if err == nil {
				if status == wire.StatusRetry && attempt < b.maxRetries {
					lastErr = &WireError{Status: status, Message: wire.DecodeErrorPayload(resp)}
					if !b.sleep(ctx, attempt) {
						return 0, nil, lastErr
					}
					continue
				}
				return status, resp, nil
			}
		}
		lastErr = err
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) || attempt >= b.maxRetries {
			return 0, nil, lastErr
		}
		if !b.sleep(ctx, attempt) {
			return 0, nil, lastErr
		}
	}
}

func (b *Binary) sleep(ctx context.Context, attempt int) bool {
	wait := b.backoff << attempt
	if wait > b.maxBackoff {
		wait = b.maxBackoff
	}
	select {
	case <-time.After(wait):
		return true
	case <-ctx.Done():
		return false
	}
}

// ---- attribute negotiation ----

// ensureAttrs resolves names to wire ids, registering unknown ones with
// one OpAttrs round trip. Steady state (all names cached) takes the
// mutex and allocates nothing.
func (b *Binary) ensureAttrs(ctx context.Context, names []string) error {
	b.attrMu.Lock()
	var missing []string
	for _, n := range names {
		if _, ok := b.attrs[n]; !ok {
			missing = append(missing, n)
		}
	}
	b.attrMu.Unlock()
	if len(missing) == 0 {
		return nil
	}
	payload := wire.AppendAttrsRequest(nil, missing)
	status, resp, err := b.exchange(ctx, wire.OpAttrs, payload)
	if err != nil {
		return err
	}
	if status != wire.StatusOK {
		return &WireError{Status: status, Message: wire.DecodeErrorPayload(resp)}
	}
	ids, err := wire.DecodeAttrsResponse(resp)
	if err != nil {
		return err
	}
	if len(ids) != len(missing) {
		return fmt.Errorf("client: attrs response has %d ids for %d names", len(ids), len(missing))
	}
	b.attrMu.Lock()
	for i, n := range missing {
		b.attrs[n] = ids[i]
		b.setIDName(ids[i], n)
	}
	b.attrMu.Unlock()
	return nil
}

// setIDName records id→name. Callers hold attrMu.
func (b *Binary) setIDName(id int, name string) {
	for len(b.idToName) <= id {
		b.idToName = append(b.idToName, "")
	}
	b.idToName[id] = name
}

// applyDelta folds a response's dictionary delta into the id→name map.
func (b *Binary) applyDelta(p []byte) (int, error) {
	b.attrMu.Lock()
	defer b.attrMu.Unlock()
	return wire.DecodeDictDelta(p, 0, func(id int, name string) {
		b.setIDName(id, name)
		b.attrs[name] = id
	})
}

// toEntity converts a Doc into an entity in the wire id space. The
// caller has already ensured every attribute name is registered.
func (b *Binary) toEntity(doc Doc) (*entity.Entity, error) {
	e := &entity.Entity{}
	b.attrMu.Lock()
	defer b.attrMu.Unlock()
	for name, v := range doc {
		id, ok := b.attrs[name]
		if !ok {
			return nil, fmt.Errorf("client: attribute %q not registered", name)
		}
		switch x := v.(type) {
		case nil:
			continue
		case int:
			e.Set(id, entity.Int(int64(x)))
		case int64:
			e.Set(id, entity.Int(x))
		case float64:
			e.Set(id, entity.Float(x))
		case string:
			e.Set(id, entity.Str(x))
		default:
			return nil, fmt.Errorf("client: attribute %q: unsupported value type %T", name, v)
		}
	}
	return e, nil
}

// toDoc converts a wire entity into a Doc via the id→name map.
func (b *Binary) toDoc(e *entity.Entity) (Doc, error) {
	doc := make(Doc, e.NumAttrs())
	b.attrMu.Lock()
	defer b.attrMu.Unlock()
	for _, f := range e.Fields() {
		if f.Attr >= len(b.idToName) || b.idToName[f.Attr] == "" {
			return nil, fmt.Errorf("client: response references unknown attribute id %d", f.Attr)
		}
		name := b.idToName[f.Attr]
		switch f.Value.Kind() {
		case entity.KindInt:
			doc[name] = f.Value.AsInt()
		case entity.KindFloat:
			doc[name] = f.Value.AsFloat()
		case entity.KindString:
			doc[name] = f.Value.AsString()
		}
	}
	return doc, nil
}

// docNames collects doc's attribute names into scratch.
func docNames(doc Doc, scratch []string) []string {
	scratch = scratch[:0]
	for name := range doc {
		scratch = append(scratch, name)
	}
	return scratch
}

// ---- public API ----

// Insert stores doc durably and returns its id. A nil error means the
// server acknowledged the write as applied and fsynced. Concurrent
// inserts share batch frames and group commits.
func (b *Binary) Insert(ctx context.Context, doc Doc) (ID, error) {
	res, err := b.writeOp(ctx, wire.BatchInsert, 0, doc)
	return res.id, err
}

// Update replaces a document durably. It reports whether id existed.
func (b *Binary) Update(ctx context.Context, id ID, doc Doc) (bool, error) {
	res, err := b.writeOp(ctx, wire.BatchUpdate, id, doc)
	return res.found, err
}

// Delete removes a document durably. It reports whether id existed.
func (b *Binary) Delete(ctx context.Context, id ID) (bool, error) {
	res, err := b.writeOp(ctx, wire.BatchDelete, id, nil)
	return res.found, err
}

// writeOp enqueues one mutation into the batcher and waits for its
// acknowledged result.
func (b *Binary) writeOp(ctx context.Context, kind byte, id ID, doc Doc) (opResult, error) {
	var rec []byte
	if doc != nil {
		if err := b.ensureAttrs(ctx, docNames(doc, nil)); err != nil {
			return opResult{}, err
		}
		e, err := b.toEntity(doc)
		if err != nil {
			return opResult{}, err
		}
		rec = e.Marshal(nil)
	}
	op := &pendingOp{kind: kind, id: id, rec: rec, res: make(chan opResult, 1)}
	b.bat.enqueue(op)
	select {
	case res := <-op.res:
		return res, res.err
	case <-ctx.Done():
		// The batch may still land; the result channel is buffered so
		// the batcher never blocks on an abandoned op.
		return opResult{}, ctx.Err()
	}
}

// InsertMany stores docs durably and returns their ids in order. The
// ops enter the shared batcher together, so one call becomes one frame
// per maxOps ops (or per maxBytes) and few fsyncs. The first failed
// op's error is returned (later ops may still have been applied;
// inspect ids[i] != 0 for insert success).
func (b *Binary) InsertMany(ctx context.Context, docs []Doc) ([]ID, error) {
	// Register the union of attribute names in one round trip.
	seen := make(map[string]struct{}, 16)
	var names []string
	for _, d := range docs {
		for n := range d {
			if _, ok := seen[n]; !ok {
				seen[n] = struct{}{}
				names = append(names, n)
			}
		}
	}
	if err := b.ensureAttrs(ctx, names); err != nil {
		return nil, err
	}
	ops := make([]*pendingOp, len(docs))
	for i, d := range docs {
		e, err := b.toEntity(d)
		if err != nil {
			return nil, err
		}
		ops[i] = &pendingOp{kind: wire.BatchInsert, rec: e.Marshal(nil), res: make(chan opResult, 1)}
	}
	b.bat.enqueue(ops...)
	ids := make([]ID, len(docs))
	var firstErr error
	for i, op := range ops {
		select {
		case res := <-op.res:
			ids[i] = res.id
			if res.err != nil && firstErr == nil {
				firstErr = res.err
			}
		case <-ctx.Done():
			return ids, ctx.Err()
		}
	}
	return ids, firstErr
}

// Get fetches one document. The boolean is false when id is unknown.
func (b *Binary) Get(ctx context.Context, id ID) (Doc, bool, error) {
	payload := binary.AppendUvarint(nil, uint64(id))
	status, resp, err := b.exchange(ctx, wire.OpGet, payload)
	if err != nil {
		return nil, false, err
	}
	if status != wire.StatusOK {
		return nil, false, &WireError{Status: status, Message: wire.DecodeErrorPayload(resp)}
	}
	off, err := b.applyDelta(resp)
	if err != nil {
		return nil, false, err
	}
	if off >= len(resp) {
		return nil, false, errors.New("client: truncated get response")
	}
	if resp[off] == 0 {
		return nil, false, nil
	}
	e, _, err := entity.Unmarshal(resp[off+1:])
	if err != nil {
		return nil, false, err
	}
	doc, err := b.toDoc(e)
	return doc, err == nil, err
}

// Query returns all documents instantiating at least one attribute.
// Unknown attribute names match nothing.
func (b *Binary) Query(ctx context.Context, attrs ...string) ([]Record, error) {
	recs, _, err := b.query(ctx, attrs, 0)
	return recs, err
}

// QueryTraced is Query with an inline server-side trace: the wire
// request carries the trace flag, and the server returns the query's
// full span tree (sampling bypassed) as JSON alongside the records.
// The trace is nil when the server is uninstrumented.
func (b *Binary) QueryTraced(ctx context.Context, attrs ...string) ([]Record, json.RawMessage, error) {
	return b.query(ctx, attrs, wire.QueryFlagTrace)
}

func (b *Binary) query(ctx context.Context, attrs []string, flags byte) ([]Record, json.RawMessage, error) {
	// Register so the server can resolve the ids; names the server has
	// never seen just match nothing, same as HTTP.
	if err := b.ensureAttrs(ctx, attrs); err != nil {
		return nil, nil, err
	}
	b.attrMu.Lock()
	payload := binary.AppendUvarint(nil, uint64(len(attrs)))
	for _, a := range attrs {
		payload = binary.AppendUvarint(payload, uint64(b.attrs[a]))
	}
	b.attrMu.Unlock()
	if flags != 0 {
		payload = append(payload, flags)
	}
	status, resp, err := b.exchange(ctx, wire.OpQuery, payload)
	if err != nil {
		return nil, nil, err
	}
	if status != wire.StatusOK {
		return nil, nil, &WireError{Status: status, Message: wire.DecodeErrorPayload(resp)}
	}
	off, err := b.applyDelta(resp)
	if err != nil {
		return nil, nil, err
	}
	n, off, err := wire.ReadUvarint(resp, off)
	if err != nil {
		return nil, nil, err
	}
	if n > uint64(len(resp)-off) {
		return nil, nil, errors.New("client: record count exceeds query response")
	}
	out := make([]Record, 0, n)
	for i := uint64(0); i < n; i++ {
		var id uint64
		if id, off, err = wire.ReadUvarint(resp, off); err != nil {
			return nil, nil, err
		}
		e, used, err := entity.Unmarshal(resp[off:])
		if err != nil {
			return nil, nil, err
		}
		off += used
		doc, err := b.toDoc(e)
		if err != nil {
			return nil, nil, err
		}
		out = append(out, Record{ID: ID(id), Doc: doc})
	}
	var trace json.RawMessage
	if flags&wire.QueryFlagTrace != 0 {
		s, _, err := wire.ReadString(resp, off)
		if err != nil {
			return nil, nil, fmt.Errorf("client: traced query response missing trace: %w", err)
		}
		if s != "" {
			trace = json.RawMessage(s)
		}
	}
	return out, trace, nil
}

// Ping round-trips an empty frame — the binary health probe.
func (b *Binary) Ping(ctx context.Context) error {
	status, resp, err := b.exchange(ctx, wire.OpPing, nil)
	if err != nil {
		return err
	}
	if status != wire.StatusOK {
		return &WireError{Status: status, Message: wire.DecodeErrorPayload(resp)}
	}
	return nil
}

// ---- write batching ----

// pendingOp is one queued mutation.
type pendingOp struct {
	kind byte
	id   ID     // update/delete target
	rec  []byte // marshaled entity (insert/update)
	res  chan opResult
}

type opResult struct {
	id    ID   // insert result
	found bool // update/delete result
	err   error
}

// batcher coalesces concurrent writes into batch frames. Natural
// batching: a batch flushes immediately when no batch is in flight,
// otherwise ops accumulate until the in-flight batch completes, the
// size/byte cap hits, or the linger timer fires.
type batcher struct {
	b        *Binary
	maxOps   int
	maxBytes int
	linger   time.Duration

	mu       sync.Mutex
	cur      []*pendingOp
	curBytes int
	inflight int
	timer    *time.Timer
}

// enqueue queues ops in order under one lock hold, so one call's ops
// share frames and split only at the op/byte caps. The last op's batch
// leaves at once when nothing is in flight, and otherwise waits for the
// in-flight batch or the linger timer.
func (t *batcher) enqueue(ops ...*pendingOp) {
	var batches [][]*pendingOp
	t.mu.Lock()
	for i, op := range ops {
		t.cur = append(t.cur, op)
		t.curBytes += len(op.rec) + 16
		if len(t.cur) >= t.maxOps || t.curBytes >= t.maxBytes || (i == len(ops)-1 && t.inflight == 0) {
			batches = append(batches, t.take())
		} else if len(t.cur) == 1 {
			if t.timer == nil {
				t.timer = time.AfterFunc(t.linger, t.onLinger)
			} else {
				t.timer.Reset(t.linger)
			}
		}
	}
	t.mu.Unlock()
	for _, batch := range batches {
		go t.send(batch)
	}
}

// take claims the current batch and counts it in flight. Callers hold mu.
func (t *batcher) take() []*pendingOp {
	batch := t.cur
	t.cur = nil
	t.curBytes = 0
	t.inflight++
	return batch
}

func (t *batcher) onLinger() {
	t.mu.Lock()
	var batch []*pendingOp
	if len(t.cur) > 0 {
		batch = t.take()
	}
	t.mu.Unlock()
	if batch != nil {
		go t.send(batch)
	}
}

func (t *batcher) send(ops []*pendingOp) {
	t.b.sendBatch(ops)
	t.mu.Lock()
	t.inflight--
	var batch []*pendingOp
	if len(t.cur) > 0 && t.inflight == 0 {
		batch = t.take()
	}
	t.mu.Unlock()
	if batch != nil {
		go t.send(batch)
	}
}

// buildBatch encodes ops into an OpBatch payload.
func buildBatch(ops []*pendingOp) []byte {
	p := binary.AppendUvarint(nil, uint64(len(ops)))
	for _, op := range ops {
		p = append(p, op.kind)
		switch op.kind {
		case wire.BatchInsert:
			p = append(p, op.rec...)
		case wire.BatchUpdate:
			p = binary.AppendUvarint(p, uint64(op.id))
			p = append(p, op.rec...)
		case wire.BatchDelete:
			p = binary.AppendUvarint(p, uint64(op.id))
		}
	}
	return p
}

// sendBatch exchanges one batch and distributes per-op results,
// retrying only what the server provably did not apply: the whole
// batch after StatusRetry or a refused dial, the ResUnapplied suffix
// after a partial failure.
func (b *Binary) sendBatch(ops []*pendingOp) {
	ctx := context.Background()
	for attempt := 0; ; attempt++ {
		status, resp, xerr := b.batchOnce(ctx, ops)
		if xerr != nil {
			var de *dialError
			if errors.As(xerr, &de) && attempt < b.maxRetries && b.sleep(ctx, attempt) {
				continue // provably unapplied: no server ever saw it
			}
			failAll(ops, xerr)
			return
		}
		switch status {
		case wire.StatusOK:
			rest, perr := deliverResults(ops, resp)
			if perr != nil {
				failAll(ops, perr)
				return
			}
			if len(rest) == 0 {
				return
			}
			// Retry only the unapplied suffix.
			if attempt >= b.maxRetries || !b.sleep(ctx, attempt) {
				failAll(rest, &OpError{Code: wire.ResUnapplied, Message: "gave up after retries"})
				return
			}
			ops = rest
		case wire.StatusRetry:
			// Nothing applied (draining/overload): safe to retry whole.
			if attempt >= b.maxRetries || !b.sleep(ctx, attempt) {
				failAll(ops, &WireError{Status: status, Message: wire.DecodeErrorPayload(resp)})
				return
			}
		default:
			// StatusError (terminal) or StatusNotDurable (applied but not
			// provably fsynced — retrying could double-apply).
			failAll(ops, &WireError{Status: status, Message: wire.DecodeErrorPayload(resp)})
			return
		}
	}
}

// batchOnce performs one batch exchange on one connection.
func (b *Binary) batchOnce(ctx context.Context, ops []*pendingOp) (byte, []byte, error) {
	c, err := b.getConn(ctx)
	if err != nil {
		return 0, nil, err
	}
	return c.roundTrip(ctx, wire.OpBatch, buildBatch(ops), b.timeout)
}

// failAll completes every op with err.
func failAll(ops []*pendingOp, err error) {
	for _, op := range ops {
		op.res <- opResult{err: err}
	}
}

// deliverResults parses a batch response, completes every op with a
// final result, and returns the retryable ResUnapplied suffix.
func deliverResults(ops []*pendingOp, resp []byte) ([]*pendingOp, error) {
	n, off, err := wire.ReadUvarint(resp, 0)
	if err != nil {
		return nil, err
	}
	if n != uint64(len(ops)) {
		return nil, fmt.Errorf("client: batch response has %d results for %d ops", n, len(ops))
	}
	var rest []*pendingOp
	for _, op := range ops {
		if off >= len(resp) {
			return nil, errors.New("client: truncated batch response")
		}
		code := resp[off]
		off++
		switch code {
		case wire.ResOK:
			res := opResult{found: true}
			if op.kind == wire.BatchInsert {
				var id uint64
				if id, off, err = wire.ReadUvarint(resp, off); err != nil {
					return nil, err
				}
				if id > math.MaxInt64 {
					return nil, fmt.Errorf("client: implausible id %d in batch response", id)
				}
				res.id = ID(id)
			}
			op.res <- res
		case wire.ResNotFound:
			op.res <- opResult{found: false}
		case wire.ResFailed:
			var msg string
			if msg, off, err = wire.ReadString(resp, off); err != nil {
				return nil, err
			}
			op.res <- opResult{err: &OpError{Code: wire.ResFailed, Message: msg}}
		case wire.ResUnapplied:
			rest = append(rest, op)
		default:
			return nil, fmt.Errorf("client: unknown batch result code %d", code)
		}
	}
	return rest, nil
}
