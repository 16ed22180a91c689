package wire

import (
	"bufio"
	"context"
	cryptorand "crypto/rand"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"

	"cinderella"
	"cinderella/internal/entity"
	"cinderella/internal/obs"
)

// Store is the entity-level storage contract the wire server serves:
// *shard.Sharded, or a decorator around it. Dict is the one dictionary
// its shards share, so wire attribute ids are stored ids and pass
// through as is.
type Store interface {
	Dict() *entity.Dictionary
	InsertEntity(*entity.Entity) (cinderella.ID, error)
	UpdateEntity(cinderella.ID, *entity.Entity) (bool, error)
	Delete(cinderella.ID) (bool, error)
	GetEntity(cinderella.ID) (*entity.Entity, bool)
	QueryEntities(...string) []cinderella.EntityRecord
	QueryEntitiesTraced(...string) ([]cinderella.EntityRecord, *obs.QuerySpan)
	LastLSN() uint64
	SyncTo(uint64) error
}

// Acker is the durability ack: the group committer's Commit method.
// The daemon passes the committer its HTTP server also acks compactions
// with, so one fsync covers write batches from every connection. A nil
// Acker falls back to direct SyncTo (per-batch fsync).
type Acker interface {
	Commit(ctx context.Context, lsn uint64) error
}

// Config parameterizes a wire Server. The zero value picks defaults.
type Config struct {
	// MaxFrameBytes bounds one request frame. Default DefaultMaxFrame.
	MaxFrameBytes int
	// Obs receives wire counters, the batch-size histogram, and the
	// open-connections gauge. Nil disables telemetry.
	Obs *obs.Registry
}

// Server serves a Store over the binary wire protocol. Create with
// New, run with Serve, stop with BeginDrain + Shutdown.
type Server struct {
	st    Store
	ack   Acker
	cfg   Config
	obs   *obs.Registry
	token uint64

	draining atomic.Bool

	mu     sync.Mutex
	closed bool
	lns    map[net.Listener]struct{}
	conns  map[net.Conn]struct{}
	wg     sync.WaitGroup
}

// New builds a wire Server around st. ack may be nil (direct fsync per
// batch); the daemon passes its group committer so writes across
// connections share commit batches.
func New(st Store, ack Acker, cfg Config) *Server {
	if cfg.MaxFrameBytes <= 0 {
		cfg.MaxFrameBytes = DefaultMaxFrame
	}
	var tok [8]byte
	if _, err := cryptorand.Read(tok[:]); err != nil {
		panic(fmt.Sprintf("wire: reading random session token: %v", err))
	}
	return &Server{
		st:    st,
		ack:   ack,
		cfg:   cfg,
		obs:   cfg.Obs,
		token: binary.LittleEndian.Uint64(tok[:]),
		lns:   make(map[net.Listener]struct{}),
		conns: make(map[net.Conn]struct{}),
	}
}

// Token returns the session token OpHello reports.
func (s *Server) Token() uint64 { return s.token }

// Serve accepts connections on ln until Shutdown closes it. Each
// connection runs its own frame loop; writes across connections batch
// in the shared committer.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("wire: server is shut down")
	}
	s.lns[ln] = struct{}{}
	s.mu.Unlock()

	for {
		nc, err := ln.Accept()
		if err != nil {
			s.mu.Lock()
			closed := s.closed
			delete(s.lns, ln)
			s.mu.Unlock()
			if closed {
				return nil
			}
			return err
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			nc.Close()
			continue
		}
		s.conns[nc] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		s.obs.AddGauge(obs.GWireConns, 1)
		go s.serveConn(nc)
	}
}

// BeginDrain flips the server into drain mode: batch (write) frames are
// answered with StatusRetry — nothing applied, safe to retry elsewhere —
// while reads, pings, and attribute registration keep being served until
// Shutdown closes the connections. Idempotent.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Shutdown drains the server: closes the listeners, waits for the
// connection loops to finish, and force-closes remaining connections
// when ctx ends. Connections whose clients keep them open never finish
// on their own, so callers pass a ctx with a deadline.
func (s *Server) Shutdown(ctx context.Context) error {
	s.BeginDrain()
	s.mu.Lock()
	s.closed = true
	for ln := range s.lns {
		ln.Close()
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
	}
	s.mu.Lock()
	for nc := range s.conns {
		nc.Close()
	}
	s.mu.Unlock()
	<-done
	return ctx.Err()
}

// conn is the per-connection state: pooled buffers so a steady-state
// request decode allocates nothing, and the dictionary high-water mark
// for delta encoding.
type conn struct {
	nc       net.Conn
	br       *bufio.Reader
	bw       *bufio.Writer
	frameBuf []byte        // frame read buffer, reused across frames
	out      []byte        // response build buffer, reused across frames
	scratch  entity.Entity // decoded-op scratch; stores never retain it
	names    []string      // query attr-name scratch
	dictSent int           // dictionary prefix already sent to this client
	bytesOut int64         // flushed response bytes (counted at flush)
}

// serveConn runs one connection's frame loop. Frame-level malformation
// (garbage length, truncation, unknown opcode, version mismatch) closes
// the connection with a ProtocolError after a best-effort error frame;
// payload-level failures are answered in-band and the connection lives.
func (s *Server) serveConn(nc net.Conn) {
	defer s.wg.Done()
	c := &conn{
		nc: nc,
		br: bufio.NewReaderSize(nc, 64<<10),
		bw: bufio.NewWriterSize(nc, 64<<10),
	}
	defer func() {
		nc.Close()
		s.mu.Lock()
		delete(s.conns, nc)
		s.mu.Unlock()
		s.obs.AddGauge(obs.GWireConns, -1)
	}()

	for {
		f, err := ReadFrame(c.br, &c.frameBuf, s.cfg.MaxFrameBytes)
		if err != nil {
			if err != io.EOF {
				// Malformed framing: the stream position is lost, so no
				// response can be matched to a request — close.
				s.obs.Add(obs.CWireErrors, 1)
			}
			return
		}
		s.obs.Add(obs.CWireFrames, 1)
		s.obs.Add(obs.CBytesInWire, int64(4+headerLen+len(f.Payload)))

		c.out = c.out[:0]
		fatal := s.handleFrame(c, f)
		if _, err := c.bw.Write(c.out); err != nil {
			return
		}
		c.bytesOut += int64(len(c.out))
		// Flush when no more requests are already buffered — pipelined
		// clients get one flush per burst, single-shot clients get one
		// per frame.
		if c.br.Buffered() == 0 || fatal {
			if err := c.bw.Flush(); err != nil {
				return
			}
			s.obs.Add(obs.CBytesOutWire, c.bytesOut)
			c.bytesOut = 0
		}
		if fatal {
			return
		}
	}
}

// respondError truncates any partial response for this frame and
// appends an error frame with the given status.
func (c *conn) respondError(off int, status byte, seq uint64, msg string) {
	c.out = c.out[:off]
	fo := len(c.out)
	c.out = BeginFrame(c.out, status, seq)
	c.out = AppendErrorPayload(c.out, msg)
	c.out = EndFrame(c.out, fo)
}

// handleFrame dispatches one request frame, appending the response to
// c.out. It returns true when the connection must close (contract
// breach: version mismatch or unknown opcode).
func (s *Server) handleFrame(c *conn, f Frame) (fatal bool) {
	if f.Version != Version {
		s.obs.Add(obs.CWireErrors, 1)
		c.respondError(len(c.out), StatusError, f.Seq,
			fmt.Sprintf("unsupported protocol version %d (server speaks %d)", f.Version, Version))
		return true
	}
	switch f.Kind {
	case OpHello:
		off := len(c.out)
		c.out = BeginFrame(c.out, StatusOK, f.Seq)
		c.out = AppendHello(c.out, s.token)
		c.out = EndFrame(c.out, off)
	case OpPing:
		off := len(c.out)
		c.out = BeginFrame(c.out, StatusOK, f.Seq)
		c.out = EndFrame(c.out, off)
	case OpAttrs:
		s.handleAttrs(c, f)
	case OpBatch:
		s.handleBatch(c, f)
	case OpGet:
		s.handleGet(c, f)
	case OpQuery:
		s.handleQuery(c, f)
	default:
		s.obs.Add(obs.CWireErrors, 1)
		c.respondError(len(c.out), StatusError, f.Seq, fmt.Sprintf("unknown opcode %d", f.Kind))
		return true
	}
	return false
}

// handleAttrs registers attribute names in the store's dictionary and
// returns their ids in request order. Registration is allowed during
// drain: it mutates only the in-memory dictionary (persisted lazily
// with the next mutation), and read-side clients need it.
func (s *Server) handleAttrs(c *conn, f Frame) {
	names, err := DecodeAttrsRequest(f.Payload)
	if err != nil {
		s.obs.Add(obs.CWireErrors, 1)
		c.respondError(len(c.out), StatusError, f.Seq, err.Error())
		return
	}
	dict := s.st.Dict()
	off := len(c.out)
	c.out = BeginFrame(c.out, StatusOK, f.Seq)
	c.out = binary.AppendUvarint(c.out, uint64(len(names)))
	for _, n := range names {
		c.out = binary.AppendUvarint(c.out, uint64(dict.ID(n)))
	}
	c.out = EndFrame(c.out, off)
}

// handleBatch applies a batch of write ops in order and acks their
// durability with one group commit. See the package comment for the
// partial-failure contract.
func (s *Server) handleBatch(c *conn, f Frame) {
	off := len(c.out)
	if s.draining.Load() {
		s.obs.Add(obs.CWireRejected, 1)
		c.respondError(off, StatusRetry, f.Seq, "draining")
		return
	}
	p := f.Payload
	count64, pos, err := ReadUvarint(p, 0)
	if err != nil || count64 > uint64(len(p)-pos) {
		s.obs.Add(obs.CWireErrors, 1)
		c.respondError(off, StatusError, f.Seq, "corrupt batch header")
		return
	}
	count := int(count64)

	c.out = BeginFrame(c.out, StatusOK, f.Seq)
	c.out = binary.AppendUvarint(c.out, uint64(count))

	applied := 0
	for i := 0; i < count; i++ {
		var failMsg string
		if pos >= len(p) {
			failMsg = "batch shorter than its op count"
		} else {
			kind := p[pos]
			pos++
			switch kind {
			case BatchInsert:
				n, err := entity.UnmarshalInto(&c.scratch, p[pos:])
				if err != nil {
					failMsg = err.Error()
					break
				}
				pos += n
				id, err := s.st.InsertEntity(&c.scratch)
				if err != nil {
					failMsg = err.Error()
					break
				}
				c.out = append(c.out, ResOK)
				c.out = binary.AppendUvarint(c.out, uint64(id))
				applied++
			case BatchUpdate:
				id, npos, err := ReadUvarint(p, pos)
				if err != nil {
					failMsg = err.Error()
					break
				}
				pos = npos
				n, err := entity.UnmarshalInto(&c.scratch, p[pos:])
				if err != nil {
					failMsg = err.Error()
					break
				}
				pos += n
				found, err := s.st.UpdateEntity(cinderella.ID(id), &c.scratch)
				if err != nil {
					failMsg = err.Error()
					break
				}
				if found {
					c.out = append(c.out, ResOK)
					applied++
				} else {
					c.out = append(c.out, ResNotFound)
				}
			case BatchDelete:
				id, npos, err := ReadUvarint(p, pos)
				if err != nil {
					failMsg = err.Error()
					break
				}
				pos = npos
				found, err := s.st.Delete(cinderella.ID(id))
				if err != nil {
					failMsg = err.Error()
					break
				}
				if found {
					c.out = append(c.out, ResOK)
					applied++
				} else {
					c.out = append(c.out, ResNotFound)
				}
			default:
				failMsg = fmt.Sprintf("unknown batch op kind %d", kind)
			}
		}
		if failMsg != "" {
			// This op failed; the rest of the payload cannot be parsed
			// reliably (ops are self-delimiting only when well-formed),
			// so every remaining op is unapplied. The applied prefix is
			// still committed and acked below.
			s.obs.Add(obs.CWireErrors, 1)
			c.out = append(c.out, ResFailed)
			c.out = AppendString(c.out, failMsg)
			for j := i + 1; j < count; j++ {
				c.out = append(c.out, ResUnapplied)
			}
			break
		}
	}
	s.obs.Add(obs.CWireOps, int64(applied))
	s.obs.Observe(obs.HWireBatch, int64(count))

	if applied > 0 {
		if err := s.commit(); err != nil {
			// The prefix was applied but cannot be acked durable. Not
			// retryable: re-sending could double-apply inserts.
			s.obs.Add(obs.CWireErrors, 1)
			c.respondError(off, StatusNotDurable, f.Seq, "applied but not durable: "+err.Error())
			return
		}
	}
	c.out = EndFrame(c.out, off)
}

// commit makes everything this connection has applied durable: one
// group-commit wait (shared across connections) or a direct SyncTo.
func (s *Server) commit() error {
	lsn := s.st.LastLSN()
	if s.ack == nil {
		return s.st.SyncTo(lsn)
	}
	return s.ack.Commit(context.Background(), lsn)
}

// appendDictDelta appends the (id → name) pairs the client has not seen
// yet and advances the high-water mark. Must run after the store call
// that produced the response's entities, so every id they reference is
// covered.
func (s *Server) appendDictDelta(c *conn) {
	dict := s.st.Dict()
	cur := dict.Len()
	c.out = binary.AppendUvarint(c.out, uint64(c.dictSent))
	c.out = binary.AppendUvarint(c.out, uint64(cur-c.dictSent))
	for i := c.dictSent; i < cur; i++ {
		c.out = AppendString(c.out, dict.Name(i))
	}
	c.dictSent = cur
}

// handleGet answers OpGet: dictionary delta, found byte, entity.
func (s *Server) handleGet(c *conn, f Frame) {
	id, pos, err := ReadUvarint(f.Payload, 0)
	if err != nil || pos != len(f.Payload) {
		s.obs.Add(obs.CWireErrors, 1)
		c.respondError(len(c.out), StatusError, f.Seq, "corrupt get payload")
		return
	}
	e, ok := s.st.GetEntity(cinderella.ID(id))
	off := len(c.out)
	c.out = BeginFrame(c.out, StatusOK, f.Seq)
	s.appendDictDelta(c)
	if ok {
		c.out = append(c.out, 1)
		c.out = e.Marshal(c.out)
	} else {
		c.out = append(c.out, 0)
	}
	c.out = EndFrame(c.out, off)
}

// handleQuery answers OpQuery: dictionary delta, record count, then
// (id, entity) pairs. Query attributes are dictionary ids the
// client registered via OpAttrs; unknown ids are a client error. An
// optional trailing flags byte may request an inline trace
// (QueryFlagTrace): the response then additionally carries the span
// tree as length-prefixed JSON after the records.
func (s *Server) handleQuery(c *conn, f Frame) {
	p := f.Payload
	n, pos, err := ReadUvarint(p, 0)
	if err != nil || n > uint64(len(p)-pos) {
		s.obs.Add(obs.CWireErrors, 1)
		c.respondError(len(c.out), StatusError, f.Seq, "corrupt query payload")
		return
	}
	dict := s.st.Dict()
	dictLen := dict.Len()
	c.names = c.names[:0]
	for i := uint64(0); i < n; i++ {
		var id uint64
		if id, pos, err = ReadUvarint(p, pos); err != nil {
			s.obs.Add(obs.CWireErrors, 1)
			c.respondError(len(c.out), StatusError, f.Seq, "corrupt query payload")
			return
		}
		if id >= uint64(dictLen) {
			s.obs.Add(obs.CWireErrors, 1)
			c.respondError(len(c.out), StatusError, f.Seq,
				fmt.Sprintf("unregistered attribute id %d in query", id))
			return
		}
		c.names = append(c.names, dict.Name(int(id)))
	}
	var flags byte
	if pos < len(p) {
		flags = p[pos]
	}

	var recs []cinderella.EntityRecord
	var traceJSON []byte
	if flags&QueryFlagTrace != 0 {
		var sp *obs.QuerySpan
		recs, sp = s.st.QueryEntitiesTraced(c.names...)
		if sp != nil {
			if traceJSON, err = json.Marshal(sp); err != nil {
				traceJSON = nil
			}
		}
	} else {
		recs = s.st.QueryEntities(c.names...)
	}

	off := len(c.out)
	c.out = BeginFrame(c.out, StatusOK, f.Seq)
	s.appendDictDelta(c)
	c.out = binary.AppendUvarint(c.out, uint64(len(recs)))
	for _, r := range recs {
		c.out = binary.AppendUvarint(c.out, uint64(r.ID))
		c.out = r.Entity.Marshal(c.out)
	}
	if flags&QueryFlagTrace != 0 {
		c.out = AppendString(c.out, string(traceJSON))
	}
	c.out = EndFrame(c.out, off)
}
