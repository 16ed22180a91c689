// Package server is cinderellad's network service layer: the sharded
// store's API (internal/shard) over HTTP/JSON with group-commit writes,
// bounded admission, and graceful drain.
//
// Wire format (all bodies JSON, all errors {"error": "..."}):
//
//	POST /v1/insert      {"doc":{...}}            → {"id":N}
//	POST /v1/bulk        {"ops":[...]}            → {"results":[...]}
//	GET  /v1/doc?id=N                             → {"id":N,"doc":{...}}
//	POST /v1/update      {"id":N,"doc":{...}}     → {"updated":bool}
//	POST /v1/delete      {"id":N}                 → {"deleted":bool}
//	GET  /v1/query?attrs=a,b                      → {"records":[{"id":N,"doc":{...}},...]}
//	GET  /v1/query-report?attrs=a,b               → {"records":[...],"report":{...}}
//	GET  /v1/partitions                           → {"partitions":[...]}
//	POST /v1/compact     {"threshold":F}          → {"merged":N}
//	POST /v1/checkpoint  {}                       → {"checkpointed":true}
//	GET  /v1/health                               → {"status":"ok"|"draining",...}
//
// Document values are int64, float64, or string; JSON booleans coerce
// to int 0/1 (matching ImportJSONL), nested objects/arrays are
// rejected. Integral JSON numbers round-trip as int64.
//
// Ack contract: a 2xx on a mutating route means the operation was
// applied AND its WAL record is fsynced. Handlers append concurrently
// but durability is acknowledged by the group committer (see
// commit.go), which coalesces many operations per fsync.
//
// Backpressure: at most MaxInflight requests execute at once; up to
// MaxQueue more wait. Beyond that — or once draining — requests get
// 503 with a Retry-After header, and the client package backs off and
// retries.
//
// Read/write separation: the read-only routes (/v1/doc, /v1/query,
// /v1/query-report, /v1/partitions) run behind their own MaxReadInflight
// semaphore, never enter the admission queue, and keep being served
// while the server drains — the store's lock-free snapshot reads cannot
// stall or be stalled by the write path, so rejecting or queueing them
// behind writes would only add latency. Reads stop when the listener
// stops.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"cinderella"
	"cinderella/internal/obs"
	"cinderella/internal/shard"
)

// Config parameterizes a Server. The zero value picks sane defaults.
type Config struct {
	// MaxInflight bounds concurrently executing mutating requests.
	// Default 128.
	MaxInflight int
	// MaxReadInflight bounds concurrently executing read-only requests
	// (doc fetches, queries, partition listings), which bypass the
	// admission queue and drain rejection entirely. Default: MaxInflight.
	MaxReadInflight int
	// MaxQueue bounds requests waiting for an inflight slot; the
	// admission queue. Requests beyond it are rejected with 503.
	// Default 256.
	MaxQueue int
	// RequestTimeout bounds one request end to end: admission wait,
	// body read, execution, and the group-commit ack. Default 10s.
	RequestTimeout time.Duration
	// MaxBodyBytes bounds a request body. Default 1 MiB.
	MaxBodyBytes int64
	// CommitDelay selects the group-commit batching policy (see
	// NewCommitter): 0 (default) is natural batching — each flush starts
	// when the previous fsync finishes — and a positive value holds
	// every batch open for that window instead.
	CommitDelay time.Duration
	// CommitMaxOps flushes a commit batch early at this many waiters.
	CommitMaxOps int
	// Obs receives server counters, gauges, and histograms; its ops
	// endpoint (/metrics, /debug/vars, /debug/pprof) is mounted on the
	// server mux when non-nil.
	Obs *obs.Registry
}

func (c Config) withDefaults() Config {
	if c.MaxInflight <= 0 {
		c.MaxInflight = 128
	}
	if c.MaxReadInflight <= 0 {
		c.MaxReadInflight = c.MaxInflight
	}
	if c.MaxQueue <= 0 {
		c.MaxQueue = 256
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 10 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 1 << 20
	}
	return c
}

// Server serves a sharded store over HTTP. Create with New, expose with
// Handler, shut down with BeginDrain + Finish (or Close).
type Server struct {
	d   *shard.Sharded
	cfg Config
	com *Committer
	obs *obs.Registry

	sem      chan struct{} // write inflight slots
	rsem     chan struct{} // read inflight slots (no queue, drain-immune)
	queued   chan struct{} // admission queue slots
	draining chan struct{} // closed by BeginDrain
	mux      *http.ServeMux
}

// New builds a Server around d. The caller keeps ownership of d until
// Finish, which closes it.
func New(d *shard.Sharded, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		d:        d,
		cfg:      cfg,
		obs:      cfg.Obs,
		sem:      make(chan struct{}, cfg.MaxInflight),
		rsem:     make(chan struct{}, cfg.MaxReadInflight),
		queued:   make(chan struct{}, cfg.MaxQueue),
		draining: make(chan struct{}),
		com:      NewCommitter(d, cfg.CommitMaxOps, cfg.CommitDelay, cfg.Obs),
	}
	s.mux = http.NewServeMux()
	s.route("POST /v1/insert", s.handleInsert)
	s.route("POST /v1/bulk", s.handleBulk)
	s.routeRead("GET /v1/doc", s.handleGet)
	s.route("POST /v1/update", s.handleUpdate)
	s.route("POST /v1/delete", s.handleDelete)
	s.routeRead("GET /v1/query", s.handleQuery)
	s.routeRead("GET /v1/query-report", s.handleQueryReport)
	s.routeRead("GET /v1/partitions", s.handlePartitions)
	s.route("POST /v1/compact", s.handleCompact)
	s.route("POST /v1/checkpoint", s.handleCheckpoint)
	s.mux.HandleFunc("GET /v1/health", s.handleHealth) // never queued: probes must see a draining server
	if cfg.Obs != nil {
		ops := cfg.Obs.Mux()
		s.mux.Handle("/metrics", ops)
		s.mux.Handle("/debug/", ops)
	}
	s.mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			writeError(w, http.StatusNotFound, "no such endpoint")
			return
		}
		fmt.Fprint(w, "cinderellad\n\n/v1/{insert,doc,update,delete,query,query-report,partitions,compact,checkpoint,health}\n/metrics\n/debug/{vars,pprof}\n")
	})
	return s
}

// Handler returns the root handler: admission control wrapped around
// the API routes.
func (s *Server) Handler() http.Handler { return s.mux }

// Committer returns the group committer acknowledging this server's
// writes. The binary wire server shares it so one fsync covers a batch
// of writes across both protocols.
func (s *Server) Committer() *Committer { return s.com }

// route registers an API handler behind admission control, the request
// timeout, and telemetry.
func (s *Server) route(pattern string, h func(http.ResponseWriter, *http.Request) (int, error)) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		if !s.admit(w, r) {
			return
		}
		cr := &countingReader{r: http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)}
		cw := &countingWriter{ResponseWriter: w}
		defer func() {
			<-s.sem
			s.obs.AddServerInflight(-1)
			s.obs.Add(obs.CBytesInHTTP, cr.n)
			s.obs.Add(obs.CBytesOutHTTP, cw.n)
			s.obs.ObserveServerNs(time.Since(start).Nanoseconds())
		}()

		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		r = r.WithContext(ctx)
		r.Body = cr
		w = cw

		code, err := h(w, r)
		s.obs.Add(obs.CSrvRequests, 1)
		if err != nil {
			s.obs.Add(obs.CSrvErrors, 1)
			writeError(w, code, err.Error())
		}
	})
}

// routeRead registers a read-only handler behind the read semaphore.
// Reads never enter the admission queue — snapshot reads are
// writer-independent, so queueing them behind writes would only add
// latency — and are not rejected during drain: a draining node keeps
// answering queries until its listener stops, so clients and operators
// can read from it for the whole drain window. The semaphore still
// bounds concurrent scans; past it, reads get the same 503 + Retry-After
// as writes.
func (s *Server) routeRead(pattern string, h func(http.ResponseWriter, *http.Request) (int, error)) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		select {
		case s.rsem <- struct{}{}:
		default:
			s.reject(w, "read capacity exhausted")
			return
		}
		s.obs.AddServerInflight(1)
		cr := &countingReader{r: http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)}
		cw := &countingWriter{ResponseWriter: w}
		defer func() {
			<-s.rsem
			s.obs.AddServerInflight(-1)
			s.obs.Add(obs.CBytesInHTTP, cr.n)
			s.obs.Add(obs.CBytesOutHTTP, cw.n)
			s.obs.ObserveServerNs(time.Since(start).Nanoseconds())
		}()

		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		r = r.WithContext(ctx)
		r.Body = cr
		w = cw

		code, err := h(w, r)
		s.obs.Add(obs.CSrvRequests, 1)
		if err != nil {
			s.obs.Add(obs.CSrvErrors, 1)
			writeError(w, code, err.Error())
		}
	})
}

// admit applies backpressure: grab an inflight slot immediately, or
// wait in the bounded queue, or reject with 503 + Retry-After. A
// closed draining channel rejects everything (health stays reachable —
// it is registered outside route).
func (s *Server) admit(w http.ResponseWriter, r *http.Request) bool {
	if s.isDraining() {
		s.reject(w, "draining")
		return false
	}
	select {
	case s.sem <- struct{}{}:
		s.obs.AddServerInflight(1)
		return true
	default:
	}
	// All inflight slots busy: take a queue slot or bounce.
	select {
	case s.queued <- struct{}{}:
	default:
		s.reject(w, "admission queue full")
		return false
	}
	s.obs.AddServerQueued(1)
	defer func() {
		<-s.queued
		s.obs.AddServerQueued(-1)
	}()
	t := time.NewTimer(s.cfg.RequestTimeout)
	defer stopTimer(t)
	select {
	case s.sem <- struct{}{}:
		s.obs.AddServerInflight(1)
		return true
	case <-s.draining:
		s.reject(w, "draining")
		return false
	case <-r.Context().Done():
		s.reject(w, "client gone")
		return false
	case <-t.C:
		s.reject(w, "queued past request timeout")
		return false
	}
}

// reject answers 503 with a Retry-After hint and counts the rejection.
func (s *Server) reject(w http.ResponseWriter, why string) {
	s.obs.Add(obs.CSrvRejected, 1)
	w.Header().Set("Retry-After", "1")
	writeError(w, http.StatusServiceUnavailable, why)
}

func (s *Server) isDraining() bool {
	select {
	case <-s.draining:
		return true
	default:
		return false
	}
}

// ack waits for lsn to be durable under the request context — the
// group-commit ack.
func (s *Server) ack(r *http.Request, lsn uint64) error {
	return s.com.Commit(r.Context(), lsn)
}

// BeginDrain flips the server into drain mode: every subsequent request
// (including on kept-alive connections) is rejected with 503, and
// queued requests are bounced. In-flight requests finish normally.
// Idempotent.
func (s *Server) BeginDrain() {
	select {
	case <-s.draining:
	default:
		close(s.draining)
	}
}

// Finish completes a drain after the HTTP listener has stopped (e.g.
// http.Server.Shutdown returned): it stops the committer — flushing and
// acknowledging every pending write — syncs, optionally checkpoints,
// and closes the table. Safe to call after BeginDrain even if some
// stragglers still race: post-close operations fail with ErrClosed
// rather than corrupting the log.
func (s *Server) Finish(checkpoint bool) error {
	s.BeginDrain()
	s.com.Stop()
	var firstErr error
	if err := s.d.Sync(); err != nil && !errors.Is(err, cinderella.ErrClosed) {
		firstErr = err
	}
	if checkpoint {
		if err := s.d.Checkpoint(); err != nil && !errors.Is(err, cinderella.ErrClosed) && firstErr == nil {
			firstErr = err
		}
	}
	if err := s.d.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// Close is BeginDrain + Finish(false) — the test/embedded convenience.
func (s *Server) Close() error {
	s.BeginDrain()
	return s.Finish(false)
}

// ---- handlers ----

type insertRequest struct {
	Doc map[string]any `json:"doc"`
}

func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) (int, error) {
	var req insertRequest
	if err := readJSON(r, &req); err != nil {
		return http.StatusBadRequest, err
	}
	doc, err := toDoc(req.Doc)
	if err != nil {
		return http.StatusBadRequest, err
	}
	id, err := s.d.Insert(doc)
	if err != nil {
		return opErrStatus(err), err
	}
	if err := s.ack(r, s.d.LastLSN()); err != nil {
		return http.StatusInternalServerError, fmt.Errorf("applied but not durable: %w", err)
	}
	writeJSON(w, http.StatusOK, map[string]any{"id": id})
	return 0, nil
}

// bulkOp is one operation in a /v1/bulk request. Op is "insert",
// "update", or "delete"; insert needs doc, update needs id+doc, delete
// needs id.
type bulkOp struct {
	Op  string         `json:"op"`
	ID  uint64         `json:"id,omitempty"`
	Doc map[string]any `json:"doc,omitempty"`
}

type bulkRequest struct {
	Ops []bulkOp `json:"ops"`
}

// bulkResult is one operation's outcome. Mirrors the binary protocol's
// partial-failure contract: ops apply in order, the first hard failure
// carries Error, every later op is Unapplied (and only those may be
// retried — the applied prefix is durable once the 200 arrives).
type bulkResult struct {
	ID        uint64 `json:"id,omitempty"`
	Updated   *bool  `json:"updated,omitempty"`
	Deleted   *bool  `json:"deleted,omitempty"`
	Error     string `json:"error,omitempty"`
	Unapplied bool   `json:"unapplied,omitempty"`
}

// handleBulk is the JSON fallback for clients that want batched writes
// without the binary protocol: many ops per request, one group-commit
// ack covering the applied prefix.
func (s *Server) handleBulk(w http.ResponseWriter, r *http.Request) (int, error) {
	var req bulkRequest
	if err := readJSON(r, &req); err != nil {
		return http.StatusBadRequest, err
	}
	if len(req.Ops) == 0 {
		return http.StatusBadRequest, errors.New("empty ops list")
	}
	results := make([]bulkResult, len(req.Ops))
	applied := 0
	for i, op := range req.Ops {
		var opErr error
		switch op.Op {
		case "insert":
			var doc cinderella.Doc
			if doc, opErr = toDoc(op.Doc); opErr == nil {
				var id cinderella.ID
				if id, opErr = s.d.Insert(doc); opErr == nil {
					results[i].ID = uint64(id)
				}
			}
		case "update":
			var doc cinderella.Doc
			if doc, opErr = toDoc(op.Doc); opErr == nil {
				var ok bool
				if ok, opErr = s.d.Update(cinderella.ID(op.ID), doc); opErr == nil {
					results[i].Updated = &ok
				}
			}
		case "delete":
			var ok bool
			if ok, opErr = s.d.Delete(cinderella.ID(op.ID)); opErr == nil {
				results[i].Deleted = &ok
			}
		default:
			opErr = fmt.Errorf("unknown op %q", op.Op)
		}
		if opErr != nil {
			results[i].Error = opErr.Error()
			for j := i + 1; j < len(results); j++ {
				results[j].Unapplied = true
			}
			break
		}
		applied++
	}
	if applied > 0 {
		if err := s.ack(r, s.d.LastLSN()); err != nil {
			return http.StatusInternalServerError, fmt.Errorf("applied but not durable: %w", err)
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"results": results})
	return 0, nil
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) (int, error) {
	id, err := idParam(r)
	if err != nil {
		return http.StatusBadRequest, err
	}
	doc, ok := s.d.Get(cinderella.ID(id))
	if !ok {
		return http.StatusNotFound, fmt.Errorf("no document %d", id)
	}
	writeJSON(w, http.StatusOK, map[string]any{"id": id, "doc": doc})
	return 0, nil
}

type updateRequest struct {
	ID  uint64         `json:"id"`
	Doc map[string]any `json:"doc"`
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) (int, error) {
	var req updateRequest
	if err := readJSON(r, &req); err != nil {
		return http.StatusBadRequest, err
	}
	doc, err := toDoc(req.Doc)
	if err != nil {
		return http.StatusBadRequest, err
	}
	ok, err := s.d.Update(cinderella.ID(req.ID), doc)
	if err != nil {
		return opErrStatus(err), err
	}
	if ok {
		if err := s.ack(r, s.d.LastLSN()); err != nil {
			return http.StatusInternalServerError, fmt.Errorf("applied but not durable: %w", err)
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"updated": ok})
	return 0, nil
}

type deleteRequest struct {
	ID uint64 `json:"id"`
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) (int, error) {
	var req deleteRequest
	if err := readJSON(r, &req); err != nil {
		return http.StatusBadRequest, err
	}
	ok, err := s.d.Delete(cinderella.ID(req.ID))
	if err != nil {
		return opErrStatus(err), err
	}
	if ok {
		if err := s.ack(r, s.d.LastLSN()); err != nil {
			return http.StatusInternalServerError, fmt.Errorf("applied but not durable: %w", err)
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"deleted": ok})
	return 0, nil
}

// wireRecord is one query hit on the wire.
type wireRecord struct {
	ID  uint64         `json:"id"`
	Doc cinderella.Doc `json:"doc"`
}

func wireRecords(recs []cinderella.Record) []wireRecord {
	out := make([]wireRecord, len(recs))
	for i, r := range recs {
		out[i] = wireRecord{ID: uint64(r.ID), Doc: r.Doc}
	}
	return out
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) (int, error) {
	attrs, err := attrsParam(r)
	if err != nil {
		return http.StatusBadRequest, err
	}
	if wantTrace(r) {
		recs, _, sp := s.d.QueryTraced(attrs...)
		writeJSON(w, http.StatusOK, map[string]any{"records": wireRecords(recs), "trace": sp})
		return 0, nil
	}
	recs := s.d.Query(attrs...)
	writeJSON(w, http.StatusOK, map[string]any{"records": wireRecords(recs)})
	return 0, nil
}

func (s *Server) handleQueryReport(w http.ResponseWriter, r *http.Request) (int, error) {
	attrs, err := attrsParam(r)
	if err != nil {
		return http.StatusBadRequest, err
	}
	if wantTrace(r) {
		recs, rep, sp := s.d.QueryTraced(attrs...)
		writeJSON(w, http.StatusOK, map[string]any{"records": wireRecords(recs), "report": rep, "trace": sp})
		return 0, nil
	}
	recs, rep := s.d.QueryWithReport(attrs...)
	writeJSON(w, http.StatusOK, map[string]any{"records": wireRecords(recs), "report": rep})
	return 0, nil
}

// wantTrace reports whether the request opted into an inline query
// trace (?trace=1). The trace bypasses sampling: the full span tree —
// per-partition scan stats, prune rationale, per-shard children — is
// returned with the results ("trace": null when uninstrumented).
func wantTrace(r *http.Request) bool {
	switch r.URL.Query().Get("trace") {
	case "1", "true":
		return true
	}
	return false
}

func (s *Server) handlePartitions(w http.ResponseWriter, r *http.Request) (int, error) {
	writeJSON(w, http.StatusOK, map[string]any{"partitions": s.d.Partitions()})
	return 0, nil
}

type compactRequest struct {
	Threshold float64 `json:"threshold"`
}

func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) (int, error) {
	var req compactRequest
	if err := readJSON(r, &req); err != nil {
		return http.StatusBadRequest, err
	}
	if req.Threshold <= 0 || req.Threshold > 1 {
		return http.StatusBadRequest, fmt.Errorf("threshold %v out of (0,1]", req.Threshold)
	}
	n, err := s.d.Compact(req.Threshold)
	if err != nil {
		return opErrStatus(err), err
	}
	if n > 0 {
		if err := s.ack(r, s.d.LastLSN()); err != nil {
			return http.StatusInternalServerError, fmt.Errorf("applied but not durable: %w", err)
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"merged": n})
	return 0, nil
}

func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) (int, error) {
	if err := s.d.Checkpoint(); err != nil {
		return opErrStatus(err), err
	}
	writeJSON(w, http.StatusOK, map[string]any{"checkpointed": true})
	return 0, nil
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.isDraining() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":      status,
		"docs":        s.d.Len(),
		"durable_lsn": s.d.DurableLSN(),
		"last_lsn":    s.d.LastLSN(),
	})
}

// opErrStatus maps store errors to HTTP statuses.
func opErrStatus(err error) int {
	if errors.Is(err, cinderella.ErrClosed) {
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

// ---- wire helpers ----

// readJSON decodes one JSON body with number fidelity (integral JSON
// numbers stay int64 via toDoc).
func readJSON(r *http.Request, into any) error {
	dec := json.NewDecoder(r.Body)
	dec.UseNumber()
	if err := dec.Decode(into); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			return fmt.Errorf("body exceeds %d bytes", tooBig.Limit)
		}
		return fmt.Errorf("bad JSON body: %w", err)
	}
	// Trailing garbage means a malformed request, not a second document.
	if dec.More() {
		return errors.New("trailing data after JSON body")
	}
	return nil
}

// toDoc converts a decoded JSON object into a cinderella.Doc: int64 for
// integral numbers, float64 otherwise, strings as-is, booleans as 0/1
// (the ImportJSONL convention), nulls skipped. Nested objects or arrays
// are rejected — universal tables are flat.
func toDoc(obj map[string]any) (cinderella.Doc, error) {
	doc := make(cinderella.Doc, len(obj))
	for k, v := range obj {
		switch x := v.(type) {
		case json.Number:
			if i, err := strconv.ParseInt(x.String(), 10, 64); err == nil {
				doc[k] = i
			} else {
				f, err := x.Float64()
				if err != nil {
					return nil, fmt.Errorf("attribute %q: bad number %q", k, x.String())
				}
				doc[k] = f
			}
		case string:
			doc[k] = x
		case bool:
			if x {
				doc[k] = int64(1)
			} else {
				doc[k] = int64(0)
			}
		case nil:
			// absent attribute
		default:
			return nil, fmt.Errorf("attribute %q: non-scalar value", k)
		}
	}
	return doc, nil
}

// countingReader counts body bytes actually read — the per-protocol
// traffic accounting behind cinderella_server_bytes_in_total.
type countingReader struct {
	r io.ReadCloser
	n int64
}

func (cr *countingReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.n += int64(n)
	return n, err
}

func (cr *countingReader) Close() error { return cr.r.Close() }

// countingWriter counts response bytes written.
type countingWriter struct {
	http.ResponseWriter
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.ResponseWriter.Write(p)
	cw.n += int64(n)
	return n, err
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	writeJSON(w, code, map[string]string{"error": msg})
}

func idParam(r *http.Request) (uint64, error) {
	raw := r.URL.Query().Get("id")
	if raw == "" {
		return 0, errors.New("missing id parameter")
	}
	id, err := strconv.ParseUint(raw, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("bad id %q", raw)
	}
	return id, nil
}

func attrsParam(r *http.Request) ([]string, error) {
	raw := r.URL.Query().Get("attrs")
	if raw == "" {
		return nil, errors.New("missing attrs parameter (comma-separated attribute names)")
	}
	parts := strings.Split(raw, ",")
	attrs := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			attrs = append(attrs, p)
		}
	}
	if len(attrs) == 0 {
		return nil, errors.New("empty attrs parameter")
	}
	return attrs, nil
}
