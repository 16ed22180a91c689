// Package server is cinderellad's HTTP/JSON service layer over the
// sharded store (internal/shard): reads, admin operations, health, and
// the ops endpoints. Writes — insert, update, delete, batches — go over
// the binary protocol only (internal/wire), which shares this server's
// group committer; /v1/health reports the binary listener's address.
//
// Wire format (all bodies JSON, all errors {"error": "..."}):
//
//	GET  /v1/doc?id=N                             → {"id":N,"doc":{...}}
//	GET  /v1/query?attrs=a,b                      → {"records":[{"id":N,"doc":{...}},...]}
//	GET  /v1/query-report?attrs=a,b               → {"records":[...],"report":{...}}
//	GET  /v1/partitions                           → {"partitions":[...]}
//	POST /v1/compact     {"threshold":F}          → {"merged":N}
//	POST /v1/checkpoint  {}                       → {"checkpointed":true}
//	GET  /v1/health                               → {"status":"ok"|"draining","bin_addr":"host:port",...}
//
// Ack contract: a 2xx on /v1/compact means the merges were applied AND
// their WAL records are fsynced, acknowledged by the group committer
// (see commit.go) that also acks the binary protocol's writes.
//
// Backpressure: at most MaxInflight requests execute at once; past
// that a request gets 503 with a Retry-After header, and the client
// package backs off and retries. A drain refuses the admin writes
// (compact, checkpoint) the same way but never the reads: the store's
// lock-free snapshot reads are independent of the write path, so a
// draining node keeps answering them until its listener stops.
// /v1/health bypasses the bound so probes always see the server.
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
	// MaxInflight bounds concurrently executing requests. Default 128.
	MaxInflight int
	// RequestTimeout bounds one request end to end: body read,
	// execution, and a compaction's group-commit ack. Default 10s.
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
	d       *shard.Sharded
	cfg     Config
	com     *Committer
	obs     *obs.Registry
	binAddr string // the binary listener's bound address, for /v1/health

	sem      chan struct{} // inflight slots
	draining chan struct{} // closed by BeginDrain
	mux      *http.ServeMux
}

// New builds a Server around d. binAddr is the bound address of the
// binary-protocol listener that takes this store's writes; /v1/health
// reports it. The caller keeps ownership of d until Finish, which
// closes it.
func New(d *shard.Sharded, binAddr string, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		d:        d,
		cfg:      cfg,
		obs:      cfg.Obs,
		binAddr:  binAddr,
		sem:      make(chan struct{}, cfg.MaxInflight),
		draining: make(chan struct{}),
		com:      NewCommitter(d, cfg.CommitMaxOps, cfg.CommitDelay, cfg.Obs),
	}
	s.mux = http.NewServeMux()
	s.route("GET /v1/doc", s.handleGet)
	s.route("GET /v1/query", s.handleQuery)
	s.route("GET /v1/query-report", s.handleQueryReport)
	s.route("GET /v1/partitions", s.handlePartitions)
	s.route("POST /v1/compact", s.handleCompact)
	s.route("POST /v1/checkpoint", s.handleCheckpoint)
	s.mux.HandleFunc("GET /v1/health", s.handleHealth) // outside the bound: probes must see a busy or draining server
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
		fmt.Fprint(w, "cinderellad\n\n/v1/{doc,query,query-report,partitions,compact,checkpoint,health}\n/metrics\n/debug/{vars,pprof}\nwrites: binary protocol at /v1/health's bin_addr\n")
	})
	return s
}

// Handler returns the root handler: the API routes behind the inflight
// bound, plus health and the ops endpoints.
func (s *Server) Handler() http.Handler { return s.mux }

// Committer returns the group committer acknowledging this store's
// writes. The binary wire server shares it so one fsync covers a batch
// of writes across connections, and compactions ride the same fsyncs.
func (s *Server) Committer() *Committer { return s.com }

// route registers an API handler behind the inflight bound, the request
// timeout, and telemetry. A POST route is an admin write, which a drain
// refuses; GET routes are reads, which it never refuses.
func (s *Server) route(pattern string, h func(http.ResponseWriter, *http.Request) (int, error)) {
	write := strings.HasPrefix(pattern, "POST ")
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		if write && s.isDraining() {
			s.reject(w, "draining")
			return
		}
		select {
		case s.sem <- struct{}{}:
		default:
			s.reject(w, "inflight bound reached")
			return
		}
		s.obs.AddGauge(obs.GServerInflight, 1)
		cr := &countingReader{r: http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)}
		cw := &countingWriter{ResponseWriter: w}
		defer func() {
			<-s.sem
			s.obs.AddGauge(obs.GServerInflight, -1)
			s.obs.Add(obs.CBytesInHTTP, cr.n)
			s.obs.Add(obs.CBytesOutHTTP, cw.n)
			s.obs.Observe(obs.HServerNs, time.Since(start).Nanoseconds())
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

// BeginDrain flips the server into drain mode: every subsequent admin
// write (including on kept-alive connections) is rejected with 503,
// reads keep being served, and in-flight requests finish normally.
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
		if err := s.com.Commit(r.Context(), s.d.LastLSN()); err != nil {
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
		"bin_addr":    s.binAddr,
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

// readJSON decodes one JSON body.
func readJSON(r *http.Request, into any) error {
	dec := json.NewDecoder(r.Body)
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
