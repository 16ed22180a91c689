// Package client holds the typed Go clients for cinderellad. Binary
// (binary.go) speaks the length-prefixed wire protocol (internal/wire)
// and is the only one that writes: insert, update, delete, batches.
// Client speaks HTTP/JSON (see internal/server for the format) for
// reads, admin operations, and health; Health reports the binary
// address that takes writes.
//
// One Client is safe for concurrent use and reuses connections through
// a shared http.Transport; every request gets a per-call deadline, and
// requests the server provably did not apply — 503 rejections and
// connection-refused dials — are retried with bounded exponential
// backoff, honouring Retry-After.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"cinderella"
)

// Doc, ID, Record, and QueryReport mirror the embedded API so code can
// move between the library and the service without translation.
type (
	Doc         = cinderella.Doc
	ID          = cinderella.ID
	QueryReport = cinderella.QueryReport
)

// Record is one query hit.
type Record struct {
	ID  ID  `json:"id"`
	Doc Doc `json:"doc"`
}

// StatusError is a non-2xx response from the server.
type StatusError struct {
	Code    int
	Message string

	retryAfter int // Retry-After seconds; transport hint, not contract
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("cinderellad: %d %s: %s", e.Code, http.StatusText(e.Code), e.Message)
}

// Client talks to one cinderellad.
type Client struct {
	base       string
	hc         *http.Client
	timeout    time.Duration
	maxRetries int
	backoff    time.Duration
	maxBackoff time.Duration
}

// Option customizes a Client.
type Option func(*Client)

// WithTimeout sets the per-request deadline (default 10s).
func WithTimeout(d time.Duration) Option { return func(c *Client) { c.timeout = d } }

// WithRetries bounds retry attempts after the first try (default 4; 0
// disables retries).
func WithRetries(n int) Option { return func(c *Client) { c.maxRetries = n } }

// WithBackoff sets the initial retry backoff (default 25ms, doubling
// per attempt, capped at 1s or the server's Retry-After).
func WithBackoff(d time.Duration) Option { return func(c *Client) { c.backoff = d } }

// WithHTTPClient substitutes the underlying http.Client (tests,
// custom transports).
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// New returns a client for baseURL (e.g. "http://127.0.0.1:8263").
func New(baseURL string, opts ...Option) (*Client, error) {
	u, err := url.Parse(baseURL)
	if err != nil || u.Scheme == "" || u.Host == "" {
		return nil, fmt.Errorf("client: bad base URL %q", baseURL)
	}
	c := &Client{
		base:       strings.TrimRight(baseURL, "/"),
		hc:         &http.Client{},
		timeout:    10 * time.Second,
		maxRetries: 4,
		backoff:    25 * time.Millisecond,
		maxBackoff: time.Second,
	}
	for _, o := range opts {
		o(c)
	}
	return c, nil
}

// Get fetches one document. The boolean is false when id is unknown.
func (c *Client) Get(ctx context.Context, id ID) (Doc, bool, error) {
	var resp struct {
		Doc map[string]any `json:"doc"`
	}
	err := c.do(ctx, http.MethodGet, "/v1/doc?id="+strconv.FormatUint(uint64(id), 10), nil, &resp)
	var se *StatusError
	if errors.As(err, &se) && se.Code == http.StatusNotFound {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	doc, err := fromWire(resp.Doc)
	return doc, err == nil, err
}

// Query returns all documents instantiating at least one attribute.
func (c *Client) Query(ctx context.Context, attrs ...string) ([]Record, error) {
	recs, _, _, err := c.query(ctx, "/v1/query", attrs, false)
	return recs, err
}

// QueryWithReport also returns the server-side pruning report.
func (c *Client) QueryWithReport(ctx context.Context, attrs ...string) ([]Record, QueryReport, error) {
	recs, rep, _, err := c.query(ctx, "/v1/query-report", attrs, false)
	return recs, rep, err
}

// QueryTraced is QueryWithReport with an inline server-side trace
// (?trace=1): the server bypasses trace sampling and returns the
// query's full span tree — per-partition scan stats, prune rationale,
// per-shard children — as raw JSON. The trace is nil when the server is
// uninstrumented.
func (c *Client) QueryTraced(ctx context.Context, attrs ...string) ([]Record, QueryReport, json.RawMessage, error) {
	return c.query(ctx, "/v1/query-report", attrs, true)
}

func (c *Client) query(ctx context.Context, path string, attrs []string, trace bool) ([]Record, QueryReport, json.RawMessage, error) {
	var resp struct {
		Records []struct {
			ID  uint64         `json:"id"`
			Doc map[string]any `json:"doc"`
		} `json:"records"`
		Report QueryReport     `json:"report"`
		Trace  json.RawMessage `json:"trace"`
	}
	q := path + "?attrs=" + url.QueryEscape(strings.Join(attrs, ","))
	if trace {
		q += "&trace=1"
	}
	if err := c.do(ctx, http.MethodGet, q, nil, &resp); err != nil {
		return nil, QueryReport{}, nil, err
	}
	out := make([]Record, len(resp.Records))
	for i, r := range resp.Records {
		doc, err := fromWire(r.Doc)
		if err != nil {
			return nil, QueryReport{}, nil, err
		}
		out[i] = Record{ID: ID(r.ID), Doc: doc}
	}
	return out, resp.Report, resp.Trace, nil
}

// Partitions returns the server's current partitioning.
func (c *Client) Partitions(ctx context.Context) ([]cinderella.PartitionStat, error) {
	var resp struct {
		Partitions []cinderella.PartitionStat `json:"partitions"`
	}
	err := c.do(ctx, http.MethodGet, "/v1/partitions", nil, &resp)
	return resp.Partitions, err
}

// Compact durably merges underfilled partitions below threshold and
// returns how many merges ran.
func (c *Client) Compact(ctx context.Context, threshold float64) (int, error) {
	var resp struct {
		Merged int `json:"merged"`
	}
	err := c.do(ctx, http.MethodPost, "/v1/compact", map[string]any{"threshold": threshold}, &resp)
	return resp.Merged, err
}

// Checkpoint compacts the server's WAL to the live contents.
func (c *Client) Checkpoint(ctx context.Context) error {
	return c.do(ctx, http.MethodPost, "/v1/checkpoint", map[string]any{}, nil)
}

// Health describes the server's liveness.
type Health struct {
	Status string `json:"status"`
	// BinAddr is the bound address of the daemon's binary-protocol
	// listener, which takes every write.
	BinAddr    string `json:"bin_addr"`
	Docs       int    `json:"docs"`
	DurableLSN uint64 `json:"durable_lsn"`
	LastLSN    uint64 `json:"last_lsn"`
}

// Health probes /v1/health (outside the server's inflight bound, so it
// answers even under full load or drain).
func (c *Client) Health(ctx context.Context) (Health, error) {
	var h Health
	err := c.do(ctx, http.MethodGet, "/v1/health", nil, &h)
	return h, err
}

// do runs one request with deadline, decoding, and the retry loop. The
// body is marshalled once so retries resend identical bytes.
func (c *Client) do(ctx context.Context, method, path string, body, into any) error {
	var payload []byte
	if body != nil {
		var err error
		if payload, err = json.Marshal(body); err != nil {
			return fmt.Errorf("client: encoding request: %w", err)
		}
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		err := c.once(ctx, method, path, payload, into)
		if err == nil {
			return nil
		}
		lastErr = err
		retry, wait := c.retryable(method, err, attempt)
		if !retry || attempt >= c.maxRetries {
			return lastErr
		}
		select {
		case <-time.After(wait):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// once performs a single HTTP exchange under the per-request deadline.
func (c *Client) once(ctx context.Context, method, path string, payload []byte, into any) error {
	rctx, cancel := context.WithTimeout(ctx, c.timeout)
	defer cancel()
	var rd io.Reader
	if payload != nil {
		rd = bytes.NewReader(payload)
	}
	req, err := http.NewRequestWithContext(rctx, method, c.base+path, rd)
	if err != nil {
		return fmt.Errorf("client: %w", err)
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("client: %s %s: %w", method, path, err)
	}
	defer func() {
		io.Copy(io.Discard, resp.Body) // drain so the connection is reused
		resp.Body.Close()
	}()
	if resp.StatusCode >= 400 {
		se := &StatusError{Code: resp.StatusCode}
		var e struct {
			Error string `json:"error"`
		}
		if json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&e) == nil {
			se.Message = e.Error
		}
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			se.retryAfter, _ = strconv.Atoi(ra)
		}
		return se
	}
	if into == nil {
		return nil
	}
	dec := json.NewDecoder(resp.Body)
	dec.UseNumber()
	if err := dec.Decode(into); err != nil {
		return fmt.Errorf("client: decoding %s response: %w", path, err)
	}
	return nil
}

// retryable decides whether err is safe to retry — i.e. the server
// cannot have applied the operation — and how long to wait first.
func (c *Client) retryable(method string, err error, attempt int) (bool, time.Duration) {
	wait := c.backoff << attempt
	if wait > c.maxBackoff {
		wait = c.maxBackoff
	}
	var se *StatusError
	if errors.As(err, &se) {
		// 503 means admission rejection or drain: the op was never
		// applied. Everything else is a real answer — don't retry.
		if se.Code != http.StatusServiceUnavailable {
			return false, 0
		}
		if se.retryAfter > 0 {
			if ra := time.Duration(se.retryAfter) * time.Second; ra < wait {
				wait = ra
			}
		}
		return true, wait
	}
	// Transport errors. Reads are idempotent: always retry. Mutations
	// retry only when the request provably never reached a server
	// (connection refused during dial); a mid-flight failure may have
	// applied the op, so surface it instead.
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return false, 0
	}
	if method == http.MethodGet {
		return true, wait
	}
	if strings.Contains(err.Error(), "connection refused") {
		return true, wait
	}
	return false, 0
}

// fromWire converts a decoded JSON document (json.Number values) into a
// Doc with int64/float64/string values.
func fromWire(obj map[string]any) (Doc, error) {
	doc := make(Doc, len(obj))
	for k, v := range obj {
		switch x := v.(type) {
		case json.Number:
			if i, err := strconv.ParseInt(x.String(), 10, 64); err == nil {
				doc[k] = i
			} else if f, err := x.Float64(); err == nil {
				doc[k] = f
			} else {
				return nil, fmt.Errorf("client: attribute %q: bad number %q", k, x.String())
			}
		case string:
			doc[k] = x
		default:
			return nil, fmt.Errorf("client: attribute %q: unexpected wire type %T", k, v)
		}
	}
	return doc, nil
}
