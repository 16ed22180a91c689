package client

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

func TestClientRetriesOn503(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.Header().Set("Retry-After", "0")
			w.WriteHeader(http.StatusServiceUnavailable)
			json.NewEncoder(w).Encode(map[string]string{"error": "admission queue full"})
			return
		}
		json.NewEncoder(w).Encode(map[string]int{"merged": 7})
	}))
	defer ts.Close()

	c, err := New(ts.URL, WithBackoff(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	merged, err := c.Compact(context.Background(), 0.5)
	if err != nil {
		t.Fatalf("compact should have survived two 503s: %v", err)
	}
	if merged != 7 || calls.Load() != 3 {
		t.Fatalf("merged=%d calls=%d, want 7 and 3", merged, calls.Load())
	}
}

func TestClientRetriesAreBounded(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(map[string]string{"error": "draining"})
	}))
	defer ts.Close()

	c, _ := New(ts.URL, WithRetries(2), WithBackoff(time.Millisecond))
	// A 503 retries on every method, and the bound holds on each.
	for _, call := range []struct {
		name string
		do   func() error
	}{
		{"POST checkpoint", func() error { return c.Checkpoint(context.Background()) }},
		{"GET doc", func() error { _, _, err := c.Get(context.Background(), 1); return err }},
	} {
		calls.Store(0)
		err := call.do()
		var se *StatusError
		if !errors.As(err, &se) || se.Code != http.StatusServiceUnavailable {
			t.Fatalf("%s: want surfaced 503, got %v", call.name, err)
		}
		if got := calls.Load(); got != 3 { // 1 try + 2 retries
			t.Fatalf("%s: made %d calls, want 3", call.name, got)
		}
	}
}

func TestClientDoesNotRetryRealErrors(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusBadRequest)
		json.NewEncoder(w).Encode(map[string]string{"error": "nope"})
	}))
	defer ts.Close()

	c, _ := New(ts.URL, WithBackoff(time.Millisecond))
	err := c.Checkpoint(context.Background())
	var se *StatusError
	if !errors.As(err, &se) || se.Code != http.StatusBadRequest {
		t.Fatalf("want 400 surfaced, got %v", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("400 was retried (%d calls)", calls.Load())
	}
}

func TestClientRetriesConnectionRefused(t *testing.T) {
	// Reserve a port, then close the listener: connect must be refused.
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	url := ts.URL
	ts.Close()

	c, _ := New(url, WithRetries(2), WithBackoff(time.Millisecond))
	start := time.Now()
	err := c.Checkpoint(context.Background())
	if err == nil {
		t.Fatal("checkpoint against dead server succeeded")
	}
	// 1 try + 2 retries with 1ms/2ms backoff: the retry loop must have
	// actually waited.
	if time.Since(start) < 3*time.Millisecond {
		t.Fatal("no backoff observed")
	}
}

func TestClientPerRequestDeadline(t *testing.T) {
	release := make(chan struct{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		<-release
	}))
	defer func() { close(release); ts.Close() }()

	c, _ := New(ts.URL, WithTimeout(30*time.Millisecond), WithRetries(0))
	start := time.Now()
	_, _, err := c.QueryWithReport(context.Background(), "a")
	if err == nil {
		t.Fatal("hung request returned nil error")
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("deadline not enforced (took %v)", d)
	}
}

func TestClientBadBaseURL(t *testing.T) {
	for _, bad := range []string{"", "not a url", "/relative"} {
		if _, err := New(bad); err == nil {
			t.Errorf("New(%q) accepted", bad)
		}
	}
}
