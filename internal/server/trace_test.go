package server

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"testing"

	"cinderella/client"
	"cinderella/internal/obs"
)

// TestServerQueryTraceInline drives ?trace=1 end to end: the server must
// run the query under a forced span (bypassing 1-in-N sampling) and
// return the full span tree inline, while untraced queries keep the
// response shape unchanged.
func TestServerQueryTraceInline(t *testing.T) {
	h := newHarness(t, Config{})
	ctx := context.Background()

	for i := 0; i < 3; i++ {
		if _, err := h.bc.Insert(ctx, client.Doc{"rpm": int64(7200 + i), "disk": int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := h.bc.Insert(ctx, client.Doc{"wifi": int64(1)}); err != nil {
		t.Fatal(err)
	}

	recs, rep, trace, err := h.cl.QueryTraced(ctx, "rpm")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || rep.EntitiesReturned != 3 {
		t.Fatalf("traced query: %d records, report %+v", len(recs), rep)
	}
	if trace == nil {
		t.Fatal("?trace=1 returned no trace from an instrumented server")
	}
	var sp obs.QuerySpan
	if err := json.Unmarshal(trace, &sp); err != nil {
		t.Fatalf("trace is not a span tree: %v\n%s", err, trace)
	}
	if sp.Kind != obs.KindSelect || !sp.Sampled {
		t.Fatalf("span = kind %q sampled %v, want forced select", sp.Kind, sp.Sampled)
	}
	// The root sums its one shard child, which holds the partition spans.
	if sp.EntitiesReturned != 3 || sp.PartitionsTotal < 1 || len(sp.Children) != 1 ||
		sp.Children[0].Shard != 0 || len(sp.Children[0].Parts) == 0 {
		t.Fatalf("span not filled: %+v", sp)
	}
	if sp.Query == "" {
		t.Fatalf("forced span missing its query description: %+v", sp)
	}

	// Both query routes honour the flag, including trace=true spelling.
	for _, path := range []string{"/v1/query?attrs=rpm&trace=1", "/v1/query-report?attrs=rpm&trace=true"} {
		var body struct {
			Trace json.RawMessage `json:"trace"`
		}
		getBody(t, h, path, &body)
		if body.Trace == nil {
			t.Errorf("%s: no inline trace", path)
		}
	}

	// Untraced responses must not grow a trace field.
	var plain map[string]json.RawMessage
	getBody(t, h, "/v1/query?attrs=rpm", &plain)
	if _, ok := plain["trace"]; ok {
		t.Fatal("untraced /v1/query response carries a trace field")
	}

	// The forced trace also lands in normal retention: the recent ring
	// and the sampled counter see it, and the heat map recorded the scan.
	if got := h.reg.Counter(obs.CTraceSampled); got < 3 {
		t.Fatalf("CTraceSampled = %d, want >= 3 forced traces", got)
	}
	if heat := h.reg.HeatSnapshot(); len(heat) == 0 {
		t.Fatal("no heat rows after traced queries")
	}
}

func getBody(t *testing.T, h *harness, path string, into any) {
	t.Helper()
	resp, err := http.Get(h.ts.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("GET %s: status %d err %v", path, resp.StatusCode, err)
	}
	if err := json.Unmarshal(raw, into); err != nil {
		t.Fatalf("GET %s: decode: %v", path, err)
	}
}
