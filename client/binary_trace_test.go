package client

import (
	"context"
	"encoding/json"
	"net"
	"testing"
	"time"

	"cinderella"
	"cinderella/internal/obs"
	"cinderella/internal/shard"
	"cinderella/internal/wire"
)

// startInstrumentedWireServer is startWireServer with an obs registry
// wired through, so OpQuery's trace flag has a tracer to talk to.
func startInstrumentedWireServer(t *testing.T) (string, *obs.Registry) {
	t.Helper()
	reg := obs.New(obs.Options{})
	d, err := shard.Open(t.TempDir(), shard.Options{Shards: 1,
		Config: cinderella.Config{Weight: 0.3, PartitionSizeLimit: 100, Obs: reg}})
	if err != nil {
		t.Fatal(err)
	}
	srv := wire.New(d, nil, wire.Config{Obs: reg})
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
	return ln.Addr().String(), reg
}

// TestBinaryQueryTraced round-trips OpQuery's trailing trace flag: the
// traced call returns records plus an inline span tree, while the
// untraced call's response shape is byte-identical to the pre-flag
// protocol.
func TestBinaryQueryTraced(t *testing.T) {
	addr, reg := startInstrumentedWireServer(t)
	b := testBinary(t, addr)
	ctx := context.Background()

	for i := 0; i < 3; i++ {
		if _, err := b.Insert(ctx, Doc{"rpm": int64(7200 + i)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := b.Insert(ctx, Doc{"wifi": int64(1)}); err != nil {
		t.Fatal(err)
	}

	recs, trace, err := b.QueryTraced(ctx, "rpm")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("traced query returned %d records, want 3", len(recs))
	}
	if trace == nil {
		t.Fatal("traced query returned no span from an instrumented server")
	}
	var sp obs.QuerySpan
	if err := json.Unmarshal(trace, &sp); err != nil {
		t.Fatalf("trace is not a span tree: %v\n%s", err, trace)
	}
	if sp.Kind != obs.KindSelect || !sp.Sampled {
		t.Fatalf("span = kind %q sampled %v, want forced select", sp.Kind, sp.Sampled)
	}
	// The root sums its one shard child, which holds the partition spans.
	if sp.EntitiesReturned != 3 || len(sp.Children) != 1 ||
		sp.Children[0].Shard != 0 || len(sp.Children[0].Parts) == 0 {
		t.Fatalf("span not filled: %+v", sp)
	}

	// The untraced path through the same connection still works and
	// returns the same records — the flag byte is strictly additive.
	plain, err := b.Query(ctx, "rpm")
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != len(recs) {
		t.Fatalf("plain query returned %d records, traced returned %d", len(plain), len(recs))
	}

	// Forced wire traces land in normal retention too.
	if got := reg.Counter(obs.CTraceSampled); got < 1 {
		t.Fatalf("CTraceSampled = %d, want >= 1", got)
	}
	if heat := reg.HeatSnapshot(); len(heat) == 0 {
		t.Fatal("no heat rows after a traced wire query")
	}
}

// TestBinaryQueryTracedUninstrumented pins the degraded mode: a server
// with no registry answers the trace flag with an empty trace, and the
// client surfaces that as nil rather than an error.
func TestBinaryQueryTracedUninstrumented(t *testing.T) {
	addr, _, _ := startWireServer(t)
	b := testBinary(t, addr)
	ctx := context.Background()
	if _, err := b.Insert(ctx, Doc{"rpm": int64(1)}); err != nil {
		t.Fatal(err)
	}
	recs, trace, err := b.QueryTraced(ctx, "rpm")
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("got %d records, want 1", len(recs))
	}
	if trace != nil {
		t.Fatalf("uninstrumented server produced a trace: %s", trace)
	}
}
