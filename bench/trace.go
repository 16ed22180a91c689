package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed interval at a layer boundary. Spans are recorded
// from outside the layers, around their public functions, and kept in
// memory until the run ends.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"` // 0: a root (client call) or background work
	Req    uint64 `json:"req,omitempty"`    // the root span this one serves, its request id
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the trace began
	End    int64  `json:"end_ns"`
	N      int64  `json:"n,omitempty"` // work covered: writes made durable by a sync span
}

// tracer collects spans. cur holds, per client connection, the root
// span currently open on it: workers are closed-loop with one call in
// flight per connection, and the in-process stack gives every
// connection its own wire server, so a server-side decorator knows
// whose request it is serving without any in-band id.
type tracer struct {
	t0   time.Time
	next atomic.Uint64
	cur  []atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer(conns int) *tracer {
	return &tracer{t0: time.Now(), cur: make([]atomic.Uint64, conns)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// record appends a span that ends now.
func (t *tracer) record(id, parent uint64, name string, start, n int64) {
	end := t.now()
	req := parent
	if parent == 0 {
		req = id
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: start, End: end, N: n})
	t.mu.Unlock()
}

// child times fn as a child of the root open on conn (or as background
// work when conn < 0 or no root is open).
func (t *tracer) child(conn int, name string, n int64, fn func()) {
	var parent uint64
	if conn >= 0 {
		parent = t.cur[conn].Load()
	}
	id, start := t.next.Add(1), t.now()
	fn()
	t.record(id, parent, name, start, n)
}

// root opens the root span of one client call on conn.
func (t *tracer) root(conn int, name string) func() {
	id, start := t.next.Add(1), t.now()
	t.cur[conn].Store(id)
	return func() {
		t.cur[conn].Store(0)
		t.record(id, 0, name, start, 0)
	}
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(t.spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTime is what a set of same-named spans adds up to.
type layerTime struct {
	Count int64
	Total int64 // Σ duration, ns
	Self  int64 // Σ duration minus the part child spans cover, ns
}

// selfTimes groups spans by name. A span's self time is its duration
// minus the union of its children's intervals, clipped to its own.
func selfTimes(spans []span) map[string]layerTime {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]layerTime)
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered, upto int64 = 0, s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, upto), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				upto = hi
			}
		}
		lt := out[s.Name]
		lt.Count++
		lt.Total += s.End - s.Start
		lt.Self += s.End - s.Start - covered
		out[s.Name] = lt
	}
	return out
}

// durations returns the durations of the spans called name, in ms.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e6)
		}
	}
	return out
}
