package obs

import "sync"

// ring is the one bounded buffer behind the event trace, the slow-query
// and recent-trace logs, the query-shape mix, the recluster outcomes and
// the EFFICIENCY window: it keeps the last len(buf) values added. add
// copies the value into a preallocated slot, so it allocates nothing.
type ring[T any] struct {
	mu  sync.Mutex
	buf []T
	n   uint64 // values ever added
}

func newRing[T any](capacity int) *ring[T] {
	return &ring[T]{buf: make([]T, capacity)}
}

func (g *ring[T]) add(v T) {
	g.mu.Lock()
	g.buf[g.n%uint64(len(g.buf))] = v
	g.n++
	g.mu.Unlock()
}

// dump returns the retained values, oldest first, and the number of
// values ever added (so the first one returned is number
// total-len(values), counting from 0).
func (g *ring[T]) dump() (values []T, total uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	size := uint64(len(g.buf))
	first := g.n - min(g.n, size)
	values = make([]T, 0, g.n-first)
	for i := first; i < g.n; i++ {
		values = append(values, g.buf[i%size])
	}
	return values, g.n
}

// total returns the number of values ever added.
func (g *ring[T]) total() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.n
}
