package main

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"cinderella/client"
)

// target is where a workload sends its load: a spawned daemon, or the
// traced run's in-process stack. Connection numbers are stable per
// worker, because the traced stack attributes server-side spans to the
// connection they arrive on.
type target interface {
	// addr is the binary-protocol address connection conn dials.
	addr(conn int) string
	// root opens the root span of one client call on conn and returns
	// the function that closes it. A daemon records nothing.
	root(conn int, name string) func()
}

func (d *daemon) addr(int) string         { return d.binAddr }
func (d *daemon) root(int, string) func() { return noSpan }

func noSpan() {}

// tally counts a run's operations: every document written, query
// answered and document fetched is one attempt; an error, a refusal, a
// wrong answer or a lost acked write is one failure.
type tally struct {
	attempted atomic.Int64
	failed    atomic.Int64
	mu        sync.Mutex
	first     error
}

func (t *tally) fail(n int, err error) {
	t.failed.Add(int64(n))
	t.mu.Lock()
	if t.first == nil {
		t.first = err
	}
	t.mu.Unlock()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// dial opens one connection's client and registers every attribute
// name of the data set on it, so that no timed frame carries a
// dictionary round trip. The Update of id 0 names them all and touches
// nothing: id 0 never exists.
func dial(ctx context.Context, t target, conn, batch int, ds *dataset, retries int) (*client.Binary, error) {
	opts := []client.BinaryOption{client.WithConns(1), client.WithBinaryRetries(retries)}
	if batch > 0 {
		opts = append(opts, client.WithBatch(batch, 0, 0))
	}
	bc, err := client.NewBinary(t.addr(conn), opts...)
	if err != nil {
		return nil, err
	}
	all := make(client.Doc, ds.dict.Len())
	for _, name := range ds.dict.Names() {
		all[name] = int64(0)
	}
	if _, err := bc.Update(ctx, 0, all); err != nil {
		bc.Close()
		return nil, fmt.Errorf("registering attributes: %w", err)
	}
	return bc, nil
}

// loaded is the outcome of one closed-loop load.
type loaded struct {
	ids     []client.ID   // per document of the range; 0 = not acked
	lat     []float64     // per-frame send→ack latency, ms
	wall    time.Duration // first send → last ack
	acked   int
	payload int64 // record-codec bytes of the acked documents
	cut     int   // documents sent but unacked when the daemon was killed (stop mode)
}

// loadDocs inserts documents lo..hi-1 (indexes wrap around the data
// set) through conns closed-loop connections, each sending InsertMany
// frames of batch documents and waiting for the ack before the next.
// Acked documents enter the model. With stop set, a worker that sees an
// error stops quietly instead of counting failures: that is how a load
// ends when the daemon is killed under it.
func loadDocs(ctx context.Context, t target, conns, batch int, ds *dataset, lo, hi int, m *model, tl *tally, stop *atomic.Bool) (loaded, error) {
	clients := make([]*client.Binary, conns)
	for i := range clients {
		retries := 4
		if stop != nil {
			retries = 0
		}
		bc, err := dial(ctx, t, i, batch, ds, retries)
		if err != nil {
			return loaded{}, err
		}
		defer bc.Close()
		clients[i] = bc
	}

	out := loaded{ids: make([]client.ID, hi-lo)}
	lats := make([][]float64, conns)
	var cursor atomic.Int64
	cursor.Store(int64(lo))
	var acked, payload, cut atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			docs := make([]client.Doc, 0, batch)
			for {
				from := int(cursor.Add(int64(batch))) - batch
				if from >= hi || (stop != nil && stop.Load()) {
					return
				}
				to := min(from+batch, hi)
				docs = docs[:0]
				for i := from; i < to; i++ {
					docs = append(docs, ds.docs[i%len(ds.docs)])
				}
				end := t.root(w, "client.InsertMany")
				t0 := time.Now()
				ids, err := clients[w].InsertMany(ctx, docs)
				d := time.Since(t0)
				end()
				nAcked := 0
				for i, id := range ids {
					if id == 0 {
						continue
					}
					nAcked++
					out.ids[from-lo+i] = id
					m.put(id, docs[i])
					payload.Add(int64(ds.payload[(from+i)%len(ds.docs)]))
				}
				acked.Add(int64(nAcked))
				lost := len(docs) - nAcked
				if stop != nil && err != nil {
					// The daemon died under this frame: its unacked
					// documents are neither acked nor failed, they are cut.
					tl.attempted.Add(int64(nAcked))
					cut.Add(int64(lost))
					stop.Store(true)
					return
				}
				tl.attempted.Add(int64(len(docs)))
				if err != nil || lost > 0 {
					tl.fail(lost, fmt.Errorf("insert: %d of %d not acked: %v", lost, len(docs), err))
					continue
				}
				lats[w] = append(lats[w], ms(d))
			}
		}(w)
	}
	wg.Wait()
	out.wall = time.Since(start)
	out.acked = int(acked.Load())
	out.payload = payload.Load()
	out.cut = int(cut.Load())
	for _, l := range lats {
		out.lat = append(out.lat, l...)
	}
	return out, nil
}

// read is the outcome of one batch of closed-loop readers.
type read struct {
	lat  []float64 // per-query send→last-byte latency, ms
	wall time.Duration
}

// runReaders runs closed-loop readers on connections firstConn… Each
// asks next for its next query (an index into qs) until next reports
// the end, and passes every response to check; a false verdict or an
// error is a failure.
func runReaders(ctx context.Context, t target, firstConn, readers int, ds *dataset, qs []query,
	next func(reader int) (int, bool), check func(qi int, recs []client.Record) bool, tl *tally) (read, error) {
	clients := make([]*client.Binary, readers)
	for i := range clients {
		bc, err := dial(ctx, t, firstConn+i, 0, ds, 4)
		if err != nil {
			return read{}, err
		}
		defer bc.Close()
		clients[i] = bc
	}
	lats := make([][]float64, readers)
	var wg sync.WaitGroup
	start := time.Now()
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				qi, ok := next(r)
				if !ok {
					return
				}
				end := t.root(firstConn+r, "client.Query")
				t0 := time.Now()
				recs, err := clients[r].Query(ctx, qs[qi].Attrs...)
				d := time.Since(t0)
				end()
				tl.attempted.Add(1)
				switch {
				case err != nil:
					tl.fail(1, fmt.Errorf("query %v: %w", qs[qi].Attrs, err))
				case check != nil && !check(qi, recs):
					tl.fail(1, fmt.Errorf("query %v: answer differs from the reference model (%d records)", qs[qi].Attrs, len(recs)))
				default:
					lats[r] = append(lats[r], ms(d))
				}
			}
		}(r)
	}
	wg.Wait()
	out := read{wall: time.Since(start)}
	for _, l := range lats {
		out.lat = append(out.lat, l...)
	}
	return out, nil
}

// fromList serves a fixed query list once, shared by all readers.
func fromList(list []int) func(int) (int, bool) {
	var cursor atomic.Int64
	return func(int) (int, bool) {
		i := int(cursor.Add(1)) - 1
		if i >= len(list) {
			return 0, false
		}
		return list[i], true
	}
}

// untilDeadline serves each reader its own seeded stream until the
// deadline; from shiftAt on (zero: never) the ranking is reversed.
func untilDeadline(seed int64, ds *dataset, readers int, deadline, shiftAt time.Time) func(int) (int, bool) {
	streams := make([]*queryStream, readers)
	for i := range streams {
		streams[i] = newQueryStream(seed, i, ds)
	}
	return func(r int) (int, bool) {
		now := time.Now()
		if !now.Before(deadline) {
			return 0, false
		}
		return streams[r].next(!shiftAt.IsZero() && !now.Before(shiftAt)), true
	}
}

// paced is the outcome of the open-loop writer.
type paced struct {
	lat     []float64 // per batch, from its due time to its last ack, ms
	late    []float64 // per batch, how long after its due time it was sent, ms
	wall    time.Duration
	acked   int
	payload int64
}

// paceWrites sends ops in batches of batch, batch k due at
// start + k·interval whatever happened to the batches before it. One
// batch is in flight at a time; a batch that had to wait for its
// predecessor is sent late and still timed from its due time, so a
// stall is charged to every write it delayed. ids are the preloaded
// documents' ids, the targets of updates and deletes.
func paceWrites(ctx context.Context, t target, conn, batch int, interval time.Duration, ds *dataset,
	ops []mixedOp, ids []client.ID, m *model, tl *tally) (paced, error) {
	bc, err := dial(ctx, t, conn, batch, ds, 4)
	if err != nil {
		return paced{}, err
	}
	defer bc.Close()
	var out paced
	var acked, payload atomic.Int64
	start := time.Now()
	for k := 0; k*batch < len(ops); k++ {
		due := start.Add(time.Duration(k) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		out.late = append(out.late, ms(time.Since(due)))
		end := t.root(conn, "client.WriteBatch")
		var wg sync.WaitGroup
		for _, op := range ops[k*batch : min((k+1)*batch, len(ops))] {
			wg.Add(1)
			go func(op mixedOp) {
				defer wg.Done()
				tl.attempted.Add(1)
				var err error
				switch op.Kind {
				case opInsert:
					var id client.ID
					if id, err = bc.Insert(ctx, ds.docs[op.Doc]); err == nil {
						m.put(id, ds.docs[op.Doc])
					}
				case opUpdate:
					var found bool
					if found, err = bc.Update(ctx, ids[op.Target], ds.docs[op.Doc]); err == nil && found {
						m.put(ids[op.Target], ds.docs[op.Doc])
					} else if err == nil {
						err = fmt.Errorf("id %d not found", ids[op.Target])
					}
				case opDelete:
					var found bool
					if found, err = bc.Delete(ctx, ids[op.Target]); err == nil && found {
						m.del(ids[op.Target])
					} else if err == nil {
						err = fmt.Errorf("id %d not found", ids[op.Target])
					}
				}
				if err != nil {
					tl.fail(1, fmt.Errorf("mixed write kind %d: %w", op.Kind, err))
					return
				}
				acked.Add(1)
				if op.Kind != opDelete {
					payload.Add(int64(ds.payload[op.Doc]))
				}
			}(op)
		}
		wg.Wait()
		end()
		out.lat = append(out.lat, ms(time.Since(due)))
	}
	out.wall = time.Since(start)
	out.acked = int(acked.Load())
	out.payload = payload.Load()
	return out, nil
}

// runMixed plays the mixed workload's timed region against t for dur:
// the paced writer on connection 0 beside one closed-loop reader on
// connection 1, whose ranking is reversed at half time. The reader's
// answers are not checked: the store changes under them.
func runMixed(ctx context.Context, t target, sz sizes, seed int64, dur time.Duration, ds *dataset, qs []query,
	ids []client.ID, m *model, tl *tally) (paced, read, error) {
	nOps := sz.MixedRate * int(dur.Seconds())
	nOps -= nOps % sz.MixedBatch
	ops := mixedOps(seed, sz.Preload, nOps)
	interval := time.Second * time.Duration(sz.MixedBatch) / time.Duration(sz.MixedRate)
	now := time.Now()
	next := untilDeadline(seed, ds, 1, now.Add(dur), now.Add(dur/2))
	var wr paced
	var rd read
	var werr, rerr error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		wr, werr = paceWrites(ctx, t, 0, sz.MixedBatch, interval, ds, ops, ids, m, tl)
	}()
	go func() {
		defer wg.Done()
		rd, rerr = runReaders(ctx, t, 1, 1, ds, qs, next, nil, tl)
	}()
	wg.Wait()
	if werr == nil {
		werr = rerr
	}
	return wr, rd, werr
}
