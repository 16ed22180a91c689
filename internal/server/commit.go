package server

import (
	"context"
	"sync"
	"time"

	"cinderella/internal/obs"
)

// The group-commit pipeline. Handler goroutines append their operation
// to the WAL (buffered, no fsync) under the table lock, then hand the
// resulting LSN to the Committer and block. A single background loop
// makes whole batches durable with one SyncTo call each —
// at most one fsync per batch — and acknowledges every waiter at once.
// Under N concurrent writers this turns N fsyncs into ~1 without
// weakening the contract: an acknowledged operation is on disk.
//
// Batching policy: by default (maxDelay 0) the loop flushes as soon as
// the previous flush finishes — "natural" batching, where each batch is
// exactly the writers that arrived during the previous fsync. The first
// writer after an idle period pays no artificial wait, and under load
// the batch size self-tunes to the fsync latency. A positive maxDelay
// instead holds each batch open for that window (bounded by maxOps),
// trading first-writer latency for larger batches — useful when fsync
// is very cheap relative to the arrival rate.

// commitReq is one writer waiting for its LSN to become durable.
type commitReq struct {
	lsn  uint64
	done chan error
}

// Syncer is the durability half of the store: LSN bookkeeping plus the
// coalescing sync the group committer drives. The sharded store's SyncTo
// is a vector sync across all shard WALs behind one global LSN, so the
// committer batches writers across shards without knowing about them.
type Syncer interface {
	LastLSN() uint64
	DurableLSN() uint64
	SyncTo(lsn uint64) error
}

// Committer batches durability waits for a Syncer.
type Committer struct {
	d        Syncer
	obs      *obs.Registry
	maxOps   int
	maxDelay time.Duration

	mu      sync.Mutex
	pending []commitReq
	stopped bool

	kick     chan struct{} // cap 1: wakes the loop when work arrives
	quit     chan struct{}
	quitOnce sync.Once
	done     chan struct{}
}

// NewCommitter starts a group committer for d. maxDelay ≤ 0 (the
// default) selects natural batching: each flush starts as soon as the
// previous one finishes, so batches form from the writers that arrive
// during the fsync. maxDelay > 0 holds each batch open for that window
// instead; maxOps flushes a window-mode batch early once that many
// writers are waiting (default 128).
func NewCommitter(d Syncer, maxOps int, maxDelay time.Duration, reg *obs.Registry) *Committer {
	if maxOps <= 0 {
		maxOps = 128
	}
	c := &Committer{
		d:        d,
		obs:      reg,
		maxOps:   maxOps,
		maxDelay: maxDelay,
		kick:     make(chan struct{}, 1),
		quit:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	go c.run()
	return c
}

// Commit blocks until every operation appended at or before lsn is
// durable, the context ends, or the committer is stopped. A nil return
// means the operation is on disk; any other return means the caller
// must not acknowledge durability to its client.
func (c *Committer) Commit(ctx context.Context, lsn uint64) error {
	r := commitReq{lsn: lsn, done: make(chan error, 1)}
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		// Stop has flushed everything that was pending; a straggler can
		// still succeed if its history is already durable (SyncTo's
		// fast path) or sync directly if the table is still open.
		return c.d.SyncTo(lsn)
	}
	c.pending = append(c.pending, r)
	n := len(c.pending)
	c.mu.Unlock()

	if n >= c.maxOps {
		c.wake()
	} else if n == 1 {
		c.wake() // first in the window: start the delay timer
	}
	select {
	case err := <-r.done:
		return err
	case <-ctx.Done():
		// The operation may still become durable, but the caller cannot
		// claim so. The loop will complete r.done harmlessly (buffered).
		return ctx.Err()
	}
}

// wake nudges the run loop without blocking.
func (c *Committer) wake() {
	select {
	case c.kick <- struct{}{}:
	default:
	}
}

// run is the single batching loop.
func (c *Committer) run() {
	defer close(c.done)
	timer := time.NewTimer(0)
	if !timer.Stop() {
		<-timer.C
	}
	for {
		select {
		case <-c.kick:
		case <-c.quit:
			c.flush()
			return
		}
		// A batch has started. Unless it is already full, hold the door
		// open for maxDelay so concurrent writers can join.
		c.mu.Lock()
		n := len(c.pending)
		c.mu.Unlock()
		if n == 0 {
			continue
		}
		if c.maxDelay > 0 && n < c.maxOps {
			timer.Reset(c.maxDelay)
		wait:
			for {
				select {
				case <-timer.C:
					break wait
				case <-c.kick:
					// A writer joined; flush early only once the batch
					// is full, otherwise keep the window open.
					c.mu.Lock()
					full := len(c.pending) >= c.maxOps
					c.mu.Unlock()
					if full {
						stopTimer(timer)
						break wait
					}
				case <-c.quit:
					stopTimer(timer)
					c.flush()
					return
				}
			}
		}
		c.flush()
	}
}

// flush takes everything pending, makes it durable with one SyncTo (at
// most one fsync), and acknowledges every waiter.
func (c *Committer) flush() {
	c.mu.Lock()
	batch := c.pending
	c.pending = nil
	c.mu.Unlock()
	if len(batch) == 0 {
		return
	}
	var max uint64
	for _, r := range batch {
		if r.lsn > max {
			max = r.lsn
		}
	}
	err := c.d.SyncTo(max)
	c.obs.Add(obs.CGroupCommits, 1)
	c.obs.Add(obs.CGroupCommitOps, int64(len(batch)))
	c.obs.Observe(obs.HCommitBatch, int64(len(batch)))
	for _, r := range batch {
		r.done <- err
	}
}

// stopTimer stops t and drains a concurrently delivered tick.
func stopTimer(t *time.Timer) {
	if !t.Stop() {
		select {
		case <-t.C:
		default:
		}
	}
}

// Stop flushes all pending waiters and stops the loop. Safe to call
// more than once. After Stop, Commit degrades to a direct SyncTo.
func (c *Committer) Stop() {
	c.mu.Lock()
	c.stopped = true
	c.mu.Unlock()
	c.quitOnce.Do(func() { close(c.quit) })
	<-c.done
	c.flush() // anything that slipped in between stopped=true checks
}
