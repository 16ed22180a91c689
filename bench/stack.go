package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"time"

	"cinderella"
	"cinderella/internal/core"
	"cinderella/internal/entity"
	"cinderella/internal/obs"
	"cinderella/internal/recluster"
	"cinderella/internal/server"
	"cinderella/internal/shard"
	"cinderella/internal/table"
	"cinderella/internal/tier"
	"cinderella/internal/wire"
)

// stack is the daemon's stack assembled in this process exactly as
// cmd/cinderellad/main.go assembles it — shard.Open → group committer →
// wire server, reclusterer, tier manager — with the baseFlags values.
// With a tracer, every constructor is handed a timing decorator over
// the interface it already accepts; without one, the plain values, which
// is the baseline the tracing overhead is measured against. Every client
// connection gets a wire server of its own over the shared store and
// committer, so that a decorator knows which connection it serves.
type stack struct {
	dir     string
	reg     *obs.Registry
	sh      *shard.Sharded
	com     *server.Committer
	servers []*wire.Server
	addrs   []string
	tr      *tracer
	rmgr    *recluster.Manager
	tmgr    *tier.Manager
	stopBg  context.CancelFunc
	bgDone  chan struct{}
}

// stackOptions are the flags that differ between workloads.
type stackOptions struct {
	conns      int
	background time.Duration // recluster and tier interval; 0 = the daemon's defaults
	tierTarget int64         // -tier-target-bytes
}

// openStack opens (or reopens) dir and serves it. The returned duration
// is shard.Open's: on an existing dir, the replay.
func openStack(dir string, tr *tracer, o stackOptions) (*stack, time.Duration, error) {
	reg := obs.New(obs.Options{})
	cfg := cinderella.Config{
		Strategy:           cinderella.StrategyCinderella,
		Weight:             0.2,
		PartitionSizeLimit: 500,
		Obs:                reg,
	}
	start := time.Now()
	sh, err := shard.Open(dir, shard.Options{Shards: 2, Config: cfg})
	if err != nil {
		return nil, 0, err
	}
	replay := time.Since(start)
	s := &stack{dir: dir, reg: reg, sh: sh, tr: tr, bgDone: make(chan struct{})}

	var syncer server.Syncer = sh
	var ts tier.Store = sh
	var rs recluster.Store = sh
	if tr != nil {
		syncer = &tracedSyncer{sh, tr}
		ts = &tracedTier{sh, tr}
		rs = &tracedRecluster{sh, tr}
	}
	s.com = server.NewCommitter(syncer, 0, 0, reg)
	s.tmgr = tier.New(ts, reg, tier.Config{Interval: o.background, TargetResidentBytes: o.tierTarget})
	tmgr := s.tmgr
	s.rmgr = recluster.New(rs, reg, recluster.Config{
		Interval: o.background,
		VictimFilter: func(shard int32, pid uint64) bool {
			return !tmgr.IsFrozen(int(shard), pid)
		},
	})
	bg, cancel := context.WithCancel(context.Background())
	s.stopBg = cancel
	go func() {
		defer close(s.bgDone)
		done := make(chan struct{})
		go func() { s.tmgr.Run(bg); close(done) }()
		s.rmgr.Run(bg)
		<-done
	}()

	for i := 0; i < o.conns; i++ {
		var st wire.Store = sh
		var ack wire.Acker = s.com
		if tr != nil {
			st = &tracedStore{sh, tr, i}
			ack = &tracedAcker{s.com, tr, i}
		}
		ws := wire.New(st, ack, wire.Config{Obs: reg})
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			s.close(false)
			return nil, 0, err
		}
		s.servers = append(s.servers, ws)
		s.addrs = append(s.addrs, ln.Addr().String())
		go ws.Serve(ln)
	}
	return s, replay, nil
}

// close drains the stack in the daemon's order — background loops,
// wire servers, committer, sync, optional checkpoint, close — and
// returns how long that took.
func (s *stack) close(checkpoint bool) (time.Duration, error) {
	start := time.Now()
	s.rmgr.Pause()
	s.tmgr.Pause()
	s.stopBg()
	<-s.bgDone
	s.rmgr.Close()
	s.tmgr.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, ws := range s.servers {
		ws.BeginDrain()
	}
	for _, ws := range s.servers {
		if err := ws.Shutdown(ctx); err != nil {
			return 0, fmt.Errorf("wire shutdown: %w", err)
		}
	}
	s.com.Stop()
	if err := s.sh.Sync(); err != nil {
		return 0, err
	}
	if checkpoint {
		if err := s.sh.Checkpoint(); err != nil {
			return 0, err
		}
	}
	if err := s.sh.Close(); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

func (s *stack) addr(conn int) string { return s.addrs[conn] }

func (s *stack) root(conn int, name string) func() {
	if s.tr == nil {
		return noSpan
	}
	return s.tr.root(conn, name)
}

func (s *stack) scrape() (counters, error) {
	var buf bytes.Buffer
	s.reg.WriteMetrics(&buf)
	return parseMetrics(&buf)
}

// tracedStore times the store calls a wire server makes for connection
// conn: the shard layer's apply and query spans.
type tracedStore struct {
	wire.Store
	tr   *tracer
	conn int
}

func (s *tracedStore) InsertEntity(e *entity.Entity) (id cinderella.ID, err error) {
	s.tr.child(s.conn, "shard.insert", 0, func() { id, err = s.Store.InsertEntity(e) })
	return
}

func (s *tracedStore) UpdateEntity(id cinderella.ID, e *entity.Entity) (ok bool, err error) {
	s.tr.child(s.conn, "shard.update", 0, func() { ok, err = s.Store.UpdateEntity(id, e) })
	return
}

func (s *tracedStore) Delete(id cinderella.ID) (ok bool, err error) {
	s.tr.child(s.conn, "shard.delete", 0, func() { ok, err = s.Store.Delete(id) })
	return
}

func (s *tracedStore) GetEntity(id cinderella.ID) (e *entity.Entity, ok bool) {
	s.tr.child(s.conn, "shard.get", 0, func() { e, ok = s.Store.GetEntity(id) })
	return
}

func (s *tracedStore) QueryEntities(attrs ...string) (recs []cinderella.EntityRecord) {
	s.tr.child(s.conn, "shard.query", 0, func() { recs = s.Store.QueryEntities(attrs...) })
	return
}

// tracedAcker times how long connection conn's batch waits for the
// group committer to make it durable.
type tracedAcker struct {
	wire.Acker
	tr   *tracer
	conn int
}

func (a *tracedAcker) Commit(ctx context.Context, lsn uint64) (err error) {
	a.tr.child(a.conn, "commit.wait", 0, func() { err = a.Acker.Commit(ctx, lsn) })
	return
}

// tracedSyncer times the committer's syncs; a span's N is the number
// of writes the sync made durable (its LSN advance).
type tracedSyncer struct {
	server.Syncer
	tr *tracer
}

func (s *tracedSyncer) SyncTo(lsn uint64) (err error) {
	var n int64
	if d := s.DurableLSN(); lsn > d {
		n = int64(lsn - d)
	}
	s.tr.child(-1, "wal.sync", n, func() { err = s.Syncer.SyncTo(lsn) })
	return
}

// tracedRecluster and tracedTier time the background loops' calls into
// the store.
type tracedRecluster struct {
	recluster.Store
	tr *tracer
}

func (r *tracedRecluster) ReclusterPartition(shard int, pid uint64, max int, b core.RatingBlender) (res table.ReclusterResult, err error) {
	r.tr.child(-1, "recluster.move", 0, func() { res, err = r.Store.ReclusterPartition(shard, pid, max, b) })
	return
}

type tracedTier struct {
	tier.Store
	tr *tracer
}

func (t *tracedTier) FreezePartition(shard int, pid uint64) (ok bool, err error) {
	t.tr.child(-1, "tier.freeze", 0, func() { ok, err = t.Store.FreezePartition(shard, pid) })
	return
}

func (t *tracedTier) ThawPartition(shard int, pid uint64) (ok bool, err error) {
	t.tr.child(-1, "tier.thaw", 0, func() { ok, err = t.Store.ThawPartition(shard, pid) })
	return
}
