// Package shard horizontally composes N independent Cinderella tables
// into one sharded write path. Entities are hash-routed by id, each shard
// owns its own table.Table + partitioner + lock + write-ahead log, so
// mutations on different shards proceed fully in parallel — the scale-out
// move for an online partitioner that must keep up with the ingest stream
// (paper Section III; cf. Schism's per-shard graph partitioning and
// H-Store-style single-threaded-per-shard execution).
//
// Durability is striped: one WAL per shard under dir/shard-<i>/, tied
// together by a manifest (dir/manifest.json) that commits the shard
// topology. A single global LSN clock spans all shards, so the existing
// group-commit machinery (internal/server.Committer) acknowledges writers
// across shards with one logical sync that fans out to the dirty shard
// WALs in parallel. Recovery replays all shards concurrently and refuses
// torn manifests, missing shard directories, and topology changes.
//
// All shards share one attribute dictionary, as the paper's universal
// table has one attribute catalog, so synopsis bits, stored records and
// wire ids all use the same attribute ids. There is no separate
// dictionary file: ahead of each record, a shard WAL registers every
// name the dictionary holds that the log has not registered yet, so each
// log holds a dense prefix of the one dictionary, every name before the
// first record that uses it, and replay rebuilds the dictionary from the
// longest prefix.
//
// Queries fan out to every shard through the per-shard parallel-select
// machinery and merge in deterministic (shard, partition-id) order;
// Partitions() concatenates per-shard synopses, so Definition-1
// EFFICIENCY accounting stays exact — a query's relevant and read volumes
// are per-partition sums, indifferent to which shard owns the partition.
package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cinderella"
	"cinderella/internal/core"
	"cinderella/internal/entity"
	"cinderella/internal/obs"
	"cinderella/internal/table"
)

// manifestVersion guards the on-disk layout. Version 2 shards share one
// attribute dictionary: each shard log's attribute ids are ids of that
// one dictionary. Version 1 logs hold per-shard ids and are refused;
// converting them would mean rewriting every stored record.
const manifestVersion = 2

// manifestName is the topology commit record inside the shard directory.
const manifestName = "manifest.json"

// walName is each shard's log file inside its shard-<i> directory.
const walName = "shard.wal"

// manifest is the cross-shard consistency record. It is written once at
// initialization (atomically, via tmp+rename) and verified on every
// reopen: a sharded table is only openable with the topology it was
// created with.
type manifest struct {
	Version int `json:"version"`
	Shards  int `json:"shards"`
}

// Options configures Open.
type Options struct {
	// Shards is the shard count N. Default 1. On reopen it must match the
	// manifest (resharding is not supported).
	Shards int
	// Config is the per-shard table configuration. Config.Obs, when set,
	// is the registry family root: each shard receives its ShardView so
	// counters aggregate exactly and trace events carry the shard id.
	Config cinderella.Config
}

// Sharded is a durable table horizontally partitioned across N
// independent shards, and the one store cinderellad serves for every N
// (N = 1 is one shard). Each shard is a *cinderella.DurableTable.
type Sharded struct {
	dir    string
	shards []*cinderella.DurableTable

	// nextID allocates globally unique entity ids; routing hashes the id,
	// so allocation and placement are decoupled and recovery re-seeds the
	// counter from the per-shard maxima.
	nextID atomic.Uint64

	// Global LSN clock. Each applied mutation bumps gAppend *after* its
	// shard append returned (same goroutine), so when a syncer snapshots
	// gAppend and then syncs every shard to its own current LastLSN, all
	// operations with global LSN <= the snapshot are covered. gDurable
	// only advances (max-CAS) to completed snapshots.
	gAppend  atomic.Uint64
	gDurable atomic.Uint64
	// syncMu serializes SyncTo/Sync/Checkpoint snapshots so gDurable
	// advances through consistent cuts.
	syncMu sync.Mutex

	// dict is the one attribute dictionary every shard's table uses (see
	// the package doc).
	dict *entity.Dictionary

	// obs is the registry family's root handle (shard views feed it);
	// fan-out queries start their root spans here. Nil when
	// uninstrumented.
	obs *obs.Registry
}

// Open opens (or creates) a sharded table rooted at dir. Existing shard
// logs are replayed concurrently; the manifest must agree with
// opts.Shards. Layout:
//
//	dir/manifest.json
//	dir/shard-0/shard.wal
//	dir/shard-1/shard.wal
//	...
//
// A regular file at dir (a cinderella.OpenFile log) is refused, not
// imported, and left untouched.
func Open(dir string, opts Options) (*Sharded, error) {
	n := opts.Shards
	if n == 0 {
		n = 1
	}
	if n < 0 {
		return nil, fmt.Errorf("shard: shard count %d must be positive", n)
	}
	if fi, err := os.Stat(dir); err == nil && !fi.IsDir() {
		return nil, fmt.Errorf("shard: %s is a file, not a store directory (want %s plus %s); a single-file WAL is not imported",
			dir, filepath.Join(dir, manifestName), filepath.Join(dir, "shard-<i>", walName))
	}

	m, err := readManifest(dir)
	switch {
	case errors.Is(err, os.ErrNotExist):
		// Fresh initialization — unless shard directories already exist,
		// which means a previous instance died between creating them and
		// committing the manifest (or the manifest was lost): refuse, the
		// operator must decide.
		if stale, serr := staleShardDirs(dir); serr != nil {
			return nil, serr
		} else if len(stale) > 0 {
			return nil, fmt.Errorf("shard: %s has no %s but existing shard directories %v; refusing to reinitialize over them", dir, manifestName, stale)
		}
		if err := initLayout(dir, n); err != nil {
			return nil, err
		}
	case err != nil:
		return nil, err
	default:
		if m.Version != manifestVersion {
			return nil, fmt.Errorf("shard: %s/%s has version %d, this binary supports %d", dir, manifestName, m.Version, manifestVersion)
		}
		if m.Shards != n {
			return nil, fmt.Errorf("shard: %s was created with %d shards, reopened with %d (resharding is not supported)", dir, m.Shards, n)
		}
	}

	s := &Sharded{
		dir:    dir,
		shards: make([]*cinderella.DurableTable, n),
		dict:   entity.NewDictionary(),
		obs:    opts.Config.Obs,
	}

	// Replay all shards concurrently into the shared dictionary. Each
	// shard log is a dense prefix of the one dictionary, so any
	// interleaving assigns every name the id it was logged under, and a
	// prefix that disagrees refuses the open. Each shard directory must
	// exist — a manifest promising a shard whose directory is gone is
	// corruption, not an empty shard.
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		cfg := opts.Config
		cfg.Dict = s.dict
		if opts.Config.Obs != nil {
			cfg.Obs = opts.Config.Obs.ShardView(i)
		}
		wg.Add(1)
		go func(i int, cfg cinderella.Config) {
			defer wg.Done()
			sd := shardDir(dir, i)
			if _, err := os.Stat(sd); err != nil {
				errs[i] = fmt.Errorf("shard: manifest names shard %d but its directory is unusable: %w", i, err)
				return
			}
			d, err := cinderella.OpenFile(filepath.Join(sd, walName), cfg)
			if err != nil {
				errs[i] = fmt.Errorf("shard %d: %w", i, err)
				return
			}
			s.shards[i] = d
		}(i, cfg)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		for _, d := range s.shards {
			if d != nil {
				d.Close()
			}
		}
		return nil, err
	}

	// Re-seed the global id allocator and LSN clock from the replayed
	// shards: ids resume above every recovered id, and the clock resumes
	// at the total number of recovered log records (any monotonic origin
	// works — pre-recovery LSNs are durable by construction).
	var maxID cinderella.ID
	var lsn uint64
	for _, d := range s.shards {
		if id := d.LastID(); id > maxID {
			maxID = id
		}
		lsn += d.LastLSN()
	}
	s.nextID.Store(uint64(maxID))
	s.gAppend.Store(lsn)
	s.gDurable.Store(lsn)
	return s, nil
}

func shardDir(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%d", i))
}

// readManifest loads and validates dir/manifest.json. A torn or otherwise
// unparsable manifest is an explicit error, never a silent fresh start.
func readManifest(dir string) (manifest, error) {
	var m manifest
	data, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		return m, err
	}
	if err := json.Unmarshal(data, &m); err != nil {
		return m, fmt.Errorf("shard: %s/%s is torn or corrupt: %w", dir, manifestName, err)
	}
	if m.Shards <= 0 {
		return m, fmt.Errorf("shard: %s/%s declares %d shards", dir, manifestName, m.Shards)
	}
	return m, nil
}

// staleShardDirs lists shard-* entries under dir (empty when dir does not
// exist).
func staleShardDirs(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		if e.IsDir() && len(e.Name()) > 6 && e.Name()[:6] == "shard-" {
			out = append(out, e.Name())
		}
	}
	return out, nil
}

// initLayout creates the shard directories first and commits the topology
// by atomically renaming the manifest into place last — the manifest is
// the commit point, so a crash mid-initialization leaves either nothing
// usable (no manifest) or a fully formed layout.
func initLayout(dir string, n int) error {
	for i := 0; i < n; i++ {
		if err := os.MkdirAll(shardDir(dir, i), 0o755); err != nil {
			return err
		}
	}
	data, err := json.Marshal(manifest{Version: manifestVersion, Shards: n})
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, manifestName+".tmp")
	if err := os.WriteFile(tmp, append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, filepath.Join(dir, manifestName))
}

// Shards returns the shard count.
func (s *Sharded) Shards() int { return len(s.shards) }

// route hashes an entity id onto a shard. Sequentially allocated ids are
// scattered by a splitmix64-style finalizer so adjacent ids land on
// different shards and concurrent ingest spreads across all locks.
func (s *Sharded) route(id cinderella.ID) int {
	x := uint64(id)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(len(s.shards)))
}

// Insert stores doc durably on its shard and returns its globally unique
// id.
func (s *Sharded) Insert(doc cinderella.Doc) (cinderella.ID, error) {
	id := cinderella.ID(s.nextID.Add(1))
	if err := s.shards[s.route(id)].InsertWithID(id, doc); err != nil {
		return 0, err
	}
	s.gAppend.Add(1)
	return id, nil
}

// Get returns the document with the given id.
func (s *Sharded) Get(id cinderella.ID) (cinderella.Doc, bool) {
	if id == 0 {
		return nil, false
	}
	return s.shards[s.route(id)].Get(id)
}

// Update replaces the document durably on its shard.
func (s *Sharded) Update(id cinderella.ID, doc cinderella.Doc) (bool, error) {
	if id == 0 {
		return false, nil
	}
	ok, err := s.shards[s.route(id)].Update(id, doc)
	if ok && err == nil {
		s.gAppend.Add(1)
	}
	return ok, err
}

// Delete removes the document durably from its shard.
func (s *Sharded) Delete(id cinderella.ID) (bool, error) {
	if id == 0 {
		return false, nil
	}
	ok, err := s.shards[s.route(id)].Delete(id)
	if ok && err == nil {
		s.gAppend.Add(1)
	}
	return ok, err
}

// Dict returns the dictionary all shards share. Entities passed to
// InsertEntity/UpdateEntity and returned by GetEntity/QueryEntities use
// its ids; the shard tables refuse ids it has not assigned.
func (s *Sharded) Dict() *entity.Dictionary { return s.dict }

// ReclusterPartition delegates one victim-partition batch to the
// owning shard's durable table (heat rows carry the shard id, so the
// reclusterer addresses victims as (shard, partition) pairs). The
// blender should come from this shard's query mix, since heat is per
// shard. Each logged move advances the global LSN clock so the group
// committer covers recluster writes like any other mutation.
func (s *Sharded) ReclusterPartition(shard int, pid uint64, max int, blender core.RatingBlender) (table.ReclusterResult, error) {
	if shard < 0 || shard >= len(s.shards) {
		return table.ReclusterResult{}, fmt.Errorf("shard: recluster on unknown shard %d of %d", shard, len(s.shards))
	}
	res, err := s.shards[shard].ReclusterPartition(pid, max, blender)
	if res.Moved > 0 {
		s.gAppend.Add(uint64(res.Moved))
	}
	return res, err
}

// InsertEntity stores a pre-built entity durably on its shard and
// returns its globally unique id. An entity using an id the dictionary
// has not assigned fails without applying anything.
func (s *Sharded) InsertEntity(e *entity.Entity) (cinderella.ID, error) {
	id := cinderella.ID(s.nextID.Add(1))
	if err := s.shards[s.route(id)].InsertEntityWithID(id, e); err != nil {
		return 0, err
	}
	s.gAppend.Add(1)
	return id, nil
}

// UpdateEntity replaces a document durably with a pre-built entity (see
// InsertEntity).
func (s *Sharded) UpdateEntity(id cinderella.ID, e *entity.Entity) (bool, error) {
	if id == 0 {
		return false, nil
	}
	ok, err := s.shards[s.route(id)].UpdateEntity(id, e)
	if ok && err == nil {
		s.gAppend.Add(1)
	}
	return ok, err
}

// GetEntity returns the entity with the given id. The entity is a fresh
// decode owned by the caller.
func (s *Sharded) GetEntity(id cinderella.ID) (*entity.Entity, bool) {
	if id == 0 {
		return nil, false
	}
	return s.shards[s.route(id)].GetEntity(id)
}

// QueryEntities fans out like Query but keeps the decoded entities. The
// entities are fresh per-query decodes owned by the caller.
func (s *Sharded) QueryEntities(attrs ...string) []cinderella.EntityRecord {
	sp, children, start := s.startFan(obs.KindSelect, attrs)
	out := s.queryEntitiesSpanned(children, attrs...)
	s.finishFan(sp, start)
	return out
}

// QueryEntitiesTraced is QueryEntities under a forced trace (sampling
// bypassed, full detail): the wire protocol's trace flag. The root span
// holds one child per shard, merged in shard order; nil when
// uninstrumented.
func (s *Sharded) QueryEntitiesTraced(attrs ...string) ([]cinderella.EntityRecord, *obs.QuerySpan) {
	sp := s.obs.StartQueryForced(obs.KindSelect)
	sp, children, start := s.fanChildren(sp, attrs)
	out := s.queryEntitiesSpanned(children, attrs...)
	s.finishFan(sp, start)
	return out, sp
}

func (s *Sharded) queryEntitiesSpanned(children []*obs.QuerySpan, attrs ...string) []cinderella.EntityRecord {
	per := fanOut(s.shards, func(i int, d *cinderella.DurableTable) []cinderella.EntityRecord {
		return d.QueryEntitiesSpanned(children[i], attrs...)
	})
	var out []cinderella.EntityRecord
	for _, r := range per {
		out = append(out, r...)
	}
	return out
}

// Len returns the number of live documents across all shards.
func (s *Sharded) Len() int {
	n := 0
	for _, d := range s.shards {
		n += d.Len()
	}
	return n
}

// LastID returns the highest entity id ever assigned.
func (s *Sharded) LastID() cinderella.ID {
	return cinderella.ID(s.nextID.Load())
}

// Query fans out to every shard concurrently (each shard runs its own
// pruned, parallel select) and concatenates the results in shard order.
// Per-shard results are partition-id ordered, so the merged order is the
// deterministic (shard, pid) order.
func (s *Sharded) Query(attrs ...string) []cinderella.Record {
	sp, children, start := s.startFan(obs.KindSelect, attrs)
	per := fanOut(s.shards, func(i int, d *cinderella.DurableTable) []cinderella.Record {
		return d.QuerySpanned(children[i], attrs...)
	})
	s.finishFan(sp, start)
	var out []cinderella.Record
	for _, r := range per {
		out = append(out, r...)
	}
	return out
}

// QueryWithReport runs Query and sums the per-shard execution reports.
// Because partition synopses are exact per shard and EFFICIENCY
// (Definition 1) is a ratio of per-partition sums, the summed report's
// EntitiesReturned/EntitiesScanned are exactly the fan-out query's
// relevant and read volumes — sharding never skews the accounting.
func (s *Sharded) QueryWithReport(attrs ...string) ([]cinderella.Record, cinderella.QueryReport) {
	sp, children, start := s.startFan(obs.KindSelect, attrs)
	recs, rep := s.queryWithReportSpanned(children, attrs...)
	s.finishFan(sp, start)
	return recs, rep
}

// QueryTraced is QueryWithReport under a forced trace (sampling
// bypassed, full detail): the server's ?trace=1. The root span holds
// one child per shard, merged in shard order; nil when uninstrumented.
func (s *Sharded) QueryTraced(attrs ...string) ([]cinderella.Record, cinderella.QueryReport, *obs.QuerySpan) {
	sp := s.obs.StartQueryForced(obs.KindSelect)
	sp, children, start := s.fanChildren(sp, attrs)
	recs, rep := s.queryWithReportSpanned(children, attrs...)
	s.finishFan(sp, start)
	return recs, rep, sp
}

func (s *Sharded) queryWithReportSpanned(children []*obs.QuerySpan, attrs ...string) ([]cinderella.Record, cinderella.QueryReport) {
	type shardResult struct {
		recs []cinderella.Record
		rep  cinderella.QueryReport
	}
	per := fanOut(s.shards, func(i int, d *cinderella.DurableTable) shardResult {
		recs, rep := d.QueryWithReportSpanned(children[i], attrs...)
		return shardResult{recs, rep}
	})
	var out []cinderella.Record
	var rep cinderella.QueryReport
	for _, r := range per {
		out = append(out, r.recs...)
		rep.PartitionsTotal += r.rep.PartitionsTotal
		rep.PartitionsTouched += r.rep.PartitionsTouched
		rep.PartitionsPruned += r.rep.PartitionsPruned
		rep.EntitiesScanned += r.rep.EntitiesScanned
		rep.EntitiesReturned += r.rep.EntitiesReturned
		rep.BytesRead += r.rep.BytesRead
		rep.BytesRelevant += r.rep.BytesRelevant
	}
	return out, rep
}

// ScanAll fans the full scan out to every shard concurrently and
// concatenates the per-shard results in shard order. Each shard scans a
// lock-free snapshot, so a full scan never stalls the sharded write path.
func (s *Sharded) ScanAll() []cinderella.Record {
	sp, children, start := s.startFan(obs.KindScanAll, nil)
	per := fanOut(s.shards, func(i int, d *cinderella.DurableTable) []cinderella.Record {
		return d.ScanAllSpanned(children[i])
	})
	s.finishFan(sp, start)
	var out []cinderella.Record
	for _, r := range per {
		out = append(out, r...)
	}
	return out
}

// Partitions concatenates the per-shard partition synopses in shard
// order; each shard's slice is partition-id ordered, so the result is the
// same deterministic (shard, pid) order queries merge in.
func (s *Sharded) Partitions() []cinderella.PartitionStat {
	per := fanOut(s.shards, func(_ int, d *cinderella.DurableTable) []cinderella.PartitionStat {
		return d.Partitions()
	})
	var out []cinderella.PartitionStat
	for _, p := range per {
		out = append(out, p...)
	}
	return out
}

// fanOut runs fn against every shard concurrently and returns the results
// in shard order.
func fanOut[T any](shards []*cinderella.DurableTable, fn func(int, *cinderella.DurableTable) T) []T {
	out := make([]T, len(shards))
	var wg sync.WaitGroup
	for i, d := range shards {
		wg.Add(1)
		go func(i int, d *cinderella.DurableTable) {
			defer wg.Done()
			out[i] = fn(i, d)
		}(i, d)
	}
	wg.Wait()
	return out
}

// startFan begins a (possibly nil) sampled root span for a fan-out query
// and one child per shard. See fanChildren.
func (s *Sharded) startFan(kind obs.SpanKind, attrs []string) (*obs.QuerySpan, []*obs.QuerySpan, time.Time) {
	return s.fanChildren(s.obs.StartQuery(kind), attrs)
}

// fanChildren attaches one child span per shard to the root sp. Children
// are created serially, in shard order, *before* the goroutine fan-out:
// each goroutine then writes only its own child, and the wg.Wait barrier
// publishes them back, so the merged span tree is deterministic (shard
// order) without any locking. A nil sp yields a slice of nil children —
// every downstream spanned call tolerates nil.
func (s *Sharded) fanChildren(sp *obs.QuerySpan, attrs []string) (*obs.QuerySpan, []*obs.QuerySpan, time.Time) {
	children := make([]*obs.QuerySpan, len(s.shards))
	if sp == nil {
		return nil, children, time.Time{}
	}
	if sp.WantDetail() {
		if attrs == nil {
			sp.SetQuery("scan-all")
		} else {
			sp.SetQuery("select(" + strings.Join(attrs, ",") + ")")
		}
	}
	for i := range s.shards {
		children[i] = sp.NewChild(int32(i))
	}
	return sp, children, time.Now()
}

// finishFan completes the root span: FinishQuery sums the per-shard
// children into the root aggregates. Heat was already fed by each
// shard's own FinishQuery (children carry the shard id), so the root
// passes no part spans.
func (s *Sharded) finishFan(sp *obs.QuerySpan, start time.Time) {
	if sp == nil {
		return
	}
	s.obs.FinishQuery(sp, time.Since(start).Nanoseconds(), obs.QueryAgg{}, nil)
}

// Compact merges underfilled partitions on every shard and returns the
// total number of merges.
func (s *Sharded) Compact(threshold float64) (int, error) {
	total := 0
	for _, d := range s.shards {
		n, err := d.Compact(threshold)
		if err != nil {
			return total, err
		}
		if n > 0 {
			s.gAppend.Add(1)
		}
		total += n
	}
	return total, nil
}

// LastLSN returns the global log sequence number of the most recent
// applied mutation. A writer that just mutated the table passes it to
// SyncTo (or a group committer) to wait for exactly that much history to
// become durable.
func (s *Sharded) LastLSN() uint64 { return s.gAppend.Load() }

// DurableLSN returns the highest global LSN known durable.
func (s *Sharded) DurableLSN() uint64 { return s.gDurable.Load() }

// SyncTo makes every mutation with global LSN <= lsn durable by syncing
// the shards' WALs in parallel (a vector sync). Like DurableTable's
// SyncTo it coalesces: a snapshot that already covered lsn returns
// without touching any file, so one group-commit flush acknowledges
// concurrent writers across all shards.
func (s *Sharded) SyncTo(lsn uint64) error {
	if s.gDurable.Load() >= lsn {
		return nil
	}
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	if s.gDurable.Load() >= lsn {
		return nil
	}
	// Every op counted in this snapshot finished its shard append before
	// bumping gAppend, so syncing each shard to its current LastLSN covers
	// the whole snapshot.
	snap := s.gAppend.Load()
	if err := s.syncShards(); err != nil {
		return err
	}
	maxStore(&s.gDurable, snap)
	return nil
}

// Sync makes all applied mutations durable across all shards.
func (s *Sharded) Sync() error {
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	snap := s.gAppend.Load()
	if err := s.syncShards(); err != nil {
		return err
	}
	maxStore(&s.gDurable, snap)
	return nil
}

// syncShards fsyncs every shard WAL concurrently. Callers hold syncMu.
func (s *Sharded) syncShards() error {
	errs := fanOut(s.shards, func(_ int, d *cinderella.DurableTable) error {
		return d.SyncTo(d.LastLSN())
	})
	return errors.Join(errs...)
}

// Checkpoint compacts every shard's log to its live contents. The
// manifest is untouched — checkpointing changes log contents, not
// topology.
func (s *Sharded) Checkpoint() error {
	s.syncMu.Lock()
	defer s.syncMu.Unlock()
	snap := s.gAppend.Load()
	errs := fanOut(s.shards, func(_ int, d *cinderella.DurableTable) error {
		return d.Checkpoint()
	})
	if err := errors.Join(errs...); err != nil {
		return err
	}
	maxStore(&s.gDurable, snap)
	return nil
}

// Close syncs and closes every shard log. Idempotent per shard (the
// underlying tables' Close is a no-op the second time).
func (s *Sharded) Close() error {
	errs := fanOut(s.shards, func(_ int, d *cinderella.DurableTable) error {
		return d.Close()
	})
	return errors.Join(errs...)
}

// maxStore advances a monotonic atomic to at least v.
func maxStore(a *atomic.Uint64, v uint64) {
	for {
		cur := a.Load()
		if cur >= v || a.CompareAndSwap(cur, v) {
			return
		}
	}
}
