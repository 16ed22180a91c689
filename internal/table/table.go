// Package table implements the Cinderella-partitioned universal table: it
// binds a placement strategy (package core) to per-partition heap
// segments (package storage) and serves attribute-set queries with
// synopsis-based partition pruning — the query rewrite to a UNION ALL
// over relevant partitions that the paper's prototype performed in
// PostgreSQL.
package table

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cinderella/internal/core"
	"cinderella/internal/entity"
	"cinderella/internal/obs"
	"cinderella/internal/storage"
	"cinderella/internal/synopsis"
)

// Synopsizer derives the partitioning synopsis of an entity. Entity-based
// partitioning uses the attribute set; workload-based partitioning uses
// the set of queries the entity is relevant to (Section III).
type Synopsizer interface {
	Synopsis(e *entity.Entity) *synopsis.Set
}

// EntityBased is the default Synopsizer: an entity's synopsis is its
// attribute set.
type EntityBased struct{}

// Synopsis returns the entity's attribute bitset.
func (EntityBased) Synopsis(e *entity.Entity) *synopsis.Set { return e.Synopsis() }

// WorkloadBased maps entities to the set of workload queries they are
// relevant to. Entities relevant to the same queries then cluster
// together regardless of their concrete attributes.
type WorkloadBased struct {
	// Queries are the workload's query synopses; bit i of an entity
	// synopsis is set iff the entity is relevant to Queries[i].
	Queries []*synopsis.Set
}

// Synopsis returns the query-relevance bitset of e.
func (w WorkloadBased) Synopsis(e *entity.Entity) *synopsis.Set {
	s := synopsis.New(len(w.Queries))
	es := e.Synopsis()
	for i, q := range w.Queries {
		if synopsis.Intersects(es, q) {
			s.Add(i)
		}
	}
	return s
}

// Config assembles a universal table.
type Config struct {
	// Partitioner decides placement. Defaults to Cinderella with
	// w = 0.5, B = 5000 entities.
	Partitioner core.Assigner
	// Dict is the shared attribute dictionary. Defaults to a fresh one.
	Dict *entity.Dictionary
	// Stats receives the I/O accounting of all segments. Defaults to a
	// private counter.
	Stats *storage.Stats
	// Synopsizer derives partitioning synopses. Defaults to EntityBased.
	Synopsizer Synopsizer
	// Cache, when non-nil, routes all page accesses through a shared
	// buffer cache for locality measurements.
	Cache *storage.BufferCache
	// Parallelism bounds the worker pool used to scan non-pruned
	// partitions in Select/SelectWhere. 0 (default) means GOMAXPROCS;
	// 1 (or negative) opts out and scans serially. Results and
	// QueryReport counters are identical either way: per-worker buffers
	// are merged back in partition-id order.
	Parallelism int
	// Obs, when non-nil, receives live telemetry: operation counters,
	// latency histograms, the streaming EFFICIENCY estimator, and (for
	// partitioners that support it) decision trace events. Nil leaves
	// the table uninstrumented at nil-check cost only.
	Obs *obs.Registry
}

type rowLoc struct {
	pid core.PartitionID
	rid storage.RecordID
}

// Table is a universal table over irregularly structured entities,
// horizontally partitioned by the configured strategy. It is safe for
// concurrent use: mutations serialize behind the write lock, while the
// scan-shaped queries (Select*, SelectWhere, ScanAll) run lock-free
// against published partition snapshots (see snapshot.go) — readers
// never block writers and writers never block readers. Point reads and
// the introspection accessors share the read lock.
type Table struct {
	mu       sync.RWMutex
	dict     *entity.Dictionary
	assigner core.Assigner
	synizer  Synopsizer
	stats    *storage.Stats

	// parallelism is the worker bound for partition scans (resolved from
	// Config.Parallelism in New and fixed from then on; 1 = serial).
	parallelism int

	// obsv holds the optional telemetry registry. Atomic so lock-free
	// snapshot readers and SetObserver need no lock ordering between
	// them; a nil registry is a no-op at every call site.
	obsv atomic.Pointer[obs.Registry]

	cache *storage.BufferCache

	segs map[core.PartitionID]*storage.Segment
	// cold holds the frozen partitions (see tier.go): a partition lives
	// in exactly one of segs and cold. Frozen partitions keep their
	// pruning synopsis and presence matrix hot; mutations transparently
	// thaw through seg().
	cold map[core.PartitionID]*storage.ColdSegment
	rows map[core.EntityID]rowLoc

	// Snapshot publication state (see snapshot.go). handles/dirty/
	// dirChanged are writer-private under mu; dir and snapSeq are the
	// reader-facing atomics; epoch counts publications.
	dir        atomic.Pointer[partDir]
	handles    map[core.PartitionID]*partHandle
	dirty      map[core.PartitionID]struct{}
	dirChanged bool
	snapSeq    atomic.Uint64
	epoch      atomic.Uint64

	nextID core.EntityID

	// in-flight insert/update state consumed by the move listener
	pending      []byte
	pendingID    core.EntityID
	pendingAttrs *synopsis.Set
	pendingDone  bool

	// dissolving counts the records moved out of each partition a split
	// or merge is dissolving (see onPlacement). Writer-private under mu.
	dissolving map[core.PartitionID]int
	// moveAttrs is onPlacement's scratch for a moved record's attribute
	// set, read from its source segment's presence matrix.
	moveAttrs *synopsis.Set

	// qmu guards queries: query counters are updated by lock-free
	// readers, so they need their own mutex.
	qmu     sync.Mutex
	queries QueryStats

	// Tier transition counters (see tier.go).
	tierFreezes atomic.Int64
	tierThaws   atomic.Int64
}

// QueryStats aggregates query-side counters.
type QueryStats struct {
	Queries           int64
	PartitionsTouched int64
	PartitionsPruned  int64
	EntitiesReturned  int64
	EntitiesScanned   int64
}

// New builds a table from cfg.
func New(cfg Config) *Table {
	if cfg.Partitioner == nil {
		cfg.Partitioner = core.NewCinderella(core.Config{Weight: 0.5, MaxSize: 5000})
	}
	if cfg.Dict == nil {
		cfg.Dict = entity.NewDictionary()
	}
	if cfg.Stats == nil {
		cfg.Stats = &storage.Stats{}
	}
	if cfg.Synopsizer == nil {
		cfg.Synopsizer = EntityBased{}
	}
	par := cfg.Parallelism
	if par == 0 {
		par = runtime.GOMAXPROCS(0)
	}
	if par < 1 {
		par = 1
	}
	t := &Table{
		dict:       cfg.Dict,
		assigner:   cfg.Partitioner,
		synizer:    cfg.Synopsizer,
		stats:      cfg.Stats,
		cache:      cfg.Cache,
		segs:       make(map[core.PartitionID]*storage.Segment),
		cold:       make(map[core.PartitionID]*storage.ColdSegment),
		rows:       make(map[core.EntityID]rowLoc),
		handles:    make(map[core.PartitionID]*partHandle),
		dirty:      make(map[core.PartitionID]struct{}),
		dissolving: make(map[core.PartitionID]int),
		moveAttrs:  synopsis.New(0),
	}
	t.dir.Store(&partDir{})
	t.parallelism = par
	t.assigner.SetMoveListener(t.onPlacement)
	if cfg.Obs != nil {
		t.setObserverLocked(cfg.Obs)
	}
	return t
}

// observer returns the current telemetry registry (nil when detached).
func (t *Table) observer() *obs.Registry { return t.obsv.Load() }

// observable is implemented by partitioners that emit telemetry
// themselves (core.Cinderella); baselines simply lack the method.
type observable interface {
	SetObserver(*obs.Registry)
}

// SetObserver attaches (or detaches, with nil) a telemetry registry to a
// live table, propagating it to the partitioner when supported.
func (t *Table) SetObserver(r *obs.Registry) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.setObserverLocked(r)
}

func (t *Table) setObserverLocked(r *obs.Registry) {
	t.obsv.Store(r)
	if o, ok := t.assigner.(observable); ok {
		o.SetObserver(r)
	}
	r.SetGauge(obs.GPartitions, t.numPartsLocked())
	r.SetGauge(obs.GSnapshotEpoch, int64(t.epoch.Load()))
}

// numPartsLocked counts partitions across both tiers. Callers hold mu.
func (t *Table) numPartsLocked() int64 {
	return int64(len(t.segs) + len(t.cold))
}

// Dict returns the table's attribute dictionary.
func (t *Table) Dict() *entity.Dictionary { return t.dict }

// Stats returns the I/O counter shared by all segments.
func (t *Table) Stats() *storage.Stats { return t.stats }

// QueryStats returns a copy of the query counters.
func (t *Table) QueryStats() QueryStats {
	t.qmu.Lock()
	defer t.qmu.Unlock()
	return t.queries
}

// noteQuery folds one query's counters into the table-wide totals and,
// when instrumented, into the telemetry registry (including the
// streaming EFFICIENCY estimator: EntitiesReturned is Definition 1's
// per-query numerator, EntitiesScanned its denominator — see
// obs.Registry.NoteQuery). Callers may hold no lock at all (snapshot
// reads): the query counters have their own mutex and the registry is
// atomic throughout.
func (t *Table) noteQuery(rep QueryReport, ns int64) {
	t.qmu.Lock()
	t.queries.Queries++
	t.queries.PartitionsTouched += int64(rep.PartitionsTouched)
	t.queries.PartitionsPruned += int64(rep.PartitionsPruned)
	t.queries.EntitiesReturned += int64(rep.EntitiesReturned)
	t.queries.EntitiesScanned += int64(rep.EntitiesScanned)
	t.qmu.Unlock()
	t.observer().NoteQuery(int64(rep.PartitionsTouched), int64(rep.PartitionsPruned),
		int64(rep.EntitiesReturned), int64(rep.EntitiesScanned),
		rep.BytesRelevant, rep.BytesRead, ns)
}

// obsStart returns the wall clock for latency accounting, or the zero
// time when uninstrumented (skipping the clock read on the hot path).
func (t *Table) obsStart() time.Time {
	if t.observer() == nil {
		return time.Time{}
	}
	return time.Now()
}

// lapNs converts a queryStart time into elapsed nanoseconds (0 when
// uninstrumented; the registry is nil then and drops it anyway).
func lapNs(start time.Time) int64 {
	if start.IsZero() {
		return 0
	}
	return time.Since(start).Nanoseconds()
}

// onPlacement reacts to the partitioner's placement stream (see
// core.Placement for its kinds):
//
//   - The in-flight record's placement writes t.pending into its
//     partition.
//   - A dissolution opens a split or merge of pl.From. Each member then
//     moves out with one placement: its record and its attribute set are
//     read in place (the set from the source's presence matrix) and
//     appended to the target — no copy, no delete, no decode. The
//     source needs no copy-on-write per moved record because it is
//     dropped whole inside the same mutation, so no snapshot ever sees
//     it half emptied.
//   - A drop removes pl.From's segment whole (see drop).
func (t *Table) onPlacement(pl core.Placement) {
	switch {
	case pl.Dissolve:
		t.dissolving[pl.From] = 0
		return
	case pl.Entity == 0:
		t.drop(pl.From)
		return
	}

	var rec []byte
	var attrs *synopsis.Set
	if pl.Entity == t.pendingID && !t.pendingDone {
		// First physical placement of the in-flight record.
		rec, attrs = t.pending, t.pendingAttrs
		t.pendingDone = true
	} else {
		loc := t.rows[pl.Entity]
		moved, ok := t.dissolving[loc.pid]
		if !ok || loc.pid != pl.From {
			panic(fmt.Sprintf("table: move of entity %d out of partition %d, which is not dissolving", pl.Entity, pl.From))
		}
		src := t.seg(loc.pid)
		b, err := src.Read(loc.rid)
		if err != nil {
			panic(fmt.Sprintf("table: moving entity %d: %v", pl.Entity, err))
		}
		rec, attrs = b, src.Attrs(loc.rid, t.moveAttrs)
		t.dissolving[loc.pid] = moved + 1
	}

	rid, err := t.seg(pl.To).InsertTagged(rec, attrs)
	if err != nil {
		panic(fmt.Sprintf("table: inserting entity %d into partition %d: %v", pl.Entity, pl.To, err))
	}
	t.rows[pl.Entity] = rowLoc{pid: pl.To, rid: rid}
	t.markDirty(pl.To)
}

// drop removes a partition the partitioner dropped. A dissolved
// partition still holds every record it had — each was appended to its
// new partition — so it must hold exactly as many as moved out; any
// other partition must be empty. Anything else would lose data.
func (t *Table) drop(pid core.PartitionID) {
	moved := t.dissolving[pid]
	delete(t.dissolving, pid)
	if seg := t.segs[pid]; seg != nil {
		if seg.NumRecords() != moved {
			panic(fmt.Sprintf("table: partitioner dropped partition %d holding %d records, %d moved out", pid, seg.NumRecords(), moved))
		}
		seg.DropFromCache()
	}
	if cs := t.cold[pid]; cs != nil {
		// Unreachable in practice: removals and moves reach a frozen
		// partition through seg(), which thaws it first.
		if cs.NumRecords() != moved {
			panic(fmt.Sprintf("table: partitioner dropped frozen partition %d holding %d records, %d moved out", pid, cs.NumRecords(), moved))
		}
		cs.DropFromCache()
		delete(t.cold, pid)
	}
	delete(t.segs, pid)
	t.markDirty(pid)
	t.dirChanged = true
}

// seg returns pid's hot segment for a mutation, creating it when the
// partition is new — and transparently thawing it first when the
// partition is frozen: every write path (insert placement, delete,
// update, recluster move) reaches the segment through here, so the cold
// tier never sees a mutation. Callers hold the write lock.
func (t *Table) seg(pid core.PartitionID) *storage.Segment {
	s, ok := t.segs[pid]
	if !ok {
		if cs, frozen := t.cold[pid]; frozen {
			return t.thawLocked(pid, cs)
		}
		s = storage.NewSegment(t.stats)
		if t.cache != nil {
			s.AttachCache(t.cache)
		}
		t.segs[pid] = s
		t.markDirty(pid)
		t.dirChanged = true
	}
	return s
}

// Insert stores e and returns its entity id. The entity is not retained;
// callers may reuse it.
func (t *Table) Insert(e *entity.Entity) core.EntityID {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.beginMut()
	defer t.endMut()
	t.nextID++
	id := t.nextID
	t.insertLocked(id, e)
	return id
}

// InsertWithID stores e under a caller-chosen id; used by write-ahead-log
// replay and checkpoint loading, where ids must survive recovery. It
// panics if id is zero or already live.
func (t *Table) InsertWithID(id core.EntityID, e *entity.Entity) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.beginMut()
	defer t.endMut()
	if id == 0 {
		panic("table: InsertWithID with id 0")
	}
	if _, dup := t.rows[id]; dup {
		panic(fmt.Sprintf("table: InsertWithID duplicate id %d", id))
	}
	if id > t.nextID {
		t.nextID = id
	}
	t.insertLocked(id, e)
}

// LastID returns the highest entity id ever assigned or inserted (0 when
// the table never held an entity). Sharded recovery seeds its global id
// allocator from the per-shard maxima.
func (t *Table) LastID() core.EntityID {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.nextID
}

func (t *Table) insertLocked(id core.EntityID, e *entity.Entity) {
	start := t.obsStart()
	t.beginOp(id, e)
	t.assigner.Insert(core.Entity{ID: id, Syn: t.synizer.Synopsis(e), Size: e.Size()})
	t.endOp(id)
	if r := t.observer(); r != nil {
		r.Observe(obs.HInsertNs, lapNs(start))
		r.SetGauge(obs.GPartitions, t.numPartsLocked())
	}
}

// encodeRecord prefixes the marshaled entity with its id so scans can
// recover identity without a side index.
func encodeRecord(id core.EntityID, e *entity.Entity) []byte {
	rec := binary.AppendUvarint(nil, uint64(id))
	return e.Marshal(rec)
}

// decodeRecord splits a stored record into entity id and entity.
func decodeRecord(rec []byte) (core.EntityID, *entity.Entity, error) {
	id, n := binary.Uvarint(rec)
	if n <= 0 {
		return 0, nil, fmt.Errorf("table: corrupt record id")
	}
	e, _, err := entity.Unmarshal(rec[n:])
	return core.EntityID(id), e, err
}

// beginOp stages the record bytes and attribute set for the placement
// listener. The segment transposes the set into its presence matrix and
// keeps no reference to it.
func (t *Table) beginOp(id core.EntityID, e *entity.Entity) {
	t.pending = encodeRecord(id, e)
	t.pendingID = id
	t.pendingAttrs = e.Synopsis()
	t.pendingDone = false
}

// endOp verifies the in-flight record was placed.
func (t *Table) endOp(id core.EntityID) {
	if !t.pendingDone {
		panic(fmt.Sprintf("table: entity %d was never placed", id))
	}
	t.pending, t.pendingID, t.pendingAttrs = nil, 0, nil
}

// Get returns a copy of the entity with the given id.
func (t *Table) Get(id core.EntityID) (*entity.Entity, bool) {
	t.mu.RLock()
	defer t.mu.RUnlock()
	loc, ok := t.rows[id]
	if !ok {
		return nil, false
	}
	var rec []byte
	var err error
	if seg, hot := t.segs[loc.pid]; hot {
		rec, err = seg.Read(loc.rid)
	} else if cs, frozen := t.cold[loc.pid]; frozen {
		// Point read from the cold tier: decompress the record's block,
		// admit the page into the buffer cache, leave the tier frozen.
		rec, err = cs.Read(loc.rid)
	} else {
		panic(fmt.Sprintf("table: entity %d points at missing partition %d", id, loc.pid))
	}
	if err != nil {
		return nil, false
	}
	gotID, e, err := decodeRecord(rec)
	if err != nil || gotID != id {
		panic(fmt.Sprintf("table: corrupt record for entity %d: %v", id, err))
	}
	return e, true
}

// Delete removes the entity. Unknown ids return false.
func (t *Table) Delete(id core.EntityID) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.beginMut()
	defer t.endMut()
	loc, ok := t.rows[id]
	if !ok {
		return false
	}
	if err := t.seg(loc.pid).Delete(loc.rid); err != nil {
		panic(fmt.Sprintf("table: deleting entity %d: %v", id, err))
	}
	t.markDirty(loc.pid)
	delete(t.rows, id)
	t.assigner.Delete(id)
	t.observer().SetGauge(obs.GPartitions, t.numPartsLocked())
	return true
}

// Update replaces the entity's content; the partitioner may move it.
func (t *Table) Update(id core.EntityID, e *entity.Entity) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.beginMut()
	defer t.endMut()
	loc, ok := t.rows[id]
	if !ok {
		return false
	}
	t.replace(id, loc, e, nil)
	return true
}

// replace is the one update discipline, behind Update and
// ReclusterEntity: delete the entity's old physical record at loc,
// re-rate e through the partitioner — with blender, when non-nil,
// blended into the rating (the assigner is then a *core.Cinderella) —
// and let the placement listener write the new record; when the
// partitioner keeps the entity, no placement event fires and the new
// bytes go into the same partition here. It returns the entity's
// partition afterwards. Callers hold the write lock inside a mutation
// bracket.
func (t *Table) replace(id core.EntityID, loc rowLoc, e *entity.Entity, blender core.RatingBlender) core.PartitionID {
	if err := t.seg(loc.pid).Delete(loc.rid); err != nil {
		panic(fmt.Sprintf("table: replacing entity %d: %v", id, err))
	}
	t.markDirty(loc.pid)
	delete(t.rows, id)

	t.beginOp(id, e)
	if blender != nil {
		c := t.assigner.(*core.Cinderella)
		c.SetRatingBlender(blender)
		defer c.SetRatingBlender(nil)
	}
	pid := t.assigner.Update(core.Entity{ID: id, Syn: t.synizer.Synopsis(e), Size: e.Size()})
	if !t.pendingDone {
		rid, err := t.seg(pid).InsertTagged(t.pending, t.pendingAttrs)
		if err != nil {
			panic(fmt.Sprintf("table: rewriting entity %d: %v", id, err))
		}
		t.rows[id] = rowLoc{pid: pid, rid: rid}
		t.markDirty(pid)
		t.pendingDone = true
	}
	t.endOp(id)
	t.observer().SetGauge(obs.GPartitions, t.numPartsLocked())
	return pid
}

// Compact asks the partitioner to merge underfilled partitions (fill
// fraction below threshold) into well-fitting peers, physically moving
// the affected records. It returns the number of merges; partitioners
// without merge support return 0.
func (t *Table) Compact(threshold float64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.beginMut()
	defer t.endMut()
	c, ok := t.assigner.(*core.Cinderella)
	if !ok {
		return 0
	}
	n := c.Compact(threshold)
	t.observer().SetGauge(obs.GPartitions, t.numPartsLocked())
	return n
}

// Vacuum rewrites every segment without tombstones, reclaiming the space
// left by deletes and updates (which tombstone the old record). It
// returns the number of pages released.
func (t *Table) Vacuum() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.beginMut()
	defer t.endMut()
	released := 0
	remaps := make(map[core.PartitionID]map[storage.RecordID]storage.RecordID, len(t.segs))
	for pid, seg := range t.segs {
		before := seg.NumPages()
		remaps[pid] = seg.Vacuum()
		released += before - seg.NumPages()
		t.markDirty(pid)
	}
	t.remapRows(remaps)
	return released
}

// remapRows moves the row index onto the record ids vacuumed partitions
// got (old → new per partition), in one pass over the rows.
func (t *Table) remapRows(remaps map[core.PartitionID]map[storage.RecordID]storage.RecordID) {
	for id, loc := range t.rows {
		remap, vacuumed := remaps[loc.pid]
		if !vacuumed {
			continue
		}
		nid, ok := remap[loc.rid]
		if !ok {
			panic(fmt.Sprintf("table: entity %d lost while vacuuming partition %d", id, loc.pid))
		}
		t.rows[id] = rowLoc{pid: loc.pid, rid: nid}
	}
}

// Len returns the number of live entities.
func (t *Table) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.rows)
}

// NumPartitions returns the partition count across both tiers.
func (t *Table) NumPartitions() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return len(t.segs) + len(t.cold)
}

// PartitionView describes one partition for metrics and reporting.
type PartitionView struct {
	ID       core.PartitionID
	Synopsis *synopsis.Set // attribute synopsis (snapshot at call time)
	Entities int
	Bytes    int64
	Pages    int
	// Cold marks a frozen partition; CompressedBytes is its resident
	// cold-tier footprint (0 for hot partitions).
	Cold            bool
	CompressedBytes int64
}

// Partitions snapshots the physical partitions of both tiers ordered by
// id.
func (t *Table) Partitions() []PartitionView {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]PartitionView, 0, len(t.segs)+len(t.cold))
	for pid, seg := range t.segs {
		// Clone the synopsis: callers read the views after the lock is
		// released, while inserts may keep mutating the segment's set.
		out = append(out, PartitionView{
			ID:       pid,
			Synopsis: seg.Synopsis().Clone(),
			Entities: seg.NumRecords(),
			Bytes:    seg.LiveBytes(),
			Pages:    seg.NumPages(),
		})
	}
	for pid, cs := range t.cold {
		out = append(out, PartitionView{
			ID:              pid,
			Synopsis:        cs.Synopsis().Clone(),
			Entities:        cs.NumRecords(),
			Bytes:           cs.LiveBytes(),
			Pages:           cs.NumPages(),
			Cold:            true,
			CompressedBytes: cs.CompressedBytes(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// MemberSynopses returns the attribute synopses of all entities in the
// given partition (for sparseness metrics), read from its presence
// matrix.
func (t *Table) MemberSynopses(pid core.PartitionID) []*synopsis.Set {
	t.mu.RLock()
	defer t.mu.RUnlock()
	var out []*synopsis.Set
	for _, loc := range t.rows {
		if loc.pid == pid {
			out = append(out, t.attrsLocked(loc))
		}
	}
	return out
}

// EntitySynopses returns the attribute synopses of all live entities.
func (t *Table) EntitySynopses() []*synopsis.Set {
	t.mu.RLock()
	defer t.mu.RUnlock()
	out := make([]*synopsis.Set, 0, len(t.rows))
	for _, loc := range t.rows {
		out = append(out, t.attrsLocked(loc))
	}
	return out
}

// attrsLocked reads the attribute set of the record at loc from its
// partition's presence matrix, in either tier, into a fresh set. Callers
// hold mu.
func (t *Table) attrsLocked(loc rowLoc) *synopsis.Set {
	if seg, hot := t.segs[loc.pid]; hot {
		return seg.Attrs(loc.rid, synopsis.New(0))
	}
	return t.cold[loc.pid].Attrs(loc.rid, synopsis.New(0))
}
