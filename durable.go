package cinderella

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sync"
	"sync/atomic"

	"cinderella/internal/core"
	"cinderella/internal/entity"
	"cinderella/internal/obs"
	"cinderella/internal/table"
	"cinderella/internal/wal"
)

// ErrClosed is returned by mutating operations, Sync, and Checkpoint on
// a closed DurableTable. Close itself is idempotent: closing twice is a
// no-op, which lets a server's drain path and a defer race safely.
var ErrClosed = errors.New("cinderella: durable table is closed")

// DurableTable is a Table backed by a write-ahead log. Every mutating
// operation is appended to the log before it is applied; OpenFile replays
// the log on startup, and because Cinderella's placement decisions are
// deterministic, the recovered partitioning matches the pre-crash one.
//
// Durability granularity: operations are buffered and made durable by
// Sync, Checkpoint, and Close. Call Sync after operations that must
// survive a crash, or use LastLSN/SyncTo to let a group committer
// acknowledge many concurrent writers with one fsync (see
// internal/server).
type DurableTable struct {
	*Table
	mu sync.Mutex
	// syncMu serializes SyncTo's out-of-lock fsync against writer swaps
	// (Checkpoint) and Close, so the file being fsynced cannot be closed
	// underneath the syscall. Lock order: syncMu before mu; never the
	// reverse.
	syncMu sync.Mutex
	w      *wal.Writer
	path   string
	logged int  // dictionary prefix this log registers (ids 0..logged-1)
	closed bool // set by Close; all later mutations return ErrClosed

	// LSN bookkeeping for group commit. An LSN counts WAL records
	// appended over the table's lifetime; base carries the count across
	// Checkpoint's writer swap (the new log starts at record 0 but every
	// pre-checkpoint LSN is durable by construction). appendLSN and
	// durableLSN are written under mu but read lock-free by SyncTo's
	// fast path and by monitoring.
	base       uint64
	appendLSN  atomic.Uint64
	durableLSN atomic.Uint64
}

// OpenFile opens (or creates) a durable table at path. An existing log
// is replayed first; cfg must match the configuration the log was
// written under, otherwise the recovered partitioning will be valid but
// different (documents and ids are still recovered exactly).
func OpenFile(path string, cfg Config) (*DurableTable, error) {
	t := Open(cfg)
	d := &DurableTable{Table: t, path: path}

	r, err := wal.Open(path)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	for {
		op, err := r.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("cinderella: replaying %s: %w", path, err)
		}
		if err := d.apply(op); err != nil {
			return nil, fmt.Errorf("cinderella: replaying %s: %w", path, err)
		}
	}

	// Restore the cold tier: verify every manifest-listed image and
	// re-freeze the listed partitions from the replayed rows. A corrupt
	// image refuses the open (see recoverTier).
	if err := d.recoverTier(); err != nil {
		return nil, err
	}

	// Cut a torn tail off before appending: records written behind it
	// would sit past the point where the next replay stops.
	if err := os.Truncate(path, r.Offset()); err != nil && !errors.Is(err, os.ErrNotExist) {
		return nil, err
	}
	w, err := wal.Create(path)
	if err != nil {
		return nil, err
	}
	if t.obsr != nil {
		w.SetObserver(t.obsr)
	}
	d.w = w
	return d, nil
}

// SetObserver attaches (or replaces) a telemetry registry, covering both
// the in-memory table and the WAL writer.
func (d *DurableTable) SetObserver(r *obs.Registry) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.Table.SetObserver(r)
	d.w.SetObserver(r)
}

// apply executes one replayed operation against the in-memory table.
func (d *DurableTable) apply(op wal.Op) error {
	switch op.Kind {
	case wal.KindAttr:
		// The log holds a dense prefix of the dictionary, which other
		// tables may share: ids arrive in order and must resolve to the
		// names they were logged under.
		if op.ID != uint64(d.logged) {
			return fmt.Errorf("attribute %q logged as id %d, want the next id %d", op.Data, op.ID, d.logged)
		}
		if got := d.dict.ID(string(op.Data)); got != d.logged {
			return fmt.Errorf("attribute %q replayed to id %d, logged as %d", op.Data, got, d.logged)
		}
		d.logged++
	case wal.KindInsert:
		e, err := d.decodeLogged(op.Data)
		if err != nil {
			return err
		}
		d.inner.InsertWithID(core.EntityID(op.ID), e)
	case wal.KindUpdate:
		e, err := d.decodeLogged(op.Data)
		if err != nil {
			return err
		}
		if !d.inner.Update(core.EntityID(op.ID), e) {
			return fmt.Errorf("update of unknown entity %d", op.ID)
		}
	case wal.KindDelete:
		if !d.inner.Delete(core.EntityID(op.ID)) {
			return fmt.Errorf("delete of unknown entity %d", op.ID)
		}
	case wal.KindCompact:
		d.inner.Compact(math.Float64frombits(op.ID))
	default:
		return fmt.Errorf("unknown op kind %d", op.Kind)
	}
	return nil
}

// decodeLogged decodes a replayed record, refusing one that uses an
// attribute id this log has not registered before it: in a shared
// dictionary that id could name anything.
func (d *DurableTable) decodeLogged(data []byte) (*entity.Entity, error) {
	e, _, err := entity.Unmarshal(data)
	if err != nil {
		return nil, err
	}
	if fs := e.Fields(); len(fs) > 0 && fs[len(fs)-1].Attr >= d.logged {
		return nil, fmt.Errorf("record uses attribute id %d, but the log registered only %d", fs[len(fs)-1].Attr, d.logged)
	}
	return e, nil
}

// appendRecord logs one record carrying entity bytes. Every name the
// dictionary assigned since this log's last registration goes first, so
// the log stays a dense prefix of the dictionary and a name always
// precedes (and is fsynced with) the first record that uses it. Callers
// hold d.mu.
func (d *DurableTable) appendRecord(kind wal.Kind, id ID, data []byte) error {
	for n := d.dict.Len(); d.logged < n; d.logged++ {
		err := d.w.Append(wal.Op{Kind: wal.KindAttr, ID: uint64(d.logged), Data: []byte(d.dict.Name(d.logged))})
		if err != nil {
			return err
		}
	}
	if err := d.w.Append(wal.Op{Kind: kind, ID: uint64(id), Data: data}); err != nil {
		return err
	}
	d.noteAppend()
	return nil
}

// noteAppend refreshes the append LSN after one or more successful WAL
// appends. Callers hold d.mu.
func (d *DurableTable) noteAppend() {
	d.appendLSN.Store(d.base + d.w.Seq())
}

// noteSynced refreshes the durable LSN after a successful sync (or a
// close/checkpoint, which imply one). Callers hold d.mu.
func (d *DurableTable) noteSynced() {
	d.durableLSN.Store(d.base + d.w.Synced())
}

// Insert stores doc durably and returns its id.
func (d *DurableTable) Insert(doc Doc) (ID, error) {
	return d.InsertEntity(d.toEntity(doc))
}

// InsertWithID stores doc durably under a caller-chosen id. Like
// Table.InsertWithID it panics if id is zero or already live — callers
// (the sharded router, which allocates ids from a global counter before
// routing) own id uniqueness.
func (d *DurableTable) InsertWithID(id ID, doc Doc) error {
	return d.InsertEntityWithID(id, d.toEntity(doc))
}

// InsertEntity stores a pre-built entity durably (see Table.InsertEntity
// for the id-space contract) and returns its id. The binary wire path
// uses it so a decoded record goes straight into the table and the WAL
// without a Doc round trip. The entity is not retained.
func (d *DurableTable) InsertEntity(e *entity.Entity) (ID, error) {
	if err := d.Table.checkEntityAttrs(e); err != nil {
		return 0, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return 0, ErrClosed
	}
	// The id the table assigns is deterministic; log after applying so
	// the id is known, then the caller syncs when durability matters.
	id := d.inner.Insert(e)
	if err := d.appendRecord(wal.KindInsert, id, e.Marshal(nil)); err != nil {
		return 0, err
	}
	return id, nil
}

// InsertEntityWithID stores a pre-built entity durably under a
// caller-chosen id (the sharded router's binary ingest path). Like
// InsertWithID it panics if id is zero or already live.
func (d *DurableTable) InsertEntityWithID(id ID, e *entity.Entity) error {
	if err := d.Table.checkEntityAttrs(e); err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	d.inner.InsertWithID(id, e)
	return d.appendRecord(wal.KindInsert, id, e.Marshal(nil))
}

// UpdateEntity replaces a document durably with a pre-built entity.
func (d *DurableTable) UpdateEntity(id ID, e *entity.Entity) (bool, error) {
	if err := d.Table.checkEntityAttrs(e); err != nil {
		return false, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return false, ErrClosed
	}
	if !d.inner.Update(id, e) {
		return false, nil
	}
	if err := d.appendRecord(wal.KindUpdate, id, e.Marshal(nil)); err != nil {
		return false, err
	}
	return true, nil
}

// Update replaces the document durably.
func (d *DurableTable) Update(id ID, doc Doc) (bool, error) {
	return d.UpdateEntity(id, d.toEntity(doc))
}

// Delete removes the document durably.
func (d *DurableTable) Delete(id ID) (bool, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return false, ErrClosed
	}
	if !d.inner.Delete(id) {
		return false, nil
	}
	if err := d.w.Append(wal.Op{Kind: wal.KindDelete, ID: uint64(id)}); err != nil {
		return false, err
	}
	d.noteAppend()
	return true, nil
}

// Compact merges underfilled partitions durably: the operation is logged
// so recovery reproduces the merged layout.
func (d *DurableTable) Compact(threshold float64) (int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return 0, ErrClosed
	}
	n := d.inner.Compact(threshold)
	if n == 0 {
		return 0, nil
	}
	err := d.w.Append(wal.Op{Kind: wal.KindCompact, ID: math.Float64bits(threshold)})
	if err == nil {
		d.noteAppend()
	}
	return n, err
}

// ReclusterPartition re-rates up to max members of one victim
// partition against the workload-blended objective, logging every
// entity that moved as a WAL update op so recovery replays it (replay
// re-places the entity with the plain attribute rating — a valid,
// possibly different partition; contents and liveness are exact).
// Locking and logging are per entity: concurrent writers interleave
// between moves instead of stalling for the whole batch.
func (d *DurableTable) ReclusterPartition(pid uint64, max int, blender core.RatingBlender) (table.ReclusterResult, error) {
	members := d.inner.PartitionMembers(core.PartitionID(pid))
	if max > 0 && len(members) > max {
		members = members[:max]
	}
	var res table.ReclusterResult
	for _, id := range members {
		d.mu.Lock()
		if d.closed {
			d.mu.Unlock()
			return res, ErrClosed
		}
		mv, examined, moved := d.inner.ReclusterEntity(id, core.PartitionID(pid), blender)
		if examined {
			res.Examined++
		}
		if moved {
			if err := d.appendRecord(wal.KindUpdate, mv.ID, mv.Data); err != nil {
				d.mu.Unlock()
				return res, err
			}
			res.Moved++
			res.Moves = append(res.Moves, mv)
		}
		d.mu.Unlock()
	}
	return res, nil
}

// Sync makes all appended operations durable.
func (d *DurableTable) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	if err := d.w.Sync(); err != nil {
		return err
	}
	d.noteSynced()
	return nil
}

// LastLSN returns the log sequence number of the most recent append. A
// writer that just mutated the table reads LastLSN and passes it to
// SyncTo (or a group committer) to wait for exactly that much history to
// become durable. LSNs are monotonic across Checkpoint.
func (d *DurableTable) LastLSN() uint64 { return d.appendLSN.Load() }

// DurableLSN returns the highest LSN known durable: every operation
// appended at or before it has been fsynced (or captured by a
// checkpoint).
func (d *DurableTable) DurableLSN() uint64 { return d.durableLSN.Load() }

// SyncTo makes every operation appended at or before lsn durable. When a
// concurrent SyncTo, Sync, or Checkpoint already covered lsn it returns
// immediately without touching the file — the coalescing that makes
// group commit turn N concurrent fsyncs into one. The fsync itself runs
// outside the table lock, so concurrent mutations proceed during the
// disk wait and pile into the next batch. Calling SyncTo on a closed
// table succeeds if lsn was already durable (Close syncs), and returns
// ErrClosed otherwise.
func (d *DurableTable) SyncTo(lsn uint64) error {
	if d.durableLSN.Load() >= lsn {
		return nil
	}
	// syncMu keeps the writer alive across the out-of-lock fsync:
	// Checkpoint and Close, which swap or close the file, queue behind
	// it. It also serializes concurrent SyncTo callers, though the
	// committer normally funnels them into one goroutine anyway.
	d.syncMu.Lock()
	defer d.syncMu.Unlock()
	if d.durableLSN.Load() >= lsn {
		return nil
	}
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return ErrClosed
	}
	w := d.w
	seq, err := w.Flush()
	d.mu.Unlock()
	if err != nil {
		return err
	}
	if err := w.SyncFile(); err != nil {
		return err
	}
	d.mu.Lock()
	w.MarkSynced(seq)
	d.noteSynced()
	d.mu.Unlock()
	return nil
}

// Checkpoint compacts the log to the current live contents: attribute
// registrations followed by one insert per live document. Ids are
// preserved. The log shrinks to O(live data) regardless of history.
func (d *DurableTable) Checkpoint() error {
	d.syncMu.Lock() // wait out any in-flight SyncTo fsync before swapping the writer
	defer d.syncMu.Unlock()
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return ErrClosed
	}
	if err := d.w.Sync(); err != nil {
		return err
	}
	// A shared dictionary may grow while this runs: log the prefix as
	// it stands now and count exactly that.
	n := d.dict.Len()
	var ops []wal.Op
	for i := 0; i < n; i++ {
		ops = append(ops, wal.Op{Kind: wal.KindAttr, ID: uint64(i), Data: []byte(d.dict.Name(i))})
	}
	for _, r := range d.inner.ScanAll() {
		ops = append(ops, wal.Op{Kind: wal.KindInsert, ID: uint64(r.ID), Data: r.Entity.Marshal(nil)})
	}
	if err := d.w.Close(); err != nil {
		return err
	}
	if err := wal.Rewrite(d.path, ops); err != nil {
		return err
	}
	w, err := wal.Create(d.path)
	if err != nil {
		return err
	}
	if d.obsr != nil {
		w.SetObserver(d.obsr)
	}
	d.w = w
	d.logged = n
	// The rewritten log captured everything ever appended: carry the LSN
	// clock across the writer swap and mark all of it durable.
	d.base = d.appendLSN.Load()
	d.durableLSN.Store(d.base)
	// Reconcile the tier manifest with the live frozen set (implicit
	// thaws leave it over-reporting until now) and refresh the images.
	frozen := d.inner.FrozenPartitions()
	pids := make([]uint64, len(frozen))
	for i, p := range frozen {
		pids[i] = uint64(p)
	}
	return d.persistTier(pids...)
}

// Close syncs and closes the log. The table remains readable in memory.
// Close is idempotent — a second Close is a no-op returning nil — and
// safe to race with Sync, Checkpoint, and mutations: whoever loses the
// race to a completed Close gets ErrClosed.
func (d *DurableTable) Close() error {
	d.syncMu.Lock() // wait out any in-flight SyncTo fsync before closing the file
	defer d.syncMu.Unlock()
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return nil
	}
	d.closed = true
	err := d.w.Close()
	if err == nil {
		d.noteSynced()
	}
	return err
}
